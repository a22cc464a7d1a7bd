"""A paired quality verdict on two study directories made on the same seeds.

``mdots compare BASE_DIR CHANGE_DIR`` pairs the records of two studies of
one problem and one set of settings (``out`` and ``workers`` aside) by
replicate, judges each record as ``study.summarize_study`` does, and asks
whether the change converges less often than the base. With ``b`` the
replicates converged in the base only and ``c`` those converged in the
change only, the exact one-sided McNemar p-value is ``P(X >= b)`` for
``X ~ Bin(b + c, 1/2)``; the verdict passes when it is at least ``ALPHA``.
A replicate without a record on one side counts as not converged there.
"""

from __future__ import annotations

import csv
import math
import statistics
from dataclasses import asdict, dataclass

from .study import ExperimentConfig, abs_pct_err, judge_study

__all__ = ["ALPHA", "COMPARE_COLUMNS", "Comparison", "wilson_interval", "mcnemar_p", "paired_config",
           "compare_records", "write_compare_csv"]

ALPHA = 0.05
# The standard normal quantile of 0.975, for 95 % intervals.
Z_95 = 1.959963984540054
# Settings two paired studies may differ in: neither can change a record.
UNPAIRED_SETTINGS = ("out", "workers")
SIDES = ("base", "change")

COMPARE_COLUMNS = [
    "problem", "n_runs", "n_paired",
    "base_converged", "base_wilson_low", "base_wilson_high",
    "change_converged", "change_wilson_low", "change_wilson_high",
    "b", "c", "mcnemar_p", "verdict",
    "base_mean_abs_rel_err_pct", "change_mean_abs_rel_err_pct",
    "base_median_abs_rel_err_pct", "change_median_abs_rel_err_pct",
    "base_mean_evaluations", "change_mean_evaluations",
    "base_median_evaluations", "change_median_evaluations",
    "lost", "gained",
]


def wilson_interval(k: int, n: int) -> tuple[float, float]:
    """Wilson's 95 % score interval for ``k`` successes in ``n`` trials."""
    p = k / n
    centre = p + Z_95 * Z_95 / (2 * n)
    half = Z_95 * math.sqrt(p * (1 - p) / n + Z_95 * Z_95 / (4 * n * n))
    scale = 1 + Z_95 * Z_95 / n
    return max(0.0, (centre - half) / scale), min(1.0, (centre + half) / scale)


def mcnemar_p(b: int, c: int) -> float:
    """Exact one-sided McNemar p-value ``P(X >= b)``, ``X ~ Bin(b + c, 1/2)``: evidence that the change loses."""
    n = b + c
    return sum(math.comb(n, i) for i in range(b, n + 1)) / 2**n


def _settings(cfg: ExperimentConfig) -> dict:
    return {name: value for name, value in asdict(cfg).items() if name not in UNPAIRED_SETTINGS}


def paired_config(**record_sets) -> ExperimentConfig:
    """The config of the first set's first record, read through ``ExperimentConfig.from_dict``.

    Each keyword names a set of records. A set without records, or a record
    run with other settings (``out`` and ``workers`` aside), is a ValueError
    that names its set.
    """
    for side, records in record_sets.items():
        if not records:
            raise ValueError(f"no records in the {side} directory")
    first = next(iter(record_sets))
    cfg = ExperimentConfig.from_dict(record_sets[first][0].config)
    want = _settings(cfg)
    for side, records in record_sets.items():
        for record in records:
            got = _settings(ExperimentConfig.from_dict(record.config))
            differ = [f"{name}={got[name]!r} ({first} {want[name]!r})" for name in want if got[name] != want[name]]
            if differ:
                raise ValueError(f"{side} replicate {record.replicate} was run with other settings: {', '.join(differ)}")
    return cfg


@dataclass
class Comparison:
    """Two studies' records of one problem, paired by replicate and judged."""

    problem: str
    n_runs: int
    converged: dict  # side ("base" or "change") -> converged count
    lost: list  # replicates converged in the base only (b of them)
    gained: list  # replicates converged in the change only (c of them)
    n_paired: int  # replicates with a finite true objective on both sides, over which the paired figures run
    abs_rel_err_pct: dict  # side -> [mean, median], or None with no paired replicate
    evaluations: dict  # side -> [mean, median] true evaluations per run, or None

    @property
    def p_value(self) -> float:
        return mcnemar_p(len(self.lost), len(self.gained))

    @property
    def passed(self) -> bool:
        return self.p_value >= ALPHA

    def interval(self, side: str) -> tuple[float, float]:
        return wilson_interval(self.converged[side], self.n_runs)


def _mean_median(values):
    return [statistics.fmean(values), statistics.median(values)] if values else None


def compare_records(cfg: ExperimentConfig, base_records, change_records) -> Comparison:
    """Judge both sides' records by ``study.judge_study`` and pair them by replicate."""
    problem, reference, judged, replicates = judge_study(cfg, base_records, change_records)
    base, change = ({k for k, (_, _, ok) in side.items() if ok} for side in judged)
    paired = [k for k in replicates if all(k in side and math.isfinite(side[k][1]) for side in judged)]
    ref = reference.objective
    errors, evaluations = {}, {}
    for name, side in zip(SIDES, judged):
        errors[name] = _mean_median([abs_pct_err(ref, side[k][1]) for k in paired])
        evaluations[name] = _mean_median([sum(side[k][0].evaluations_per_discipline()) for k in paired])
    return Comparison(
        problem=problem.problem_id,
        n_runs=len(replicates),
        converged={"base": len(base), "change": len(change)},
        lost=sorted(base - change),
        gained=sorted(change - base),
        n_paired=len(paired),
        abs_rel_err_pct=errors,
        evaluations=evaluations,
    )


def write_compare_csv(comparison: Comparison, path: str) -> None:
    """One row in ``COMPARE_COLUMNS``; the lost and gained replicates are space-separated indices."""
    c = comparison

    def pair(figures, i):
        return ["" if figures[side] is None else repr(figures[side][i]) for side in SIDES]

    row = [c.problem, c.n_runs, c.n_paired,
           *(v for side in SIDES for v in (c.converged[side], *map(repr, c.interval(side)))),
           len(c.lost), len(c.gained), repr(c.p_value), "pass" if c.passed else "fail",
           *pair(c.abs_rel_err_pct, 0), *pair(c.abs_rel_err_pct, 1),
           *pair(c.evaluations, 0), *pair(c.evaluations, 1),
           " ".join(map(str, c.lost)), " ".join(map(str, c.gained))]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(COMPARE_COLUMNS)
        writer.writerow(row)
