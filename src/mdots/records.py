"""The run record: its types, its file format and plot-ready CSV emission.

Records are line-delimited JSON (one object per line, same syntax as the
subprocess wire protocol) with an explicit schema version, so files are
diff-able and append-safe. Floats round-trip exactly through json's repr
formatting.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from dataclasses import asdict, dataclass, replace

__all__ = [
    "SCHEMA_VERSION",
    "IterationEntry",
    "RunRecord",
    "save_run_record",
    "load_run_record",
    "records_equal",
    "load_records_dir",
    "write_trace_csv",
    "write_summary_csv",
    "SUMMARY_COLUMNS",
    "TRACE_COLUMNS",
]

TRACE_COLUMNS = ["iteration", "discipline", "random_value", "best_value"]
SUMMARY_COLUMNS = ["problem", "n_runs", "n_converged", "variable", "reference", "mean_converged", "mean_abs_pct_err"]
SCHEMA_VERSION = 1


@dataclass
class IterationEntry:
    """One inner step: proposal, coupling state, true evaluation, refinement flag."""

    iteration: int
    discipline: int
    z_hat: list
    y_hat: list
    y_refine: list
    clamped: bool
    mda_status: str
    random_value: float
    y_true: list | None
    refined: bool


@dataclass
class RunRecord:
    """Everything one run produced, JSON-ready (plain lists and floats)."""

    schema_version: int
    problem: str
    replicate: int
    config: dict
    doe: list
    iterations: list
    final_z: list
    final_value: float
    timing: dict

    def evaluations_per_discipline(self) -> list[int]:
        counts = [len(d["inputs"]) for d in self.doe]
        for entry in self.iterations:
            if entry.refined:
                counts[entry.discipline] += 1
        return counts


def _number(value) -> bool:
    return type(value) in (int, float)  # a JSON ``true`` is no number


def _numbers(value) -> bool:
    return type(value) is list and all(map(_number, value))


# The type of each field a line holds, as the writer writes it; a predicate where no one type says it.
_HEADER_TYPES = {"schema_version": int, "problem": str, "replicate": int, "config": dict}
_ITERATION_TYPES = {
    "iteration": int, "discipline": int, "z_hat": _numbers, "y_hat": _numbers, "y_refine": _numbers, "clamped": bool,
    "mda_status": str, "random_value": _number, "y_true": lambda v: v is None or _numbers(v), "refined": bool,
}
_FINAL_TYPES = {"z": _numbers, "value": _number}


def _typed(kind: str, obj: dict, types: dict) -> dict:
    """The fields of a ``kind`` line; a missing field, one not in ``types`` or one of a wrong type is a ValueError."""
    if obj.keys() != types.keys():
        raise ValueError(f"record {kind} line lacks or adds the fields {sorted(obj.keys() ^ types.keys())}")
    for key, want in types.items():
        if not (type(obj[key]) is want if isinstance(want, type) else want(obj[key])):
            raise ValueError(f"record {kind} line has {key} of the wrong type: {obj[key]!r}")
    return obj


# Each line kind a record holds once, and the ``RunRecord`` fields it fills.
_SLOTS = {
    "header": lambda obj: _typed("header", obj, _HEADER_TYPES),
    "doe": lambda obj: {"doe": _typed("doe", obj, {"sets": list})["sets"]},
    "final": lambda obj: {f"final_{key}": value for key, value in _typed("final", obj, _FINAL_TYPES).items()},
    "timing": lambda obj: {"timing": obj},
}


def save_run_record(record: RunRecord, path: str) -> None:
    """Write atomically: records never appear half-written next to live readers."""
    lines = [
        {"kind": "header", **{key: getattr(record, key) for key in _HEADER_TYPES}},
        {"kind": "doe", "sets": record.doe},
    ]
    lines.extend({"kind": "iteration", **asdict(entry)} for entry in record.iterations)
    lines.append({"kind": "final", "z": record.final_z, "value": record.final_value})
    lines.append({"kind": "timing", **record.timing})

    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            for obj in lines:
                fh.write(json.dumps(obj) + "\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_run_record(path: str) -> RunRecord:
    """The record a file holds; a malformed line, or a line kind unknown, repeated or missing, is a ValueError."""
    slots = {}
    iterations = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except RecursionError:
                raise ValueError(f"record line nests too deeply: {line.strip()[:40]}") from None
            if type(obj) is not dict:
                raise ValueError(f"record line is not a JSON object: {line.strip()[:40]}")
            kind = obj.pop("kind", None)
            if kind == "iteration":
                iterations.append(IterationEntry(**_typed(kind, obj, _ITERATION_TYPES)))
            elif type(kind) is not str or kind not in _SLOTS:
                raise ValueError(f"unknown record line kind {kind!r}")
            elif kind in slots:
                raise ValueError(f"run record has a second {kind} line")
            else:
                slots[kind] = _SLOTS[kind](obj)
    missing = [kind for kind in _SLOTS if kind not in slots]
    if missing:
        raise ValueError(f"incomplete run record: no {', '.join(missing)} line")
    record = RunRecord(iterations=iterations, **{name: v for fields in slots.values() for name, v in fields.items()})
    if record.schema_version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {record.schema_version}")
    return record


def records_equal(a: RunRecord, b: RunRecord, ignore_timing: bool = True) -> bool:
    if ignore_timing:
        a, b = replace(a, timing={}), replace(b, timing={})
    return a == b


def load_records_dir(directory: str):
    """The readable records in a directory, one per replicate and sorted by replicate; plus skip count.

    An entry that cannot be opened or read (a directory named like a record,
    a file without read permission) is skipped and counted like a malformed one.
    So is a file of a replicate that a file earlier in name order already holds.
    """
    paths = sorted(p for p in os.listdir(directory) if p.endswith(".ndjson"))
    by_replicate = {}
    for p in paths:
        try:
            record = load_run_record(os.path.join(directory, p))
        except (OSError, ValueError):  # json.JSONDecodeError is a ValueError
            continue
        by_replicate.setdefault(record.replicate, record)
    # Every file not kept was skipped: unreadable, malformed or a repeat.
    return [by_replicate[k] for k in sorted(by_replicate)], len(paths) - len(by_replicate)


def write_trace_csv(record: RunRecord, path: str) -> None:
    """Per-iteration penalized values of the random solves with a running best."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        best = float("inf")
        for entry in record.iterations:
            best = min(best, entry.random_value)
            writer.writerow([entry.iteration, entry.discipline, repr(entry.random_value), repr(best)])


def write_summary_csv(summary, path: str) -> None:
    """One row per variable; counts repeat on every row for flat consumption."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for var in summary.variables:
            writer.writerow(
                [
                    summary.problem,
                    summary.n_runs,
                    summary.n_converged,
                    var.name,
                    repr(var.reference),
                    "" if var.mean_converged is None else repr(var.mean_converged),
                    "" if var.mean_abs_pct_err is None else repr(var.mean_abs_pct_err),
                ]
            )
