"""Command-line front end: single runs, replicate studies, reports, references.

Every flag can also be supplied through a JSON config file (keys are the
flag names with underscores); explicit flags override file values.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from .records import load_records_dir, write_summary_csv, write_trace_csv
from .study import ExperimentConfig, build_problem, resolve_reference, run_replicate, run_study, summarize_study
from .thompson import PROBLEMS

__all__ = ["main"]

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}

# CLI flag name -> config field for the flags that do not match 1:1.
_ALIASES = {"features": "n_features"}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file with defaults for any flag")
    parser.add_argument("--problem", choices=PROBLEMS)
    parser.add_argument("--external-cmd", help="path to an external problem spec (JSON)")
    parser.add_argument("--n-doe", type=int)
    parser.add_argument("--n-iter", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--features", type=int, help="basis functions per sample path")
    parser.add_argument("--out", help="records directory")
    parser.add_argument("--workers", type=int)
    parser.add_argument("--recompute-reference", action="store_true", default=None)


def _resolve_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> ExperimentConfig:
    merged: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"--config: cannot read {args.config}: {exc}")
        if not isinstance(file_cfg, dict):
            parser.error(f"--config: {args.config} must hold a JSON object of settings")
        for key, value in file_cfg.items():
            field = _ALIASES.get(key, key)
            if field not in _CONFIG_FIELDS:
                parser.error(f"--config: unknown setting {key!r}")
            merged[field] = value
    for key, value in vars(args).items():
        field = _ALIASES.get(key, key)
        if field in _CONFIG_FIELDS and value is not None:
            merged[field] = value
    try:
        return ExperimentConfig(**merged)
    except (TypeError, ValueError) as exc:
        parser.error(str(exc))


def _cmd_run(args, parser) -> int:
    cfg = dataclasses.replace(_resolve_config(args, parser), repeat=1)  # a run's header promises no replicates
    started = time.perf_counter()
    record = run_replicate(cfg, 0, out_dir=cfg.out)
    elapsed = time.perf_counter() - started
    budget = record.evaluations_per_discipline()
    z = ", ".join(f"{v: .6f}" for v in record.final_z)
    print(f"problem={record.problem} z_star=[{z}] objective={record.final_value:.6f}")
    print(f"evaluations_per_discipline={budget} wall_seconds={elapsed:.2f}")
    print(f"record={os.path.join(cfg.out, 'run_0.ndjson')}")
    return 0


def _cmd_study(args, parser) -> int:
    cfg = _resolve_config(args, parser)
    # Made before any replicate runs: the summary needs it even when no record is saved, and an --out
    # that names a file fails here, not after every replicate.
    os.makedirs(cfg.out, exist_ok=True)
    started = time.perf_counter()
    records, summary = run_study(cfg, out_dir=cfg.out)
    elapsed = time.perf_counter() - started
    summary_path = os.path.join(cfg.out, "summary.csv")
    write_summary_csv(summary, summary_path)
    print(f"problem={summary.problem} runs={summary.n_runs} converged={summary.n_converged}")
    for var in summary.variables:
        mean = "-" if var.mean_converged is None else f"{var.mean_converged:.6f}"
        err = "-" if var.mean_abs_pct_err is None else f"{var.mean_abs_pct_err:.4f}%"
        print(f"  {var.name:>10}: reference={var.reference:.6f} mean={mean} abs_err={err}")
    print(f"summary={summary_path} wall_seconds={elapsed:.2f}")
    return 0


def _cmd_report(args, parser) -> int:
    records_dir = args.records_dir
    out_dir = args.out or records_dir
    if not os.path.isdir(records_dir):
        print(f"error: {records_dir} is not a directory", file=sys.stderr)
        return 1
    records, skipped = load_records_dir(records_dir)
    if not records:
        print(f"error: no records found in {records_dir}", file=sys.stderr)
        return 1
    summary = summarize_study(ExperimentConfig.from_dict(records[0].config), records)
    os.makedirs(out_dir, exist_ok=True)
    for record in records:
        write_trace_csv(record, os.path.join(out_dir, f"trace_run_{record.replicate}.csv"))
    aggregate_path = os.path.join(out_dir, "aggregate.csv")
    write_summary_csv(summary, aggregate_path)
    print(f"traces={len(records)} aggregate={aggregate_path} skipped={skipped}")
    if skipped:
        print(f"warning: skipped {skipped} malformed or unreadable record file(s) or repeated replicate(s)", file=sys.stderr)
    return 0


def _cmd_reference(args, parser) -> int:
    cfg = _resolve_config(args, parser)
    with build_problem(cfg) as problem:
        reference = resolve_reference(problem, recompute=cfg.recompute_reference)
    z = ", ".join(f"{v: .6f}" for v in np.atleast_1d(reference.z))
    print(f"problem={problem.problem_id} z_star=[{z}] objective={reference.objective:.6f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mdots", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one optimization run")
    _add_common(p_run)
    p_run.set_defaults(handler=_cmd_run)

    p_study = sub.add_parser("study", help="independent replicates plus a summary table")
    _add_common(p_study)
    p_study.add_argument("--repeat", type=int)
    p_study.set_defaults(handler=_cmd_study)

    p_report = sub.add_parser("report", help="emit per-run traces and the aggregate table")
    p_report.add_argument("records_dir", help="directory holding run_<k>.ndjson files")
    p_report.add_argument("--out", help="output directory (defaults to the records directory)")
    p_report.set_defaults(handler=_cmd_report)

    p_ref = sub.add_parser("reference", help="print (or recompute) the reference optimum")
    _add_common(p_ref)
    p_ref.set_defaults(handler=_cmd_reference)

    args = parser.parse_args(argv)
    try:
        return args.handler(args, parser)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
