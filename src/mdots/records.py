"""Run-record persistence and plot-ready CSV emission.

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
from dataclasses import asdict

from .thompson import SCHEMA_VERSION, IterationEntry, RunRecord

__all__ = [
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


def save_run_record(record: RunRecord, path: str) -> None:
    """Write atomically: records never appear half-written next to live readers."""
    lines = [
        {
            "kind": "header",
            "schema_version": record.schema_version,
            "problem": record.problem,
            "replicate": record.replicate,
            "config": record.config,
        },
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
    header = None
    doe = None
    iterations = []
    final = None
    timing = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            kind = obj.pop("kind")
            if kind == "header":
                header = obj
            elif kind == "doe":
                doe = obj["sets"]
            elif kind == "iteration":
                iterations.append(IterationEntry(**obj))
            elif kind == "final":
                final = obj
            elif kind == "timing":
                timing = obj
            else:
                raise ValueError(f"unknown record line kind {kind!r}")
    if header is None or doe is None or final is None or timing is None:
        raise ValueError("incomplete run record")
    if header["schema_version"] != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {header['schema_version']}")
    return RunRecord(
        schema_version=header["schema_version"],
        problem=header["problem"],
        replicate=header["replicate"],
        config=header["config"],
        doe=doe,
        iterations=iterations,
        final_z=final["z"],
        final_value=final["value"],
        timing=timing,
    )


def records_equal(a: RunRecord, b: RunRecord, ignore_timing: bool = True) -> bool:
    da, db = asdict(a), asdict(b)
    if ignore_timing:
        da.pop("timing")
        db.pop("timing")
    return da == db


def load_records_dir(directory: str):
    """All readable records in a directory, sorted by replicate; plus skip count.

    An entry that cannot be opened or read (a directory named like a record,
    a file without read permission) is skipped and counted like a malformed one.
    """
    paths = sorted(p for p in os.listdir(directory) if p.endswith(".ndjson"))
    records = []
    skipped = 0
    for p in paths:
        try:
            records.append(load_run_record(os.path.join(directory, p)))
        except (OSError, ValueError, KeyError, TypeError, RecursionError):  # json.JSONDecodeError is a ValueError
            skipped += 1
    records.sort(key=lambda r: r.replicate)
    return records, skipped


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
