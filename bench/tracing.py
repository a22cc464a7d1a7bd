"""In-memory spans around calls into each mdots module, recorded from outside.

A hook rebinds a name where its caller looks it up: ``mdots.thompson.eval_path``,
not ``mdots.paths.eval_path``, because each module binds the functions it
imports when it is loaded. Patching only the defining module records nothing.
Methods are patched on their class, which is where instances look them up.

A span is ``[name, start, end, parent, op, attrs]``; ``attrs`` holds the
work counts taken at the same boundary. Self time is a span's duration minus
the duration of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from mdots.gp import DEFAULT_NUGGET
from mdots.mda import MdaStatus


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _rows(x) -> int:
    x = np.asarray(x)
    return 1 if x.ndim == 1 else x.shape[0]


def _fit_attrs(args, kwargs, result):
    return {"n": _rows(args[0]), "escalated": result.params.nugget > kwargs.get("nugget", DEFAULT_NUGGET)}


def _eval_attrs(args, kwargs, result):
    return {"rows": _rows(args[1]), "features": args[0].features.n_features}


def _mda_attrs(args, kwargs, result):
    return {
        "rows": int(result.status.size),
        "sweeps": int(result.iterations.sum()),
        "unconverged": int(np.count_nonzero(result.status == int(MdaStatus.MAX_ITERATIONS))),
        "failed": int(np.count_nonzero(result.status == int(MdaStatus.EVALUATOR_FAILURE))),
    }


def _de_attrs(args, kwargs, result):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    return {
        "generations": result.generations,
        "evaluations": result.evaluations,
        "capped": result.generations >= cfg.max_generations,
    }


def _external_attrs(args, kwargs, result):
    return {"rows": _rows(args[1]), "failed": int(np.count_nonzero(~np.isfinite(result).all(axis=1)))}


# (module, attribute path, span name, counts taken from (args, kwargs, result))
HOOKS = [
    ("mdots.thompson", "fit", "gp.fit", _fit_attrs),
    ("mdots.thompson", "posterior_mean", "gp.posterior_mean", None),
    ("mdots.thompson", "draw_path", "paths.draw", None),
    ("mdots.thompson", "eval_path", "paths.eval", _eval_attrs),
    ("mdots.evolution", "solve_batch", "mda.solve_batch", _mda_attrs),
    ("mdots.mda", "solve_batch", "mda.solve_batch", _mda_attrs),
    ("mdots.thompson", "de_minimize", "evolution.de", _de_attrs),
    ("mdots.study", "de_minimize", "evolution.de", _de_attrs),
    ("mdots.thompson", "gauss_seidel_solve", "thompson.resolve", None),
    ("mdots.external", "ExternalDiscipline.__call__", "external.call", _external_attrs),
    ("mdots.study", "save_run_record", "records.save", None),
    ("mdots.records", "load_run_record", "records.load", None),
    ("mdots.study", "summarize", "study.summarize", None),
    ("mdots.study", "resolve_reference", "study.reference", None),
    ("mdots.problems", "MdoProblem.true_objective", "problems.true_objective", None),
]
# Factories whose product is spanned: the penalized objective handed to DE.
OBJECTIVE_FACTORIES = [("mdots.thompson", "penalized_mdo_objective"), ("mdots.study", "penalized_mdo_objective")]


def _spanned(tracer: Tracer, name: str, fn, attrs=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if attrs is not None:
            tracer.spans[idx][5] = attrs(args, kwargs, result)
        return result

    return traced


def _objective_factory(tracer: Tracer, factory):
    @functools.wraps(factory)
    def traced_factory(*args, **kwargs):
        return _spanned(tracer, "evolution.objective", factory(*args, **kwargs))

    return traced_factory


def _owner(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def installed(tracer: Tracer):
    """Rebind every hooked name for the duration of the block."""
    saved = []
    try:
        for module, path, name, attrs in HOOKS:
            owner, attr = _owner(module, path)
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, _spanned(tracer, name, getattr(owner, attr), attrs))
        for module, path in OBJECTIVE_FACTORIES:
            owner, attr = _owner(module, path)
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, _objective_factory(tracer, getattr(owner, attr)))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _op_spans(tracer: Tracer, op) -> dict:
    """The spans of one operation, keyed by their index (which ``parent`` refers to)."""
    return {i: s for i, s in enumerate(tracer.spans) if s[4] == op}


def self_times(spans: dict) -> dict:
    """Self seconds per span name."""
    child = defaultdict(float)
    for name, start, end, parent, _op, _attrs in spans.values():
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(float)
    for idx, (name, start, end, _parent, _op, _attrs) in spans.items():
        out[name] += end - start - child[idx]
    return dict(out)


def layer_metrics(tracer: Tracer, op) -> dict:
    """Every span-derived per-layer metric of one traced operation."""
    spans = _op_spans(tracer, op)
    self_s = self_times(spans)
    groups = defaultdict(list)
    for s in spans.values():
        groups[s[0]].append(s)

    def total(name):
        return sum(s[2] - s[1] for s in groups[name])

    def attr_sum(name, key):
        return sum(s[5][key] for s in groups[name])

    fits = groups["gp.fit"]
    fit_ms = [(s[2] - s[1]) * 1e3 for s in fits]
    rows = attr_sum("paths.eval", "rows")
    cos = sum(s[5]["rows"] * s[5]["features"] for s in groups["paths.eval"])
    mda_rows = attr_sum("mda.solve_batch", "rows")
    sweeps = attr_sum("mda.solve_batch", "sweeps")
    de = groups["evolution.de"]
    ext_rows = attr_sum("external.call", "rows")
    return {
        "gp.fit_calls": len(fits),
        "gp.fit_s": total("gp.fit"),
        "gp.fit_ms_median": statistics.median(fit_ms) if fit_ms else 0.0,
        "gp.fit_n_max": max((s[5]["n"] for s in fits), default=0),
        "gp.nugget_escalations": sum(s[5]["escalated"] for s in fits),
        "gp.posterior_mean_s": total("gp.posterior_mean"),
        "paths.draw_s": total("paths.draw"),
        "paths.eval_calls": len(groups["paths.eval"]),
        "paths.eval_rows": rows,
        "paths.eval_s": total("paths.eval"),
        "paths.eval_us_per_row": ratio(total("paths.eval") * 1e6, rows),
        "paths.eval_cos_count": cos,
        "paths.eval_phase_bytes": cos * 8,
        "mda.solve_calls": len(groups["mda.solve_batch"]),
        "mda.rows": mda_rows,
        "mda.sweeps": sweeps,
        "mda.sweeps_per_row": ratio(sweeps, mda_rows),
        "mda.unconverged_frac": ratio(attr_sum("mda.solve_batch", "unconverged"), mda_rows),
        "mda.failed_rows": attr_sum("mda.solve_batch", "failed"),
        "mda.self_s": self_s.get("mda.solve_batch", 0.0),
        "evolution.de_calls": len(de),
        "evolution.generations": attr_sum("evolution.de", "generations"),
        "evolution.evaluations": attr_sum("evolution.de", "evaluations"),
        "evolution.capped_frac": ratio(attr_sum("evolution.de", "capped"), len(de)),
        "evolution.de_self_s": self_s.get("evolution.de", 0.0),
        "evolution.objective_self_s": self_s.get("evolution.objective", 0.0),
        "thompson.resolve_s": total("thompson.resolve"),
        "external.calls": len(groups["external.call"]),
        "external.rows": ext_rows,
        "external.s": total("external.call"),
        "external.us_per_row": ratio(total("external.call") * 1e6, ext_rows),
        "external.failed_rows": attr_sum("external.call", "failed"),
        "study.summary_s": total("study.summarize") + total("study.reference"),
        "records.save_s": total("records.save"),
        "records.load_s": total("records.load"),
        "problems.true_objective_calls": len(groups["problems.true_objective"]),
        "problems.true_objective_s": total("problems.true_objective"),
    }


def module_self_times(tracer: Tracer, op) -> dict:
    """Self seconds per module (span-name prefix); the module ``op`` is the benchmark's own root span."""
    out = defaultdict(float)
    for name, seconds in self_times(_op_spans(tracer, op)).items():
        out[name.split(".")[0]] += seconds
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def check_hooks(tracer: Tracer, active, idle) -> list:
    """Modules expected to work that recorded nothing, and predicted-idle modules that did."""
    counts = defaultdict(int)
    for span in tracer.spans:
        counts[span[0].split(".")[0]] += 1
    errors = [
        f"module {m!r} recorded no spans; a hook no longer sits where its caller looks"
        for m in sorted(active)
        if not counts[m]
    ]
    errors += [f"module {m!r} was predicted idle but recorded {counts[m]} spans" for m in sorted(idle) if counts[m]]
    return errors
