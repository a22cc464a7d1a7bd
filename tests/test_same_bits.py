"""Same bits through the whole loop, on any CPU.

A short toy run through today's batch-only evaluators must give the record
that the previous evaluators give in the same process: ``_stacked`` with
``np.atleast_2d`` and one lambda per output, over queries that also took a
single point. Those evaluators are kept here as the reference and patched
into ``mdots.thompson``. Both runs share the machine's BLAS and libm, so the
check holds wherever it runs, unlike a hash of a record.
"""

import numpy as np

import mdots.thompson as thompson
from mdots.gp import kernel_matrix
from mdots.paths import _prior_values, draw_path
from mdots.problems import toy_problem
from mdots.records import records_equal
from mdots.thompson import ExperimentConfig


def reference_as_batch(x, dim):
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    arr = np.atleast_2d(arr)
    if arr.shape[1] != dim:
        raise ValueError(f"expected points of dimension {dim}, got {arr.shape[1]}")
    return arr, single


def reference_eval_path(path, x):
    s = path.anchor
    Xq, single = reference_as_batch(x, s.dim)
    Xqn = s.norm.normalize_inputs(Xq)
    vals = _prior_values(path.features, Xqn) + kernel_matrix(s.params, Xqn, s.X_norm) @ path.update_coeffs
    out = s.norm.output_mean + s.norm.output_std * vals
    return float(out[0]) if single else out


def reference_posterior_mean(s, x):
    Xq, single = reference_as_batch(x, s.dim)
    m = kernel_matrix(s.params, s.norm.normalize_inputs(Xq), s.X_norm) @ s.alpha
    out = s.norm.output_mean + s.norm.output_std * m
    return float(out[0]) if single else out


def reference_stacked(fns):
    def evaluator(Z, Yin):
        X = np.concatenate([np.atleast_2d(Z), np.atleast_2d(Yin)], axis=1)
        return np.column_stack([f(X) for f in fns])

    return evaluator


def reference_path_evaluators(sset, n_features, rng):
    rng = np.random.default_rng(rng)
    evaluators = []
    for models in sset.models:
        paths = [draw_path(s, n_features, rng) for s in models]
        evaluators.append(reference_stacked([lambda X, p=p: reference_eval_path(p, X) for p in paths]))
    return evaluators


def reference_mean_evaluators(sset):
    return [
        reference_stacked([lambda X, s=s: reference_posterior_mean(s, X) for s in models])
        for models in sset.models
    ]


def toy_run():
    cfg = ExperimentConfig(problem="toy", n_doe=4, n_iter=2, n_features=64, seed=0)
    return thompson.run_mdo_ts(toy_problem(), cfg)


def test_toy_run_matches_the_reference_evaluators(monkeypatch):
    record = toy_run()
    monkeypatch.setattr(thompson, "path_evaluators", reference_path_evaluators)
    monkeypatch.setattr(thompson, "mean_evaluators", reference_mean_evaluators)
    reference = toy_run()
    assert len(record.iterations) == 4
    assert records_equal(record, reference, ignore_timing=True)
