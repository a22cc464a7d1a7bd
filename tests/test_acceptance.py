"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete. The Sellar study (criterion 1) dominates the runtime; it uses
whatever worker width the machine offers.
"""

import os
import time
import warnings
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from mdots.evolution import DeConfig, de_minimize, penalized_mdo_objective
from mdots.gp import fit, posterior_mean, posterior_variance
from mdots.mda import MdaConfig, MdaStatus, gauss_seidel_solve
from mdots.paths import draw_path, eval_path
from mdots.problems import Discipline, MdoProblem, sellar_problem, toy_problem
from mdots.records import load_run_record, records_equal, save_run_record
from mdots.study import ExperimentConfig, run_from_record, run_replicate, run_study
from mdots.thompson import convergence_check

SELLAR_REFERENCE = -2.8085
TOY_REFERENCE = -1.1495


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


@contextmanager
def quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


def test_criterion_1_sellar_study_desk_scale():
    with criterion(1, "Sellar study 20 replicates: >=16 converged, mean |rel err| <= 1%"):
        started = time.perf_counter()
        cfg = ExperimentConfig(
            problem="sellar",
            n_doe=5,
            n_iter=10,
            n_features=1000,
            repeat=20,
            seed=20250808,
        )
        with quiet():
            records, summary = run_study(cfg)
        elapsed = time.perf_counter() - started
        assert summary.n_runs == 20
        assert summary.n_converged >= 16, f"only {summary.n_converged}/20 converged"
        objective_stat = summary.variables[-1]
        assert objective_stat.name == "objective"
        assert objective_stat.mean_abs_pct_err <= 1.0, f"mean error {objective_stat.mean_abs_pct_err}%"
        assert elapsed <= 1800.0, f"study took {elapsed:.0f}s"


def test_criterion_2_toy_problem_budget_and_quality():
    with criterion(2, "toy: >=8/10 seeds within 1% of -1.1495 at exactly 7 evaluations per discipline"):
        started = time.perf_counter()
        problem = toy_problem()
        hits = 0
        for seed in range(10):
            cfg = ExperimentConfig(problem="toy", n_doe=4, n_iter=3, seed=seed)
            with quiet():
                record = run_replicate(cfg, 0)
            assert record.evaluations_per_discipline() == [7, 7]
            f_found, state = problem.true_objective(record.final_z)
            if state.status[0] == MdaStatus.CONVERGED and convergence_check(TOY_REFERENCE, f_found):
                hits += 1
        assert hits >= 8, f"only {hits}/10 seeds converged"
        assert time.perf_counter() - started <= 120.0


def test_criterion_3_reference_oracles():
    with criterion(3, "exact coupled solves reproduce the reference values"):
        sellar = sellar_problem()
        state = gauss_seidel_solve(
            sellar.disciplines, [0.0, 2.6345, 0.0], sellar.y_midpoint(), MdaConfig(tolerance=1e-10, max_iterations=200)
        )
        assert state.status[0] == MdaStatus.CONVERGED
        assert state.y[0, 0] == pytest.approx(5.92679, abs=1e-3)
        assert state.y[0, 1] == pytest.approx(5.06900, abs=1e-3)
        f_sellar, _ = sellar.true_objective([0.0, 2.6345, 0.0])
        assert f_sellar == pytest.approx(SELLAR_REFERENCE, abs=2e-3)

        toy = toy_problem()
        f_toy, toy_state = toy.true_objective([-2.9989])
        assert toy_state.status[0] == MdaStatus.CONVERGED
        assert f_toy == pytest.approx(TOY_REFERENCE, abs=1e-3)


def test_criterion_4_decoupled_sampling_statistics():
    with criterion(4, "2000 sample paths match the posterior and pin the training data"):
        started = time.perf_counter()
        rng = np.random.default_rng(7)
        x = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=8))[:, None]
        y = np.sin(x[:, 0]) + 0.3 * x[:, 0]
        s = fit(x, y, rng=8)
        out_std = s.norm.output_std
        bias = 0.05 * out_std
        pin_tol = 3.0 * np.sqrt(s.params.nugget) * out_std + bias

        n_paths = 2000
        xq = np.linspace(0.3, 6.0, 10)[:, None]
        samples = np.empty((n_paths, 10))
        draw_rng = np.random.default_rng(9)
        for i in range(n_paths):
            path = draw_path(s, 1000, draw_rng)
            samples[i] = eval_path(path, xq)
            assert np.all(np.abs(eval_path(path, x) - y) <= pin_tol)

        mean_exact = posterior_mean(s, xq)
        std_exact = np.sqrt(posterior_variance(s, xq))
        emp_mean = samples.mean(axis=0)
        emp_std = samples.std(axis=0)
        se = emp_std / np.sqrt(n_paths)
        assert np.all(np.abs(emp_mean - mean_exact) <= 3.0 * se + bias)
        assert np.all(np.abs(emp_std - std_exact) <= 0.10 * np.maximum(std_exact, 1e-12) + bias)
        assert time.perf_counter() - started <= 60.0


def test_criterion_5_gp_dense_oracle_equivalence():
    with criterion(5, "posterior mean/variance match a dense solve on 50 random instances"):
        from test_gp import dense_posterior

        rng = np.random.default_rng(11)
        for _ in range(50):
            n, d = int(rng.integers(3, 25)), int(rng.integers(1, 5))
            x = rng.uniform(-2.0, 2.0, size=(n, d))
            y = rng.standard_normal(n)
            s = fit(x, y, restarts=1, rng=rng)
            for _ in range(4):
                xq = rng.uniform(-2.0, 2.0, size=d)
                om, ov = dense_posterior(s, xq)
                assert posterior_mean(s, xq[None, :])[0] == pytest.approx(om, rel=1e-10, abs=1e-12)
                assert posterior_variance(s, xq[None, :])[0] == pytest.approx(max(ov, 0.0), rel=1e-10, abs=1e-12)


def test_criterion_6_mda_solver():
    with criterion(6, "contractive systems reach the direct solution; the relaxation accelerates"):
        rng = np.random.default_rng(12)
        tol = 1e-11
        for _ in range(10):
            A = rng.uniform(-1.0, 1.0, size=(3, 3))
            np.fill_diagonal(A, 0.0)
            A *= 0.9 / np.abs(A).sum(axis=1).max()
            b = rng.uniform(-2.0, 2.0, size=3)
            disciplines = [
                Discipline(
                    f"row{i}",
                    produces=[i],
                    consumes=[j for j in range(3) if j != i],
                    fn=lambda Z, Y, i=i: Y @ np.delete(A[i], i) + b[i],
                )
                for i in range(3)
            ]
            state = gauss_seidel_solve(disciplines, [0.0], np.zeros(3), MdaConfig(tolerance=tol, max_iterations=500))
            exact = np.linalg.solve(np.eye(3) - A, b)
            assert state.status[0] == MdaStatus.CONVERGED
            np.testing.assert_allclose(state.y[0], exact, atol=10.0 * tol * max(np.abs(exact).max(), 1.0))

        slow = Discipline("lin", produces=[0], consumes=[0], fn=lambda Z, Y: 0.9 * Y[:, 0] + 1.0)
        plain = gauss_seidel_solve([slow], [0.0], np.zeros(1), MdaConfig(tolerance=1e-10, max_iterations=1000, aitken=False))
        accel = gauss_seidel_solve([slow], [0.0], np.zeros(1), MdaConfig(tolerance=1e-10, max_iterations=1000, aitken=True))
        assert plain.status[0] == accel.status[0] == MdaStatus.CONVERGED
        assert accel.iterations[0] < plain.iterations[0]


def test_criterion_7_de_optimizer():
    with criterion(7, "sphere to 1e-3 within 200 generations; argmin invariant under constant shift"):
        def sphere(z):
            return (np.atleast_2d(z) ** 2).sum(axis=1)

        cfg = DeConfig(max_generations=200, seed=13)
        result = de_minimize(sphere, [[-5.0, 5.0]] * 3, cfg)
        assert result.value <= 1e-3
        assert result.generations <= 200

        shifted = de_minimize(lambda z: sphere(z) + 42.0, [[-5.0, 5.0]] * 3, cfg)
        np.testing.assert_array_equal(result.z, shifted.z)


def test_criterion_8_penalty_behavior():
    with criterion(8, "forced non-convergence scores >= 1000; feasible optima carry no penalty"):
        problem = MdoProblem(
            problem_id="osc",
            z_bounds=[[-1.0, 1.0]],
            y_bounds=[[-10.0, 10.0]],
            disciplines=(Discipline("osc", produces=[0], consumes=[0], fn=lambda Z, Y: -1.3 * Y[:, 0] + 1.0),),
            objective=lambda Z, Y: Z[:, 0] ** 2,
        )
        forced = penalized_mdo_objective(
            problem.disciplines, problem, MdaConfig(tolerance=1e-10, max_iterations=25, aitken=False)
        )
        assert forced(np.array([[0.4]]))[0] >= 1000.0

        sellar = sellar_problem()
        objective = penalized_mdo_objective(sellar.disciplines, sellar, MdaConfig(tolerance=1e-2, max_iterations=100))
        result = de_minimize(objective, sellar.z_bounds, DeConfig(seed=14))
        (recomputed,) = objective(result.z[None, :])
        assert recomputed == pytest.approx(result.value, abs=1e-12)
        assert result.value < 500.0  # no penalty component at the optimum
        assert result.value == pytest.approx(SELLAR_REFERENCE, abs=1e-2)


def test_criterion_9_reproducibility(tmp_path):
    with criterion(9, "a run re-launched from its own record reproduces it bit for bit"):
        out = str(tmp_path / "runs")
        cfg = ExperimentConfig(problem="toy", n_doe=4, n_iter=2, seed=77)
        with quiet():
            record = run_replicate(cfg, 0, out_dir=out)
        path = os.path.join(out, "run_0.ndjson")
        persisted = load_run_record(path)
        assert records_equal(record, persisted, ignore_timing=False)

        with quiet():
            again = run_from_record(persisted)
        assert records_equal(persisted, again)  # wall-clock fields excluded

        # byte-level check modulo the timing line
        save_run_record(again, path + ".relaunch")
        original_lines = open(path).read().splitlines()
        relaunch_lines = open(path + ".relaunch").read().splitlines()
        strip = lambda lines: [l for l in lines if '"kind": "timing"' not in l]
        assert strip(original_lines) == strip(relaunch_lines)
