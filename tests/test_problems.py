import logging
import re
from dataclasses import replace

import numpy as np
import pytest

from mdots.mda import DisciplineFailure, MdaConfig, MdaStatus, gauss_seidel_solve
from mdots.problems import (
    Discipline,
    MdoProblem,
    initial_doe_training_sets,
    lhs,
    sellar_problem,
    toy_problem,
)
from mdots.study import resolve_reference


def dropped_points(caplog):
    """The messages of the WARNING records on ``mdots.problems``: one per discipline with dropped DoE points."""
    return [r.getMessage() for r in caplog.records if r.name == "mdots.problems" and r.levelno == logging.WARNING]


@pytest.mark.parametrize("make", [toy_problem, sellar_problem])
class TestShippedReference:
    def test_is_the_re_solve_at_full_precision(self, make):
        problem = make()
        got = resolve_reference(problem, recompute=True)
        assert got.objective == pytest.approx(problem.reference.objective, rel=1e-9, abs=0.0)
        width = problem.z_bounds[:, 1] - problem.z_bounds[:, 0]
        assert np.all(np.abs(got.z - problem.reference.z) <= 1e-4 * width)

    def test_objective_is_the_true_objective_at_its_design(self, make):
        problem = make()
        f, _ = problem.true_objective(problem.reference.z)
        assert f == pytest.approx(problem.reference.objective, rel=1e-12, abs=0.0)


class TestToyProblem:
    def test_second_discipline_is_sum(self):
        problem = toy_problem()
        out = problem.disciplines[1].fn(np.array([[-2.9989]]), np.array([[9.9607]]))
        assert float(out[0]) == pytest.approx(6.9618, abs=1e-10)

    def test_first_discipline_at_origin(self):
        problem = toy_problem()
        out = problem.disciplines[0].fn(np.array([[0.0]]), np.array([[0.0]]))
        assert float(out[0]) == -1.0

    def test_objective_at_derived_fixed_point(self):
        problem = toy_problem()
        f, state = problem.true_objective([-2.9989])
        assert state.status[0] == MdaStatus.CONVERGED
        assert f == pytest.approx(-1.1497, abs=5e-4)

    def test_bounds_and_reference(self):
        problem = toy_problem()
        assert problem.d_z == 1 and problem.d_y == 2
        np.testing.assert_array_equal(problem.z_bounds, [[-5.0, 5.0]])
        assert problem.reference.objective == -1.1497129843267646


class TestSellarProblem:
    def test_reference_components_on_their_lower_bound_are_exact(self):
        # summary.csv gives no percent error for a zero reference component, and would for a re-solve's 1e-12.
        assert sellar_problem().reference.z[[0, 2]].tolist() == [0.0, 0.0]

    def test_first_discipline_at_reference(self):
        problem = sellar_problem()
        out = problem.disciplines[0].fn(np.array([[0.0, 2.6345, 0.0]]), np.array([[5.0690]]))
        assert float(out[0]) == pytest.approx(5.92679, abs=1e-4)

    def test_second_discipline_unit_coupling(self):
        problem = sellar_problem()
        out = problem.disciplines[1].fn(np.array([[0.0, 0.0, 0.0]]), np.array([[1.0]]))
        assert float(out[0]) == 1.0

    def test_objective_at_reference_couplings(self):
        problem = sellar_problem()
        f = problem.objective(np.array([[0.0, 2.6345, 0.0]]), np.array([[5.92679, 5.06900]]))
        assert float(f[0]) == pytest.approx(-2.8085, abs=1e-3)

    def test_negative_coupling_fails_pointwise(self):
        problem = sellar_problem()
        out = problem.disciplines[1].fn(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), np.array([[-1.0], [4.0]]))
        assert np.isnan(out[0])
        assert out[1] == 2.0

    def test_purity(self):
        problem = sellar_problem()
        Z = np.array([[1.0, 2.0, 3.0]])
        Yin = np.array([[4.0]])
        a = problem.disciplines[0].fn(Z, Yin)
        b = problem.disciplines[0].fn(Z, Yin)
        np.testing.assert_array_equal(a, b)

    def test_consistency_oracle_on_random_designs(self):
        problem = sellar_problem()
        cfg = MdaConfig(tolerance=1e-10, max_iterations=300)
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(100):
            z = np.array(
                [rng.uniform(0.0, 10.0), rng.uniform(-10.0, 10.0), rng.uniform(0.0, 10.0)]
            )
            state = gauss_seidel_solve(problem.disciplines, z, problem.y_midpoint(), cfg)
            y = state.y[0]
            if state.status[0] != MdaStatus.CONVERGED or y[0] < 1.0:
                continue
            checked += 1
            for disc in problem.disciplines:
                out = float(disc.fn(z[None, :], y[None, disc.consumes])[0])
                target = y[disc.produces[0]]
                assert abs(out - target) <= 10.0 * cfg.tolerance * max(abs(target), 1e-12)
        assert checked >= 50


class TestLhs:
    def test_single_point_inside(self):
        bounds = np.array([[-1.0, 2.0], [5.0, 6.0]])
        pts = lhs(bounds, 1, np.random.default_rng(0))
        assert pts.shape == (1, 2)
        assert np.all(pts > bounds[:, 0]) and np.all(pts < bounds[:, 1])

    def test_stratification_is_exact(self):
        pts = lhs(np.array([[0.0, 10.0]]), 10, np.random.default_rng(1))
        occupied = np.sort(np.floor(pts[:, 0]).astype(int))
        np.testing.assert_array_equal(occupied, np.arange(10))

    def test_stratification_every_dimension(self):
        bounds = np.array([[0.0, 1.0], [-4.0, 4.0], [10.0, 30.0]])
        n = 17
        pts = lhs(bounds, n, np.random.default_rng(2))
        for j in range(3):
            frac = (pts[:, j] - bounds[j, 0]) / (bounds[j, 1] - bounds[j, 0])
            np.testing.assert_array_equal(np.sort(np.floor(frac * n).astype(int)), np.arange(n))

    def test_column_means_near_midpoints(self):
        problem = sellar_problem()
        pts = lhs(problem.z_bounds, 100, np.random.default_rng(3))
        mid = problem.z_bounds.mean(axis=1)
        width = problem.z_bounds[:, 1] - problem.z_bounds[:, 0]
        assert np.all(np.abs(pts.mean(axis=0) - mid) <= 0.15 * width)

    def test_strictly_inside_bounds(self):
        bounds = np.array([[0.0, 1.0]])
        pts = lhs(bounds, 500, np.random.default_rng(4))
        assert np.all(pts > 0.0) and np.all(pts < 1.0)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            lhs(np.array([[0.0, 1.0]]), 0, np.random.default_rng(0))


class TestInitialDoe:
    def test_sellar_shapes_and_boxes(self):
        problem = sellar_problem()
        sets = initial_doe_training_sets(problem, 5, np.random.default_rng(5))
        assert len(sets) == 2
        for i, ts in enumerate(sets):
            assert ts.inputs.shape == (5, 4)
            assert ts.targets.shape == (5, 1)
            box = np.vstack([problem.z_bounds, problem.y_bounds[problem.disciplines[i].consumes]])
            assert np.all(ts.inputs > box[:, 0]) and np.all(ts.inputs < box[:, 1])

    def test_toy_counts(self):
        problem = toy_problem()
        sets = initial_doe_training_sets(problem, 4, np.random.default_rng(6))
        assert [ts.inputs.shape[0] for ts in sets] == [4, 4]

    def test_minimum_viable_doe(self):
        problem = toy_problem()
        sets = initial_doe_training_sets(problem, 2, np.random.default_rng(7))
        assert all(ts.inputs.shape[0] == 2 for ts in sets)

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            initial_doe_training_sets(toy_problem(), 1, np.random.default_rng(8))

    def test_failed_points_dropped_with_warning(self, caplog):
        def sometimes_nan(Z, Yin):
            out = Z[:, 0] + Yin[:, 0]
            out[Yin[:, 0] > 0.0] = np.nan
            return out

        problem = MdoProblem(
            problem_id="flaky",
            z_bounds=[[0.0, 1.0]],
            y_bounds=[[-1.0, 1.0], [-1.0, 1.0]],
            disciplines=(
                Discipline("a", produces=[0], consumes=[1], fn=sometimes_nan),
                Discipline("b", produces=[1], consumes=[0], fn=lambda Z, Y: Z[:, 0] + Y[:, 0]),
            ),
            objective=lambda Z, Y: Z[:, 0],
        )
        sets = initial_doe_training_sets(problem, 12, np.random.default_rng(9))
        (message,) = dropped_points(caplog)
        assert "failed DoE" in message
        assert sets[0].inputs.shape[0] < 12
        assert np.all(np.isfinite(sets[0].targets))

    def test_all_failed_is_an_error(self, caplog):
        problem = MdoProblem(
            problem_id="dead",
            z_bounds=[[0.0, 1.0]],
            y_bounds=[[-1.0, 1.0]],
            disciplines=(Discipline("a", produces=[0], consumes=[], fn=lambda Z, Y: np.full(Z.shape[0], np.nan)),),
            objective=lambda Z, Y: Z[:, 0],
        )
        with pytest.raises(RuntimeError):
            initial_doe_training_sets(problem, 4, np.random.default_rng(10))
        assert len(dropped_points(caplog)) == 1

    @pytest.mark.parametrize("failure", ["raises", "nan-rows"])
    def test_a_raise_fails_the_batch_as_nan_rows_do(self, caplog, failure):
        # Both failure channels of the problem interface end the same way: rows dropped, then too few left.
        def crashed(Z, Yin):
            if failure == "raises":
                raise DisciplineFailure("solver crashed")
            return np.full(Z.shape[0], np.nan)

        toy = toy_problem()
        problem = replace(toy, disciplines=(replace(toy.disciplines[0], fn=crashed), toy.disciplines[1]))
        with pytest.raises(RuntimeError, match="fewer than two usable DoE points for discipline 'f1'"):
            initial_doe_training_sets(problem, 4, np.random.default_rng(0))
        (message,) = dropped_points(caplog)
        assert re.match(r"dropping 4 failed DoE point\(s\) for discipline 'f1'", message)

    def test_dropped_points_warning_gives_the_cause(self, caplog):
        def down(Z, Yin):
            raise DisciplineFailure("license server down")

        toy = toy_problem()
        problem = replace(toy, disciplines=(toy.disciplines[0], replace(toy.disciplines[1], fn=down)))
        with pytest.raises(RuntimeError, match="fewer than two usable DoE points for discipline 'f2'"):
            initial_doe_training_sets(problem, 4, np.random.default_rng(0))
        (message,) = dropped_points(caplog)
        assert re.match(r"dropping 4 failed DoE point\(s\) for discipline 'f2': .*license server down", message)


class TestWiring:
    def test_every_component_produced_once(self):
        with pytest.raises(ValueError, match="exactly one"):
            MdoProblem(
                problem_id="bad",
                z_bounds=[[0.0, 1.0]],
                y_bounds=[[0.0, 1.0], [0.0, 1.0]],
                disciplines=(
                    Discipline("a", produces=[0], consumes=[1], fn=lambda Z, Y: Z[:, 0]),
                    Discipline("b", produces=[0], consumes=[0], fn=lambda Z, Y: Z[:, 0]),
                ),
                objective=lambda Z, Y: Z[:, 0],
            )

    def test_bounds_must_be_finite_boxes(self):
        with pytest.raises(ValueError):
            MdoProblem(
                problem_id="bad",
                z_bounds=[[0.0, np.inf]],
                y_bounds=[[0.0, 1.0]],
                disciplines=(Discipline("a", produces=[0], consumes=[], fn=lambda Z, Y: Z[:, 0]),),
                objective=lambda Z, Y: Z[:, 0],
            )
        with pytest.raises(ValueError):
            MdoProblem(
                problem_id="bad",
                z_bounds=[[1.0, 0.0]],
                y_bounds=[[0.0, 1.0]],
                disciplines=(Discipline("a", produces=[0], consumes=[], fn=lambda Z, Y: Z[:, 0]),),
                objective=lambda Z, Y: Z[:, 0],
            )

    def test_unknown_consumed_component(self):
        with pytest.raises(ValueError, match="unknown"):
            MdoProblem(
                problem_id="bad",
                z_bounds=[[0.0, 1.0]],
                y_bounds=[[0.0, 1.0]],
                disciplines=(Discipline("a", produces=[0], consumes=[4], fn=lambda Z, Y: Z[:, 0]),),
                objective=lambda Z, Y: Z[:, 0],
            )
