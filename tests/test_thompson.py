import logging
from dataclasses import replace

import numpy as np
import pytest

from mdots.evolution import DeConfig, de_minimize, penalized_mdo_objective
from mdots.gp import fit, posterior_variance
from mdots.mda import DisciplineFailure, MdaConfig, gauss_seidel_solve
from mdots.problems import Discipline, MdoProblem, TrainingSet, sellar_problem, toy_problem
from mdots.thompson import (
    SURROGATE_MDA,
    ExperimentConfig,
    SurrogateSet,
    convergence_check,
    de_seed,
    fit_surrogate_set,
    mean_evaluators,
    path_evaluators,
    replicate_seeds,
    run_mdo_ts,
    solve_mdo,
)


def single_discipline_problem():
    """One discipline with no feedback: y = sin(z) + z/2 on [0, 6]."""

    def f(Z, Yin):
        return np.sin(Z[:, 0]) + 0.5 * Z[:, 0]

    return MdoProblem(
        problem_id="single",
        z_bounds=[[0.0, 6.0]],
        y_bounds=[[-2.0, 5.0]],
        disciplines=(Discipline("f", produces=[0], consumes=[], fn=f),),
        objective=lambda Z, Y: (Y[:, 0] - 1.0) ** 2 + 0.05 * Z[:, 0],
    )


def dense_surrogate_set(zs, targets, seed):
    """One discipline's surrogate on dense data, fitted with one restart to keep the test quick."""
    s = fit(zs, targets[:, 0], restarts=1, rng=np.random.default_rng(seed))
    return SurrogateSet(data=[TrainingSet(inputs=zs, targets=targets)], models=[[s]])


class TestRunBudget:
    def test_toy_budget_and_alternation(self):
        cfg = ExperimentConfig(n_doe=4, n_iter=3, seed=1)
        record = run_mdo_ts(toy_problem(), cfg)
        assert record.evaluations_per_discipline() == [7, 7]
        assert len(record.iterations) == 3 * 2
        assert [e.discipline for e in record.iterations] == [0, 1, 0, 1, 0, 1]
        assert [e.iteration for e in record.iterations] == [1, 1, 2, 2, 3, 3]

    def test_zero_iterations_equals_doe_only_solve(self):
        problem = toy_problem()
        cfg = ExperimentConfig(n_doe=4, n_iter=0, seed=5)
        seeds = replicate_seeds(cfg.seed, 0)
        record = run_mdo_ts(problem, cfg)
        assert record.iterations == []
        assert record.evaluations_per_discipline() == [4, 4]

        # the same DoE surrogates solved directly give the same answer
        from mdots.problems import initial_doe_training_sets

        rng = np.random.default_rng(seeds.doe)
        sets = initial_doe_training_sets(problem, 4, rng)
        sset = fit_surrogate_set(sets, rng)
        z, value = solve_mdo(problem.bind(mean_evaluators(sset)), problem, cfg.de_config(de_seed(seeds, 0)))
        np.testing.assert_array_equal(record.final_z, z.tolist())
        assert record.final_value == value

    def test_one_proposal_per_iteration_serves_every_discipline(self):
        record = run_mdo_ts(sellar_problem(), ExperimentConfig(n_doe=5, n_iter=2, n_features=64, seed=3,
                                                                de_max_generations=20))
        assert [(e.iteration, e.discipline) for e in record.iterations] == [(1, 0), (1, 1), (2, 0), (2, 1)]
        for first, second in (record.iterations[0:2], record.iterations[2:4]):
            assert (first.z_hat, first.y_hat, first.random_value) == (second.z_hat, second.y_hat, second.random_value)
        # Each discipline is evaluated at the couplings it consumes, from that one coupled state.
        problem = sellar_problem()
        for entry in record.iterations:
            cons = problem.disciplines[entry.discipline].consumes
            clipped = np.clip(np.asarray(entry.y_hat)[cons], problem.y_bounds[cons, 0], problem.y_bounds[cons, 1])
            assert entry.y_refine == clipped.tolist()

    def test_design_solves_of_a_study_never_share_a_stream(self, monkeypatch):
        import mdots.thompson as thompson

        seeds = []
        real = thompson.de_minimize

        def recording(objective, bounds, cfg):
            seeds.append(cfg.seed)
            return real(objective, bounds, cfg)

        monkeypatch.setattr(thompson, "de_minimize", recording)
        cfg = ExperimentConfig(problem="toy", n_doe=4, n_iter=3, n_features=32, seed=17, de_max_generations=5)
        for k in range(3):
            run_mdo_ts(toy_problem(), cfg, replicate=k)
        # Three design solves and the final one per replicate, each seeded by the one seed function.
        expected = [de_seed(replicate_seeds(cfg.seed, k), j) for k in range(3) for j in range(4)]
        state = lambda seed: np.random.default_rng(seed).bit_generator.state["state"]["state"]
        assert [state(s) for s in seeds] == [state(s) for s in expected]
        assert len({state(s) for s in seeds}) == len(seeds) == 12

    def test_a_shorter_run_is_a_prefix_of_a_longer_one(self):
        cfg = ExperimentConfig(problem="toy", n_doe=4, n_iter=3, n_features=64, seed=8)
        longer = run_mdo_ts(toy_problem(), cfg)
        shorter = run_mdo_ts(toy_problem(), replace(cfg, n_iter=2))
        assert shorter.iterations == longer.iterations[:4]

    def test_proposals_stay_inside_boxes(self):
        problem = toy_problem()
        cfg = ExperimentConfig(n_doe=4, n_iter=3, seed=11)
        record = run_mdo_ts(problem, cfg)
        for entry in record.iterations:
            z = np.asarray(entry.z_hat)
            assert np.all(z >= problem.z_bounds[:, 0]) and np.all(z <= problem.z_bounds[:, 1])
            cons = problem.disciplines[entry.discipline].consumes
            y = np.asarray(entry.y_refine)
            assert np.all(y >= problem.y_bounds[cons, 0]) and np.all(y <= problem.y_bounds[cons, 1])
        final_z = np.asarray(record.final_z)
        assert np.all(final_z >= problem.z_bounds[:, 0]) and np.all(final_z <= problem.z_bounds[:, 1])

    def test_validation(self):
        with pytest.raises(ValueError):
            run_mdo_ts(toy_problem(), ExperimentConfig(n_doe=1, n_iter=1))
        with pytest.raises(ValueError):
            run_mdo_ts(toy_problem(), ExperimentConfig(n_doe=4, n_iter=-1))

    @pytest.mark.parametrize(
        "bad",
        [
            {"n_features": 0},
            # Counts must be integers, and a bool is not one.
            {"n_features": 10.5},
            {"seed": 1.5},
            {"n_doe": 3.0},
            {"repeat": 2.0},
            {"n_iter": True},
            {"de_max_generations": 50.0},
            {"de_max_generations": True},
            {"workers": 2.0},
            {"workers": True},
            {"seed": -1},
            {"workers": 0},
            {"workers": -3},
            {"de_max_generations": 0},
            {"de_max_generations": -1},
            # Settings of the wrong type, as a config file or a record header can hold them.
            {"de_max_generations": "300"},
            {"de_max_generations": None},
            {"n_features": "100"},
            {"n_doe": "4"},
            {"seed": None},
            {"recompute_reference": "false"},
            {"out": 5},
            {"external_cmd": 5},
        ],
    )
    def test_layer_settings_rejected_when_the_config_is_built(self, bad):
        # The error starts with the setting's name.
        (name,) = bad
        with pytest.raises(ValueError, match=f"^{name}[ =]"):
            ExperimentConfig(**bad)

    @pytest.mark.parametrize("name, least", [("n_doe", 2), ("n_iter", 0), ("repeat", 1), ("seed", 0),
                                             ("n_features", 1), ("de_max_generations", 1), ("workers", 1)])
    def test_count_below_its_least_value_is_named_with_it(self, name, least):
        with pytest.raises(ValueError, match=f"^{name} must be at least {least}$"):
            ExperimentConfig(**{name: least - 1})


class TestReproducibility:
    def test_identical_seeds_identical_records(self):
        from mdots.records import records_equal

        cfg = ExperimentConfig(n_doe=4, n_iter=2, seed=21)
        a = run_mdo_ts(toy_problem(), cfg)
        b = run_mdo_ts(toy_problem(), cfg)
        assert records_equal(a, b)

    def test_different_path_seeds_generally_differ(self):
        # the seed moves all three streams; the path stream alone is covered
        # by TestSolveMdo.test_two_seeds_two_proposals
        base = ExperimentConfig(n_doe=4, n_iter=1, seed=31)
        other = ExperimentConfig(n_doe=4, n_iter=1, seed=99)
        a = run_mdo_ts(toy_problem(), base)
        b = run_mdo_ts(toy_problem(), other)
        assert a.iterations[0].z_hat != b.iterations[0].z_hat


class TestMonotoneInformation:
    def test_variance_collapses_at_refined_points(self):
        problem = toy_problem()
        cfg = ExperimentConfig(n_doe=4, n_iter=2, seed=41)
        record = run_mdo_ts(problem, cfg)

        rng = np.random.default_rng(replicate_seeds(cfg.seed, 0).doe)
        from mdots.problems import initial_doe_training_sets

        sets = initial_doe_training_sets(problem, 4, rng)
        sset = fit_surrogate_set(sets, rng)
        # replay the refinements through the log in the record
        from mdots.thompson import refine_discipline

        for entry in record.iterations:
            if not entry.refined:
                continue
            x = np.concatenate([entry.z_hat, entry.y_refine])
            refine_discipline(sset, entry.discipline, x, entry.y_true, rng)
            for s in sset.models[entry.discipline]:
                assert posterior_variance(s, x[None, :])[0] <= 2.0 * s.params.nugget * s.norm.output_std**2


class TestSolveMdo:
    def test_true_disciplines_recover_sellar_reference(self):
        problem = sellar_problem()
        z, value = solve_mdo(problem.disciplines, problem, DeConfig(seed=51))
        np.testing.assert_allclose(z, [0.0, 2.6345, 0.0], atol=0.05)
        assert value == pytest.approx(-2.8085, abs=1e-2)
        state = gauss_seidel_solve(problem.disciplines, z, problem.y_midpoint(), SURROGATE_MDA)
        assert np.isfinite(state.y).all()

    def test_two_seeds_two_proposals(self):
        problem = toy_problem()
        rng = np.random.default_rng(61)
        from mdots.problems import initial_doe_training_sets

        sset = fit_surrogate_set(initial_doe_training_sets(problem, 4, rng), rng)
        path_rng = np.random.default_rng(62)
        ev1 = path_evaluators(sset, 400, path_rng)
        ev2 = path_evaluators(sset, 400, path_rng)
        z1, _ = solve_mdo(problem.bind(ev1), problem, DeConfig(seed=64))
        z2, _ = solve_mdo(problem.bind(ev2), problem, DeConfig(seed=64))
        assert not np.array_equal(z1, z2)
        for z in (z1, z2):
            assert problem.z_bounds[0, 0] <= z[0] <= problem.z_bounds[0, 1]

    def test_dense_data_collapses_path_spread(self):
        problem = single_discipline_problem()
        zs = np.linspace(0.0, 6.0, 120)[:, None]
        targets = problem.disciplines[0].fn(zs, np.zeros((120, 0)))[:, None]
        sset = dense_surrogate_set(zs, targets, 71)
        path_rng = np.random.default_rng(72)
        values = []
        for _ in range(3):
            ev = path_evaluators(sset, 1000, path_rng)
            _, value = solve_mdo(problem.bind(ev), problem, DeConfig(seed=73))
            values.append(value)
        assert max(values) - min(values) <= 1e-3

    def test_dense_surrogate_matches_direct_optimization(self):
        problem = single_discipline_problem()
        zs = np.linspace(0.0, 6.0, 120)[:, None]
        targets = problem.disciplines[0].fn(zs, np.zeros((120, 0)))[:, None]
        sset = dense_surrogate_set(zs, targets, 81)
        z_sur, value_sur = solve_mdo(problem.bind(mean_evaluators(sset)), problem, DeConfig(seed=82))

        mda = MdaConfig(tolerance=1e-6, max_iterations=50)
        true_objective = penalized_mdo_objective(problem.disciplines, problem, mda)
        direct = de_minimize(true_objective, problem.z_bounds, DeConfig(seed=82))
        assert value_sur == pytest.approx(direct.value, abs=1e-3)
        np.testing.assert_allclose(z_sur, direct.z, atol=1e-2)


def skipped_refinements(caplog):
    """The messages of the WARNING records on ``mdots.thompson``: one per skipped refinement."""
    return [r.getMessage() for r in caplog.records if r.name == "mdots.thompson" and r.levelno == logging.WARNING]


class TestFailureHandling:
    def test_failed_true_evaluation_skips_refinement(self, caplog):
        problem = toy_problem()
        calls = {"n": 0}
        original = problem.disciplines[0].fn

        def flaky(Z, Yin):
            # call 1 is the batched DoE evaluation; call 2 is the first
            # refinement evaluation, which is made to fail once
            calls["n"] += 1
            if calls["n"] == 2:
                return np.full(Z.shape[0], np.nan)
            return original(Z, Yin)

        flaky_problem = MdoProblem(
            problem_id="toy",
            z_bounds=problem.z_bounds,
            y_bounds=problem.y_bounds,
            disciplines=(replace(problem.disciplines[0], fn=flaky), problem.disciplines[1]),
            objective=problem.objective,
            reference=problem.reference,
        )
        cfg = ExperimentConfig(n_doe=4, n_iter=2, seed=91)
        record = run_mdo_ts(flaky_problem, cfg)
        (message,) = skipped_refinements(caplog)
        assert "skipping refinement" in message
        skipped = [e for e in record.iterations if not e.refined]
        assert len(skipped) == 1
        assert skipped[0].discipline == 0
        assert skipped[0].y_true is None
        # run continued: remaining entries present, budget reduced by one
        assert len(record.iterations) == 4
        assert record.evaluations_per_discipline() == [5, 6]

    @pytest.mark.parametrize(
        "channel, note",
        [("raise", "discipline 'f1': solver crashed"), ("nan", "discipline 'f1' returned non-finite output")],
    )
    def test_failed_refinement_warns_once_with_its_cause(self, caplog, channel, note):
        problem = toy_problem()
        calls = {"n": 0}
        original = problem.disciplines[0].fn

        def flaky(Z, Yin):
            calls["n"] += 1  # call 2 is the first refinement evaluation
            if calls["n"] == 2:
                if channel == "raise":
                    raise DisciplineFailure("solver crashed", kind="crash")
                return np.full(Z.shape[0], np.nan)
            return original(Z, Yin)

        flaky_disc = replace(problem.disciplines[0], fn=flaky)
        flaky_problem = replace(problem, disciplines=(flaky_disc, problem.disciplines[1]))
        record = run_mdo_ts(flaky_problem, ExperimentConfig(n_doe=4, n_iter=1, seed=91))
        assert skipped_refinements(caplog) == [f"skipping refinement of discipline 0 at iteration 1: {note}"]
        assert [e.refined for e in record.iterations] == [False, True]


class TestConvergenceCheck:
    def test_reference_row(self):
        assert convergence_check(-2.8085, -2.8072)

    def test_four_percent_off_fails(self):
        assert not convergence_check(-2.8085, -2.70)

    def test_exact_match(self):
        assert convergence_check(-2.8085, -2.8085)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            convergence_check(0.0, 1.0)


class TestEvaluators:
    def test_mean_evaluators_match_posterior_mean(self):
        problem = toy_problem()
        rng = np.random.default_rng(95)
        from mdots.gp import posterior_mean
        from mdots.problems import initial_doe_training_sets

        sset = fit_surrogate_set(initial_doe_training_sets(problem, 5, rng), rng)
        ev = mean_evaluators(sset)
        Z = np.array([[1.0], [-2.0]])
        Yin = np.array([[0.5], [3.0]])
        out = ev[0](Z, Yin)
        expected = posterior_mean(sset.models[0][0], np.hstack([Z, Yin]))
        np.testing.assert_allclose(out[:, 0], expected, rtol=1e-12)
