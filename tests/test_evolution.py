import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdots.evolution import (
    BOUND_WEIGHT,
    CROSSOVER,
    MIN_POPULATION,
    MUTATION,
    PENALTY_BASE,
    POPULATION_PER_VARIABLE,
    DeConfig,
    DeResult,
    _reflect,
    _scores,
    de_minimize,
    penalized_mdo_objective,
)
from mdots.mda import MdaConfig
from mdots.problems import Discipline, MdoProblem, lhs, sellar_problem, toy_problem
from mdots.study import resolve_reference
from mdots.thompson import SURROGATE_MDA

TIGHT_MDA = MdaConfig(tolerance=1e-10, max_iterations=300)


def sphere(z):
    z = np.atleast_2d(z)
    return (z**2).sum(axis=1)


def de_minimize_loop(objective, bounds, cfg):
    """Reference: rand/1/bin with the variation written one individual at a time."""
    bounds = np.asarray(bounds, dtype=float)
    lo, hi = bounds[:, 0], bounds[:, 1]
    d = bounds.shape[0]
    n_pop = max(POPULATION_PER_VARIABLE * d, MIN_POPULATION)
    rng = np.random.default_rng(cfg.seed)
    pop = lhs(bounds, n_pop, rng)
    vals = _scores(objective, pop)
    evaluations = n_pop
    history = [float(vals.min())]
    generations = 0
    for _ in range(cfg.max_generations):
        generations += 1
        trials = np.empty_like(pop)
        for i in range(n_pop):
            pick = rng.choice(n_pop - 1, size=3, replace=False)
            pick[pick >= i] += 1
            mutant = pop[pick[0]] + MUTATION * (pop[pick[1]] - pop[pick[2]])
            mutant = _reflect(mutant, lo, hi)
            cross = rng.random(d) < CROSSOVER
            cross[rng.integers(d)] = True
            trials[i] = np.where(cross, mutant, pop[i])
        trial_vals = _scores(objective, trials)
        evaluations += n_pop
        better = trial_vals <= vals
        pop[better] = trials[better]
        vals[better] = trial_vals[better]
        history.append(float(vals.min()))
        if len(history) > cfg.window and history[-1 - cfg.window] - history[-1] < cfg.tol:
            break
    best = int(np.argmin(vals))
    return DeResult(pop[best].copy(), float(vals[best]), generations, evaluations)


class TestDeMinimize:
    @pytest.mark.parametrize(
        "bounds, cfg",
        [
            ([[-5.0, 5.0]] * 3, DeConfig(max_generations=60, seed=11)),
            ([[-1.0, 3.0], [0.0, 0.5]], DeConfig(max_generations=80, seed=12)),
            ([[2.0, 10.0], [-3.0, 3.0], [0.0, 10.0]], DeConfig(max_generations=300, seed=2_000_003)),
            # A box a thousand times narrower in one variable, where many mutants fold.
            ([[0.0, 1e-3], [-1.0, 1.0]], DeConfig(max_generations=50, seed=13)),
        ],
    )
    def test_population_variation_matches_per_individual_loop(self, bounds, cfg):
        def shifted(z):
            z = np.atleast_2d(z)
            return ((z - 0.3) ** 2).sum(axis=1) + np.cos(3.0 * z).sum(axis=1)

        got = de_minimize(shifted, bounds, cfg)
        want = de_minimize_loop(shifted, bounds, cfg)
        assert np.array_equal(got.z, want.z)
        assert got.value == want.value
        assert (got.generations, got.evaluations) == (want.generations, want.evaluations)

    def test_narrow_box_reaches_the_final_clip(self):
        lo, hi = np.array([0.0, -1.0]), np.array([1e-3, 1.0])
        far = np.array([[0.5, 0.0], [-0.7, 0.2]])  # hundreds of box widths out
        single = np.vstack([_reflect(row, lo, hi) for row in far])
        assert np.array_equal(_reflect(far, lo, hi), single)
        assert np.all((single >= lo) & (single <= hi))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_fold_puts_every_mutant_inside_the_box(self, data):
        # Parents inside a box put a mutant at most MUTATION < 1 box widths outside a
        # face, so a single fold lands inside and the clip after it never moves one.
        lo = data.draw(st.floats(-1e6, 1e6 - 1e-6))
        hi = data.draw(st.floats(min(lo + 1e-6, 1e6), 1e6))
        a, b, c = (data.draw(st.floats(lo, hi)) for _ in range(3))
        mutant = np.array([a + MUTATION * (b - c)])
        folded = np.where(mutant < lo, 2.0 * lo - mutant, np.where(mutant > hi, 2.0 * hi - mutant, mutant))
        assert lo <= folded[0] <= hi
        assert _reflect(mutant, np.array([lo]), np.array([hi]))[0] == folded[0]

    def test_sphere_reaches_global_minimum(self):
        cfg = DeConfig(max_generations=200, seed=1)
        result = de_minimize(sphere, [[-5.0, 5.0]] * 3, cfg)
        assert result.value <= 1e-3
        assert np.all(np.abs(result.z) <= 0.1)

    def test_constant_objective_terminates_by_window(self):
        cfg = DeConfig(max_generations=300, window=25, seed=2)
        result = de_minimize(lambda Z: np.full(len(Z), 7.0), [[-1.0, 3.0]] * 2, cfg)
        assert result.generations == 25
        assert result.value == 7.0
        assert np.all((result.z >= -1.0) & (result.z <= 3.0))

    def test_shift_invariance_of_argmin(self):
        bounds = [[-4.0, 4.0]] * 2

        def rosen(z):
            z = np.atleast_2d(z)
            return (1.0 - z[:, 0]) ** 2 + 100.0 * (z[:, 1] - z[:, 0] ** 2) ** 2

        cfg = DeConfig(max_generations=80, seed=3)
        r0 = de_minimize(rosen, bounds, cfg)
        r1 = de_minimize(lambda z: rosen(z) + 123.456, bounds, cfg)
        np.testing.assert_array_equal(r0.z, r1.z)
        assert r1.value == pytest.approx(r0.value + 123.456, rel=1e-12)

    def test_all_evaluated_candidates_inside_bounds(self):
        bounds = np.array([[-1.0, 2.0], [0.0, 0.5]])
        seen = []

        def recorder(Z):
            seen.append(np.array(Z, copy=True))
            return (Z**2).sum(axis=1)

        de_minimize(recorder, bounds, DeConfig(max_generations=30, seed=4))
        seen = np.vstack(seen)
        assert np.all(seen >= bounds[:, 0]) and np.all(seen <= bounds[:, 1])

    def test_non_finite_values_treated_as_infinite(self):
        def holey(z):
            z = np.atleast_2d(z)
            vals = (z**2).sum(axis=1)
            vals[z[:, 0] > 0.0] = np.nan
            return vals

        cfg = DeConfig(max_generations=60, seed=5)
        result = de_minimize(holey, [[-2.0, 2.0]] * 2, cfg)
        assert np.isfinite(result.value)
        assert result.z[0] <= 0.0

    def test_monotone_best_history(self):
        # A run capped at k generations is the first k generations of a longer one with
        # the same seed, so the best value can only fall as the cap grows.
        caps = range(1, 51, 7)
        bests = [de_minimize(sphere, [[-3.0, 3.0]] * 2, DeConfig(max_generations=k, seed=6)).value for k in caps]
        assert np.all(np.diff(bests) <= 0.0)
        assert bests[-1] < bests[0]

    def test_deterministic_given_seed(self):
        cfg = DeConfig(max_generations=40, seed=7)
        a = de_minimize(sphere, [[-3.0, 3.0]] * 2, cfg)
        b = de_minimize(sphere, [[-3.0, 3.0]] * 2, cfg)
        np.testing.assert_array_equal(a.z, b.z)
        assert (a.value, a.generations, a.evaluations) == (b.value, b.generations, b.evaluations)

    def test_default_population_rule(self):
        def first_rows(d):
            calls = []

            def counting(z):
                calls.append(z.shape[0])
                return (z**2).sum(axis=1)

            de_minimize(counting, [[-1.0, 1.0]] * d, DeConfig(max_generations=1, seed=8))
            return calls[0]

        assert [first_rows(d) for d in (1, 2, 3, 4)] == [30, 30, 30, 40]  # max(10 * d, 30)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_generations and window"):
            DeConfig(max_generations=0)
        with pytest.raises(ValueError, match="max_generations and window"):
            DeConfig(window=0)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, float("inf")])
    def test_tolerance_that_disables_the_plateau_test_rejected(self, tol):
        # A NaN tolerance would make every plateau comparison false and run to max_generations.
        with pytest.raises(ValueError, match="tolerance"):
            DeConfig(tol=tol)


class TestStopRule:
    def test_default_and_reference_settings(self):
        # Only the stop rule and the seed are settings; rand/1/bin's values are constants.
        assert [f.name for f in dataclasses.fields(DeConfig)] == ["max_generations", "window", "tol", "seed"]
        assert [f.name for f in dataclasses.fields(DeResult)] == ["z", "value", "generations", "evaluations"]
        assert (MUTATION, CROSSOVER, POPULATION_PER_VARIABLE, MIN_POPULATION) == (0.7, 0.9, 10, 30)
        assert DeConfig() == DeConfig(max_generations=300, window=20, tol=1e-6, seed=0)
        assert DeConfig.reference() == DeConfig(max_generations=400, window=40, tol=1e-8, seed=0)

    def test_plateau_stops_at_the_default_window(self):
        result = de_minimize(lambda Z: np.full(len(Z), 7.0), [[-1.0, 3.0]] * 2, DeConfig(seed=2))
        assert result.generations == DeConfig().window == 20
        assert result.evaluations == 21 * 30  # the initial population and 20 generations

    def test_default_rule_is_absolute_so_argmin_ignores_a_shift(self):
        # A tolerance scaled by the best value would stop the shifted run earlier, at another point.
        bounds = [[-5.0, 5.0]] * 3
        plain = de_minimize(sphere, bounds, DeConfig(seed=13))
        shifted = de_minimize(lambda z: sphere(z) + 42.0, bounds, DeConfig(seed=13))
        assert plain.generations < DeConfig().max_generations  # stopped by the plateau test
        np.testing.assert_array_equal(plain.z, shifted.z)
        assert plain.generations == shifted.generations


@pytest.mark.parametrize("make", [toy_problem, sellar_problem])
def test_reference_resolve_keeps_its_own_de_settings(make):
    # The reference solve must not follow the proposal defaults: 400 generations, 40 at 1e-8, seed 0.
    problem = make()
    got = resolve_reference(problem, recompute=True)
    objective = penalized_mdo_objective(problem.disciplines, problem, MdaConfig.reference(1e-10))
    tight = DeConfig(max_generations=400, window=40, tol=1e-8, seed=0)
    want = de_minimize(objective, problem.z_bounds, tight)
    f_true, _ = problem.true_objective(want.z, tolerance=1e-10)
    np.testing.assert_array_equal(got.z, want.z)
    assert got.objective == float(f_true)


class TestPenalizedObjective:
    def test_true_sellar_at_reference_has_no_penalty(self):
        problem = sellar_problem()
        objective = penalized_mdo_objective(problem.disciplines, problem, TIGHT_MDA)
        (value,) = objective(np.array([[0.0, 2.6345, 0.0]]))
        assert value == pytest.approx(-2.8085, abs=1e-3)

    def test_forced_nonconvergence_hits_base_floor(self):
        # oscillating discipline never converges; the objective is nonnegative,
        # so the scored value sits at or above the base penalty
        problem = MdoProblem(
            problem_id="osc",
            z_bounds=[[-1.0, 1.0]],
            y_bounds=[[-10.0, 10.0]],
            disciplines=(Discipline("osc", produces=[0], consumes=[0], fn=lambda Z, Y: -1.2 * Y[:, 0] + 1.0),),
            objective=lambda Z, Y: Z[:, 0] ** 2,
        )
        objective = penalized_mdo_objective(
            problem.disciplines, problem, MdaConfig(tolerance=1e-10, max_iterations=20, aitken=False)
        )
        assert objective(np.array([[0.5]]))[0] >= 1000.0

    def test_nonconvergence_adds_base_to_last_iterate_objective(self):
        # negative objective at the last iterate lands just below the base,
        # the regime the 999.47-style values come from
        problem = MdoProblem(
            problem_id="osc2",
            z_bounds=[[-1.0, 1.0]],
            y_bounds=[[-10.0, 10.0]],
            disciplines=(Discipline("osc", produces=[0], consumes=[0], fn=lambda Z, Y: -Y[:, 0] + 1.0),),
            objective=lambda Z, Y: np.full(Z.shape[0], -0.5285),
        )
        objective = penalized_mdo_objective(
            problem.disciplines, problem, MdaConfig(tolerance=1e-10, max_iterations=15, aitken=False)
        )
        assert objective(np.array([[0.0]]))[0] == pytest.approx(1000.0 - 0.5285, abs=1e-9)

    def test_bound_violation_penalty(self):
        # fixed point y = 5 sits above the shrunken coupling box [0, 2]
        problem = MdoProblem(
            problem_id="viol",
            z_bounds=[[-1.0, 1.0]],
            y_bounds=[[0.0, 2.0]],
            disciplines=(Discipline("d", produces=[0], consumes=[0], fn=lambda Z, Y: 0.5 * Y[:, 0] + 2.5),),
            objective=lambda Z, Y: Z[:, 0],
        )
        objective = penalized_mdo_objective(problem.disciplines, problem, TIGHT_MDA)
        (value,) = objective(np.array([[0.25]]))
        # f + base + weight * (5 - 2) / (2 - 0)
        assert (PENALTY_BASE, BOUND_WEIGHT) == (1000.0, 100.0)
        assert value == pytest.approx(0.25 + PENALTY_BASE + BOUND_WEIGHT * 1.5, abs=1e-6)

    def test_penalized_values_separate_from_plain_values(self):
        problem = toy_problem()
        objective = penalized_mdo_objective(problem.disciplines, problem, TIGHT_MDA)
        rng = np.random.default_rng(9)
        Z = rng.uniform(-5.0, 5.0, size=(40, 1))
        values = objective(Z)
        plain = values[values < 500.0]
        penalized = values[values >= 500.0]
        assert plain.size > 0
        if penalized.size:
            assert penalized.min() > plain.max()

    def test_feasible_optimum_carries_no_penalty_on_recomputation(self):
        problem = sellar_problem()
        objective = penalized_mdo_objective(problem.disciplines, problem, SURROGATE_MDA)
        cfg = DeConfig(max_generations=60, seed=10)
        result = de_minimize(objective, problem.z_bounds, cfg)
        assert result.value == pytest.approx(objective(result.z[None, :])[0], abs=1e-12)
        assert result.value < 500.0  # converged in-bounds: plain objective scale

    def test_batch_and_scalar_agree(self):
        # Each candidate scored alone, as a batch of one, matches its row of the batch.
        problem = toy_problem()
        objective = penalized_mdo_objective(problem.disciplines, problem, TIGHT_MDA)
        Z = np.array([[-3.0], [0.0], [4.0]])
        batch = objective(Z)
        assert batch.shape == (3,)
        singles = np.concatenate([objective(z[None, :]) for z in Z])
        np.testing.assert_allclose(batch, singles, rtol=1e-12)

    def test_evaluator_count_checked(self):
        problem = toy_problem()
        with pytest.raises(ValueError, match="one evaluator per discipline"):
            penalized_mdo_objective(problem.bind([problem.disciplines[0].fn]), problem, TIGHT_MDA)
