import json
import os
import sys
import time

import numpy as np
import pytest

from mdots import external
from mdots.external import ExternalDiscipline, load_external_problem
from mdots.mda import DisciplineFailure, MdaConfig, MdaStatus, gauss_seidel_solve, solve_batch
from mdots.problems import Discipline, initial_doe_training_sets
from mdots.study import ExperimentConfig, run_replicate, run_study

WORKER = os.path.join(os.path.dirname(__file__), "child_worker.py")


def child(*args):
    return [sys.executable, WORKER, *args]


class TestProtocol:
    def test_echo_double(self):
        with ExternalDiscipline(child("double")) as ev:
            out = ev(np.array([[1.5], [-2.0]]), np.zeros((2, 0)))
        np.testing.assert_allclose(out, [[3.0], [-4.0]])

    def test_documented_keys_only(self):
        with ExternalDiscipline(child("echo-keys")) as ev:
            out = ev(np.array([[1.0]]), np.array([[0.5]]))
            assert np.all(np.isfinite(out))
            assert ev.last_error is None
        # message content checked through a direct protocol round trip
        import subprocess

        with subprocess.Popen(child("echo-keys"), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) as proc:
            proc.stdin.write(json.dumps({"id": 1, "z": [1.0], "y_in": [2.0]}) + "\n")
            proc.stdin.flush()
            response = json.loads(proc.stdout.readline())
            proc.stdin.close()
        assert response["message"] == "id,y_in,z"
        assert set(response) == {"id", "status", "y_out", "message"}

    def test_remote_error_status(self):
        with ExternalDiscipline(child("error")) as ev:
            out = ev(np.array([[1.0]]), np.zeros((1, 0)))
            assert np.isnan(out).all()
            assert ev.last_error is not None
            assert ev.last_error.kind == "remote"
            assert "blew up" in str(ev.last_error)

    def test_crash_mid_request(self):
        with ExternalDiscipline(child("crash")) as ev:
            out = ev(np.array([[1.0]]), np.zeros((1, 0)))
            assert np.isnan(out).all()
            assert ev.last_error.kind == "crash"

    def test_timeout(self):
        with ExternalDiscipline(child("sleep"), timeout=0.3) as ev:
            out = ev(np.array([[1.0]]), np.zeros((1, 0)))
            assert np.isnan(out).all()
            assert ev.last_error.kind == "timeout"

    def test_timeout_is_a_deadline_for_the_whole_line(self):
        # The full reply takes ~3 s to trickle out; no single byte waits 0.5 s.
        with ExternalDiscipline(child("trickle"), timeout=0.5) as ev:
            t0 = time.monotonic()
            out = ev(np.array([[1.0]]), np.zeros((1, 0)))
            elapsed = time.monotonic() - t0
            assert np.isnan(out).all()
            assert ev.last_error is not None and ev.last_error.kind == "timeout"
        assert elapsed < 2.0

    def test_malformed_response(self):
        with ExternalDiscipline(child("garbage")) as ev:
            out = ev(np.array([[1.0]]), np.zeros((1, 0)))
            assert np.isnan(out).all()
            assert ev.last_error.kind == "protocol"

    def test_id_mismatch(self):
        with ExternalDiscipline(child("wrong-id")) as ev:
            out = ev(np.array([[1.0]]), np.zeros((1, 0)))
            assert np.isnan(out).all()
            assert ev.last_error.kind == "protocol"

    def test_unstartable_command(self):
        with pytest.raises(DisciplineFailure):
            ExternalDiscipline(["/nonexistent/solver"])

    def test_requests_are_json_dumps_of_each_request(self):
        Z = np.array([[0.1, -0.0, 5e-324], [np.nan, np.inf, -np.inf], [1e300, 1 / 3, -2.5]])
        Y_in = np.array([[2.0 / 3], [np.nan], [-1e-310]])
        expected = "".join(
            json.dumps({"id": 41 + i, "z": list(map(float, z)), "y_in": list(map(float, y))}) + "\n"
            for i, (z, y) in enumerate(zip(Z, Y_in))
        )
        assert external._encode_requests(41, Z, Y_in) == expected.encode("utf-8")
        no_inputs = "".join(json.dumps({"id": 1 + i, "z": [float(v)], "y_in": []}) + "\n" for i, v in enumerate([1.0, 2.0]))
        assert external._encode_requests(1, np.array([[1.0], [2.0]]), np.zeros((2, 0))) == no_inputs.encode("utf-8")


class TestPipelinedBatch:
    def test_remote_error_fails_only_its_row(self):
        Z = np.arange(1.0, 6.0)[:, None]
        with ExternalDiscipline(child("error-odd")) as ev:
            out = ev(Z, np.zeros((5, 0)))
            assert ev.last_error is not None and ev.last_error.kind == "remote"
            # ids 1, 3 and 5 fail; the child is still alive for the next call.
            assert np.isnan(out[[0, 2, 4]]).all()
            np.testing.assert_array_equal(out[[1, 3]], 2.0 * Z[[1, 3]])
            np.testing.assert_array_equal(ev(np.array([[7.0]]), np.zeros((1, 0))), [[14.0]])

    def test_crash_mid_batch_keeps_earlier_rows(self):
        Z = np.arange(1.0, 7.0)[:, None]
        with ExternalDiscipline(child("crash", "3")) as ev:
            out = ev(Z, np.zeros((6, 0)))
            np.testing.assert_array_equal(out[:3], 2.0 * Z[:3])
            assert np.isnan(out[3:]).all()
            assert ev.last_error.kind == "crash"
            assert np.isnan(ev(Z[:2], np.zeros((2, 0)))).all()
            assert ev.last_error.kind == "crash"

    def test_trickling_batch_times_out_within_one_timeout(self):
        with ExternalDiscipline(child("trickle"), timeout=0.5) as ev:
            t0 = time.monotonic()
            out = ev(np.arange(4.0)[:, None], np.zeros((4, 0)))
            elapsed = time.monotonic() - t0
            assert np.isnan(out).all()
            assert ev.last_error is not None and ev.last_error.kind == "timeout"
        assert elapsed < 2.0

    def test_ids_are_consecutive_across_calls(self):
        with ExternalDiscipline(child("id")) as ev:
            first = ev(np.zeros((3, 1)), np.zeros((3, 0)))
            second = ev(np.zeros((2, 1)), np.zeros((2, 0)))
        np.testing.assert_array_equal(first[:, 0], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(second[:, 0], [4.0, 5.0])

    def test_large_batch_fills_both_pipes_without_deadlock(self):
        # ~3 MB each way: far beyond a pipe buffer, so requests and replies must interleave.
        Z = np.random.default_rng(5).standard_normal((3000, 50))
        with ExternalDiscipline(child("double"), n_outputs=50, timeout=5.0) as ev:
            out = ev(Z, np.zeros((3000, 0)))
            assert ev.last_error is None
        np.testing.assert_array_equal(out, 2.0 * Z)

    def test_batch_equals_row_by_row_calls(self):
        rng = np.random.default_rng(9)
        Z = rng.uniform(-10.0, 10.0, (200, 3))
        Y_in = rng.uniform(-10.0, 10.0, (200, 1))
        with ExternalDiscipline(child("sum")) as ev:
            batch = ev(Z, Y_in)
            rows = np.vstack([ev(Z[i : i + 1], Y_in[i : i + 1]) for i in range(len(Z))])
        assert batch.tobytes() == rows.tobytes()

    def test_reply_of_the_wrong_width_fails_its_row(self):
        # One output declared; "double" answers one value per design variable.
        with ExternalDiscipline(child("double")) as ev:
            out = ev(np.array([[1.0, 2.0], [3.0, 4.0]]), np.zeros((2, 0)))
            assert out.shape == (2, 1) and np.isnan(out).all()
            assert ev.last_error is not None and ev.last_error.kind == "protocol"
            assert "expected 1" in str(ev.last_error)
            # Not fatal: the child still answers a well-formed row.
            np.testing.assert_array_equal(ev(np.array([[5.0]]), np.zeros((1, 0))), [[10.0]])

    def test_mismatched_row_counts_rejected(self):
        with ExternalDiscipline(child("double")) as ev:
            with pytest.raises(ValueError):
                ev(np.zeros((3, 1)), np.zeros((2, 0)))


class TestInsideMda:
    def test_failure_becomes_evaluator_failure_status(self):
        with ExternalDiscipline(child("error")) as ev:
            disc = Discipline("remote", produces=[0], consumes=[], fn=ev)
            state = gauss_seidel_solve([disc], [0.0], np.array([0.0]), MdaConfig(tolerance=1e-8, max_iterations=10))
        assert state.status == MdaStatus.EVALUATOR_FAILURE

    def test_multi_output_discipline_with_every_row_failed(self):
        # The width comes from the spec's "produces", not from a good reply, so a batch with none still has shape.
        spec = {
            "z_bounds": [[0.0, 1.0]],
            "y_bounds": [[-1.0, 1.0], [-1.0, 1.0]],
            "disciplines": [{"cmd": child("error"), "produces": [0, 1], "consumes": []}],
            "objective_cmd": child("sum"),
        }
        with load_external_problem(spec) as problem:
            res = solve_batch(problem.disciplines, np.array([[0.1], [0.2], [0.3]]), problem.y_midpoint(), MdaConfig())
            np.testing.assert_array_equal(res.status, [int(MdaStatus.EVALUATOR_FAILURE)] * 3)
            assert "returned non-finite output" in res.failure
            with pytest.raises(RuntimeError, match="fewer than two usable DoE points"), pytest.warns(UserWarning):
                initial_doe_training_sets(problem, 3, np.random.default_rng(0))

    def test_contractive_remote_discipline_converges(self):
        # child computes z + y/2 through the sum mode with scaled inputs
        with ExternalDiscipline(child("sum")) as ev:
            def half_feedback(Z, Yin):
                return ev(Z, 0.5 * Yin)

            disc = Discipline("remote", produces=[0], consumes=[0], fn=half_feedback)
            state = gauss_seidel_solve([disc], [1.0], np.array([0.0]), MdaConfig(tolerance=1e-10, max_iterations=100))
        assert state.status == MdaStatus.CONVERGED
        assert state.y[0] == pytest.approx(2.0, rel=1e-8)  # y = 1 + y/2


def write_spec(tmp_path, discipline_mode="double"):
    # y = 2z from the discipline child; the objective child returns z + y = 3z.
    spec = {
        "z_bounds": [[1.0, 4.0]],
        "y_bounds": [[-20.0, 20.0]],
        "disciplines": [{"cmd": f"{sys.executable} {WORKER} {discipline_mode}", "produces": [0], "consumes": []}],
        "objective_cmd": f"{sys.executable} {WORKER} sum",
        "reference": {"z": [1.0], "objective": 3.0},
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(spec))
    return str(path)


@pytest.fixture()
def started_children(monkeypatch):
    """Every ExternalDiscipline built during the test; holding them keeps ``__del__`` from closing any."""
    started = []
    init = ExternalDiscipline.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        started.append(self)

    monkeypatch.setattr(ExternalDiscipline, "__init__", recording_init)
    return started


class TestExternalProblem:
    def test_load_spec_and_solve(self, tmp_path):
        problem = load_external_problem(write_spec(tmp_path))
        assert problem.problem_id == "external"
        state = gauss_seidel_solve(problem.disciplines, [1.5], np.zeros(1), MdaConfig(tolerance=1e-9, max_iterations=20))
        assert state.status == MdaStatus.CONVERGED
        assert state.y[0] == pytest.approx(3.0)
        # objective child computes z + y*
        val = problem.objective(np.array([[1.5]]), state.y[None, :])
        assert float(val[0]) == pytest.approx(4.5)

    def test_close_stops_every_child(self, tmp_path, started_children):
        with load_external_problem(write_spec(tmp_path)) as problem:
            assert len(started_children) == 2
            assert all(ev._proc.poll() is None for ev in started_children)
            assert problem.objective(np.array([[1.0]]), np.array([[2.0]]))[0] == 3.0
        assert all(ev._proc.poll() is not None for ev in started_children)

    def test_run_replicate_and_study_leave_no_child_running(self, tmp_path, started_children):
        cfg = ExperimentConfig(
            problem="external", external_cmd=write_spec(tmp_path), n_doe=2, n_iter=1, n_features=50,
            de_max_generations=5, gp_restarts=1, workers=1,
        )
        record = run_replicate(cfg, 0)
        assert record.evaluations_per_discipline() == [3]
        assert len(started_children) == 2
        run_study(cfg)
        # Two problems for the study: its one replicate, and the one for the reference and summary.
        assert len(started_children) == 6
        assert all(ev._proc.poll() is not None for ev in started_children)

    @pytest.mark.parametrize(
        "broken",
        [{"objective_cmd": "/nonexistent/objective"}, {"y_bounds": [[20.0, -20.0]]}],
        ids=["objective-does-not-start", "invalid-bounds"],
    )
    def test_failed_load_stops_children_already_started(self, tmp_path, started_children, broken):
        with open(write_spec(tmp_path), encoding="utf-8") as fh:
            spec = {**json.load(fh), **broken}
        with pytest.raises((DisciplineFailure, ValueError)):
            load_external_problem(spec)
        assert started_children
        assert all(ev._proc.poll() is not None for ev in started_children)
