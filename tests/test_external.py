import json
import os
import sys
import time

import numpy as np
import pytest

from mdots.external import ExternalDiscipline, load_external_problem
from mdots.mda import DisciplineFailure, MdaConfig, MdaStatus, gauss_seidel_solve
from mdots.problems import Discipline

WORKER = os.path.join(os.path.dirname(__file__), "child_worker.py")


def child(mode):
    return [sys.executable, WORKER, mode]


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


class TestInsideMda:
    def test_failure_becomes_evaluator_failure_status(self):
        with ExternalDiscipline(child("error")) as ev:
            disc = Discipline("remote", produces=[0], consumes=[], fn=ev)
            state = gauss_seidel_solve([disc], [0.0], np.array([0.0]), MdaConfig(tolerance=1e-8, max_iterations=10))
        assert state.status == MdaStatus.EVALUATOR_FAILURE

    def test_contractive_remote_discipline_converges(self):
        # child computes z + y/2 through the sum mode with scaled inputs
        with ExternalDiscipline(child("sum")) as ev:
            def half_feedback(Z, Yin):
                return ev(Z, 0.5 * Yin)

            disc = Discipline("remote", produces=[0], consumes=[0], fn=half_feedback)
            state = gauss_seidel_solve([disc], [1.0], np.array([0.0]), MdaConfig(tolerance=1e-10, max_iterations=100))
        assert state.status == MdaStatus.CONVERGED
        assert state.y[0] == pytest.approx(2.0, rel=1e-8)  # y = 1 + y/2


class TestExternalProblem:
    def test_load_spec_and_solve(self, tmp_path):
        spec = {
            "z_bounds": [[0.0, 4.0]],
            "y_bounds": [[-20.0, 20.0]],
            "disciplines": [{"cmd": f"{sys.executable} {WORKER} double", "produces": [0], "consumes": []}],
            "objective_cmd": f"{sys.executable} {WORKER} sum",
            "reference": {"z": [0.0], "objective": 0.0},
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(spec))
        problem = load_external_problem(str(path))
        assert problem.problem_id == "external"
        state = gauss_seidel_solve(problem.disciplines, [1.5], np.zeros(1), MdaConfig(tolerance=1e-9, max_iterations=20))
        assert state.status == MdaStatus.CONVERGED
        assert state.y[0] == pytest.approx(3.0)
        # objective child computes z + y*
        val = problem.objective(np.array([[1.5]]), state.y[None, :])
        assert float(val[0]) == pytest.approx(4.5)
