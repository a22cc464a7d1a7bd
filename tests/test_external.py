import json
import os
import re
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1e300, 1 / 3,
                  np.nan, np.inf, -np.inf]


def request_lines(first_id, Z, Y_in):
    """The wire bytes the protocol promises: ``json.dumps`` of each request dict, one per line."""
    return "".join(
        json.dumps({"id": first_id + i, "z": list(map(float, z)), "y_in": list(map(float, y))}) + "\n"
        for i, (z, y) in enumerate(zip(Z, Y_in))
    ).encode("utf-8")


class TestWireBytes:
    """Design-row texts are kept from one call to the next; what goes on the wire must not change."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        d_z=st.integers(0, 3),
        k=st.integers(0, 2),
        pool=st.lists(st.floats(allow_subnormal=True) | st.sampled_from(SPECIAL_FLOATS), min_size=3, max_size=24),
        calls=st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=10), min_size=1, max_size=6),
        y_seed=st.integers(0, 2**32 - 1),
    )
    def test_every_call_of_a_sequence_is_json_dumps(self, d_z, k, pool, calls, y_seed):
        rows = np.resize(np.array(pool, dtype=float), (8, d_z))  # rows repeat
        if d_z:
            rows[1] = rows[0]
            rows[0, 0], rows[1, 0] = 0.0, -0.0  # rows that compare equal but differ in their bits
        y_values = np.random.default_rng(y_seed).choice(np.array(SPECIAL_FLOATS + [2.0 / 3, -7.5]), size=(40, 2))
        z_texts, first_id = {}, 1
        for call in calls:
            Z, Y_in = rows[call], y_values[: len(call), :k]
            assert external._encode_requests(first_id, Z, Y_in, z_texts) == request_lines(first_id, Z, Y_in)
            assert len(z_texts) <= len(call)  # only this call's rows are kept
            first_id += len(call)

    def test_rows_that_stay_leave_and_move_on_a_live_child(self, tmp_path):
        # Like the sweeps of a coupled solve: the same rows again, some gone, the rest reordered, new ones added.
        log = tmp_path / "requests.ndjson"
        Z = np.array([[0.0, 1.5], [-0.0, 1.5], [np.nan, 5e-324], [np.inf, -np.inf], [0.1, -2.2250738585072014e-308]])
        Y_in = np.array([[1 / 3], [-0.0], [2.5e-310], [-1e300], [0.0]])
        calls = [[0, 1, 2, 3, 4], [0, 1, 2, 3, 4], [4, 2, 0], [2, 0], [1, 3, 3, 0]]
        expected = b""
        with ExternalDiscipline(child("tee", str(log))) as ev:
            for step, call in enumerate(calls):
                Y_step = Y_in[call] * (step + 1)
                out = ev(Z[call], Y_step)
                assert ev.last_error is None and (out == 0.0).all()
                expected += request_lines(1 + len(expected.splitlines()), Z[call], Y_step)
            no_inputs = ev(Z[:2], np.zeros((2, 0)))
            assert ev.last_error is None and (no_inputs == 0.0).all()
            expected += request_lines(1 + len(expected.splitlines()), Z[:2], np.zeros((2, 0)))
        assert log.read_bytes() == expected


def reference_parse_reply(line: bytes, request_id: int, width: int):
    """The per-line parser the adapter had before replies were judged a chunk at a time: the oracle.

    With one change since: no reply raises anything but a ``DisciplineFailure``.
    A line ``json.loads`` refuses with any ``ValueError`` (an integer past the
    digit limit, not only a ``JSONDecodeError``) or a ``RecursionError`` (deep
    nesting) is malformed, and a ``y_out`` integer beyond float range fails
    its row. The old parser let those three escape out of a coupled solve.
    """
    try:
        response = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise DisciplineFailure(f"malformed response line: {exc}", kind="protocol") from exc
    if not isinstance(response, dict) or response.get("id") != request_id:
        raise DisciplineFailure("response id does not match request id", kind="protocol")
    if response.get("status") != "ok":
        return DisciplineFailure(str(response.get("message", "remote error")), kind="remote")
    try:
        y_out = np.asarray(response["y_out"], dtype=float).ravel()
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        return DisciplineFailure(f"unusable y_out in response: {exc}", kind="protocol")
    if y_out.size != width:
        return DisciplineFailure(f"y_out has {y_out.size} values, expected {width}", kind="protocol")
    return y_out


def reference_batch(lines, first_id, width):
    """Rows, last failure and whether the child is killed, judging the lines one at a time as before."""
    rows, last_error = np.full((len(lines), width), np.nan), None
    for i, line in enumerate(lines):
        try:
            reply = reference_parse_reply(line, first_id + i, width)
        except DisciplineFailure as exc:
            return rows, exc, True
        if isinstance(reply, DisciplineFailure):
            last_error = reply
        else:
            rows[i] = reply
    return rows, last_error, False


def chunk_batch(lines, first_id, width):
    rows = np.full((len(lines), width), np.nan)
    error, fatal = external._parse_replies(lines, first_id, rows)
    return rows, (error if fatal is None else fatal), fatal is not None


def failure_of(exc):
    return None if exc is None else (type(exc), exc.kind, str(exc))


def outcome(batch, lines, first_id, width):
    try:
        rows, last_error, killed = batch(lines, first_id, width)
    except Exception as exc:  # what escaped the old parser must escape the new one alike
        return ("raises", type(exc))
    return ("returns", rows.tobytes(), failure_of(last_error), killed)


GOOD = b'{"id": $ID, "status": "ok", "y_out": [1.5], "message": ""}'
REPLY_CORPUS = {
    "good": GOOD,
    "leading-spaces": b"  \t" + GOOD,
    "trailing-spaces": GOOD + b"   ",
    "trailing-cr": GOOD + b"\r",
    "extra-object": GOOD + b' {"id": $ID}',
    "extra-text": GOOD + b"x",
    "int-y": b'{"id": $ID, "status": "ok", "y_out": [3], "message": ""}',
    "nested-y": b'{"id": $ID, "status": "ok", "y_out": [[2.5]], "message": ""}',
    "ragged-y": b'{"id": $ID, "status": "ok", "y_out": [[1.0], [1.0, 2.0]], "message": ""}',
    "string-y": b'{"id": $ID, "status": "ok", "y_out": "abc", "message": ""}',
    "numeric-string-y": b'{"id": $ID, "status": "ok", "y_out": ["1.5"], "message": ""}',
    "scalar-y": b'{"id": $ID, "status": "ok", "y_out": 4.5, "message": ""}',
    "null-y": b'{"id": $ID, "status": "ok", "y_out": null, "message": ""}',
    "object-y": b'{"id": $ID, "status": "ok", "y_out": {}, "message": ""}',
    "bool-y": b'{"id": $ID, "status": "ok", "y_out": [true], "message": ""}',
    "huge-exponent-y": b'{"id": $ID, "status": "ok", "y_out": [1e400], "message": ""}',
    "huge-int-y": b'{"id": $ID, "status": "ok", "y_out": [1' + b"0" * 400 + b'], "message": ""}',
    "too-many-digits-y": b'{"id": $ID, "status": "ok", "y_out": [1' + b"0" * 4300 + b'], "message": ""}',
    "deep-nesting-y": b'{"id": $ID, "status": "ok", "y_out": ' + b"[" * 100_000 + b"]" * 100_000 + b', "message": ""}',
    "no-y": b'{"id": $ID, "status": "ok", "message": ""}',
    "no-status": b'{"id": $ID, "y_out": [1.5]}',
    "error": b'{"id": $ID, "status": "error", "y_out": [], "message": "solver diverged"}',
    "error-no-message": b'{"id": $ID, "status": "error"}',
    "error-number-message": b'{"id": $ID, "status": "failed", "message": 42}',
    "wrong-id": b'{"id": 99999, "status": "ok", "y_out": [1.5], "message": ""}',
    "float-id": b'{"id": $ID.0, "status": "ok", "y_out": [1.5], "message": ""}',
    "string-id": b'{"id": "$ID", "status": "ok", "y_out": [1.5], "message": ""}',
    "wide": b'{"id": $ID, "status": "ok", "y_out": [1.0, 2.0], "message": ""}',
    "empty-y": b'{"id": $ID, "status": "ok", "y_out": [], "message": ""}',
    "nan": b'{"id": $ID, "status": "ok", "y_out": [NaN], "message": ""}',
    "infinity": b'{"id": $ID, "status": "ok", "y_out": [Infinity], "message": ""}',
    "minus-infinity": b'{"id": $ID, "status": "ok", "y_out": [-Infinity], "message": ""}',
    "non-utf8": b'{"id": $ID, "status": "ok", "y_out": [1.5], "message": "\xff"}',
    "encoded-surrogate": b'{"id": $ID, "status": "ok", "y_out": [1.5], "message": "\xed\xa0\x80"}',
    "utf8-message": '{"id": $ID, "status": "error", "message": "pression \u00e9lev\u00e9e"}'.encode("utf-8"),
    "bom": b"\xef\xbb\xbf" + GOOD,
    "empty-line": b"",
    "blank-line": b"   ",
    "array": b"[1, 2]",
    "truncated": b'{"id": $ID, "status": "ok", "y_out": [1.5',
    "tab-in-string": b'{"id": $ID, "status": "error", "message": "a\tb"}',
    "not-json": b"this is not json",
}


def with_ids(templates, first_id):
    return [line.replace(b"$ID", str(first_id + i).encode()) for i, line in enumerate(templates)]


class TestReplyCorpus:
    """Each reply line is judged as the old one-line-at-a-time parser judged it."""

    @pytest.mark.parametrize("name", sorted(REPLY_CORPUS))
    @pytest.mark.parametrize("width", [1, 2])
    def test_alone_and_between_good_lines(self, name, width):
        line = REPLY_CORPUS[name]
        for templates in ([line], [GOOD, line, GOOD], [REPLY_CORPUS["error"], line, line]):
            lines = with_ids(templates, 7)
            assert outcome(chunk_batch, lines, 7, width) == outcome(reference_batch, lines, 7, width)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(names=st.lists(st.sampled_from(sorted(REPLY_CORPUS)), min_size=1, max_size=8), width=st.integers(1, 2))
    def test_any_sequence_of_lines_in_one_chunk(self, names, width):
        lines = with_ids([REPLY_CORPUS[name] for name in names], 3)
        assert outcome(chunk_batch, lines, 3, width) == outcome(reference_batch, lines, 3, width)

    @pytest.mark.parametrize(
        "name",
        [
            "good", "trailing-cr", "extra-text", "nested-y", "no-y", "error", "wrong-id", "wide", "nan", "non-utf8",
            "huge-int-y", "too-many-digits-y", "deep-nesting-y",
        ],
    )
    def test_through_a_live_child(self, tmp_path, name):
        script = tmp_path / "replies"
        templates = [GOOD, REPLY_CORPUS[name], GOOD]
        script.write_bytes(b"\n".join(templates))
        with ExternalDiscipline(child("replay", str(script))) as ev:
            out = ev(np.array([[1.0], [2.0], [3.0]]), np.zeros((3, 0)))
            got = ("returns", out.tobytes(), failure_of(ev.last_error), ev._proc.poll() is not None)
        assert got == outcome(reference_batch, with_ids(templates, 1), 1, 1)


class TestLastError:
    def test_describes_the_latest_call_only(self):
        with ExternalDiscipline(child("error-odd")) as ev:
            first = ev(np.array([[1.0]]), np.zeros((1, 0)))  # id 1 fails remotely
            assert np.isnan(first).all() and ev.last_error.kind == "remote"
            second = ev(np.array([[1.0]]), np.zeros((1, 0)))  # id 2 succeeds
            np.testing.assert_array_equal(second, [[2.0]])
            assert ev.last_error is None
            ev(np.array([[3.0]]), np.zeros((1, 0)))
            assert ev.last_error.kind == "remote"
            ev(np.zeros((0, 1)), np.zeros((0, 0)))
            assert ev.last_error is None


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
        assert state.status[0] == MdaStatus.EVALUATOR_FAILURE

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
        assert state.status[0] == MdaStatus.CONVERGED
        assert state.y[0, 0] == pytest.approx(2.0, rel=1e-8)  # y = 1 + y/2


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
        assert state.status[0] == MdaStatus.CONVERGED
        assert state.y[0, 0] == pytest.approx(3.0)
        # objective child computes z + y*
        val = problem.objective(np.array([[1.5]]), state.y)
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
            de_max_generations=5, workers=1,
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

    @pytest.mark.parametrize("key", ["objective_cmd", "z_bounds", "disciplines"])
    def test_missing_key_is_a_value_error_naming_it(self, tmp_path, started_children, key):
        with open(write_spec(tmp_path), encoding="utf-8") as fh:
            spec = json.load(fh)
        del spec[key]
        with pytest.raises(ValueError, match=f"missing the key '{key}'"):
            load_external_problem(spec)
        assert all(ev._proc.poll() is not None for ev in started_children)

    @pytest.mark.parametrize(
        "reference",
        [
            {"z": [1.0, 2.0], "objective": 3.0},
            {"z": [float("nan")], "objective": 3.0},
            {"z": [1.0], "objective": float("inf")},
            {"z": [1.0], "objective": 0.0},
        ],
        ids=["z-too-long", "z-not-finite", "objective-not-finite", "objective-zero"],
    )
    def test_reference_of_the_wrong_shape_is_a_value_error(self, tmp_path, started_children, reference):
        # Unchecked, the study summary pairs each variable with another's reference and drops the rest.
        with open(write_spec(tmp_path), encoding="utf-8") as fh:
            spec = {**json.load(fh), "reference": reference}
        with pytest.raises(ValueError, match="reference must hold 1 finite design values"):
            load_external_problem(spec)
        assert len(started_children) == 2
        assert all(ev._proc.poll() is not None for ev in started_children)

    @pytest.mark.parametrize("timeout", ["x", float("inf"), 1e10, float("nan"), 0, -1, True])
    @pytest.mark.parametrize("owner", ["discipline", "objective"])
    def test_bad_timeout_is_a_value_error_naming_it(self, tmp_path, started_children, owner, timeout):
        # Unchecked, each of these fails every row, or raises out of a call that must return NaN rows.
        with open(write_spec(tmp_path), encoding="utf-8") as fh:
            spec = json.load(fh)
        (spec["disciplines"][0] if owner == "discipline" else spec)["timeout"] = timeout
        with pytest.raises(ValueError, match=f"timeout must be .*, got {re.escape(repr(timeout))}$"):
            load_external_problem(spec)
        # The child with the bad timeout never starts; one started before it is stopped.
        assert len(started_children) == (0 if owner == "discipline" else 1)
        assert all(ev._proc.poll() is not None for ev in started_children)

    def test_unreadable_spec_path_is_a_value_error_naming_it(self, tmp_path):
        missing = str(tmp_path / "absent.json")
        with pytest.raises(ValueError, match="absent.json"):
            load_external_problem(missing)

    @pytest.mark.parametrize("spec", [{"disciplines": 5}, [1, 2]], ids=["disciplines-not-a-list", "spec-not-an-object"])
    def test_wrongly_typed_spec_is_a_value_error(self, spec):
        with pytest.raises(ValueError, match="malformed external problem spec"):
            load_external_problem(spec)
