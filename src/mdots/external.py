"""Attach black-box solvers as disciplines over a line-delimited JSON protocol.

Each evaluated row is one request line on the child's stdin and one response
line on its stdout:

    request:  {"id": <int>, "z": [...], "y_in": [...]}
    response: {"id": <int>, "status": "ok"|"error", "y_out": [...], "message": <string>}

One UTF-8 JSON object per line; request ids are consecutive over the life of
a child. A batch is pipelined: the adapter writes the requests of all its
rows while it reads the replies, so a request may be written before the
replies to earlier ones are read. A child must answer each line in order,
flushing each reply, and must not wait for EOF or for further input before
answering. The timeout is a deadline per reply: each full reply line must
arrive within ``timeout`` seconds of the previous one, or of the start of
the batch.

An ``"error"`` status fails its row only. A timeout, crash, broken pipe, id
mismatch or malformed line kills the child and fails that row and every row
after it. Failed rows come back as NaN, never as exceptions out of a coupled
solve.
"""

from __future__ import annotations

import json
import os
import select
import shlex
import subprocess
import threading
import time

import numpy as np

from .mda import DisciplineFailure
from .problems import Discipline, MdoProblem, ReferenceSolution

__all__ = ["ExternalDiscipline", "load_external_problem"]

DEFAULT_TIMEOUT = 300.0


def _row_texts(A: np.ndarray) -> list[str]:
    # The JSON text of each row's list, without brackets: no number's text holds "], [".
    return json.dumps(A.tolist())[2:-2].split("], [")


def _encode_requests(first_id: int, Z: np.ndarray, Y_in: np.ndarray) -> bytes:
    """Request lines with consecutive ids, byte for byte ``json.dumps`` of each request dict."""
    return "".join(
        f'{{"id": {first_id + i}, "z": [{z}], "y_in": [{y}]}}\n'
        for i, (z, y) in enumerate(zip(_row_texts(Z), _row_texts(Y_in)))
    ).encode("utf-8")


def _parse_reply(line: bytes, request_id: int, width: int):
    """The row's ``width`` outputs, or a failure of that row alone; raises if the stream itself is broken."""
    try:
        response = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DisciplineFailure(f"malformed response line: {exc}", kind="protocol") from exc
    if not isinstance(response, dict) or response.get("id") != request_id:
        raise DisciplineFailure("response id does not match request id", kind="protocol")
    if response.get("status") != "ok":
        return DisciplineFailure(str(response.get("message", "remote error")), kind="remote")
    try:
        y_out = np.asarray(response["y_out"], dtype=float).ravel()
    except (KeyError, TypeError, ValueError) as exc:
        return DisciplineFailure(f"unusable y_out in response: {exc}", kind="protocol")
    if y_out.size != width:
        return DisciplineFailure(f"y_out has {y_out.size} values, expected {width}", kind="protocol")
    return y_out


class ExternalDiscipline:
    """Evaluator backed by a child process speaking the line protocol.

    One call exchanges a whole batch with the child: every request line is
    written while the replies are read, in one ``select`` loop over both
    pipes, so no batch size can deadlock on full pipe buffers. Calls are
    serialized with a lock. Each reply must carry ``n_outputs`` values. A row
    that fails, a reply of the wrong width included, is returned as NaN and
    the diagnostic kept in ``last_error``; after a failure that kills the
    child, ``last_error`` names that failure.
    """

    def __init__(self, command, *, n_outputs: int = 1, timeout: float = DEFAULT_TIMEOUT, name: str = "external"):
        self.command = shlex.split(command) if isinstance(command, str) else list(command)
        self.n_outputs = n_outputs
        self.timeout = timeout
        self.name = name
        self.last_error: DisciplineFailure | None = None
        self._lock = threading.Lock()
        self._request_id = 0
        self._buffer = b""
        try:
            self._proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                bufsize=0,
            )
        except OSError as exc:
            raise DisciplineFailure(f"could not start {self.command!r}: {exc}", kind="crash") from exc
        os.set_blocking(self._proc.stdin.fileno(), False)

    def __call__(self, Z, Y_in) -> np.ndarray:
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        Y_in = np.atleast_2d(np.asarray(Y_in, dtype=float))
        if Y_in.shape[0] != Z.shape[0]:
            raise ValueError(f"{Z.shape[0]} design rows but {Y_in.shape[0]} coupling rows")
        out = np.full((Z.shape[0], self.n_outputs), np.nan)
        if len(out):
            with self._lock:
                self._exchange(Z, Y_in, out)
        return out

    def _exchange(self, Z: np.ndarray, Y_in: np.ndarray, rows: np.ndarray) -> None:
        """Send every row of the batch and fill ``rows`` from the replies, in order."""
        if self._proc.poll() is not None:
            self.last_error = DisciplineFailure(f"child process exited with code {self._proc.returncode}", kind="crash")
            return
        first_id = self._request_id + 1
        self._request_id += len(rows)
        pending = memoryview(_encode_requests(first_id, Z, Y_in))
        stdin, stdout = self._proc.stdin.fileno(), self._proc.stdout.fileno()
        done = 0
        deadline = time.monotonic() + self.timeout
        try:
            while done < len(rows):
                remaining = deadline - time.monotonic()
                if remaining <= 0.0:
                    raise DisciplineFailure(f"no response within {self.timeout:g} s", kind="timeout")
                readable, writable, _ = select.select([stdout], [stdin] if pending else [], [], remaining)
                if writable:
                    try:
                        pending = pending[os.write(stdin, pending):]
                    except BlockingIOError:
                        pass
                    except BrokenPipeError:
                        # The child stopped reading; its replies already written are still read.
                        pending = pending[:0]
                if not readable:
                    continue
                chunk = os.read(stdout, 65536)
                if not chunk:
                    raise DisciplineFailure("child process closed its output stream", kind="crash")
                self._buffer += chunk
                start = 0
                while done < len(rows) and (end := self._buffer.find(b"\n", start)) >= 0:
                    reply = _parse_reply(self._buffer[start:end], first_id + done, self.n_outputs)
                    if isinstance(reply, DisciplineFailure):
                        self.last_error = reply
                    else:
                        rows[done] = reply
                    done += 1
                    start = end + 1
                    deadline = time.monotonic() + self.timeout
                self._buffer = self._buffer[start:]
        except DisciplineFailure as exc:
            self.last_error = exc
            self._terminate()
        except OSError as exc:
            self.last_error = DisciplineFailure(f"child process pipe broke: {exc}", kind="crash")
            self._terminate()

    def _terminate(self):
        if self._proc.poll() is None:
            self._proc.kill()
            self._proc.wait()

    def close(self):
        if self._proc.poll() is None:
            try:
                self._proc.stdin.close()
            except OSError:
                pass
            try:
                self._proc.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                self._terminate()
        for pipe in (self._proc.stdin, self._proc.stdout):  # closing a closed pipe is a no-op
            try:
                pipe.close()
            except OSError:
                pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass


def load_external_problem(spec: dict | str) -> MdoProblem:
    """Build an MdoProblem from an external-problem spec (dict or JSON file path).

    Expected keys: ``z_bounds``, ``y_bounds``, ``disciplines`` (each with
    ``cmd``, ``produces``, ``consumes`` and optional ``timeout``; each reply
    carries one value per ``produces`` entry) and ``objective_cmd``, a child
    speaking the same protocol whose single output is the objective value at
    (z, y_star). ``reference`` with keys ``z`` and ``objective`` is
    optional. Close the problem to stop its children.
    """
    if isinstance(spec, str):
        with open(spec, encoding="utf-8") as fh:
            spec = json.load(fh)
    children = []
    try:
        disciplines = []
        for k, d in enumerate(spec["disciplines"]):
            ev = ExternalDiscipline(
                d["cmd"], n_outputs=len(d["produces"]), timeout=d.get("timeout", DEFAULT_TIMEOUT), name=f"external_{k}"
            )
            children.append(ev)
            disciplines.append(Discipline(ev.name, produces=d["produces"], consumes=d["consumes"], fn=ev))
        obj = ExternalDiscipline(spec["objective_cmd"], timeout=spec.get("timeout", DEFAULT_TIMEOUT), name="objective")
        children.append(obj)

        def objective(Z, Ystar):
            return obj(Z, Ystar)[:, 0]

        reference = None
        if "reference" in spec:
            reference = ReferenceSolution(
                z=np.asarray(spec["reference"]["z"], dtype=float),
                objective=float(spec["reference"]["objective"]),
            )
        return MdoProblem(
            problem_id="external",
            z_bounds=spec["z_bounds"],
            y_bounds=spec["y_bounds"],
            disciplines=tuple(disciplines),
            objective=objective,
            reference=reference,
            resources=tuple(children),
        )
    except BaseException:
        # A spec that fails part way must not leave the children already started running.
        for child in children:
            child.close()
        raise
