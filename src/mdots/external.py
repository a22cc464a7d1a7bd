"""Attach black-box solvers as disciplines over a line-delimited JSON protocol.

Per evaluation the adapter writes one request line to the child's stdin and
reads one response line from its stdout:

    request:  {"id": <int>, "z": [...], "y_in": [...]}
    response: {"id": <int>, "status": "ok"|"error", "y_out": [...], "message": <string>}

One UTF-8 JSON object per line, flushed after each line. Crashes, timeouts,
id mismatches and malformed lines all surface as failed evaluations, never
as exceptions out of a coupled solve.
"""

from __future__ import annotations

import json
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


class ExternalDiscipline:
    """Evaluator backed by a child process speaking the line protocol.

    Calls are serialized with a lock, so one request is in flight per child.
    Batch evaluation loops over rows; a row that fails is returned as NaN
    and the diagnostic kept in ``last_error``.
    """

    def __init__(self, command, *, timeout: float = DEFAULT_TIMEOUT, name: str = "external"):
        self.command = shlex.split(command) if isinstance(command, str) else list(command)
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

    def _read_line(self) -> bytes:
        # One deadline for the whole line, so a child trickling bytes still times out.
        deadline = time.monotonic() + self.timeout
        fd = self._proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0.0 or not select.select([fd], [], [], remaining)[0]:
                raise DisciplineFailure(f"no response within {self.timeout:g} s", kind="timeout")
            chunk = self._proc.stdout.read(65536)
            if not chunk:
                raise DisciplineFailure("child process closed its output stream", kind="crash")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line

    def _call_one(self, z: np.ndarray, y_in: np.ndarray) -> np.ndarray:
        if self._proc.poll() is not None:
            raise DisciplineFailure(f"child process exited with code {self._proc.returncode}", kind="crash")
        self._request_id += 1
        request = {"id": self._request_id, "z": list(map(float, z)), "y_in": list(map(float, y_in))}
        try:
            self._proc.stdin.write((json.dumps(request) + "\n").encode("utf-8"))
            self._proc.stdin.flush()
            line = self._read_line()
        except DisciplineFailure:
            self._terminate()
            raise
        except (BrokenPipeError, OSError) as exc:
            self._terminate()
            raise DisciplineFailure(f"child process pipe broke: {exc}", kind="crash") from exc
        try:
            response = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._terminate()
            raise DisciplineFailure(f"malformed response line: {exc}", kind="protocol") from exc
        if not isinstance(response, dict) or response.get("id") != self._request_id:
            self._terminate()
            raise DisciplineFailure("response id does not match request id", kind="protocol")
        if response.get("status") != "ok":
            raise DisciplineFailure(str(response.get("message", "remote error")), kind="remote")
        try:
            return np.asarray(response["y_out"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise DisciplineFailure(f"unusable y_out in response: {exc}", kind="protocol") from exc

    def __call__(self, Z, Y_in) -> np.ndarray:
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        Y_in = np.atleast_2d(np.asarray(Y_in, dtype=float))
        rows = []
        with self._lock:
            for z, y_in in zip(Z, Y_in):
                try:
                    rows.append(self._call_one(z, y_in))
                except DisciplineFailure as exc:
                    self.last_error = exc
                    rows.append(None)
        width = next((r.size for r in rows if r is not None), 1)
        out = np.full((Z.shape[0], width), np.nan)
        for i, r in enumerate(rows):
            if r is not None and r.size == width:
                out[i] = r
        return out

    def _terminate(self):
        if self._proc.poll() is None:
            self._proc.kill()
            self._proc.wait()

    def _close_pipes(self):
        for pipe in (self._proc.stdin, self._proc.stdout):
            if pipe is not None and not pipe.closed:
                try:
                    pipe.close()
                except OSError:
                    pass

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
        self._close_pipes()

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
    ``cmd``, ``produces``, ``consumes`` and optional ``timeout``) and
    ``objective_cmd``, a child speaking the same protocol whose single
    output is the objective value at (z, y_star). ``reference`` with keys
    ``z`` and ``objective`` is optional.
    """
    if isinstance(spec, str):
        with open(spec, encoding="utf-8") as fh:
            spec = json.load(fh)
    disciplines = []
    for k, d in enumerate(spec["disciplines"]):
        ev = ExternalDiscipline(d["cmd"], timeout=d.get("timeout", DEFAULT_TIMEOUT), name=f"external_{k}")
        disciplines.append(Discipline(ev.name, produces=d["produces"], consumes=d["consumes"], fn=ev))
    obj = ExternalDiscipline(spec["objective_cmd"], timeout=spec.get("timeout", DEFAULT_TIMEOUT), name="objective")

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
    )
