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

Per row the parent does little Python work. A design row's text is encoded
once per child: each call keeps its rows' texts, keyed by the rows' bytes,
for the next call, which in a coupled solve is the next sweep over the same
rows; the coupling inputs are encoded fresh. A call's request lines come
from one %-format. Each chunk of reply lines is decoded and scanned by the C
scanner ``json.loads`` runs, every line judged exactly as ``json.loads`` of
it would be, and the good rows are filled by one numpy assignment. Once the
requests are written the parent yields the CPU before each wait, so a child
sharing that CPU answers a run of requests per wake-up rather than one.
Measured on the Sellar reference re-solve (105,279 rows, three children,
all on one CPU of a 2-vCPU VM): 27.3 µs per row in the adapter, down from
39.8 µs, and parent CPU 0.83–0.88 times the children's, down from 1.27–1.34.
"""

from __future__ import annotations

import json
import os
import select
import shlex
import subprocess
import threading
import time
from itertools import count, repeat

import numpy as np

from .mda import DisciplineFailure
from .problems import Discipline, MdoProblem, ReferenceSolution

__all__ = ["ExternalDiscipline", "load_external_problem"]

DEFAULT_TIMEOUT = 300.0


def _row_texts(A: np.ndarray) -> list[str]:
    # The JSON text of each row's list, without brackets: no number's text holds "], [".
    return json.dumps(A.tolist())[2:-2].split("], [")


def _row_keys(A: np.ndarray) -> list[bytes]:
    # Each row's bytes: equal keys are bit-equal rows, so 0.0 and -0.0 get their own texts.
    if A.shape[1] == 0:
        return [b""] * len(A)
    A = np.ascontiguousarray(A)
    return A.view(np.dtype((np.void, A.itemsize * A.shape[1]))).ravel().tolist()


def _encode_requests(first_id: int, Z: np.ndarray, Y_in: np.ndarray, z_texts: dict | None = None) -> bytes:
    """Request lines with consecutive ids, byte for byte ``json.dumps`` of each request dict.

    ``z_texts`` maps a design row's bytes to its text. Rows found there are
    not encoded again; on return it holds the rows of this call only, which
    is what the next sweep of a coupled solve sends again.
    """
    if z_texts is None:
        z_texts = {}
    n, k = Y_in.shape
    keys = _row_keys(Z)
    texts = list(map(z_texts.get, keys))
    if None in texts:
        new = [i for i, text in enumerate(texts) if text is None]
        for i, text in zip(new, _row_texts(Z[new])):
            texts[i] = text
    z_texts.clear()
    z_texts.update(zip(keys, texts))
    # One %-format over the whole batch: id, z text and each y_in value of every row in turn.
    fields = [None] * (n * (2 + k))
    fields[0 :: 2 + k] = range(first_id, first_id + n)
    fields[1 :: 2 + k] = texts
    if k:
        # Each value's text as json.dumps writes it inside a list; no number's text holds ", ".
        values = json.dumps(Y_in.ravel().tolist())[1:-1].split(", ")
        for j in range(k):
            fields[2 + j :: 2 + k] = values[j::k]
    line = '{"id": %d, "z": [%s], "y_in": [' + ", ".join(["%s"] * k) + "]}\n"
    return ((line * n) % tuple(fields)).encode("utf-8")


_SCAN = json.JSONDecoder().scan_once  # the scanner json.loads runs, with its defaults
_WHITESPACE = " \t\n\r"  # what json.loads skips around a value
_MISSING = object()  # stands in for an absent y_out; no float conversion accepts it


def _malformed(text: str) -> DisciplineFailure:
    """The failure for a line the scanner refused, with json.loads's own message and positions.

    Besides a ``JSONDecodeError``, ``json.loads`` refuses an integer past
    Python's digit limit with a plain ``ValueError`` and deep nesting with a
    ``RecursionError``; each is a malformed line like any other.
    """
    try:
        json.loads(text)
    except (ValueError, RecursionError) as exc:
        return DisciplineFailure(f"malformed response line: {exc}", kind="protocol")
    return DisciplineFailure("malformed response line", kind="protocol")


def _reply_values(response: dict, width: int):
    """The row's ``width`` outputs, or the failure of that row alone."""
    if response.get("status") != "ok":
        return DisciplineFailure(str(response.get("message", "remote error")), kind="remote")
    try:
        y_out = np.asarray(response["y_out"], dtype=float).ravel()
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int beyond float range
        return DisciplineFailure(f"unusable y_out in response: {exc}", kind="protocol")
    if y_out.size != width:
        return DisciplineFailure(f"y_out has {y_out.size} values, expected {width}", kind="protocol")
    return y_out


def _parse_replies(lines: list[bytes], first_id: int, out: np.ndarray):
    """Judge reply lines to consecutive request ids, filling ``out`` (NaN, one row per line) with the good rows.

    Each line is judged as ``json.loads`` of its UTF-8 text would be. Returns
    ``(error, fatal)``: the failure of the last row that failed alone, and
    the failure that breaks the stream, which fails its own row and every
    later one. Either may be None.
    """
    # list.extend keeps the items before one that raises, so both steps stop at the first line they refuse.
    texts, fatal = [], None
    try:
        texts.extend(map(bytes.decode, lines))
    except UnicodeDecodeError as exc:
        fatal = DisciplineFailure(f"malformed response line: {exc}", kind="protocol")
    cores = list(map(str.strip, texts, repeat(_WHITESPACE)))
    scanned = []
    try:
        scanned.extend(map(_SCAN, cores, repeat(0)))  # a line with no value at all stops it quietly
    except (ValueError, RecursionError):
        pass  # json.loads judges the line it stopped at, below, if no earlier line breaks the stream
    width = out.shape[1]
    nan_row = [np.nan] * width
    responses, y_outs, last_failed = [], [], None
    for (response, end), text, core, request_id in zip(scanned, texts, cores, count(first_id)):
        if end != len(core):
            fatal = _malformed(text)
            break
        if type(response) is not dict or response.get("id") != request_id:
            fatal = DisciplineFailure("response id does not match request id", kind="protocol")
            break
        if response.get("status") == "ok":
            y_outs.append(response.get("y_out", _MISSING))
        else:
            last_failed = len(responses)
            y_outs.append(nan_row)
        responses.append(response)
    else:
        if len(scanned) < len(texts):
            fatal = _malformed(texts[len(scanned)])
    try:
        values = np.array(y_outs, dtype=float)
    except (TypeError, ValueError, OverflowError):
        values = None
    if values is not None and values.shape == (len(y_outs), width):
        # Every good y_out was a flat list of width numbers: one assignment fills them all.
        out[: len(values)] = values
        return (None if last_failed is None else _reply_values(responses[last_failed], width)), fatal
    error = None
    for row, response in enumerate(responses):
        values = _reply_values(response, width)
        if isinstance(values, DisciplineFailure):
            error = values
        else:
            out[row] = values
    return error, fatal


class ExternalDiscipline:
    """Evaluator backed by a child process speaking the line protocol.

    One call exchanges a whole batch with the child: every request line is
    written while the replies are read, in one ``select`` loop over both
    pipes, so no batch size can deadlock on full pipe buffers. Calls are
    serialized with a lock. Each reply must carry ``n_outputs`` values. A row
    that fails, a reply of the wrong width included, is returned as NaN.
    ``last_error`` describes the latest call: the failure that killed the
    child, else that of the call's last failed row, and None when every row
    of that call succeeded. A call to a dead child fails every row as a
    ``crash``.
    """

    def __init__(self, command, *, n_outputs: int = 1, timeout: float = DEFAULT_TIMEOUT, name: str = "external"):
        # Checked before the child starts: a bad deadline would otherwise fail rows or raise out of
        # ``select``, which refuses a wait longer than TIMEOUT_MAX.
        limit = threading.TIMEOUT_MAX
        if isinstance(timeout, bool) or not isinstance(timeout, (int, float)) or not 0 < timeout <= limit:
            raise ValueError(f"timeout must be a positive number of seconds up to {limit:g}, got {timeout!r}")
        self.command = shlex.split(command) if isinstance(command, str) else list(command)
        self.n_outputs = n_outputs
        self.timeout = timeout
        self.name = name
        self.last_error: DisciplineFailure | None = None
        self._lock = threading.Lock()
        self._request_id = 0
        self._buffer = b""
        self._z_texts: dict[bytes, str] = {}
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
        with self._lock:
            self.last_error = None
            if len(out):
                self._exchange(Z, Y_in, out)
        return out

    def _exchange(self, Z: np.ndarray, Y_in: np.ndarray, rows: np.ndarray) -> None:
        """Send every row of the batch and fill ``rows`` from the replies, in order."""
        if self._proc.poll() is not None:
            self.last_error = DisciplineFailure(f"child process exited with code {self._proc.returncode}", kind="crash")
            return
        first_id = self._request_id + 1
        self._request_id += len(rows)
        pending = memoryview(_encode_requests(first_id, Z, Y_in, self._z_texts))
        stdin, stdout = self._proc.stdin.fileno(), self._proc.stdout.fileno()
        done = 0
        deadline = time.monotonic() + self.timeout
        try:
            while done < len(rows):
                if not pending:
                    # Every request is written. Hand the CPU over before waiting, so that a child
                    # sharing it answers a run of requests instead of waking this process per reply.
                    os.sched_yield()
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
                # The full lines this batch still waits for; the rest stays buffered.
                lines = (self._buffer + chunk).split(b"\n", len(rows) - done)
                self._buffer = lines.pop()
                if not lines:
                    continue
                error, fatal = _parse_replies(lines, first_id + done, rows[done : done + len(lines)])
                if error is not None:
                    self.last_error = error
                if fatal is not None:
                    raise fatal
                done += len(lines)
                deadline = time.monotonic() + self.timeout
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
    (z, y_star). The top-level ``timeout`` is the objective child's; every
    ``timeout`` is a positive number of seconds up to ``threading.TIMEOUT_MAX``.
    ``reference`` with keys ``z`` (one finite value per design variable) and
    ``objective`` (finite and nonzero) is optional. Close the problem to stop
    its children. An unreadable spec file, a missing key or a value of the
    wrong type is a ``ValueError``, raised after closing any child already
    started.
    """
    if isinstance(spec, str):
        try:
            with open(spec, encoding="utf-8") as fh:
                spec = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
            raise ValueError(f"cannot read external problem spec {spec!r}: {exc}") from None
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
    except BaseException as exc:
        # A spec that fails part way must not leave the children already started running.
        for child in children:
            child.close()
        if isinstance(exc, KeyError):
            raise ValueError(f"external problem spec is missing the key {exc.args[0]!r}") from None
        if isinstance(exc, TypeError):
            raise ValueError(f"malformed external problem spec: {exc}") from None
        raise
