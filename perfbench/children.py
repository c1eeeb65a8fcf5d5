"""Start one child process at a time, time it, and gate its output.

A child is timed from just before it is spawned to the moment it is reaped
with ``os.wait4``, which also yields that child's own peak RSS. Every child
``run.py`` starts is an attempted operation; one that fails its gate is
counted as failed and its timing is not used.

On Linux a child's ``ru_maxrss`` starts from the peak RSS of the process
that spawned it (``subprocess`` spawns with vfork, and exec carries the old
address space's high-water mark over). ``run.py`` holds generated inputs
and parsed reports, so it does not spawn children itself: ``Launcher``
starts this file as a small helper process before ``run.py`` grows, and the
helper spawns and reaps every child.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass

CHILD_TIMEOUT_S = 30.0


@dataclass
class ChildRun:
    """Outcome of one child process."""

    wall_s: float
    peak_rss_mb: float
    exit_code: int
    failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None


def run_child(argv: list[str], env: dict, stderr_path) -> ChildRun:
    """Run ``argv`` to completion; a non-zero exit or a timeout marks it failed."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    run = ChildRun(wall_s=wall, peak_rss_mb=usage.ru_maxrss / 1024.0,
                   exit_code=code)
    if code != 0:
        with open(stderr_path, "rb") as fh:
            tail = fh.read()[-300:].decode("ascii", "replace").strip()
        run.failure = f"exit {code}: {tail}"
    return run


class Launcher:
    """Runs children through a helper process; use as a context manager."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], env: dict, stderr_path) -> ChildRun:
        request = {"argv": argv, "env": env, "stderr_path": str(stderr_path)}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher process exited")
        return ChildRun(**json.loads(reply))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=CHILD_TIMEOUT_S + 5)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def _serve() -> None:
    for line in sys.stdin:
        run = run_child(**json.loads(line))
        sys.stdout.write(json.dumps(asdict(run)) + "\n")
        sys.stdout.flush()


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token}")


def load_strict_json(path):
    """Parse a JSON file, rejecting ``NaN`` and ``Infinity``."""
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh, parse_constant=_reject_constant)


def gate_match(run: ChildRun, output_path, check) -> ChildRun:
    """Apply the correctness gate to a ``siftmatch match`` child.

    ``check(report)`` returns a list of problems; a report whose rows lack
    a field the check reads is a failure too.
    """
    if not run.ok:
        return run
    try:
        report = load_strict_json(output_path)
    except (OSError, ValueError) as exc:
        run.failure = f"unreadable report: {exc}"
        return run
    try:
        problems = check(report)
    except (KeyError, TypeError, AttributeError) as exc:
        problems = [f"malformed report: {exc!r}"]
    if problems:
        run.failure = "; ".join(problems[:5])
    return run


if __name__ == "__main__":
    _serve()
