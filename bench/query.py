"""One timed `gpc run` call, with its failure accounting."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import signal
import time
from dataclasses import dataclass

# Far above the slowest instance of any family (under 1 s when each was
# run on hundreds of seeded graphs), so that timing noise cannot flip a
# case between passing and failing.
QUERY_TIMEOUT_S = 30.0


class QueryTimeout(Exception):
    pass


class BenchError(Exception):
    """An outcome no valid input should produce; the run has no result."""


def _on_alarm(signum, frame):
    raise QueryTimeout


def install_timer() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)


@contextlib.contextmanager
def time_limit():
    signal.setitimer(signal.ITIMER_REAL, QUERY_TIMEOUT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


@dataclass
class Outcome:
    seconds: float  # the timeout for a failed query
    stdout: str | None  # dropped after the first repetition of a case
    failure: str | None = None  # "resource-limit" or "timeout"
    elapsed: float = 0.0  # wall time, also of a failed query
    answers: int = 0
    digest: str = ""

    def __post_init__(self) -> None:
        self.elapsed = self.elapsed or self.seconds
        if self.stdout is not None:
            self.answers = self.stdout.count("\n")
            self.digest = hashlib.sha256(self.stdout.encode()).hexdigest()


def record(runs: list[Outcome], outcome: Outcome) -> None:
    """Append a case's outcome; only its first successful output is kept."""
    if any(o.stdout is not None for o in runs):
        outcome.stdout = None
    runs.append(outcome)


def run_query(gpc, argv: list[str]) -> Outcome:
    """`gpc.cli.main(argv)` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with time_limit():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = gpc.cli.main(argv)
            seconds = time.perf_counter() - start
    except QueryTimeout:
        return Outcome(QUERY_TIMEOUT_S, None, "timeout", time.perf_counter() - start)
    if code == 0:
        return Outcome(seconds, out.getvalue())
    last = err.getvalue().strip().splitlines()[-1:]
    if code == 1 and last and json.loads(last[0]).get("error") == "resource-limit":
        return Outcome(QUERY_TIMEOUT_S, None, "resource-limit", seconds)
    raise BenchError(f"gpc {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
