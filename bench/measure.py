"""Ops, deadlines and the statistics the benchmark reports.

An op is one call into the library plus an output check.  `run_op` times the
call alone, under a deadline enforced by the interval timer, and runs the
check afterwards, outside the timed region.  An op that raises, runs past its
deadline or fails its check is counted as failed; nothing aborts the pass.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from dataclasses import dataclass
from typing import Callable


class DeadlineExceeded(BaseException):
    """Raised inside an op by the interval timer.

    A BaseException, so that library code catching Exception cannot swallow
    it and keep running past the deadline.
    """


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], object]
    # Returns a failure message, or None when the output is right.
    check: Callable[[object], str | None]
    deadline_s: float


@dataclass(frozen=True)
class OpRecord:
    name: str
    latency_ns: int
    status: str  # "ok" | "raised" | "deadline" | "wrong"
    detail: str = ""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def run_op(op: Op) -> OpRecord:
    """Time one op under its deadline, then check its output untimed.

    Needs the SIGALRM handler of `deadlines()` to be installed.
    """
    result = None
    status, detail = "ok", ""
    t0 = time.perf_counter_ns()
    try:
        signal.setitimer(signal.ITIMER_REAL, op.deadline_s)
        try:
            result = op.call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        status = "deadline"
    except Exception as exc:  # any error inside the library is a failed op
        status, detail = "raised", f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter_ns() - t0
    if status == "ok" and latency > op.deadline_s * 1e9:
        status = "deadline"
    if status == "deadline":
        detail = f"past its {op.deadline_s} s deadline"
    if status == "ok":
        try:
            detail = op.check(result) or ""
        except Exception as exc:  # a check that cannot read the output rejects it
            detail = f"check raised {type(exc).__name__}: {exc}"
        if detail:
            status = "wrong"
    return OpRecord(op.name, latency, status, detail)


@contextlib.contextmanager
def deadlines():
    """Install the SIGALRM handler `run_op` relies on."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    values beyond it; the maximum (percentile 100) below 11 values."""
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("tail of no values")
    if n < 11:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def median_quartiles(values) -> dict:
    """Median, first and third quartile, and sample count."""
    values = list(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "samples": len(values)}
