"""The one retry backoff: a fixed doubling schedule.

A fan-out has no per-item retry, timeout or skip: its first failed item
fails the run (:mod:`repro.parallel.pool`).  Retrying belongs to the
callers that talk to something which can recover on its own — today the
campaign client, whose ``watch`` stream reconnects after a dropped
connection.  Such a caller waits :data:`BACKOFF_SCHEDULE_S` through
:func:`backoff_sleep`, which sleeps on the telemetry clock and is the
only retry sleep lint rule REP020 allows.
"""

from __future__ import annotations

from repro.telemetry.clock import sleep_s

__all__ = ["BACKOFF_SCHEDULE_S", "backoff_sleep"]

#: Seconds to wait before each retry: plain doubling, no jitter, so a
#: failure sequence always waits the same amounts.  Its length is the
#: retry budget.
BACKOFF_SCHEDULE_S = (0.1, 0.2, 0.4, 0.8, 1.6)


def backoff_sleep(attempt: int) -> float:
    """Sleep the schedule's delay before retry ``attempt`` (1-based).

    Returns the delay slept.  A caller's retry budget is the schedule's
    length.
    """
    delay = BACKOFF_SCHEDULE_S[attempt - 1]
    sleep_s(delay)
    return delay
