"""Deterministic retry backoff: the one sanctioned retry sleep.

A fan-out has no per-item retry, timeout or skip: its first failed item
fails the run (:mod:`repro.parallel.pool`).  Retrying belongs to the
callers that talk to something which can recover on its own — today the
campaign client, whose ``watch`` stream reconnects after a dropped
connection.  :class:`Retry` describes such a budget with a seeded
backoff (no hidden RNG state, no host-entropy jitter) and
:func:`backoff_sleep` sleeps it through the telemetry clock, the only
retry sleep lint rule REP020 allows.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.telemetry.clock import sleep_s

__all__ = ["Retry", "backoff_sleep"]


@dataclass(frozen=True)
class Retry:
    """Retry budget with deterministic seeded backoff.

    ``attempts`` is the *total* number of tries (1 = no retries).  The
    delay before attempt ``a`` (a >= 2) of item ``i`` is::

        base_delay_s * multiplier**(a - 2) * (1 + jitter * u(seed, i, a))

    where ``u`` is a SHA-256-derived unit-interval value — the same
    (seed, item, attempt) always backs off by the same amount, so retry
    schedules are reproducible run-to-run and in tests.
    """

    attempts: int = 1
    base_delay_s: float = 0.0
    multiplier: float = 2.0
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.attempts, int) or isinstance(
            self.attempts, bool
        ) or self.attempts < 1:
            raise ConfigError(
                f"retry attempts must be a positive integer, got {self.attempts!r}"
            )
        if self.base_delay_s < 0:
            raise ConfigError(
                f"retry base delay must be >= 0, got {self.base_delay_s!r}"
            )
        if self.multiplier < 1:
            raise ConfigError(
                f"retry multiplier must be >= 1, got {self.multiplier!r}"
            )
        if not 0 <= self.jitter <= 1:
            raise ConfigError(
                f"retry jitter must be within [0, 1], got {self.jitter!r}"
            )

    def delay_s(self, index: int, attempt: int) -> float:
        """Backoff before ``attempt`` (2-based) of item ``index``."""
        if attempt <= 1 or self.base_delay_s <= 0:
            return 0.0
        delay = self.base_delay_s * self.multiplier ** (attempt - 2)
        if self.jitter > 0:
            token = f"{self.seed}:{index}:{attempt}".encode("ascii")
            digest = hashlib.sha256(token).hexdigest()
            unit = int(digest[:16], 16) / float(1 << 64)
            delay *= 1.0 + self.jitter * unit
        return delay


def backoff_sleep(retry: Retry, index: int, attempt: int) -> float:
    """The one sanctioned retry sleep in the system (REP020).

    Computes the deterministic seeded delay for ``attempt`` of item
    ``index`` under ``retry`` and sleeps it through the telemetry
    clock, so every retry loop — the campaign client's reconnect,
    anything new — backs off on the same reproducible schedule.  Returns the delay actually slept.
    """
    delay = retry.delay_s(index, attempt)
    if delay > 0:
        sleep_s(delay)
    return delay
