"""Exception hierarchy for the repro package.

All errors raised by this library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration value was supplied."""


class WorkloadError(ReproError):
    """A workload descriptor or synthetic program is malformed."""


class UnknownBenchmarkError(WorkloadError):
    """The requested benchmark name is not in the SPEC CPU2017 registry."""

    def __init__(self, name: str, known: list) -> None:
        self.name = name
        self.known = list(known)
        super().__init__(
            f"unknown benchmark {name!r}; known benchmarks: {', '.join(self.known)}"
        )


class ClusteringError(ReproError):
    """K-means / BIC analysis could not be performed on the given data."""


class SimPointError(ReproError):
    """SimPoint analysis failed or was queried before being run."""


class PinballError(ReproError):
    """A pinball could not be created, serialized, or replayed."""


class SimulationError(ReproError):
    """The timing or cache simulator was driven with invalid inputs."""


class LintError(ReproError):
    """repro-lint could not run: bad path, malformed waiver, or unparseable source."""


class StoreError(ReproError):
    """The on-disk artifact store was misused or refused an unsafe operation."""


class ResilienceError(ReproError):
    """A run could not go on: a worker process died and broke the pool,
    or the campaign server's ledger could not be opened or written."""


class JournalLockedError(ResilienceError):
    """Another process holds the exclusive lock on the server ledger.

    Two writers interleaving appends into the campaign server's JSONL
    ledger would corrupt it, so the second acquirer gets this
    structured error instead of a torn ledger.  ``path`` is the ledger
    the lock guards.
    """

    def __init__(self, path, detail: str = "") -> None:
        self.path = str(path)
        message = (
            f"campaign journal {self.path} is locked by another process"
        )
        if detail:
            message += f" ({detail})"
        super().__init__(message)


class CampaignServiceError(ReproError):
    """The campaign service refused a request or could not perform it."""


class CampaignRejectedError(CampaignServiceError):
    """The server shed load: the bounded queue is full.

    Admission control, not failure — the submission was valid, the
    server is healthy, there is simply no queue capacity.  Clients map
    this to a distinct exit code so callers can back off and retry
    instead of treating it like a validation error.
    """


class ProtocolError(CampaignServiceError):
    """A campaign wire frame was malformed or spoke the wrong version."""
