"""Supervision: heartbeats, hang detection, backpressure, degradation.

The campaign server's self-defense layer.  Three concerns live here so
they are testable without an event loop or a real forked child:

* **Liveness** — every worker child runs a heartbeat pump (a daemon
  thread appending beat lines to the job's progress JSONL; see
  :mod:`repro.campaign.worker`), so *any* growth of the progress file
  proves the child is scheduled.  :class:`JobSupervisor` tracks the
  last beat per running job; a job silent past the stall deadline is
  SIGKILLed by the server's watchdog task and requeued.  Beats prove
  the process is alive and scheduled — a wedged (stopped, blocked
  forever, swapped-out-dead) child stops beating; a busy one does not.

* **Kill budget** — each crash-or-kill increments the job's ``kills``
  count (persisted in the ledger, so a server restart cannot launder a
  repeat offender).  Under the budget the job is requeued — its stored
  items are reused, only lost work recomputes.
  At the budget the job is quarantined as ``poisoned``: terminal,
  surfaced by ``status``/``ls``, never blocking the queue.

* **Backpressure + degradation** — a bounded queue (``max_queued``)
  turns overload into a structured ``rejected`` frame instead of an
  unbounded backlog, and a free-disk watermark on the store root flips
  the server into a no-cache degraded mode (children run memory-only,
  ``campaign.degraded`` gauge, warning in ``status``) instead of dying
  of ENOSPC mid-campaign.

All decision logic is pure functions of (policy, clock reading, job
bookkeeping); the server supplies the clock and executes the verdicts.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import ConfigError
from repro.resilience.faults import inject_service_fault

__all__ = [
    "DECISION_POISON",
    "DECISION_REQUEUE",
    "HEARTBEAT_COUNTER",
    "JobSupervisor",
    "SupervisionPolicy",
    "free_disk_bytes",
]

#: Counter name of worker liveness beats in the progress stream.  The
#: server consumes them for liveness and does *not* broadcast them to
#: ``watch`` subscribers (they are a pulse, not progress).
HEARTBEAT_COUNTER = "worker.heartbeat"

#: Verdicts of :meth:`JobSupervisor.record_kill`.
DECISION_REQUEUE = "requeue"
DECISION_POISON = "poison"


@dataclass(frozen=True)
class SupervisionPolicy:
    """The server's self-defense knobs (all CLI-surfaced).

    ``stall_timeout_s <= 0`` disables hang detection, ``max_queued is
    None`` unbounds the queue, ``min_free_bytes <= 0`` disables the
    disk watermark — each guard is independently optional, and the
    defaults keep historical behavior except for the kill budget
    (previously a crashed child failed its job outright; now it retries
    up to ``max_kills`` times before the harsher ``poisoned`` verdict).
    """

    #: Beat cadence inside the worker child.
    heartbeat_s: float = 1.0
    #: No beat for this long => the watchdog SIGKILLs the worker.
    stall_timeout_s: float = 300.0
    #: Crashes/kills before a job is quarantined as poisoned.
    max_kills: int = 3
    #: Queue bound for admission control (None = unbounded).
    max_queued: Optional[int] = None
    #: Free-disk watermark on the store root (0 = disabled).
    min_free_bytes: int = 0
    #: Cadence of the free-disk probe.
    disk_probe_interval_s: float = 5.0

    def __post_init__(self) -> None:
        if self.heartbeat_s <= 0:
            raise ConfigError(
                f"heartbeat interval must be > 0, got {self.heartbeat_s!r}"
            )
        if not isinstance(self.max_kills, int) or isinstance(
            self.max_kills, bool
        ) or self.max_kills < 1:
            raise ConfigError(
                f"max kills must be a positive integer, got {self.max_kills!r}"
            )
        if self.max_queued is not None and (
            not isinstance(self.max_queued, int)
            or isinstance(self.max_queued, bool)
            or self.max_queued < 1
        ):
            raise ConfigError(
                f"max queued must be a positive integer, got {self.max_queued!r}"
            )
        if self.disk_probe_interval_s <= 0:
            raise ConfigError(
                f"disk probe interval must be > 0, "
                f"got {self.disk_probe_interval_s!r}"
            )

    @property
    def watchdog_interval_s(self) -> float:
        """How often the watchdog task wakes: fast enough to catch a
        stall well inside one deadline, never busier than 4x per
        deadline."""
        if self.stall_timeout_s <= 0:
            return 1.0
        return max(0.05, self.stall_timeout_s / 4.0)

    def describe(self) -> dict:
        """JSON-safe summary for ``campaign status`` output."""
        return {
            "heartbeat_s": self.heartbeat_s,
            "stall_timeout_s": self.stall_timeout_s,
            "max_kills": self.max_kills,
            "max_queued": self.max_queued,
            "min_free_bytes": self.min_free_bytes,
        }


def free_disk_bytes(root) -> int:
    """Free bytes on the filesystem holding ``root``.

    The ``diskfull`` service fault forces a zero reading, so degraded
    mode is testable without actually filling a disk.
    """
    if inject_service_fault("diskfull"):
        return 0
    try:
        return int(shutil.disk_usage(str(root)).free)
    except OSError:
        # An unstatable store root is indistinguishable from a sick
        # disk; report empty so the server degrades instead of crashing.
        return 0


class JobSupervisor:
    """Liveness bookkeeping and kill/poison verdicts for running jobs.

    The server feeds it beats (any progress-file growth) and asks two
    questions: which running jobs are stalled past the deadline, and —
    after a kill or crash — whether the job gets another run or the
    ``poisoned`` quarantine.  Pure bookkeeping: no clock reads (the
    server passes ``now_ns``), no process handling.
    """

    def __init__(self, policy: SupervisionPolicy) -> None:
        self.policy = policy
        self._last_beat_ns: Dict[str, int] = {}
        #: Jobs the watchdog killed, awaiting their reap (so the reaper
        #: can tell a watchdog kill from a spontaneous crash).
        self._killed: Dict[str, str] = {}

    # -- liveness ------------------------------------------------------

    def note_start(self, job_id: str, now_ns: int) -> None:
        """A worker just forked for this job: its start is its first beat."""
        self._last_beat_ns[job_id] = now_ns
        self._killed.pop(job_id, None)

    def note_beat(self, job_id: str, now_ns: int) -> None:
        """The job's progress file grew (or a beat line arrived)."""
        if job_id in self._last_beat_ns:
            self._last_beat_ns[job_id] = now_ns

    def note_exit(self, job_id: str) -> None:
        """The job's worker is gone (reaped); stop tracking liveness."""
        self._last_beat_ns.pop(job_id, None)

    def stalled_jobs(self, now_ns: int) -> List[str]:
        """Running jobs with no beat inside the stall deadline."""
        if self.policy.stall_timeout_s <= 0:
            return []
        deadline_ns = int(self.policy.stall_timeout_s * 1e9)
        return [
            job_id
            for job_id, beat_ns in sorted(self._last_beat_ns.items())
            if now_ns - beat_ns > deadline_ns
            and job_id not in self._killed
        ]

    def note_kill(self, job_id: str, reason: str) -> None:
        """The watchdog just SIGKILLed this job's worker."""
        self._killed[job_id] = reason

    def kill_reason(self, job_id: str) -> Optional[str]:
        """Why the watchdog killed this job, if it did (cleared on reap)."""
        return self._killed.pop(job_id, None)

    # -- the kill budget -----------------------------------------------

    def record_kill(self, job) -> str:
        """Charge one kill/crash against the job's budget.

        Increments ``job.kills`` and returns :data:`DECISION_REQUEUE`
        while under ``max_kills``, else :data:`DECISION_POISON`.
        """
        job.kills += 1
        if job.kills >= self.policy.max_kills:
            return DECISION_POISON
        return DECISION_REQUEUE
