"""The server's crash-safe job ledger, built on the append-only journal.

The campaign server durably records every accepted submission and every
job state transition by appending to a :class:`CampaignJournal` under
the fixed key ``campaign-server`` (fsync'd JSONL behind an exclusive
writer lock).  The lock doubles as the server singleton guard: a second
``serve`` against the same store root gets a structured
:class:`~repro.errors.JournalLockedError` at boot instead of two
daemons racing one ledger.

On restart, :meth:`ServerLedger.load` replays the ledger last-write-wins
per job id, giving the server back every job it had accepted; jobs in a
non-terminal state are re-adopted and run again, their finished items
read back from the artifact store.

Self-healing (``serve --resume`` boot): :meth:`doctor` quarantines
torn/corrupt lines instead of dying on them, and :meth:`compact`
rewrites the append-only log as one ``snapshot`` record (the current
state of every job) followed by a fresh tail — so a long-lived server's
replay cost is bounded by its job count, not by its transition history.
"""

from __future__ import annotations

from typing import Dict, List

from repro.campaign.jobs import Job
from repro.errors import CampaignServiceError
from repro.resilience.journal import CampaignJournal

__all__ = ["LEDGER_KEY", "ServerLedger"]

#: Fixed journal key of the server ledger under a store root.
LEDGER_KEY = "campaign-server"


class ServerLedger:
    """Durable submit/state log for one campaign server instance."""

    def __init__(self, store_root) -> None:
        self.journal = CampaignJournal(
            CampaignJournal.path_for(store_root, LEDGER_KEY)
        )

    def acquire(self) -> None:
        """Take the server-singleton lock (JournalLockedError if held)."""
        self.journal.acquire()

    def record_submit(self, job: Job) -> None:
        self.journal.append(
            {"event": "job", "action": "submit", "job": job.describe()}
        )

    def record_state(self, job: Job) -> None:
        self.journal.append(
            {"event": "job", "action": "state", "job": job.describe()}
        )

    def load(self) -> List[Job]:
        """Replay the ledger: one Job per id, last record wins.

        A ``snapshot`` record (written by :meth:`compact`) resets the
        replay to its job list; ``job`` records after it — the tail —
        override per id as usual, so snapshot+tail replays to exactly
        the state a full-history replay would.  Records that don't
        reconstruct (a torn final line already got dropped by the
        journal's corrupt-line handling; this covers well-formed JSON
        with missing job fields) are skipped rather than taking the
        whole ledger down.
        """
        by_id: Dict[str, Job] = {}
        order: List[str] = []

        def absorb(payload) -> None:
            if not isinstance(payload, dict):
                return
            try:
                job = Job.from_record(payload)
            except (CampaignServiceError, TypeError):
                return
            if job.id not in by_id:
                order.append(job.id)
            by_id[job.id] = job

        for record in self.journal.load():
            event = record.get("event")
            if event == "snapshot":
                by_id.clear()
                order.clear()
                for payload in record.get("jobs") or ():
                    absorb(payload)
            elif event == "job":
                absorb(record.get("job"))
        return [by_id[job_id] for job_id in order]

    def doctor(self) -> Dict[str, int]:
        """Quarantine torn/corrupt ledger lines; never fatal.

        Delegates to the journal's line-level doctor: intact lines are
        kept byte-identical, everything else moves to the
        ``.quarantine`` sidecar.  Returns its report dict.
        """
        return self.journal.doctor()

    def compact(self, jobs: List[Job]) -> None:
        """Rewrite the ledger as one snapshot of ``jobs`` (bounded replay).

        ``jobs`` is the already-replayed current state (what :meth:`load`
        returned); the whole transition history collapses into a single
        ``snapshot`` record and subsequent appends form the new tail.
        Atomic (tmp + fsync + replace) and idempotent — compacting a
        compacted ledger rewrites the identical snapshot.  The caller
        must hold the writer lock (boot does).
        """
        self.journal.rewrite(
            [{"event": "snapshot", "jobs": [job.describe() for job in jobs]}]
        )

    def discard(self) -> None:
        """Forget all prior jobs (fresh, non-resumed server boot)."""
        self.journal.discard()

    def close(self) -> None:
        self.journal.close()
