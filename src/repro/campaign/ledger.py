"""The campaign server's crash-safe job ledger: one fsync'd JSONL file.

The server durably records every accepted submission and every job
state transition as one schema-stamped JSON line appended to
``<store root>/journals/campaign-server.jsonl``, fsync'd before the
server acknowledges it, so a process killed at any instant leaves a
ledger whose lines are all complete.  The file sits beside the
artifact objects, so ``cache clear`` (which only removes ``objects/``)
keeps it.

Single writer: :meth:`ServerLedger.acquire` takes an exclusive
``flock`` on ``<ledger>.lock`` (released by :meth:`close`, and by the
kernel when every descriptor of the holder is gone, SIGKILL included).
The lock doubles as the server singleton guard: a second ``serve``
against the same store root gets a structured
:class:`~repro.errors.JournalLockedError` at boot instead of two
daemons interleaving appends.  A forked job child closes the
descriptors :meth:`open_fds` names, so a child that outlives its
server never holds the lock its restart needs.

On restart, :meth:`load` replays the ledger last-write-wins per job id,
giving the server back every job it had accepted; jobs in a
non-terminal state are re-adopted and run again, their finished items
read back from the artifact store.  Corrupt lines (the torn final
append of a hard kill, stray editing) are counted
(``journal.corrupt_line``) and skipped, never trusted.

Self-healing (``serve --resume`` boot): :meth:`doctor` moves torn or
corrupt lines to the ``.quarantine`` sidecar instead of dying on them,
and :meth:`compact` rewrites the log as one ``snapshot`` record (the
current state of every job) followed by a fresh tail, so a long-lived
server's replay cost is bounded by its job count, not by its
transition history.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

try:
    import fcntl
except ImportError:  # non-POSIX: locking degrades to best-effort
    fcntl = None

from repro.campaign.jobs import Job
from repro.errors import (
    CampaignServiceError,
    JournalLockedError,
    ResilienceError,
)
from repro.resilience.faults import inject_service_fault
from repro.telemetry.recorder import count as telemetry_count

__all__ = ["LEDGER_SCHEMA", "ServerLedger"]

#: Schema tag stamped on every ledger line; a line with any other tag
#: (or none) is corrupt.
LEDGER_SCHEMA = "repro-journal-v1"


def _encode(record: dict) -> bytes:
    """One record as a ledger line (stamped, key-sorted, no newline)."""
    return json.dumps(
        dict(record, schema=LEDGER_SCHEMA),
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")


def _decode(line: bytes) -> Optional[dict]:
    """The record a ledger line holds, or None when the line is corrupt."""
    try:
        record = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if isinstance(record, dict) and record.get("schema") == LEDGER_SCHEMA:
        return record
    return None


class ServerLedger:
    """Durable submit/state log for one campaign server instance."""

    def __init__(self, store_root) -> None:
        self.path = Path(store_root) / "journals" / "campaign-server.jsonl"
        self.lock_path = self.path.with_name(self.path.name + ".lock")
        #: Where :meth:`doctor` moves corrupt lines (forensics, not replay).
        self.quarantine_path = self.path.with_name(
            self.path.name + ".quarantine"
        )
        self._handle = None
        self._lock_handle = None

    def acquire(self) -> None:
        """Take the server-singleton lock (JournalLockedError if held).

        Idempotent per instance.  The lock lives on ``<ledger>.lock``,
        so it survives :meth:`discard` deleting the ledger itself.
        """
        if self._lock_handle is not None or fcntl is None:
            return
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            handle = open(self.lock_path, "ab")
        except OSError as exc:
            raise ResilienceError(
                f"cannot open journal lock {self.lock_path}: {exc}"
            ) from exc
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            handle.close()
            raise JournalLockedError(self.path, detail=str(exc)) from exc
        self._lock_handle = handle

    def open_fds(self) -> List[int]:
        """The lock's and the ledger's open descriptors: a fork closes them."""
        return [
            handle.fileno()
            for handle in (self._lock_handle, self._handle)
            if handle is not None
        ]

    def record_submit(self, job: Job) -> None:
        self._append(
            {"event": "job", "action": "submit", "job": job.describe()}
        )

    def record_state(self, job: Job) -> None:
        self._append(
            {"event": "job", "action": "state", "job": job.describe()}
        )

    def _append(self, record: dict) -> None:
        """Durably append one record: one write, flush and fsync."""
        line = _encode(record) + b"\n"
        if inject_service_fault("ledgertear"):
            # A torn decoy line *before* the real record: simulates the
            # half-flushed append of a previous crashed writer.  load()
            # skips it; doctor() quarantines it.  The real record below
            # still lands intact, so no data is ever lost to the fault.
            line = line[: max(1, len(line) // 2)] + b"\n" + line
        try:
            if self._handle is None:
                self.acquire()
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = open(self.path, "ab")
            self._handle.write(line)
            self._handle.flush()
            os.fsync(self._handle.fileno())
        except OSError as exc:
            raise ResilienceError(
                f"cannot append to journal {self.path}: {exc}"
            ) from exc
        telemetry_count("journal.append")

    def _lines(self) -> Iterator[Tuple[bytes, Optional[dict]]]:
        """``(line, record or None)`` for every non-blank line on disk."""
        try:
            raw = self.path.read_bytes()
        except OSError:
            return
        for line in raw.split(b"\n"):
            if line.strip():
                yield line, _decode(line)

    def load(self) -> List[Job]:
        """Replay the ledger: one Job per id, last record wins.

        A ``snapshot`` record (written by :meth:`compact`) resets the
        replay to its job list; ``job`` records after it (the tail)
        override per id as usual, so snapshot+tail replays to exactly
        the state a full-history replay would.  Corrupt lines are
        counted and skipped, and so are well-formed records whose job
        does not reconstruct, rather than taking the whole ledger down.
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

        for _, record in self._lines():
            if record is None:
                telemetry_count("journal.corrupt_line")
                continue
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

        Intact lines are kept byte-identical, in order; every other line
        is appended to :attr:`quarantine_path` and dropped from the
        ledger by an atomic rewrite.  Idempotent.  Returns
        ``{"lines", "intact", "quarantined"}``.
        """
        intact: List[bytes] = []
        corrupt: List[bytes] = []
        for line, record in self._lines():
            (intact if record is not None else corrupt).append(line)
        if corrupt:
            telemetry_count("journal.quarantined", n=len(corrupt))
            try:
                with open(self.quarantine_path, "ab") as handle:
                    handle.write(b"".join(part + b"\n" for part in corrupt))
                    handle.flush()
                    os.fsync(handle.fileno())
            except OSError:
                pass
            self._rewrite(intact)
        return {
            "lines": len(intact) + len(corrupt),
            "intact": len(intact),
            "quarantined": len(corrupt),
        }

    def compact(self, jobs: List[Job]) -> None:
        """Rewrite the ledger as one snapshot of ``jobs`` (bounded replay).

        ``jobs`` is the already-replayed current state (what :meth:`load`
        returned); the whole transition history collapses into a single
        ``snapshot`` record and later appends form the new tail.
        Idempotent: compacting a compacted ledger rewrites the identical
        snapshot.  The caller must hold the writer lock (boot does).
        """
        self._rewrite([_encode(
            {"event": "snapshot", "jobs": [job.describe() for job in jobs]}
        )])

    def _rewrite(self, lines: List[bytes]) -> None:
        """Atomically replace the ledger with these lines.

        tmp + fsync + ``os.replace``: a crash mid-rewrite leaves either
        the old ledger or the new one, never a hybrid.
        """
        self._close_handle()
        tmp = self.path.with_name(self.path.name + ".tmp")
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as handle:
                handle.write(b"".join(line + b"\n" for line in lines))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.path)
        except OSError as exc:
            raise ResilienceError(
                f"cannot rewrite journal {self.path}: {exc}"
            ) from exc

    def discard(self) -> None:
        """Forget all prior jobs (a server booted without ``--resume``).

        Keeps the writer lock if this instance holds it: the writer
        that discarded a stale ledger is about to write a fresh one,
        and no other writer may slip in between.
        """
        self._close_handle()
        try:
            self.path.unlink()
        except OSError:
            pass

    def _close_handle(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def close(self) -> None:
        """Close the ledger and release the writer lock."""
        self._close_handle()
        if self._lock_handle is None:
            return
        handle, self._lock_handle = self._lock_handle, None
        try:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        finally:
            handle.close()
