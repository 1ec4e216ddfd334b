"""Append-only journal: fsync'd JSONL records under the store root.

The campaign server's job ledger (:mod:`repro.campaign.ledger`) is one
such file.  Every record is appended as one schema-stamped JSON line
and the file descriptor is fsync'd after each append, so a process
killed at any instant leaves a journal whose entries are all complete.

Corrupt lines (the torn final append of a hard kill, stray editing) are
counted and skipped on load, never trusted; :meth:`CampaignJournal.doctor`
quarantines them.

Layout: ``<store root>/journals/<key>.jsonl``, beside the artifact
objects, so ``cache clear`` (which only removes ``objects/``) keeps the
ledger.

Concurrency: a journal is a single-writer file.  :meth:`acquire` takes
an exclusive ``flock`` on ``<journal>.lock`` (released by :meth:`close`,
and by the kernel if the holder dies, including SIGKILL), so two
processes can never interleave appends — the second acquirer gets a
structured :class:`~repro.errors.JournalLockedError` instead of a torn
journal.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List

try:
    import fcntl
except ImportError:  # non-POSIX: locking degrades to best-effort
    fcntl = None

from repro.errors import JournalLockedError, ResilienceError
from repro.telemetry.recorder import count as telemetry_count

__all__ = ["JOURNAL_SCHEMA", "CampaignJournal"]

#: Schema tag stamped on every journal line; lines with any other tag
#: (or none) are ignored on load.
JOURNAL_SCHEMA = "repro-journal-v1"


class CampaignJournal:
    """One append-only, single-writer JSONL record log."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._handle = None
        self._lock_handle = None

    @classmethod
    def path_for(cls, store_root, key: str) -> Path:
        """Journal location for ``key`` under an artifact-store root."""
        return Path(store_root) / "journals" / f"{key}.jsonl"

    @property
    def lock_path(self) -> Path:
        return self.path.with_name(self.path.name + ".lock")

    @property
    def quarantine_path(self) -> Path:
        """Where :meth:`doctor` moves corrupt lines (forensics, not replay)."""
        return self.path.with_name(self.path.name + ".quarantine")

    def acquire(self) -> None:
        """Take the exclusive single-writer lock on this journal.

        Idempotent per instance.  Raises
        :class:`~repro.errors.JournalLockedError` when any other open
        file description (another process, or another journal object in
        this one) already holds it.  The lock lives on ``<path>.lock``
        so it survives :meth:`discard` deleting the journal itself, and
        the kernel drops it automatically when the holder dies.
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

    def release(self) -> None:
        """Release the single-writer lock, if this instance holds it."""
        if self._lock_handle is None:
            return
        handle, self._lock_handle = self._lock_handle, None
        try:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        finally:
            handle.close()

    def append(self, record: dict) -> None:
        """Durably append one record (schema-stamped, fsync'd)."""
        stamped = dict(record)
        stamped["schema"] = JOURNAL_SCHEMA
        line = json.dumps(
            stamped, sort_keys=True, separators=(",", ":")
        ).encode("utf-8") + b"\n"
        from repro.resilience.faults import inject_service_fault

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

    def load(self) -> List[dict]:
        """Every intact record, in append order; corrupt lines skipped."""
        records: List[dict] = []
        try:
            raw = self.path.read_bytes()
        except OSError:
            return records
        for line in raw.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                telemetry_count("journal.corrupt_line")
                continue
            if isinstance(record, dict) and record.get("schema") == JOURNAL_SCHEMA:
                records.append(record)
            else:
                telemetry_count("journal.corrupt_line")
        return records

    def doctor(self) -> Dict[str, int]:
        """Self-heal the journal file in place; corrupt lines quarantined.

        Scans every line: intact records (valid JSON object with this
        journal's schema tag) are kept *byte-identical*; anything else —
        the torn final line of a hard kill, a torn mid-file line merged
        with its successor, stray editing — is appended to
        :attr:`quarantine_path` for forensics and dropped from the
        journal via an atomic rewrite.  Idempotent; never raises on
        corruption (that is the point).  Returns
        ``{"lines", "intact", "quarantined"}``.
        """
        try:
            raw = self.path.read_bytes()
        except OSError:
            return {"lines": 0, "intact": 0, "quarantined": 0}
        intact: List[bytes] = []
        corrupt: List[bytes] = []
        for line in raw.split(b"\n"):
            if not line.strip():
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                record = None
            if isinstance(record, dict) and record.get("schema") == JOURNAL_SCHEMA:
                intact.append(line)
            else:
                corrupt.append(line)
        if corrupt:
            telemetry_count("journal.quarantined", n=len(corrupt))
            try:
                with open(self.quarantine_path, "ab") as handle:
                    handle.write(b"".join(part + b"\n" for part in corrupt))
                    handle.flush()
                    os.fsync(handle.fileno())
            except OSError:
                pass
            self.rewrite_raw(intact)
        return {
            "lines": len(intact) + len(corrupt),
            "intact": len(intact),
            "quarantined": len(corrupt),
        }

    def rewrite_raw(self, lines: List[bytes]) -> None:
        """Atomically replace the journal with these raw (intact) lines."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
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

    def rewrite(self, records: List[dict]) -> None:
        """Atomically replace the journal's contents with ``records``.

        Each record is schema-stamped exactly as :meth:`append` would;
        the swap is tmp + fsync + ``os.replace``, so a crash mid-rewrite
        leaves either the old journal or the new one, never a hybrid.
        The caller must hold the writer lock.
        """
        lines = []
        for record in records:
            stamped = dict(record)
            stamped["schema"] = JOURNAL_SCHEMA
            lines.append(
                json.dumps(
                    stamped, sort_keys=True, separators=(",", ":")
                ).encode("utf-8")
            )
        self.rewrite_raw(lines)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self.release()

    def discard(self) -> None:
        """Delete the journal (a server booted without ``--resume``).

        Keeps the writer lock if this instance holds it: the writer
        that discarded a stale journal is about to write a fresh one,
        and no other writer may slip in between.
        """
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        try:
            self.path.unlink()
        except OSError:
            pass
