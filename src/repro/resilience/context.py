"""The active campaign: one journal and item count per run.

A :class:`Campaign` ties together what resuming needs to know about one
experiment execution: the journal that makes the run resumable, and how
many items its fan-outs submitted, completed and replayed from an
interrupted run's journal (the ``resumed: N journaled item(s) reused``
line, and the item counts a campaign job reports).

Like the telemetry recorder and the artifact store, the active campaign
lives in a module-level slot (:func:`get_campaign` /
:func:`set_campaign` / :func:`using_campaign`).  ``None`` — the default
for library use and for tests that don't opt in — means no journal and
zero bookkeeping overhead.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, Optional, Tuple

from repro.errors import ResilienceError
from repro.resilience.journal import CampaignJournal, decode_value, encode_value
from repro.telemetry.recorder import count as telemetry_count

__all__ = ["Campaign", "get_campaign", "set_campaign", "using_campaign"]


class Campaign:
    """One resumable experiment execution.

    Args:
        resume: Whether to reuse items journaled by a previous
            interrupted run of the same campaign.  When False (the
            default), a stale journal for this campaign is discarded —
            a fresh run must never silently reuse old items.
    """

    def __init__(self, resume: bool = False) -> None:
        self.resume = resume
        self.journal: Optional[CampaignJournal] = None
        self.key: Optional[str] = None
        self.total_items = 0
        self.completed_items = 0
        self.reused_items = 0
        self._cached: Dict[Tuple[int, int], dict] = {}
        self._next_seq = 0

    # -- journal wiring ------------------------------------------------

    def attach_journal(self, store_root, key: str) -> None:
        """Bind this campaign to its journal under the store root.

        Called by ``registry.execute`` once the campaign's identity (the
        experiment + kwargs content address) is known.  On resume, the
        existing journal's completed items become the replay cache.

        Takes the journal's exclusive writer lock up front, so two
        processes resuming the same campaign key cannot interleave
        appends — the second one gets
        :class:`~repro.errors.JournalLockedError` before reading or
        discarding anything.
        """
        if self.journal is not None:
            return
        self.key = key
        journal = CampaignJournal(CampaignJournal.path_for(store_root, key))
        journal.acquire()
        if journal.exists():
            if self.resume:
                for record in journal.load():
                    if (
                        record.get("event") == "item"
                        and record.get("status") == "ok"
                    ):
                        seq = int(record.get("seq", -1))
                        index = int(record.get("index", -1))
                        self._cached[(seq, index)] = record
            else:
                journal.discard()
        self.journal = journal

    def begin_map(self, items: int) -> int:
        """Sequence number of the next fan-out (journal identity axis)."""
        seq = self._next_seq
        self._next_seq += 1
        self.total_items += items
        return seq

    def journaled_value(self, seq: int, index: int) -> Tuple[bool, object]:
        """``(True, value)`` when the journal replays this item.

        ``(False, None)`` when the item must run: it was never journaled,
        or its journaled payload fails its integrity check.
        """
        record = self._cached.get((seq, index))
        if record is None:
            return False, None
        try:
            value = decode_value(record.get("payload") or {})
        except ResilienceError:
            # Damaged payload: drop the entry and recompute the item.
            self._cached.pop((seq, index), None)
            return False, None
        telemetry_count("journal.hit")
        self.reused_items += 1
        self.completed_items += 1
        return True, value

    def journal_item(self, seq: int, index: int, label: str, value) -> None:
        """Count one freshly computed item and durably record it."""
        self.completed_items += 1
        if self.journal is None:
            return
        self.journal.append(
            {
                "event": "item",
                "seq": seq,
                "index": index,
                "label": label,
                "status": "ok",
                "payload": encode_value(value),
            }
        )

    def finish(self, complete: bool = True) -> None:
        """Seal the campaign; a complete one gets a terminal record."""
        if self.journal is not None:
            if complete:
                self.journal.append({"event": "complete", "campaign": self.key})
            self.journal.close()


# -- the active-campaign slot ------------------------------------------

_CAMPAIGN: Optional[Campaign] = None


def get_campaign() -> Optional[Campaign]:
    """The active campaign, or None (no journal)."""
    return _CAMPAIGN


def set_campaign(campaign: Optional[Campaign]) -> Optional[Campaign]:
    """Install (or clear, with None) the campaign; returns the old one."""
    global _CAMPAIGN
    previous = _CAMPAIGN
    _CAMPAIGN = campaign
    return previous


@contextlib.contextmanager
def using_campaign(campaign: Optional[Campaign]) -> Iterator[Optional[Campaign]]:
    """Scoped :func:`set_campaign`; restores the previous one on exit."""
    previous = set_campaign(campaign)
    try:
        yield campaign
    finally:
        set_campaign(previous)
