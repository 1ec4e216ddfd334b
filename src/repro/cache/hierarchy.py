"""Multi-level cache hierarchy with miss filtering.

Mirrors the structure of the paper's ``allcache`` pintool (Table I): split
L1 instruction/data caches in front of a unified L2 and L3.  An access only
reaches level N+1 if it missed at level N, so lower-level statistics depend
on how well upper levels filtered — exactly the effect behind the paper's
observation that miss-rate errors grow "for caches further away from the
processor".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.cache.cache import CacheLevel
from repro.cache.stats import CacheStats
from repro.config import CacheHierarchyConfig


@dataclass
class HierarchyResult:
    """Statistics snapshot for every level, keyed by level name."""

    levels: Dict[str, CacheStats]

    def miss_rate(self, name: str) -> float:
        """Miss rate of the named level."""
        return self.levels[name].miss_rate

    def accesses(self, name: str) -> int:
        """Access count of the named level."""
        return self.levels[name].accesses


class CacheHierarchy:
    """Stateful L1I/L1D + unified L2 + L3 hierarchy.

    Each batch runs level by level, with the misses of one level
    filtered into the next.  The program builds
    :class:`~repro.cache.fused.FusedHierarchy`; this per-batch form is
    the reference the differential tests compare it against.

    Args:
        config: Geometry for all four levels.
    """

    def __init__(self, config: CacheHierarchyConfig) -> None:
        self.config = config
        self.l1i = CacheLevel(config.l1i)
        self.l1d = CacheLevel(config.l1d)
        self.l2 = CacheLevel(config.l2)
        self.l3 = CacheLevel(config.l3)

    @property
    def levels(self) -> tuple:
        """All levels in access order (L1I, L1D, L2, L3)."""
        return (self.l1i, self.l1d, self.l2, self.l3)

    def set_recording(self, recording: bool) -> None:
        """Enable or disable statistics accumulation on every level.

        Cache *state* keeps updating either way; disabling recording is
        what implements warmup phases.
        """
        for level in self.levels:
            level.recording = recording

    def reset(self) -> None:
        """Return every level to a cold, zero-statistics state."""
        for level in self.levels:
            level.reset()

    def drain(self) -> None:
        """Flush any buffered work (no-op for the per-batch hierarchy)."""

    def process_trace(self, trace) -> None:
        """Observe one slice trace: its ifetch stream, then its data
        stream — the order the ``allcache`` pintool uses."""
        self.access_ifetch(trace.ifetch_lines)
        self.access_data(trace.mem_lines, trace.mem_is_write)

    def access_data(self, lines: np.ndarray, is_write: np.ndarray = None) -> None:
        """Run a data reference stream through L1D -> L2 -> L3.

        Args:
            lines: Line addresses in program order.
            is_write: Optional per-access write flags.  Writes do not
                change hit/miss behaviour (write-allocate) but drive the
                per-level write-back counters.
        """
        miss1 = self.l1d.access_many(lines, is_write)
        # Compose miss masks as index arrays once per level: indexing the
        # original stream by idx2 = idx1[miss2] avoids materializing the
        # lines[miss1] copy a second time at L3.
        idx1 = np.flatnonzero(miss1)
        if idx1.size:
            sub_writes = None if is_write is None else is_write[idx1]
            miss2 = self.l2.access_many(lines[idx1], sub_writes)
            idx2 = idx1[miss2]
            if idx2.size:
                self.l3.access_many(
                    lines[idx2],
                    None if is_write is None else is_write[idx2],
                )

    def access_ifetch(self, lines: np.ndarray) -> None:
        """Run an instruction fetch stream through L1I -> L2 -> L3."""
        miss1 = self.l1i.access_many(lines)
        idx1 = np.flatnonzero(miss1)
        if idx1.size:
            miss2 = self.l2.access_many(lines[idx1])
            idx2 = idx1[miss2]
            if idx2.size:
                self.l3.access_many(lines[idx2])

    def snapshot(self) -> HierarchyResult:
        """Copy current per-level statistics."""
        return HierarchyResult(
            levels={level.name: level.stats.copy() for level in self.levels}
        )
