"""``allcache`` equivalent: functional cache-hierarchy simulation.

Drives every instruction fetch and data reference of the observed slices
through a stateful :class:`~repro.cache.hierarchy.CacheHierarchy` (the
scaled Table I geometry by default).  Because the hierarchy is stateful,
observing a regional replay from a fresh tool reproduces the cold-start
behaviour the paper analyzes; passing warmup slices through the engine's
warmup path warms the hierarchy without polluting statistics.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cache.fused import build_hierarchy
from repro.cache.stats import CacheStats
from repro.config import ALLCACHE_SIM, CacheHierarchyConfig
from repro.isa.trace import SliceTrace
from repro.pin.pintool import Pintool


class AllCache(Pintool):
    """Functional I+D cache hierarchy simulator.

    Args:
        config: Hierarchy geometry; defaults to the scaled Table I
            configuration (see ``repro.config.ALLCACHE_SIM``).
        backend: Cache-simulation backend for the built hierarchy (see
            ``repro.cache.fused``); defaults to ``REPRO_CACHE_BACKEND``
            / auto-detection.
    """

    stateful = True

    def __init__(
        self,
        config: Optional[CacheHierarchyConfig] = None,
        backend: Optional[str] = None,
    ) -> None:
        super().__init__()
        self.config = config if config is not None else ALLCACHE_SIM
        self.hierarchy = build_hierarchy(self.config, backend=backend)

    def process_slice(self, trace: SliceTrace) -> None:
        self.hierarchy.set_recording(not self.warmup)
        self.hierarchy.process_trace(trace)

    def end(self) -> None:
        self.hierarchy.drain()

    def stats(self) -> Dict[str, CacheStats]:
        """Per-level statistics keyed by level name (L1I/L1D/L2/L3)."""
        return self.hierarchy.snapshot().levels

    def miss_rate(self, level: str) -> float:
        """Miss rate of one level."""
        return self.stats()[level].miss_rate

    def reset(self) -> None:
        self.hierarchy.reset()
        self.warmup = False
