"""``allcache`` equivalent: functional cache-hierarchy simulation.

Drives every instruction fetch and data reference of the observed slices
through a stateful :class:`~repro.cache.fused.FusedHierarchy` (the
scaled Table I geometry by default), which walks them with the compiled
kernel when it loads and sweeps them with numpy otherwise.  Because the hierarchy is stateful,
observing a regional replay from a fresh tool reproduces the cold-start
behaviour the paper analyzes; passing warmup slices through the engine's
warmup path warms the hierarchy without polluting statistics.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cache.fused import FusedHierarchy
from repro.cache.stats import CacheStats
from repro.config import ALLCACHE_SIM, CacheHierarchyConfig
from repro.isa.trace import SliceTrace
from repro.pin.pintool import Pintool


class AllCache(Pintool):
    """Functional I+D cache hierarchy simulator.

    Args:
        config: Hierarchy geometry; defaults to the scaled Table I
            configuration (see ``repro.config.ALLCACHE_SIM``).
    """

    stateful = True

    def __init__(self, config: Optional[CacheHierarchyConfig] = None) -> None:
        super().__init__()
        self.config = config if config is not None else ALLCACHE_SIM
        self.hierarchy = FusedHierarchy(self.config)

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
