"""Functional cache simulation substrate.

Replaces the role of Pin's ``allcache`` pintool internals: set-associative
LRU caches, a vectorized direct-mapped fast path, and a multi-level
hierarchy with miss filtering between levels (an access only reaches L2 if
it missed in L1, etc.).  Caches are stateful so cold-start effects — the
central subject of the paper's Section IV-D — arise naturally when a
regional checkpoint is replayed in isolation.

``repro.cache.fused`` adds the fused single-pass engine: whole slices
buffered and swept through all four levels in one chunked pass, with
interchangeable numpy / native backends that are bit-identical to the
per-batch reference (see DESIGN.md section 13).  The backend also picks
how every per-batch level of any associativity runs: a hierarchy hands
its own down, and a level built without one (Sniper, SPECrate,
``NativeMachine``) resolves ``REPRO_CACHE_BACKEND``.  Under ``native`` a
level runs a compiled direct-mapped or LRU step, and the strategy that
ran is recorded as ``cache.strategy{path=...}``.
"""

from repro.cache.stats import CacheStats
from repro.cache.cache import CacheLevel
from repro.cache.fused import (
    FusedHierarchy,
    apply_backend,
    build_hierarchy,
    resolve_backend,
)
from repro.cache.hierarchy import CacheHierarchy, HierarchyResult

__all__ = [
    "CacheStats",
    "CacheLevel",
    "CacheHierarchy",
    "FusedHierarchy",
    "HierarchyResult",
    "apply_backend",
    "build_hierarchy",
    "resolve_backend",
]
