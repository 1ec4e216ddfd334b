"""Functional cache simulation substrate.

Replaces the role of Pin's ``allcache`` pintool internals: set-associative
LRU caches, a vectorized direct-mapped fast path, and a multi-level
hierarchy with miss filtering between levels (an access only reaches L2 if
it missed in L1, etc.).  Caches are stateful so cold-start effects — the
central subject of the paper's Section IV-D — arise naturally when a
regional checkpoint is replayed in isolation.

``repro.cache.fused`` holds the one engine the program builds,
:class:`FusedHierarchy`: whole slices buffered and swept through all
four levels in one chunked pass.  It takes a compiled walk of every
geometry when the native kernel loads and the numpy sweep otherwise,
bit-identical to the per-batch :class:`CacheHierarchy` either way (see
DESIGN.md section 13).  :func:`resolve_backend` names the path it takes.
"""

from repro.cache.stats import CacheStats
from repro.cache.cache import CacheLevel
from repro.cache.fused import FusedHierarchy, resolve_backend
from repro.cache.hierarchy import CacheHierarchy, HierarchyResult

__all__ = [
    "CacheStats",
    "CacheLevel",
    "CacheHierarchy",
    "FusedHierarchy",
    "HierarchyResult",
    "resolve_backend",
]
