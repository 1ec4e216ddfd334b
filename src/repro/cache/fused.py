"""Fused single-pass cache-hierarchy simulation.

Instead of three sequential per-level ``access_many`` batches with
boolean re-indexing between levels, a :class:`FusedHierarchy` buffers
whole slices and simulates the combined reference stream across
L1I/L1D -> L2 -> L3 in one pass per chunk:

* the **fused** (numpy) backend runs each level's numpy strategy once
  per chunk (the set-partitioned :func:`~repro.cache.cache.dm_sweep`
  for a direct-mapped level).  Each level's misses map to *global
  stream positions*; sorting the union of the L1I and L1D miss
  positions reconstructs the next level's stream in exactly the program
  order the legacy per-batch path produced;
* the **native** backend compiles the sequential per-access hierarchy
  walk with the host C compiler (:mod:`repro.cache._native`) and runs
  each chunk through it, whatever each level's associativity: a
  direct-mapped level steps on its ``_resident``/``_dirty`` arrays, an
  associative one on its packed LRU ``_way_state``.  The walk reads
  every slice's own arrays, so a chunk is never concatenated.

Sniper's timing model and ``NativeMachine`` feed their slices through a
built hierarchy too.  The same backend also drives every per-batch
:class:`~repro.cache.cache.CacheLevel`, whatever its associativity: a
built hierarchy hands its backend to its levels, and a level built on
its own (the SPECrate runner's) resolves the environment.  Under
``native`` each level runs the compiled direct-mapped or LRU step on its
own state, otherwise the numpy sweep, wave or sequential strategy.  Each
level records the strategy that ran as ``cache.strategy{path=...}``.

All backends operate on the same per-level state arrays as
:class:`~repro.cache.cache.CacheLevel` and are bit-identical to the
sequential reference oracle; which backend runs can never change
simulated results.  The compiled backend degrades gracefully: a missing
toolchain falls back to the fused numpy path (the
``cache.fused.fallback`` counter records it).

Backend selection: the ``REPRO_CACHE_BACKEND`` environment variable
(``numpy`` | ``fused`` | ``native``), or an explicit ``backend=``
argument, defaulting to ``auto`` — native when a compiler is available,
fused otherwise.

Buffering is slice-granular (a flush happens on slice boundaries once
roughly ``chunk_refs`` references are pending, default 262144) and is
invisible to callers: toggling recording (warmup boundaries), taking a
snapshot, resetting, or touching the per-batch access methods all
drain the buffer first.  Chunked and per-slice processing are
bit-identical because every kernel is exactly equivalent to sequential
per-access simulation, so batch boundaries cannot change results.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

import numpy as np

from repro.cache.hierarchy import CacheHierarchy
from repro.cache import _native
from repro.config import ALLCACHE_SIM, CacheHierarchyConfig
from repro.errors import ConfigError, SimulationError
from repro.isa.trace import SliceTrace
from repro.telemetry.recorder import get_recorder

#: Recognized backend names (plus "auto").
BACKENDS = ("numpy", "fused", "native")

#: Default flush threshold, in buffered references.
DEFAULT_CHUNK_REFS = 262144

_BACKEND_ENV = "REPRO_CACHE_BACKEND"


def _count_fallback(requested: str, resolved: str) -> None:
    recorder = get_recorder()
    if recorder is not None:
        recorder.count(
            "cache.fused.fallback", 1, requested=requested, to=resolved
        )


def apply_backend(backend: Optional[str] = None) -> str:
    """Validate the backend choice up front and pin it for this process.

    CLI entry points call this at startup: an explicit
    ``--cache-backend`` value wins over (and is written into)
    ``REPRO_CACHE_BACKEND`` so forked workers inherit it; with no flag,
    the environment variable itself is validated.  Either way a typo
    fails here — at argument-handling time, with the valid choices
    listed — instead of deep inside the first cache simulation minutes
    into a run.

    Returns the validated name (``auto`` when nothing was requested).

    Raises:
        ConfigError: On an unrecognized backend name, from the flag or
            the environment.
    """
    choices = BACKENDS + ("auto",)
    if backend is not None:
        if backend not in choices:
            raise ConfigError(
                f"unknown cache backend {backend!r}; "
                f"expected one of {', '.join(choices)}"
            )
        os.environ[_BACKEND_ENV] = backend
        return backend
    inherited = os.environ.get(_BACKEND_ENV)
    if inherited and inherited not in choices:
        raise ConfigError(
            f"unknown cache backend {inherited!r} in {_BACKEND_ENV}; "
            f"expected one of {', '.join(choices)}"
        )
    return inherited or "auto"


def resolve_backend(
    backend: Optional[str] = None, count_fallback: bool = True
) -> str:
    """Resolve a backend request to an available backend.

    Args:
        backend: Explicit request, or ``None`` to consult the
            ``REPRO_CACHE_BACKEND`` environment variable (default
            ``auto``).
        count_fallback: Whether a native request that falls back counts
            ``cache.fused.fallback``.  Per-level lookups pass ``False``
            so the counter stays one event per selection.

    Returns:
        One of ``numpy``, ``fused``, ``native`` — guaranteed
        available.  An unavailable native backend resolves to ``fused``
        and counts ``cache.fused.fallback``.

    Raises:
        ConfigError: On an unrecognized backend name.
    """
    requested = backend or os.environ.get(_BACKEND_ENV) or "auto"
    if requested not in BACKENDS + ("auto",):
        raise ConfigError(
            f"unknown cache backend {requested!r}; "
            f"expected one of {', '.join(BACKENDS + ('auto',))}"
        )
    if requested == "auto":
        return "native" if _native.load_kernel() is not None else "fused"
    if requested == "native" and _native.load_kernel() is None:
        if count_fallback:
            _count_fallback("native", "fused")
        return "fused"
    return requested


def build_hierarchy(
    config: Optional[CacheHierarchyConfig] = None,
    backend: Optional[str] = None,
) -> CacheHierarchy:
    """Build a hierarchy for the resolved backend.

    ``numpy`` gives the legacy per-batch :class:`CacheHierarchy`; every
    other backend gives a :class:`FusedHierarchy`.  Either way the
    levels run the same backend's strategies.
    """
    config = config if config is not None else ALLCACHE_SIM
    resolved = resolve_backend(backend)
    if resolved == "numpy":
        return CacheHierarchy(config, backend=resolved)
    return FusedHierarchy(config, backend=resolved)


class FusedHierarchy(CacheHierarchy):
    """A cache hierarchy that simulates buffered slices in fused chunks.

    Drop-in for :class:`CacheHierarchy`: the per-batch access methods
    still work (they drain the buffer first to preserve program order),
    and statistics/snapshots are always consistent because every
    consistency point drains.

    Args:
        config: Hierarchy geometry.
        backend: ``fused`` or ``native`` (already resolved —
            use :func:`build_hierarchy` for env-driven selection); the
            levels run it too.
        chunk_refs: Flush threshold in buffered references.
    """

    def __init__(
        self,
        config: CacheHierarchyConfig,
        backend: str = "fused",
        chunk_refs: int = DEFAULT_CHUNK_REFS,
    ) -> None:
        if backend not in ("fused", "native"):
            raise ConfigError(f"not a fused backend: {backend!r}")
        super().__init__(config, backend=backend)
        self.backend = backend
        self._chunk = chunk_refs
        if self._chunk < 1:
            raise ConfigError("chunk_refs must be positive")
        shifts = {level._granularity_shift for level in self.levels}
        # One line size across levels (CacheHierarchyConfig enforces it)
        # means one granularity shift for the whole combined stream.
        if len(shifts) != 1:
            raise SimulationError(
                "fused hierarchy requires a uniform line size"
            )
        self._shift = shifts.pop()
        self._kernel = None
        if backend == "native":
            self._kernel = _native.load_kernel()
            if self._kernel is None:
                raise ConfigError(
                    "backend 'native' is unavailable; "
                    "resolve_backend() selects an available one"
                )
        self._segments: List[Tuple[np.ndarray, Optional[np.ndarray]]] = []
        self._pending = 0

    # -- buffering ------------------------------------------------------

    def submit_slice(self, trace: SliceTrace) -> None:
        """Buffer one slice's reference streams for fused simulation.

        The buffer keeps the slice's own arrays: generated and imported
        traces are already C-contiguous int64 lines and bool flags, so
        nothing is copied.
        """
        ifetch = np.ascontiguousarray(trace.ifetch_lines, dtype=np.int64)
        mem = np.ascontiguousarray(trace.mem_lines, dtype=np.int64)
        writes = np.ascontiguousarray(trace.mem_is_write, dtype=bool)
        if ifetch.size:
            if int(ifetch.min()) < 0:
                raise SimulationError(
                    f"{self.l1i.name}: negative line address in batch"
                )
            self._segments.append((ifetch, None))
            self._pending += ifetch.size
        if mem.size:
            if int(mem.min()) < 0:
                raise SimulationError(
                    f"{self.l1d.name}: negative line address in batch"
                )
            if writes.shape != mem.shape:
                raise SimulationError(
                    f"{self.l1d.name}: is_write must align with lines"
                )
            self._segments.append((mem, writes))
            self._pending += mem.size
        if self._pending >= self._chunk:
            self.drain()

    def process_trace(self, trace: SliceTrace) -> None:
        self.submit_slice(trace)

    def drain(self) -> None:
        """Simulate every buffered reference now."""
        if not self._pending:
            return
        segments = self._segments
        n = self._pending
        self._segments = []
        self._pending = 0
        recorder = get_recorder()
        if recorder is not None:
            with recorder.span(
                "cache.fused",
                backend=self.backend,
                refs=n,
                segments=len(segments),
            ):
                self._simulate_chunk(segments, recorder)
            recorder.count("cache.fused.backend", 1, backend=self.backend)
        else:
            self._simulate_chunk(segments, None)

    # -- consistency points --------------------------------------------

    def set_recording(self, recording: bool) -> None:
        # All buffered slices share one recording state; a toggle is a
        # chunk boundary (warmup -> measured transitions).
        if recording != self.l1i.recording:
            self.drain()
        super().set_recording(recording)

    def reset(self) -> None:
        self.drain()
        super().reset()

    def snapshot(self):
        self.drain()
        return super().snapshot()

    def access_data(self, lines, is_write=None) -> None:
        self.drain()
        super().access_data(lines, is_write)

    def access_ifetch(self, lines) -> None:
        self.drain()
        super().access_ifetch(lines)

    # -- the fused pass -------------------------------------------------

    def _simulate_chunk(self, segments, recorder) -> None:
        if self._kernel is not None:
            counts = self._walk_chunk(segments)
            waves = 1
        else:
            counts = self._sweep_chunk(segments)
            waves = int((counts[:, 0] > 0).sum())
        recording = self.l1i.recording
        for level, (accesses, misses, writebacks) in zip(
            self.levels, counts.tolist()
        ):
            if accesses and recording:
                level.stats.record(accesses, misses, writebacks)
            if recorder is not None and accesses:
                recorder.count("cache.accesses", accesses, level=level.name)
                recorder.count("cache.batches", 1, level=level.name)
        if recorder is not None:
            recorder.count("cache.fused.waves", waves)

    def _walk_chunk(self, segments) -> np.ndarray:
        state = []
        for level in self.levels:
            if level._strategy is None:
                # First traffic: the level picks the native step, which
                # does not look at the traffic, and an associative level
                # allocates its packed LRU state.
                level._ensure_strategy(None)
            if level._assoc == 1:
                state.append((level._resident, level._dirty, 1,
                              level._set_mask, level._set_shift))
            else:
                state.append((level._way_state, None, level._assoc,
                              level._set_mask, level._set_shift))
        return self._kernel.walk(segments, self._shift, state)

    def _sweep_chunk(self, segments) -> np.ndarray:
        combined = np.concatenate([lines for lines, _ in segments])
        if self._shift:
            combined >>= self._shift
        # Slice the combined (granularity-shifted) stream back into
        # per-L1 streams as views, and give every reference its global
        # position; position order *is* program order, and within a
        # slice ifetch positions precede data positions, exactly the
        # order the per-batch path feeds L2.
        i_lines, i_pos, d_lines, d_pos, d_writes = [], [], [], [], []
        offset = 0
        for lines, writes in segments:
            view = combined[offset:offset + lines.size]
            pos = np.arange(offset, offset + lines.size, dtype=np.int64)
            if writes is None:
                i_lines.append(view)
                i_pos.append(pos)
            else:
                d_lines.append(view)
                d_pos.append(pos)
                d_writes.append(writes)
            offset += lines.size
        counts = np.zeros((4, 3), dtype=np.int64)
        miss_i = self._sweep_level(
            self.l1i, 0, counts, _cat(i_lines), None, _cat(i_pos)
        )
        writes_d = _cat(d_writes)
        miss_d = self._sweep_level(
            self.l1d, 1, counts, _cat(d_lines), writes_d, _cat(d_pos)
        )
        pos2 = np.sort(np.concatenate([miss_i, miss_d]))
        if not pos2.size:
            return counts
        # Write flags over the full stream (False at ifetch positions)
        # so filtered streams can gather by position.
        writes_all = np.zeros(combined.size, dtype=bool)
        if writes_d is not None and writes_d.size:
            writes_all[_cat(d_pos)] = writes_d
        pos3 = self._sweep_level(
            self.l2, 2, counts, combined[pos2], writes_all[pos2], pos2
        )
        if pos3.size:
            self._sweep_level(
                self.l3, 3, counts, combined[pos3], writes_all[pos3], pos3
            )
        return counts

    def _sweep_level(
        self, level, row, counts, lines, writes, pos
    ) -> np.ndarray:
        """One level's sweep; returns its miss positions, ascending."""
        if lines is None or not lines.size:
            return np.zeros(0, dtype=np.int64)
        if writes is None:
            writes = np.zeros(lines.size, dtype=bool)
        miss, writebacks = level._simulate(lines, writes)
        miss_pos = pos[miss]
        counts[row, 0] = lines.size
        counts[row, 1] = miss_pos.size
        counts[row, 2] = writebacks
        return miss_pos


def _cat(parts: list) -> Optional[np.ndarray]:
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts)
