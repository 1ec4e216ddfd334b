"""Fused single-pass cache-hierarchy simulation.

Instead of three sequential per-level ``access_many`` batches with
boolean re-indexing between levels, a :class:`FusedHierarchy` buffers
whole slices and simulates the combined reference stream across
L1I/L1D -> L2 -> L3 in one pass per chunk.  It is the one hierarchy the
program builds: the ``allcache`` replay, Sniper's regions,
``NativeMachine`` and every copy of the SPECrate runner run on it.  The
engine picks its own path, and nothing else selects it:

* when the compiled kernel loads (:mod:`repro.cache._native`), each
  chunk takes one sequential per-access walk of all four levels,
  whatever each level's associativity: a direct-mapped level steps on
  its ``_resident``/``_dirty`` arrays, an associative one on its packed
  LRU ``_way_state``.  The walk reads every slice's own arrays, so a
  chunk is never concatenated;
* without a compiler, each chunk takes the numpy sweep: every level's
  numpy strategy runs once per chunk (the set-partitioned
  :func:`~repro.cache.cache.dm_sweep` for a direct-mapped level).  Each
  level's misses map to *global stream positions*; sorting the union of
  the L1I and L1D miss positions reconstructs the next level's stream
  in exactly the program order the per-batch path produces.

Both paths operate on the same per-level state arrays as
:class:`~repro.cache.cache.CacheLevel` and are bit-identical to the
per-batch :class:`~repro.cache.hierarchy.CacheHierarchy` and to the
sequential reference oracle, so whether a compiler exists can never
change simulated results.  :func:`resolve_backend` names the path
(``native`` or ``fused``), and every drain counts it as
``cache.fused.backend{backend=...}``.

Buffering is slice-granular (a flush happens on slice boundaries once
roughly :data:`DEFAULT_CHUNK_REFS` references are pending) and is
invisible to callers: toggling recording (warmup boundaries), taking a
snapshot, resetting, or a per-batch ``access_data``/``access_ifetch``
(a one-stream submit followed by a drain) all drain the buffer.
Chunked and per-slice processing are bit-identical because every
kernel is exactly equivalent to sequential per-access simulation, so
batch boundaries cannot change results.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.cache.hierarchy import CacheHierarchy
from repro.cache import _native
from repro.config import CacheHierarchyConfig
from repro.errors import SimulationError
from repro.isa.trace import SliceTrace
from repro.telemetry.recorder import get_recorder

#: Flush threshold, in buffered references.
DEFAULT_CHUNK_REFS = 262144


def resolve_backend() -> str:
    """The path :class:`FusedHierarchy` takes in this process.

    ``native`` (the compiled walk) when the kernel loads, ``fused`` (the
    numpy sweep) otherwise.
    """
    return "native" if _native.load_kernel() is not None else "fused"


class FusedHierarchy(CacheHierarchy):
    """A cache hierarchy that simulates buffered slices in fused chunks.

    Drop-in for :class:`CacheHierarchy`: the per-batch access methods
    still work (each submits its stream and drains, preserving program
    order), and statistics/snapshots are always consistent because every
    consistency point drains.

    Args:
        config: Hierarchy geometry.
    """

    def __init__(self, config: CacheHierarchyConfig) -> None:
        super().__init__(config)
        self._chunk = DEFAULT_CHUNK_REFS
        shifts = {level._granularity_shift for level in self.levels}
        # One line size across levels (CacheHierarchyConfig enforces it)
        # means one granularity shift for the whole combined stream.
        if len(shifts) != 1:
            raise SimulationError(
                "fused hierarchy requires a uniform line size"
            )
        self._shift = shifts.pop()
        self.backend = resolve_backend()
        self._kernel = _native.load_kernel()
        self._segments: List[Tuple[np.ndarray, Optional[np.ndarray]]] = []
        self._pending = 0

    # -- buffering ------------------------------------------------------

    def submit_slice(self, trace: SliceTrace) -> None:
        """Buffer one slice's reference streams for fused simulation.

        The buffer keeps the slice's own arrays: generated and imported
        traces are already C-contiguous int64 lines and bool flags, so
        nothing is copied.
        """
        self._submit(trace.ifetch_lines, None)
        self._submit(trace.mem_lines, trace.mem_is_write)
        if self._pending >= self._chunk:
            self.drain()

    def _submit(self, lines, writes) -> None:
        """Buffer one stream: data to L1D when ``writes`` is given (one
        flag per line), ifetch to L1I when it is ``None``."""
        level = self.l1i if writes is None else self.l1d
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        if not lines.size:
            return
        if int(lines.min()) < 0:
            raise SimulationError(
                f"{level.name}: negative line address in batch"
            )
        if writes is not None:
            writes = np.ascontiguousarray(writes, dtype=bool)
            if writes.shape != lines.shape:
                raise SimulationError(
                    f"{level.name}: is_write must align with lines"
                )
        self._segments.append((lines, writes))
        self._pending += lines.size

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
        lines = np.asarray(lines, dtype=np.int64)
        if is_write is None:
            is_write = np.zeros(lines.shape, dtype=bool)
        self._submit(lines, is_write)
        self.drain()

    def access_ifetch(self, lines) -> None:
        self._submit(lines, None)
        self.drain()

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
            if level._assoc == 1:
                state.append((level._resident, level._dirty, 1,
                              level._set_mask, level._set_shift))
            else:
                state.append((level._packed_ways(), None, level._assoc,
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
