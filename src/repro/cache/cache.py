"""A single cache level with LRU replacement.

Two numpy execution strategies share one external behaviour:

* ``associativity == 1`` (the paper's Table I L2/L3) uses the exact,
  fully vectorized run-collapse sweep (:func:`dm_sweep`): the batch is
  grouped by set with one packed-key sort (:func:`set_order`) and
  collapsed into runs of consecutive identical lines; only run heads
  can miss, only each set's lead run compares against pre-batch state,
  and writeback accounting and the state scatter happen at run
  granularity.  This is what makes whole-program simulation tractable
  in Python, and the same kernel powers the fused engine's numpy sweep
  (``repro.cache.fused``) over arbitrarily long chunked streams.
* ``associativity > 1`` picks one of two bit-identical strategies from
  the shape of the first batch it sees.  Traffic that spreads across
  many sets (miss-filtered L2/L3 streams) takes the *wave* path: LRU
  stacks live in a packed ``(num_sets, assoc)`` int64 array (way 0 =
  MRU, ``tag << 1 | dirty``), the batch is grouped by set and collapsed
  into runs of adjacent same-set same-tag accesses, and wave *w*
  retires the *w*-th run of every touched set — pairwise-distinct sets,
  hence independent — with vectorized match/shift operations over the
  ways axis.  Traffic that concentrates into few sets (an L1's hot
  working set) would pay O(accesses-per-set) waves for tiny vectors, so
  it keeps the sequential per-set ordered-dict loop instead — which
  also serves as the differential-testing oracle (``reference=True``,
  and ``_access_direct_mapped_reference`` for the direct-mapped case).

The fused engine's compiled walk (:mod:`repro.cache._native`) steps on
the same state: a direct-mapped level's ``_resident``/``_dirty`` arrays
and an associative level's packed ``_way_state``.

Every path is *stateful across batches*, which is essential: replaying a
regional pinball on a fresh hierarchy reproduces the cold-start misses the
paper measures, while consecutive slices of a whole run keep each other's
working sets warm.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

import numpy as np

from repro.cache.stats import CacheStats
from repro.config import CacheConfig, TRACE_LINE_BYTES
from repro.errors import SimulationError
from repro.telemetry.recorder import get_recorder


def set_order(lines: np.ndarray, set_mask: int) -> np.ndarray:
    """Indices that sort ``lines`` by set index, ties in program order.

    Equivalent to ``np.argsort(lines & set_mask, kind="stable")`` but
    built as one radix-friendly key — ``(set_index << pos_bits) | pos`` —
    so numpy's SIMD quicksort applies (the keys are unique, making
    stability free).  The key fits uint32 for every realistic batch;
    wider shapes fall back to int64 keys, then to a stable argsort.
    """
    n = lines.size
    pos_bits = max(1, int(n - 1).bit_length())
    set_bits = int(set_mask).bit_length()
    if set_bits + pos_bits <= 32:
        key = (lines & set_mask).astype(np.uint32)
        key <<= np.uint32(pos_bits)
        key |= np.arange(n, dtype=np.uint32)
        key.sort()
        return key & np.uint32((1 << pos_bits) - 1)
    if set_bits + pos_bits <= 63:
        key = (lines & set_mask) << pos_bits
        key |= np.arange(n, dtype=np.int64)
        key.sort()
        return key & ((1 << pos_bits) - 1)
    return np.argsort(lines & set_mask, kind="stable")


def dm_sweep(
    resident: np.ndarray,
    dirty: np.ndarray,
    set_mask: int,
    set_shift: int,
    lines: np.ndarray,
    writes: Optional[np.ndarray],
):
    """One direct-mapped set-partitioned sweep over a reference stream.

    The stream is grouped by set (program order within each set) and
    collapsed into runs of consecutive same-line accesses.  Only run
    heads can miss: a mid-group run head always misses (the resident
    line is the previous run's, which carries a different tag), so only
    each set's *lead* run needs a comparison against the pre-sweep
    ``resident`` tag.  Miss filtering, write-back accounting, and the
    resident/dirty state update all happen at run granularity.

    Operates in place on the caller's ``resident`` (tag per set, -1 =
    empty) and ``dirty`` arrays — the same representation
    :class:`CacheLevel` keeps — so fused and per-batch access paths can
    interleave on one level without divergence.

    Args:
        resident: Per-set resident tag (-1 empty); updated in place.
        dirty: Per-set dirty flag; updated in place.
        set_mask: ``num_sets - 1``.
        set_shift: Bits to shift a line address down to its tag.
        lines: Granularity-shifted line addresses in program order.
        writes: Optional per-access write flags (``None`` = all clean).

    Returns:
        ``(miss_idx, writebacks)`` — positions into ``lines`` that
        missed (in set-sorted order, not program order) and the number
        of dirty evictions.
    """
    n = lines.size
    idx = set_order(lines, set_mask)
    l_sorted = lines[idx]

    # A run boundary is simply a line-address change: equal adjacent
    # lines share (set, tag); unequal adjacent lines differ in tag or
    # belong to different sets — either way a new run.
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(l_sorted[1:], l_sorted[:-1], out=head[1:])
    run_starts = np.flatnonzero(head)
    num_runs = run_starts.size
    l_runs = l_sorted[run_starts]
    s_runs = l_runs & set_mask
    t_runs = l_runs >> set_shift

    group_head = np.empty(num_runs, dtype=bool)
    group_head[0] = True
    np.not_equal(s_runs[1:], s_runs[:-1], out=group_head[1:])
    group_final = np.empty(num_runs, dtype=bool)
    group_final[-1] = True
    group_final[:-1] = group_head[1:]

    lead = np.flatnonzero(group_head)
    lead_resident = resident[s_runs[lead]]
    run_miss = np.ones(num_runs, dtype=bool)
    run_miss[lead] = t_runs[lead] != lead_resident

    # A run is "wet" when its occupancy period holds a dirty line: any
    # write inside the run, or — for a lead run that *hits* — carry-in
    # dirt from the pre-sweep resident period it continues.
    if writes is not None:
        w_sorted = writes[idx]
        cumw = np.cumsum(w_sorted, dtype=np.int32)
        run_last = np.empty(num_runs, dtype=np.int64)
        run_last[:-1] = run_starts[1:] - 1
        run_last[-1] = n - 1
        wet = (cumw[run_last] - cumw[run_starts] + w_sorted[run_starts]) > 0
    else:
        wet = np.zeros(num_runs, dtype=bool)
    cont = lead[~run_miss[lead]]
    if cont.size:
        wet[cont] |= dirty[s_runs[cont]]

    # Every non-final run is evicted inside the sweep by its successor;
    # lead misses additionally evict valid pre-sweep residents.
    writebacks = int(wet[~group_final].sum())
    lead_evicts = run_miss[lead] & (lead_resident >= 0)
    if lead_evicts.any():
        writebacks += int(dirty[s_runs[lead[lead_evicts]]].sum())

    final_sets = s_runs[group_final]
    resident[final_sets] = t_runs[group_final]
    dirty[final_sets] = wet[group_final]

    miss_idx = idx[run_starts[run_miss]]
    return miss_idx, writebacks


class CacheLevel:
    """One set-associative LRU cache level.

    Trace line addresses are expressed in :data:`TRACE_LINE_BYTES` units;
    a level whose configured line size is larger coarsens incoming
    addresses by the appropriate shift, so a 64 B-line hierarchy naturally
    sees fewer distinct lines than a 32 B-line one.

    Args:
        config: Geometry of the level.
        recording: Whether statistics accumulate (turned off for warmup).
        reference: Pin the level to the sequential per-access loops
            (the ordered-dict LRU loop when associative) instead of
            choosing a strategy from the traffic.  All strategies are
            bit-identical; the reference exists as a differential-testing
            oracle.
    """

    #: Minimum accesses a wave must amortize for the vectorized path to
    #: beat the sequential loop: one wave costs ~tens of microseconds of
    #: fixed numpy overhead against ~0.2 us per sequential-loop access
    #: (calibrated on replay workloads; tests pin a strategy by
    #: patching this).
    _WAVE_AMORTIZE = 128

    def __init__(
        self,
        config: CacheConfig,
        recording: bool = True,
        reference: bool = False,
    ) -> None:
        if config.line_size < TRACE_LINE_BYTES:
            raise SimulationError(
                f"{config.name}: line size below trace granularity "
                f"({TRACE_LINE_BYTES} B)"
            )
        self.config = config
        self.stats = CacheStats()
        self.recording = recording
        self.reference = reference
        self._granularity_shift = (
            config.line_size // TRACE_LINE_BYTES
        ).bit_length() - 1
        self._num_sets = config.num_sets
        self._set_mask = self._num_sets - 1
        self._set_shift = self._num_sets.bit_length() - 1
        self._assoc = config.associativity
        self._resident = None
        self._dirty = None
        self._sets: Optional[List[OrderedDict]] = None
        self._way_state: Optional[np.ndarray] = None
        # How batches run: "sweep", "wave" or "sequential".
        # A reference level is pinned to the sequential oracle loops;
        # any other picks its strategy (and associative state) when it
        # first sees traffic, in _ensure_strategy.
        self._strategy: Optional[str] = "sequential" if reference else None
        if self._assoc == 1:
            # Direct-mapped: one resident tag per set; -1 means empty.
            self._resident = np.full(self._num_sets, -1, dtype=np.int64)
            self._dirty = np.zeros(self._num_sets, dtype=bool)
        elif reference:
            # Each set maps tag -> dirty flag, in LRU order (last = MRU).
            self._sets = [OrderedDict() for _ in range(self._num_sets)]

    @property
    def name(self) -> str:
        """Display name of the level ("L1D", "L2", ...)."""
        return self.config.name

    def reset(self) -> None:
        """Flush all cached state and zero statistics (a cold cache)."""
        self.stats.reset()
        self.flush()

    def flush(self) -> None:
        """Invalidate every line but keep statistics.

        Dirty contents are dropped, not written back (an invalidate, not
        a clean).
        """
        if self._assoc == 1:
            self._resident.fill(-1)
            self._dirty.fill(False)
        elif self._sets is not None:
            for entry in self._sets:
                entry.clear()
        elif self._way_state is not None:
            self._way_state.fill(-1)

    def resident_line_count(self) -> int:
        """Number of valid lines currently cached (for tests/inspection)."""
        if self._assoc == 1:
            return int((self._resident >= 0).sum())
        if self._sets is not None:
            return sum(len(entry) for entry in self._sets)
        if self._way_state is not None:
            return int((self._way_state >= 0).sum())
        return 0

    def access_many(
        self, lines: np.ndarray, is_write: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Access a batch of cache-line addresses in program order.

        Args:
            lines: int64 array of non-negative line addresses.
            is_write: Optional per-access write flags.  Writes mark lines
                dirty; evicting a dirty line counts a writeback in the
                statistics (write-back accounting only — no extra traffic
                is injected downstream).

        Returns:
            Boolean array: ``True`` where the access missed.  Missing lines
            are allocated (write-allocate, no distinction between reads and
            writes for hit/miss purposes, matching ``allcache``).
        """
        lines = np.asarray(lines, dtype=np.int64)
        if lines.size == 0:
            return np.zeros(0, dtype=bool)
        if lines.min() < 0:
            raise SimulationError(f"{self.name}: negative line address in batch")
        if is_write is None:
            writes = np.zeros(lines.size, dtype=bool)
        else:
            writes = np.asarray(is_write, dtype=bool)
            if writes.shape != lines.shape:
                raise SimulationError(
                    f"{self.name}: is_write must align with lines"
                )
        if self._granularity_shift:
            lines = lines >> self._granularity_shift
        miss, writebacks = self._simulate(lines, writes)
        if self.recording:
            self.stats.record(int(lines.size), int(miss.sum()), writebacks)
        recorder = get_recorder()
        if recorder is not None:
            # Telemetry is a side channel: counters observe the batch,
            # they never influence hit/miss results.
            recorder.count("cache.accesses", int(lines.size), level=self.name)
            recorder.count("cache.batches", 1, level=self.name)
        return miss

    def _simulate(self, lines: np.ndarray, writes: np.ndarray):
        """Core state update on granularity-shifted lines.

        Shared by :meth:`access_many` (per-batch path) and the fused
        hierarchy engine, which records statistics itself.

        Returns:
            ``(miss, writebacks)`` — program-order boolean miss array
            and the batch's dirty-eviction count.
        """
        if self._strategy is None:
            self._ensure_strategy(lines)
        strategy = self._strategy
        if strategy == "sweep":
            return self._access_direct_mapped(lines, writes)
        if strategy == "wave":
            return self._access_associative(lines, writes)
        if self._assoc == 1:
            return self._access_direct_mapped_reference(lines, writes)
        return self._access_associative_reference(lines, writes)

    def _access_direct_mapped(self, lines: np.ndarray, writes: np.ndarray):
        miss_idx, writebacks = dm_sweep(
            self._resident,
            self._dirty,
            self._set_mask,
            self._set_shift,
            lines,
            writes,
        )
        miss = np.zeros(lines.size, dtype=bool)
        miss[miss_idx] = True
        return miss, writebacks

    def _access_direct_mapped_reference(
        self, lines: np.ndarray, writes: np.ndarray
    ):
        """Sequential per-access direct-mapped loop: the DM test oracle."""
        resident = self._resident
        dirty = self._dirty
        set_mask = self._set_mask
        set_shift = self._set_shift
        miss = np.empty(lines.size, dtype=bool)
        writebacks = 0
        for i, (line, write) in enumerate(
            zip(lines.tolist(), writes.tolist())
        ):
            s = line & set_mask
            tag = line >> set_shift
            if resident[s] == tag:
                miss[i] = False
                if write:
                    dirty[s] = True
            else:
                if resident[s] >= 0 and dirty[s]:
                    writebacks += 1
                resident[s] = tag
                dirty[s] = bool(write)
                miss[i] = True
        return miss, writebacks

    def _ensure_strategy(self, lines: np.ndarray) -> None:
        """Pick how this level simulates, once, from its first batch.

        A direct-mapped level takes the run-collapse sweep.  An
        associative level weighs the wave path — a fixed number of numpy
        passes per *wave* (deepest per-set run count), which only pays
        off when each wave retires enough accesses to amortize that
        overhead — against the sequential loop, which traffic
        concentrated into few sets gets.  A level the compiled walk has
        already stepped on keeps that packed state and takes the wave
        path.  Every strategy is bit-identical, so the choice can never
        change simulated results; ``cache.strategy{path=...}`` records
        it.
        """
        if self._assoc == 1:
            strategy = "sweep"
        elif self._way_state is not None:
            strategy = "wave"
        else:
            set_idx = lines & self._set_mask
            deepest = int(np.bincount(set_idx, minlength=1).max())
            wave = lines.size >= self._WAVE_AMORTIZE * deepest
            strategy = "wave" if wave else "sequential"
        if strategy == "sequential":
            self._sets = [OrderedDict() for _ in range(self._num_sets)]
        elif self._assoc > 1:
            self._packed_ways()
        self._strategy = strategy
        recorder = get_recorder()
        if recorder is not None:
            recorder.count("cache.strategy", path=strategy, level=self.name)

    def _packed_ways(self) -> np.ndarray:
        """An associative level's packed LRU state, allocated on first use.

        LRU stacks, way 0 = MRU, packed as ``tag << 1 | dirty``; -1 means
        empty.  Valid tags always occupy a prefix of the ways (inserts
        shift empties toward the LRU end and hits never move them back
        up), so the victim way being -1 means "set not full".  The wave
        path and the compiled walk both update this array in place; the
        walk allocates it the first time it steps on the level.
        """
        if self._way_state is None:
            if self._sets is not None:
                raise SimulationError(
                    f"{self.name}: the sequential loop's state cannot be "
                    "walked"
                )
            self._way_state = np.full(
                (self._num_sets, self._assoc), -1, dtype=np.int64
            )
        return self._way_state

    def _access_associative(self, lines: np.ndarray, writes: np.ndarray):
        """Vectorized wave-by-wave LRU update (see module docstring).

        Grouping by set and collapsing adjacent same-set same-tag
        accesses into runs gives each run a *rank* — its position among
        the batch's runs on the same set.  Runs of equal rank touch
        pairwise-distinct sets, so each rank is one fully vectorized
        wave over the packed ``(sets, ways)`` state; waves retire in
        rank order, preserving exact sequential LRU semantics.  (A
        collapsed run is exact: after its first access the line sits at
        MRU, so the rest are hits that only OR in the run's writes.)
        """
        n = lines.size
        order = set_order(lines, self._set_mask)
        l_sorted = lines[order]
        s_sorted = l_sorted & self._set_mask
        t_sorted = l_sorted >> self._set_shift

        head = np.empty(n, dtype=bool)
        head[0] = True
        head[1:] = (s_sorted[1:] != s_sorted[:-1]) \
            | (t_sorted[1:] != t_sorted[:-1])
        run_id = np.cumsum(head) - 1
        num_runs = int(run_id[-1]) + 1
        s_runs = s_sorted[head]
        t_runs = t_sorted[head]
        w_runs = np.bincount(
            run_id[writes[order]], minlength=num_runs
        ) > 0

        group_head = np.empty(num_runs, dtype=bool)
        group_head[0] = True
        group_head[1:] = s_runs[1:] != s_runs[:-1]
        start_pos = np.flatnonzero(group_head)
        counts = np.diff(np.append(start_pos, num_runs))

        assoc = self._assoc
        state = self._way_state
        way_cols = np.arange(assoc)[None, :]
        run_miss = np.empty(num_runs, dtype=bool)
        writebacks = 0
        for wave in range(int(counts.max())):
            sel = start_pos[counts > wave] + wave
            t = t_runs[sel]
            s = s_runs[sel]
            rows = state[s]
            match = (rows >> 1) == t[:, None]
            hit = match.any(axis=1)
            # Hits promote their way to MRU; misses recycle the LRU way,
            # so both cases shift ways 0..hit_way-1 down by one.
            hit_way = np.where(hit, match.argmax(axis=1), assoc - 1)
            hit_state = np.take_along_axis(
                rows, hit_way[:, None], axis=1
            )[:, 0]
            mru = (t << 1) | ((hit & (hit_state & 1).astype(bool))
                              | w_runs[sel])
            victim = rows[:, -1]
            writebacks += int((~hit & (victim >= 0) & (victim & 1)
                               .astype(bool)).sum())
            shifted = np.empty_like(rows)
            shifted[:, 1:] = rows[:, :-1]
            shifted[:, 0] = mru
            keep = way_cols > hit_way[:, None]
            state[s] = np.where(keep, rows, shifted)
            run_miss[sel] = ~hit

        # Only a run's first access can miss; the rest hit by design.
        miss_sorted = np.zeros(n, dtype=bool)
        miss_sorted[head] = run_miss
        miss = np.empty(n, dtype=bool)
        miss[order] = miss_sorted
        return miss, writebacks

    def _access_associative_reference(
        self, lines: np.ndarray, writes: np.ndarray
    ):
        """Sequential per-access LRU loop: the differential-test oracle."""
        miss = np.empty(lines.size, dtype=bool)
        sets = self._sets
        set_mask = self._set_mask
        set_shift = self._set_shift
        assoc = self._assoc
        writebacks = 0
        for i, (line, write) in enumerate(
            zip(lines.tolist(), writes.tolist())
        ):
            entry = sets[line & set_mask]
            tag = line >> set_shift
            if tag in entry:
                if write:
                    entry[tag] = True
                entry.move_to_end(tag)
                miss[i] = False
            else:
                if len(entry) >= assoc:
                    _, victim_dirty = entry.popitem(last=False)
                    if victim_dirty:
                        writebacks += 1
                entry[tag] = bool(write)
                miss[i] = True
        return miss, writebacks
