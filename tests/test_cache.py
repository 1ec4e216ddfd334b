"""Cache level, hierarchy, and statistics."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.cache import CacheHierarchy, CacheLevel, CacheStats
from repro.cache import _native
from repro.config import CacheConfig, CacheHierarchyConfig
from repro.errors import SimulationError
from repro.workloads.program import STREAM_WINDOW_LINES, _numpy_body

HAVE_NATIVE = _native.load_kernel() is not None


def reference_lru_misses(lines, num_sets, associativity, granularity_shift=0):
    """Straightforward LRU model to check the optimized paths against."""
    sets = {}
    misses = []
    for line in lines:
        line = int(line) >> granularity_shift
        idx = line % num_sets
        tag = line // num_sets
        entry = sets.setdefault(idx, [])
        if tag in entry:
            entry.remove(tag)
            entry.append(tag)
            misses.append(False)
        else:
            if len(entry) >= associativity:
                entry.pop(0)
            entry.append(tag)
            misses.append(True)
    return np.array(misses)


def make_level(size=1024, line=32, assoc=4, record=True):
    return CacheLevel(
        CacheConfig("T", size_bytes=size, line_size=line, associativity=assoc),
        recording=record,
    )


class TestCacheLevelBasics:
    def test_first_access_misses(self):
        level = make_level()
        assert level.access_many(np.array([42]))[0]

    def test_second_access_hits(self):
        level = make_level()
        level.access_many(np.array([42]))
        assert not level.access_many(np.array([42]))[0]

    def test_stats_accumulate(self):
        level = make_level()
        level.access_many(np.array([1, 2, 1, 2]))
        assert level.stats.accesses == 4
        assert level.stats.misses == 2
        assert level.stats.miss_rate == pytest.approx(0.5)

    def test_recording_off_freezes_stats_but_updates_state(self):
        level = make_level(record=False)
        level.access_many(np.array([7]))
        assert level.stats.accesses == 0
        level.recording = True
        assert not level.access_many(np.array([7]))[0]

    def test_reset_flushes(self):
        level = make_level()
        level.access_many(np.array([7]))
        level.reset()
        assert level.stats.accesses == 0
        assert level.access_many(np.array([7]))[0]

    def test_flush_keeps_stats(self):
        level = make_level()
        level.access_many(np.array([7]))
        level.flush()
        assert level.stats.accesses == 1
        assert level.resident_line_count() == 0

    def test_empty_batch(self):
        level = make_level()
        assert level.access_many(np.array([], dtype=np.int64)).size == 0

    def test_negative_address_rejected(self):
        level = make_level()
        with pytest.raises(SimulationError):
            level.access_many(np.array([-1]))

    def test_line_below_trace_granularity_rejected(self):
        with pytest.raises(SimulationError):
            make_level(line=16)

    def test_resident_count_bounded_by_capacity(self):
        level = make_level(size=256, assoc=2)  # 8 lines
        level.access_many(np.arange(100, dtype=np.int64))
        assert level.resident_line_count() == 8


class TestLruEviction:
    def test_lru_victim_selected(self):
        # 2 lines capacity in one set: access A, B, A, then C evicts B.
        level = make_level(size=64, assoc=2)  # 2 lines, 1 set
        a, b, c = 0, 1, 2
        level.access_many(np.array([a, b, a, c]))
        miss = level.access_many(np.array([a, b]))
        assert not miss[0]  # A stayed (recently used)
        assert miss[1]      # B was the LRU victim

    def test_direct_mapped_conflict(self):
        level = make_level(size=64, line=32, assoc=1)  # 2 sets
        # Lines 0 and 2 share set 0; they evict each other.
        level.access_many(np.array([0, 2]))
        assert level.access_many(np.array([0]))[0]


class TestAgainstReference:
    @pytest.mark.parametrize("assoc", [1, 2, 4, 16])
    def test_matches_reference_model(self, assoc, rng):
        level = make_level(size=2048, assoc=assoc)  # 64 lines
        lines = rng.integers(0, 200, size=3000)
        expected = reference_lru_misses(lines, level.config.num_sets, assoc)
        got = level.access_many(lines)
        assert np.array_equal(got, expected)

    def test_direct_mapped_cross_batch_state(self, rng):
        level = make_level(size=1024, assoc=1)
        all_lines = rng.integers(0, 100, size=2000)
        expected = reference_lru_misses(all_lines, level.config.num_sets, 1)
        got = np.concatenate(
            [level.access_many(chunk) for chunk in np.array_split(all_lines, 7)]
        )
        assert np.array_equal(got, expected)

    def test_granularity_shift(self, rng):
        level = make_level(size=2048, line=64, assoc=2)
        lines = rng.integers(0, 500, size=1000)
        expected = reference_lru_misses(
            lines, level.config.num_sets, 2, granularity_shift=1
        )
        assert np.array_equal(level.access_many(lines), expected)

    @settings(max_examples=40, deadline=None)
    @given(
        lines=st.lists(st.integers(0, 255), min_size=1, max_size=400),
        assoc_pow=st.integers(0, 3),
    )
    def test_property_matches_reference(self, lines, assoc_pow):
        assoc = 2 ** assoc_pow
        level = CacheLevel(
            CacheConfig("T", size_bytes=32 * 16 * assoc, line_size=32,
                        associativity=assoc)
        )
        arr = np.array(lines, dtype=np.int64)
        expected = reference_lru_misses(arr, level.config.num_sets, assoc)
        assert np.array_equal(level.access_many(arr), expected)

    @settings(max_examples=25, deadline=None)
    @given(lines=st.lists(st.integers(0, 63), min_size=1, max_size=300))
    def test_property_no_capacity_misses_when_everything_fits(self, lines):
        # 64-line fully-sized cache: every line misses at most once.
        level = make_level(size=64 * 32, assoc=4)
        arr = np.array(lines, dtype=np.int64)
        misses = level.access_many(arr)
        assert misses.sum() == len(set(lines))


class TestCacheStats:
    def test_hits_property(self):
        stats = CacheStats(accesses=10, misses=3)
        assert stats.hits == 7

    def test_zero_access_miss_rate(self):
        assert CacheStats().miss_rate == 0.0

    def test_record_validation(self):
        stats = CacheStats()
        with pytest.raises(ValueError):
            stats.record(accesses=1, misses=2)

    def test_merge_and_copy(self):
        a = CacheStats(10, 4)
        b = a.copy()
        b.merge(CacheStats(5, 1))
        assert (b.accesses, b.misses) == (15, 5)
        assert (a.accesses, a.misses) == (10, 4)


def small_hierarchy():
    return CacheHierarchy(
        CacheHierarchyConfig(
            l1i=CacheConfig("L1I", 256, 32, 1),
            l1d=CacheConfig("L1D", 256, 32, 1),
            l2=CacheConfig("L2", 1024, 32, 1),
            l3=CacheConfig("L3", 4096, 32, 1),
        )
    )


class TestHierarchy:
    def test_miss_filtering(self):
        h = small_hierarchy()
        lines = np.arange(100, dtype=np.int64)
        h.access_data(lines)
        snap = h.snapshot()
        assert snap.accesses("L1D") == 100
        # Everything misses L1D (8 lines) so everything reaches L2, etc.
        assert snap.accesses("L2") == 100
        assert snap.accesses("L3") == 100

    def test_l2_sees_only_l1_misses(self):
        h = small_hierarchy()
        lines = np.zeros(50, dtype=np.int64)
        h.access_data(lines)
        snap = h.snapshot()
        assert snap.accesses("L1D") == 50
        assert snap.accesses("L2") == 1  # only the first (cold) access

    def test_ifetch_goes_through_l1i(self):
        h = small_hierarchy()
        h.access_ifetch(np.array([1, 2, 1], dtype=np.int64))
        snap = h.snapshot()
        assert snap.accesses("L1I") == 3
        assert snap.accesses("L1D") == 0

    def test_unified_l2_shared_by_code_and_data(self):
        h = small_hierarchy()
        h.access_ifetch(np.array([77], dtype=np.int64))
        h.access_data(np.array([77], dtype=np.int64))
        snap = h.snapshot()
        # The data access misses L1D but hits L2 (fetched by the ifetch).
        assert snap.levels["L2"].misses == 1
        assert snap.levels["L2"].accesses == 2

    def test_recording_toggle(self):
        h = small_hierarchy()
        h.set_recording(False)
        h.access_data(np.arange(20, dtype=np.int64))
        assert h.snapshot().accesses("L1D") == 0
        h.set_recording(True)
        h.access_data(np.arange(20, dtype=np.int64))
        snap = h.snapshot()
        assert snap.accesses("L1D") == 20
        # L2 was fully warmed during the non-recording pass.
        assert snap.levels["L2"].misses == 0

    def test_reset(self):
        h = small_hierarchy()
        h.access_data(np.arange(10, dtype=np.int64))
        h.reset()
        snap = h.snapshot()
        assert snap.accesses("L1D") == 0
        assert all(level.resident_line_count() == 0 for level in h.levels)


def make_pinned_level(assoc, monkeypatch, wave):
    """A CacheLevel whose associative strategy is pinned by threshold."""
    monkeypatch.setattr(CacheLevel, "_WAVE_AMORTIZE", 0 if wave else 10**9)
    return CacheLevel(
        CacheConfig("T", size_bytes=32 * 16 * assoc, line_size=32,
                    associativity=assoc)
    )


class TestWaveStrategy:
    """The vectorized wave path against the sequential oracle."""

    @pytest.mark.parametrize("assoc", [2, 4, 8, 16, 32])
    def test_differential_against_oracle(self, assoc, rng, monkeypatch):
        wave = make_pinned_level(assoc, monkeypatch, wave=True)
        oracle = CacheLevel(wave.config, reference=True)
        for _ in range(20):
            n = int(rng.integers(1, 3000))
            lines = rng.integers(0, int(rng.integers(40, 2000)), size=n)
            writes = rng.random(n) < 0.3
            assert np.array_equal(
                wave.access_many(lines, writes),
                oracle.access_many(lines, writes),
            )
        assert wave.stats.misses == oracle.stats.misses
        assert wave.stats.writebacks == oracle.stats.writebacks
        assert wave.resident_line_count() == oracle.resident_line_count()

    @settings(max_examples=40, deadline=None)
    @given(
        lines=st.lists(st.integers(0, 255), min_size=1, max_size=400),
        write_mask=st.integers(0, 2**16 - 1),
        assoc_pow=st.integers(1, 4),
    )
    def test_property_wave_matches_oracle(self, lines, write_mask, assoc_pow):
        assoc = 2 ** assoc_pow
        config = CacheConfig("T", size_bytes=32 * 8 * assoc, line_size=32,
                             associativity=assoc)
        wave = CacheLevel(config)
        wave._WAVE_AMORTIZE = 0
        oracle = CacheLevel(config, reference=True)
        arr = np.array(lines, dtype=np.int64)
        writes = np.array(
            [(write_mask >> (i % 16)) & 1 == 1 for i in range(len(lines))]
        )
        assert np.array_equal(
            wave.access_many(arr, writes), oracle.access_many(arr, writes)
        )
        assert wave.stats.writebacks == oracle.stats.writebacks
        assert wave.resident_line_count() == oracle.resident_line_count()

    def test_wave_collapses_repeated_lines(self, monkeypatch):
        # A run of identical accesses (an ifetch stream inside one line)
        # costs one miss and leaves one resident line.
        level = make_pinned_level(4, monkeypatch, wave=True)
        miss = level.access_many(np.array([9, 9, 9, 9, 9]))
        assert miss.tolist() == [True, False, False, False, False]
        assert level.resident_line_count() == 1

    def test_adaptive_choice_hot_traffic_stays_sequential(self):
        level = make_level(size=32 * 16 * 4, assoc=4)
        # 4000 accesses into a couple of sets: far too deep for waves.
        level.access_many(np.array([0, 1, 16, 17] * 1000))
        assert level._sets is not None
        assert level._way_state is None

    def test_adaptive_choice_spread_traffic_goes_vectorized(self, rng):
        level = make_level(size=32 * 1024 * 4, assoc=4)  # 1024 sets
        level.access_many(rng.integers(0, 100000, size=8192))
        assert level._way_state is not None
        assert level._sets is None

    def test_strategy_survives_flush(self, rng):
        level = make_level(size=32 * 1024 * 4, assoc=4)
        level.access_many(rng.integers(0, 100000, size=8192))
        level.flush()
        assert level.resident_line_count() == 0
        assert level._way_state is not None  # choice is sticky

    def test_untouched_level_reports_empty(self):
        level = make_level(assoc=4)
        assert level.resident_line_count() == 0
        level.flush()  # no state allocated yet: a no-op
        assert level.resident_line_count() == 0


def lru_rows(level):
    """Each set's resident lines, MRU first, as ``(tag, dirty)`` pairs.

    Reads either associative representation, so the ordered-dict
    oracle and the packed way state compare directly.
    """
    if level._sets is not None:
        return [
            [(tag, bool(dirty)) for tag, dirty in reversed(entry.items())]
            for entry in level._sets
        ]
    return [
        [(int(way) >> 1, bool(way & 1)) for way in row if way >= 0]
        for row in level._way_state.tolist()
    ]


def level_state(level):
    if level._assoc == 1:
        return level._resident.tolist(), level._dirty.tolist()
    return lru_rows(level)


def test_native_kernel_loads_wherever_a_compiler_exists():
    """A C source that stops compiling fails here, instead of skipping
    every native test and quietly putting each slice body back on
    numpy's draws."""
    if _native._compiler() is None:
        pytest.skip("no C compiler")
    assert _native.load_kernel() is not None


#: Region sizes: one line (filled without a draw), small, past 2^31
#: (where Lemire's method rejects up to half its draws) and the top of
#: the 32-bit draws, up to 2^32 (plain ``next_uint32`` outputs in numpy).
BODY_SIZES = st.one_of(
    st.just(1),
    st.integers(2, 5_000),
    st.integers(2**31 + 1, 2**32),
    st.integers(2**32 - 2_000, 2**32),
)


@pytest.mark.skipif(not HAVE_NATIVE, reason="no working C compiler")
class TestNativeBody:
    """``NativeKernel.body`` is numpy's body draws, draw for draw."""

    @settings(max_examples=60, deadline=None)
    @given(
        counts=st.lists(
            st.just(0) | st.integers(1, 3_000), min_size=5, max_size=5
        ),
        sizes=st.lists(BODY_SIZES, min_size=5, max_size=5),
        bases=st.lists(st.integers(0, 2**40), min_size=5, max_size=5),
        stream_start=st.integers(0, 2**40),
        stream_count=st.just(0) | st.integers(1, STREAM_WINDOW_LINES),
        write_prob=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        buffered=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # A body without data references, and one with only a stream run.
    @example(counts=[0, 0, 0, 0, 40], sizes=[1, 1, 1, 1, 64],
             bases=[0] * 5, stream_start=0, stream_count=0, write_prob=0.5,
             buffered=True, seed=1)
    @example(counts=[0] * 5, sizes=[7] * 5, bases=[0] * 5, stream_start=9,
             stream_count=3, write_prob=1.0, buffered=False, seed=2)
    def test_matches_numpy_draws(
        self, counts, sizes, bases, stream_start, stream_count, write_prob,
        buffered, seed,
    ):
        ours = np.random.default_rng(seed)
        numpys = np.random.default_rng(seed)
        for rng in (ours, numpys):
            # Each bounded draw takes one 32-bit half, so an odd
            # count leaves the other half of a 64-bit output buffered.
            rng.integers(0, 10, size=3 if buffered else 2)
            assert rng.bit_generator.state["has_uint32"] == buffered
        args = (
            np.array(counts, dtype=np.int64), np.array(sizes, dtype=np.int64),
            np.array(bases, dtype=np.int64), stream_start, stream_count,
            write_prob,
        )
        drawn = _native.load_kernel().body(ours, *args)
        expected = _numpy_body(numpys, *args)
        for got, want in zip(drawn, expected):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        assert ours.bit_generator.state == numpys.bit_generator.state

    @pytest.mark.parametrize(
        "counts, sizes, stream_count",
        [
            ([1, 0, 0, 0, 1], [0, 1, 1, 1, 1], 0),
            ([1, 0, 0, 0, 1], [1, 1, 1, 1, 2**32 + 1], 0),
            ([1, -1, 0, 0, 1], [1] * 5, 0),
            ([1, 0, 0, 0, 1], [1] * 5, -1),
            ([1, 0, 0, 1], [1] * 4, 0),
        ],
        ids=["empty-range", "64-bit-range", "negative-count",
             "negative-stream", "four-regions"],
    )
    def test_refuses_bodies_it_cannot_draw(self, counts, sizes, stream_count):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            _native.load_kernel().body(
                rng, counts, sizes, [0] * len(sizes), 0, stream_count, 0.5
            )
        assert rng.bit_generator.state == state


def walk_level(level_config):
    """A fused engine whose L1D has ``level_config``'s geometry, behind
    L2 and L3 levels that hold every line, with a per-batch hierarchy of
    sequential oracle levels in the same geometry."""
    from repro.cache.fused import FusedHierarchy

    line = level_config.line_size

    def big(name):
        return CacheConfig(name, size_bytes=line * 4096, line_size=line,
                           associativity=1)

    config = CacheHierarchyConfig(
        l1i=CacheConfig("L1I", size_bytes=line * 8, line_size=line,
                        associativity=1),
        l1d=level_config, l2=big("L2"), l3=big("L3"),
    )
    oracle = CacheHierarchy(config)
    oracle.l1d = CacheLevel(level_config, reference=True)
    return FusedHierarchy(config), oracle


@pytest.mark.skipif(not HAVE_NATIVE, reason="no working C compiler")
class TestNativeKernels:
    """The compiled level steps, driven through the fused engine's walk,
    against the sequential oracle."""

    @pytest.mark.parametrize("line", [32, 64], ids=["32B", "64B"])
    @pytest.mark.parametrize("assoc", [1, 2, 4, 8, 16, 32])
    def test_differential_against_oracle(self, assoc, line, rng):
        config = CacheConfig("L1D", size_bytes=line * 16 * assoc,
                             line_size=line, associativity=assoc)
        walk, oracle = walk_level(config)
        for round_index in range(24):
            n = int(rng.integers(1, 2000))
            lines = rng.integers(0, int(rng.integers(40, 2000)), size=n)
            # Clean batches every third round; writes otherwise.
            writes = rng.random(n) < 0.3 if round_index % 3 else None
            for hierarchy in (walk, oracle):
                hierarchy.access_data(lines, writes)
            assert walk.l1d.stats == oracle.l1d.stats
        assert walk.backend == "native"
        assert level_state(walk.l1d) == level_state(oracle.l1d)

    def test_alternates_with_wave_path_on_shared_way_state(self, rng):
        """A walked level's later per-batch batches take the wave path
        on the packed state the walk stepped on, and the walk picks up
        the wave path's."""
        config = CacheConfig("L1D", size_bytes=32 * 64 * 8, line_size=32,
                             associativity=8)
        walk, _ = walk_level(config)
        level = walk.l1d
        oracle = CacheLevel(config, reference=True)
        for round_index in range(16):
            n = int(rng.integers(200, 3000))
            lines = rng.integers(0, 1500, size=n)
            writes = rng.random(n) < 0.3
            if round_index % 2:
                level.access_many(lines, writes)
            else:
                walk.access_data(lines, writes)
            oracle.access_many(lines, writes)
            assert lru_rows(level) == lru_rows(oracle)
        assert level._strategy == "wave"
        assert level.stats == oracle.stats

    def test_walk_refuses_a_level_on_the_sequential_loop(self):
        walk, _ = walk_level(
            CacheConfig("L1D", size_bytes=32 * 16 * 4, line_size=32,
                        associativity=4)
        )
        # Hot traffic on two sets puts the level on the ordered-dict
        # loop, whose state the walk cannot step on.
        walk.l1d.access_many(np.array([0, 1, 16, 17] * 1000))
        assert walk.l1d._strategy == "sequential"
        with pytest.raises(SimulationError, match="sequential"):
            walk.access_data(np.arange(8))

    def test_misaligned_writes_rejected_before_the_kernel(self):
        walk, _ = walk_level(
            CacheConfig("L1D", size_bytes=32 * 4, line_size=32,
                        associativity=1)
        )
        with pytest.raises(SimulationError, match="align"):
            walk.access_data(np.arange(8), np.zeros(4, dtype=bool))
        assert (walk.l1d._resident == -1).all()
        assert walk.l1d.stats.accesses == 0

    def test_reference_level_keeps_the_oracle_loop(self):
        level = CacheLevel(
            CacheConfig("T", size_bytes=1024, line_size=32, associativity=4),
            reference=True,
        )
        level.access_many(np.arange(100))
        assert level._strategy == "sequential"
        assert level._way_state is None
