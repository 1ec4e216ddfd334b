"""Write-back accounting across both cache simulation paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import CacheLevel
from repro.config import CacheConfig
from repro.errors import SimulationError


def reference_writebacks(lines, writes, num_sets, assoc,
                         granularity_shift=0):
    """Straightforward dirty-LRU model to validate both paths against."""
    sets = {}
    writebacks = 0
    for line, write in zip(lines, writes):
        line = int(line) >> granularity_shift
        idx = line % num_sets
        tag = line // num_sets
        entry = sets.setdefault(idx, [])  # list of [tag, dirty]
        for slot in entry:
            if slot[0] == tag:
                entry.remove(slot)
                slot[1] = slot[1] or bool(write)
                entry.append(slot)
                break
        else:
            if len(entry) >= assoc:
                victim = entry.pop(0)
                if victim[1]:
                    writebacks += 1
            entry.append([tag, bool(write)])
    return writebacks


def level(assoc, lines=32, line_size=32):
    return CacheLevel(
        CacheConfig("T", size_bytes=lines * line_size, line_size=line_size,
                    associativity=assoc)
    )


class TestWritebackBasics:
    def test_clean_eviction_no_writeback(self):
        cache = level(assoc=1, lines=2)
        cache.access_many(np.array([0]))          # read, clean
        cache.access_many(np.array([2]))          # evicts 0 (same set)
        assert cache.stats.writebacks == 0

    def test_dirty_eviction_counts(self):
        cache = level(assoc=1, lines=2)
        cache.access_many(np.array([0]), np.array([True]))
        cache.access_many(np.array([2]))          # evicts dirty 0
        assert cache.stats.writebacks == 1

    def test_dirty_within_single_batch(self):
        cache = level(assoc=1, lines=2)
        cache.access_many(
            np.array([0, 2, 0]), np.array([True, False, False])
        )
        # 0 written then evicted by 2 (writeback), then 2 evicted clean.
        assert cache.stats.writebacks == 1

    def test_write_hit_marks_dirty(self):
        cache = level(assoc=2, lines=2)  # one set, two ways
        cache.access_many(np.array([0]))                  # clean fill
        cache.access_many(np.array([0]), np.array([True]))  # dirty on hit
        cache.access_many(np.array([1, 2]))               # 0 becomes LRU, evicted
        assert cache.stats.writebacks == 1

    def test_flush_drops_dirty_silently(self):
        cache = level(assoc=1, lines=2)
        cache.access_many(np.array([0]), np.array([True]))
        cache.flush()
        cache.access_many(np.array([2]))
        assert cache.stats.writebacks == 0

    def test_recording_off_skips_writeback_stats(self):
        cache = level(assoc=1, lines=2)
        cache.recording = False
        cache.access_many(np.array([0, 2]), np.array([True, False]))
        assert cache.stats.writebacks == 0

    def test_misaligned_write_mask_rejected(self):
        cache = level(assoc=2)
        with pytest.raises(SimulationError):
            cache.access_many(np.array([1, 2]), np.array([True]))


class TestAgainstReference:
    @pytest.mark.parametrize("assoc", [1, 2, 4])
    def test_matches_reference(self, assoc, rng):
        cache = level(assoc=assoc, lines=16)
        lines = rng.integers(0, 64, size=2000)
        writes = rng.random(2000) < 0.3
        cache.access_many(lines, writes)
        expected = reference_writebacks(
            lines, writes, cache.config.num_sets, assoc
        )
        assert cache.stats.writebacks == expected

    @pytest.mark.parametrize("assoc", [1, 4])
    def test_matches_reference_across_batches(self, assoc, rng):
        cache = level(assoc=assoc, lines=16)
        lines = rng.integers(0, 48, size=1500)
        writes = rng.random(1500) < 0.4
        for lo in range(0, 1500, 137):
            cache.access_many(lines[lo:lo + 137], writes[lo:lo + 137])
        expected = reference_writebacks(
            lines, writes, cache.config.num_sets, assoc
        )
        assert cache.stats.writebacks == expected

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.lists(
            st.tuples(st.integers(0, 31), st.booleans()),
            min_size=1, max_size=300,
        ),
        assoc_pow=st.integers(0, 2),
    )
    def test_property_matches_reference(self, data, assoc_pow):
        assoc = 2 ** assoc_pow
        cache = CacheLevel(
            CacheConfig("T", size_bytes=32 * 8 * assoc, line_size=32,
                        associativity=assoc)
        )
        lines = np.array([d[0] for d in data], dtype=np.int64)
        writes = np.array([d[1] for d in data], dtype=bool)
        cache.access_many(lines, writes)
        expected = reference_writebacks(
            lines, writes, cache.config.num_sets, assoc
        )
        assert cache.stats.writebacks == expected

    def test_writebacks_bounded_by_write_misses_plus_hits(self, rng):
        cache = level(assoc=2, lines=8)
        lines = rng.integers(0, 64, size=500)
        writes = rng.random(500) < 0.5
        cache.access_many(lines, writes)
        assert cache.stats.writebacks <= int(writes.sum())


class TestHierarchyWritebacks:
    def test_propagates_write_flags(self, small_program):
        from repro.cache.hierarchy import CacheHierarchy
        from repro.config import ALLCACHE_SIM

        hierarchy = CacheHierarchy(ALLCACHE_SIM)
        for trace in small_program.iter_slices(0, 20):
            hierarchy.access_data(trace.mem_lines, trace.mem_is_write)
        snap = hierarchy.snapshot()
        assert snap.levels["L1D"].writebacks > 0
        # Writebacks never exceed misses (write-allocate LRU).
        for name in ("L1D", "L2", "L3"):
            assert snap.levels[name].writebacks <= snap.levels[name].misses
