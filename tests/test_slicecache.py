"""The slice-trace memo: transparent, bounded, bit-identical."""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.errors import ConfigError
from repro.workloads import slicecache
from repro.workloads.slicecache import SliceTraceCache
from repro.workloads.spec2017 import build_program


@pytest.fixture(autouse=True)
def _fresh_memo(monkeypatch):
    """Each test re-reads the budget env into a fresh memo."""
    slicecache.reset_slice_cache()
    yield
    slicecache.reset_slice_cache()


def test_repeat_generation_is_a_hit_returning_the_same_trace():
    program = build_program("505.mcf_r", slice_size=3000, total_slices=120)
    recorder = telemetry.TraceRecorder()
    with telemetry.using_recorder(recorder):
        first = program.generate_slice(5)
        second = program.generate_slice(5)
    assert second is first
    counters = recorder.metrics.counters
    assert counters.get("slice.cache.miss", 0) == 1
    assert counters.get("slice.cache.hit", 0) == 1


def test_equal_content_shares_entries_name_does_not_matter():
    kwargs = dict(slice_size=3000, total_slices=120)
    a = build_program("505.mcf_r", **kwargs)
    b = build_program("505.mcf_r", **kwargs)
    assert a is not b
    assert b.generate_slice(3) is a.generate_slice(3)


def test_different_seeds_do_not_collide():
    a = build_program("505.mcf_r", slice_size=3000, total_slices=120)
    b = build_program("557.xz_r", slice_size=3000, total_slices=120)
    assert a._trace_key != b._trace_key
    assert b.generate_slice(3) is not a.generate_slice(3)


def test_disabled_memo_regenerates_bit_identically(monkeypatch):
    program = build_program("505.mcf_r", slice_size=3000, total_slices=120)
    cached = program.generate_slice(7)
    monkeypatch.setenv("REPRO_SLICE_CACHE_MB", "0")
    slicecache.reset_slice_cache()
    assert slicecache.get_slice_cache() is None
    fresh = program.generate_slice(7)
    assert fresh is not cached
    for field in ("block_counts", "class_counts", "mem_lines",
                  "mem_is_write", "ifetch_lines"):
        np.testing.assert_array_equal(
            getattr(fresh, field), getattr(cached, field)
        )
    assert fresh.instruction_count == cached.instruction_count


def test_cached_arrays_are_frozen():
    program = build_program("505.mcf_r", slice_size=3000, total_slices=120)
    trace = program.generate_slice(0)
    with pytest.raises(ValueError):
        trace.mem_lines[0] = 123


def test_lru_eviction_respects_budget():
    cache = SliceTraceCache(budget_bytes=1)  # below any real trace
    program = build_program("505.mcf_r", slice_size=3000, total_slices=120)
    trace = program.generate_slice(1)
    cache.put(("k", 1), trace)  # oversize: silently not cached
    assert len(cache) == 0 and cache.used_bytes == 0

    program2 = build_program("505.mcf_r", slice_size=3000, total_slices=120)
    traces = [program2.generate_slice(i) for i in range(6)]
    size = sum(
        getattr(traces[0], f).nbytes
        for f in ("block_counts", "class_counts", "mem_lines",
                  "mem_is_write", "ifetch_lines")
    )
    bounded = SliceTraceCache(budget_bytes=3 * size + size // 2)
    for i, t in enumerate(traces):
        bounded.put(("k", i), t)
    assert len(bounded) <= 4
    assert bounded.used_bytes <= bounded.budget_bytes
    # Most-recent entries survive; the oldest were evicted.
    assert bounded.get(("k", 5)) is traces[5]
    assert bounded.get(("k", 0)) is None


def test_invalid_budget_env_rejected(monkeypatch):
    monkeypatch.setenv("REPRO_SLICE_CACHE_MB", "lots")
    slicecache.reset_slice_cache()
    with pytest.raises(ConfigError):
        slicecache.get_slice_cache()
    monkeypatch.setenv("REPRO_SLICE_CACHE_MB", "-3")
    slicecache.reset_slice_cache()
    with pytest.raises(ConfigError):
        slicecache.get_slice_cache()


def _counters(recorder, prefix):
    return {
        name: value for name, value in recorder.metrics.counters.items()
        if name.startswith(prefix)
    }


def test_full_request_continues_the_header_generator():
    program = build_program("505.mcf_r", slice_size=3000, total_slices=120)
    recorder = telemetry.TraceRecorder()
    with telemetry.using_recorder(recorder):
        header = program.slice_header(4)
        assert program.slice_header(4) is header
        trace = program.generate_slice(4)
    # The body reused the header's arrays rather than re-drawing them, and
    # the finished trace took the header entry's place.
    assert trace.block_counts is header.block_counts
    assert trace.class_counts is header.class_counts
    assert len(slicecache.get_slice_cache()) == 1
    assert _counters(recorder, "slice.header") == {
        "slice.header.miss": 1, "slice.header.hit": 1,
    }
    assert _counters(recorder, "slice.cache") == {"slice.cache.miss": 1}


def test_full_entry_answers_header_requests():
    program = build_program("505.mcf_r", slice_size=3000, total_slices=120)
    trace = program.generate_slice(2)
    recorder = telemetry.TraceRecorder()
    with telemetry.using_recorder(recorder):
        assert program.slice_header(2) is trace
    assert _counters(recorder, "slice.") == {"slice.header.hit": 1}


def test_header_arrays_are_frozen():
    program = build_program("505.mcf_r", slice_size=3000, total_slices=120)
    header = program.slice_header(0)
    with pytest.raises(ValueError):
        header.block_counts[0] = 1


def test_evicted_slice_redraws_bit_identically(monkeypatch):
    program = build_program("505.mcf_r", slice_size=30000, total_slices=120)
    monkeypatch.setenv("REPRO_SLICE_CACHE_MB", "0")
    slicecache.reset_slice_cache()
    reference = program.generate_slice(3)
    # One megabyte holds a handful of these full slices.
    monkeypatch.setenv("REPRO_SLICE_CACHE_MB", "1")
    slicecache.reset_slice_cache()
    program.slice_header(3)
    first = program.generate_slice(3)
    for index in range(10, 30):
        program.generate_slice(index)
    assert slicecache.get_slice_cache().get((program._trace_key, 3)) is None
    again = program.generate_slice(3)
    assert again is not first
    for trace in (first, again):
        for field in ("block_counts", "class_counts", "mem_lines",
                      "mem_is_write", "ifetch_lines"):
            np.testing.assert_array_equal(
                getattr(trace, field), getattr(reference, field)
            )


def test_disabled_memo_draws_headers_fresh(monkeypatch):
    monkeypatch.setenv("REPRO_SLICE_CACHE_MB", "0")
    slicecache.reset_slice_cache()
    program = build_program("505.mcf_r", slice_size=3000, total_slices=120)
    first, second = program.slice_header(9), program.slice_header(9)
    assert first is not second
    np.testing.assert_array_equal(first.block_counts, second.block_counts)
    headers = list(program.iter_headers(8, 3))
    assert [h.index for h in headers] == [8, 9, 10]


def test_header_entries_count_against_the_budget():
    program = build_program("505.mcf_r", slice_size=3000, total_slices=120)
    rng = np.random.default_rng(0)
    headers = [program.slice_header(i) for i in range(6)]
    size = (headers[0].block_counts.nbytes + headers[0].class_counts.nbytes
            + slicecache.GENERATOR_BYTES)
    bounded = SliceTraceCache(budget_bytes=3 * size + size // 2)
    for i, header in enumerate(headers):
        bounded.put_header(("k", i), header, rng)
    assert len(bounded) == 3
    assert bounded.used_bytes == 3 * size
    assert bounded.get_header(("k", 5)) is headers[5]
    assert bounded.get_header(("k", 0)) is None
    # A header entry answers header requests only; a full request takes it.
    assert bounded.get(("k", 5)) is None
    assert bounded.take_header(("k", 5)) == (headers[5], rng)
    assert bounded.take_header(("k", 5)) is None
    assert len(bounded) == 2 and bounded.used_bytes == 2 * size
