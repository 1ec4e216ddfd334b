"""The slice-trace memo: transparent, bounded, bit-identical."""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.errors import ConfigError
from repro.experiments import common
from repro.experiments.common import configure_cache, pinpoints_for
from repro.sniper.core import SniperSimulator
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


def _two_programs():
    """Program A's first four traces and program B's first."""
    a = build_program("505.mcf_r", slice_size=3000, total_slices=120)
    b = build_program("557.xz_r", slice_size=3000, total_slices=120)
    return [a.generate_slice(i) for i in range(4)], b.generate_slice(0)


def _held_program_a(rng):
    a_traces, b_trace = _two_programs()
    cache = SliceTraceCache(budget_bytes=1 << 30)
    cache.put(("a", 0), a_traces[0])
    cache.put(("a", 1), a_traces[1])
    cache.put_header(("a", 2), a_traces[2], rng)
    return cache, a_traces, b_trace


def _size_alone(insert):
    """Bytes one entry is charged, inserted into an empty memo."""
    cache = SliceTraceCache(budget_bytes=1 << 30)
    insert(cache)
    return cache.used_bytes


@pytest.mark.parametrize("kind", ["full", "header"])
def test_inserting_another_program_drops_every_entry_of_the_held_one(kind):
    rng = np.random.default_rng(0)
    cache, _, b_trace = _held_program_a(rng)

    def insert_b(memo):
        if kind == "full":
            memo.put(("b", 0), b_trace)
        else:
            memo.put_header(("b", 0), b_trace, rng)

    insert_b(cache)
    assert len(cache) == 1
    assert cache.used_bytes == _size_alone(insert_b)
    assert cache.get_header(("b", 0)) is b_trace
    for index in range(3):
        assert cache.get_header(("a", index)) is None


def test_an_entry_too_large_to_keep_still_drops_the_held_program():
    a_traces, b_trace = _two_programs()
    header_size = _size_alone(
        lambda memo: memo.put_header(("a", 0), a_traces[0],
                                     np.random.default_rng(0))
    )
    cache = SliceTraceCache(budget_bytes=header_size)
    cache.put_header(("a", 0), a_traces[0], np.random.default_rng(0))
    assert len(cache) == 1
    cache.put(("b", 0), b_trace)  # larger than the whole budget
    assert len(cache) == 0 and cache.used_bytes == 0


def test_lookups_of_another_program_drop_nothing():
    rng = np.random.default_rng(0)
    cache, a_traces, _ = _held_program_a(rng)
    held = cache.used_bytes
    assert cache.get(("b", 0)) is None
    assert cache.get_header(("b", 0)) is None
    assert cache.take_header(("b", 0)) is None
    assert len(cache) == 3 and cache.used_bytes == held
    assert cache.get(("a", 0)) is a_traces[0]
    assert cache.get(("a", 1)) is a_traces[1]
    assert cache.take_header(("a", 2)) == (a_traces[2], rng)


def test_budget_evicts_the_least_recent_entry_of_the_program_first():
    traces, _ = _two_programs()
    sizes = [_size_alone(lambda memo, t=t: memo.put(("a", 0), t))
             for t in traces]
    cache = SliceTraceCache(budget_bytes=sum(sizes[:3]) + sizes[3] // 2)
    for index in range(3):
        cache.put(("a", index), traces[index])
    assert cache.get(("a", 0)) is traces[0]  # entry 1 is now the oldest
    cache.put(("a", 3), traces[3])
    assert cache.get(("a", 1)) is None
    assert [cache.get(("a", i)) for i in (0, 2, 3)] == [
        traces[0], traces[2], traces[3]
    ]


def test_evictions_are_counted_by_reason():
    traces, b_trace = _two_programs()
    size = max(_size_alone(lambda memo, t=t: memo.put(("a", 0), t))
               for t in traces)
    cache = SliceTraceCache(budget_bytes=2 * size)
    recorder = telemetry.TraceRecorder()
    with telemetry.using_recorder(recorder):
        for index, trace in enumerate(traces):
            cache.put(("a", index), trace)
        held = len(cache)
        cache.put(("b", 0), b_trace)
    assert _counters(recorder, "slice.cache.evict") == {
        "slice.cache.evict{reason=budget}": len(traces) - held,
        "slice.cache.evict{reason=program}": held,
    }


def _slices_read(pinballs):
    return {
        index
        for pb in pinballs
        for index in range(pb.warmup_start, pb.region_start + pb.region_length)
    }


def test_sniper_round_keeps_only_the_program_it_replays(
    empty_memo, monkeypatch, tmp_path
):
    """The benchmark's sniper-regional round over two default-scale programs.

    Each program's regional pinballs are simulated with their warmup,
    then its reduced ones, which re-read only slices the regional
    replays kept.  Once the second program's replays start, the first
    program's slices are gone.
    """
    names = ("602.gcc_s", "541.leela_r")
    configure_cache(tmp_path / "store")
    for name in names:
        pinpoints_for(name)
    # Replay from fresh in-process memos, the pipelines read back from disk.
    monkeypatch.setattr(common, "_MEMO", {})
    slicecache.reset_slice_cache()
    simulator = SniperSimulator()
    outs = []
    for name in names:
        out = pinpoints_for(name)
        outs.append(out)
        for pinballs in (out.regional, out.reduced):
            recorder = telemetry.TraceRecorder()
            with telemetry.using_recorder(recorder):
                for pb in pinballs:
                    simulator.run_region(
                        pb.replay_slices(out.program),
                        warmup=pb.warmup_traces(out.program),
                    )
        # The reduced replays: every slice a hit, no body drawn.
        assert _counters(recorder, "slice.") == {
            "slice.cache.hit": sum(
                pb.total_slices_with_warmup for pb in out.reduced
            ),
        }
    first, second = outs
    memo = slicecache.get_slice_cache()
    kept = _slices_read(second.regional)
    assert len(memo) == len(kept)
    assert all(
        memo.get((second.program._trace_key, i)) is not None for i in kept
    )
    assert all(
        memo.get_header((first.program._trace_key, i)) is None
        for i in _slices_read(first.regional)
    )
