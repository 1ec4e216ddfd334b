"""Differential tests for the fused cache engine.

The load-bearing invariant of ``repro.cache.fused``: the engine's two
paths (the numpy sweep, named ``fused``, and the compiled walk, named
``native``) and the per-batch :class:`CacheHierarchy` (``numpy``)
produce **bit-identical** results — same per-level miss counts, same
writeback counts, same rendered experiment bytes — differing only in
speed.  A test takes the sweep by hiding the kernel
(``_native.load_kernel`` patched to return ``None``).  These tests pin
that invariant across the matrix of geometries (direct-mapped and
associative), write traffic (dirty and clean), and warmup, plus the
kernels' own oracles (the sequential per-access loops).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import telemetry
from repro.cache import _native, fused, resolve_backend
from repro.cache.cache import CacheLevel, dm_sweep, set_order
from repro.cache.fused import FusedHierarchy
from repro.cache.hierarchy import CacheHierarchy
from repro.config import (
    ALLCACHE_SIM,
    SNIPER_TABLE_III,
    CacheConfig,
    CacheHierarchyConfig,
)
from repro.isa.trace import SliceTrace
from repro.pin.engine import Engine
from repro.pin.tools.allcache import AllCache

from test_cache import level_state

#: The engine's paths on this machine: the numpy sweep, and the compiled
#: walk where the kernel loads.
PATHS = ["fused"] + (["native"] if resolve_backend() == "native" else [])

#: The per-batch hierarchy, then every path of the engine.
AVAILABLE = ["numpy"] + PATHS


def hide_kernel(monkeypatch) -> None:
    """Make every kernel lookup fail, as with no C compiler."""
    monkeypatch.setattr(_native, "load_kernel", lambda: None)


def build(config, path, monkeypatch):
    """A hierarchy on ``path``: the per-batch ``CacheHierarchy``
    (``numpy``), or the fused engine on its sweep (``fused``) or its
    walk (``native``)."""
    if path == "numpy":
        return CacheHierarchy(config)
    with monkeypatch.context() as patch:
        if path == "fused":
            hide_kernel(patch)
        hierarchy = FusedHierarchy(config)
    assert hierarchy.backend == path
    return hierarchy


def allcache_on(hierarchy) -> AllCache:
    """An ``AllCache`` replaying through ``hierarchy``."""
    tool = AllCache(config=hierarchy.config)
    tool.hierarchy = hierarchy
    return tool


def make_trace(rng, index=0, n_mem=300, n_if=60, writes=True, span=2000,
               flag_dtype=bool):
    """A small random slice trace over a bounded address span."""
    mem = rng.integers(0, span, size=n_mem).astype(np.int64)
    if writes:
        is_write = rng.random(n_mem) < 0.3
    else:
        is_write = np.zeros(n_mem, dtype=bool)
    return SliceTrace(
        index=index,
        phase_id=0,
        instruction_count=1000,
        block_counts=np.array([1000], dtype=np.int64),
        class_counts=np.array([700, 200, 100, 0], dtype=np.int64),
        mem_lines=mem,
        mem_is_write=is_write.astype(flag_dtype),
        ifetch_lines=rng.integers(4096, 4096 + 300, size=n_if).astype(
            np.int64
        ),
        branch_count=10,
        branch_entropy=0.5,
    )


def level_stats(tool: AllCache) -> dict:
    return {
        name: (s.accesses, s.misses, s.writebacks)
        for name, s in tool.stats().items()
    }


class TestDmSweepKernel:
    """The run-collapse sweep against the sequential DM oracle."""

    def _pair(self, size=2048, line=32):
        config = CacheConfig("T", size_bytes=size, line_size=line,
                             associativity=1)
        return CacheLevel(config), CacheLevel(config, reference=True)

    @pytest.mark.parametrize("with_writes", [True, False])
    def test_fuzz_matches_reference(self, with_writes):
        rng = np.random.default_rng(7 + with_writes)
        fast, oracle = self._pair()
        for batch in range(40):
            n = int(rng.integers(1, 400))
            lines = rng.integers(0, 600, size=n) * 32
            writes = (
                (rng.random(n) < 0.4) if with_writes else None
            )
            miss_f = fast.access_many(lines, writes)
            miss_o = oracle.access_many(lines, writes)
            np.testing.assert_array_equal(miss_f, miss_o)
            assert fast.stats.writebacks == oracle.stats.writebacks
            np.testing.assert_array_equal(fast._resident, oracle._resident)
            np.testing.assert_array_equal(fast._dirty, oracle._dirty)

    def test_sweep_reports_sorted_positions_and_updates_state(self):
        resident = np.full(8, -1, dtype=np.int64)
        dirty = np.zeros(8, dtype=bool)
        lines = np.array([0, 8, 0, 16, 0], dtype=np.int64)  # set 0 x5
        writes = np.array([True, False, False, False, False])
        miss_idx, writebacks = dm_sweep(resident, dirty, 7, 3, lines, writes)
        # Runs: [0], [8], [0], [16], [0] -- every access is a run head
        # and every run is a miss; the dirty first run is written back
        # when 8 evicts it.
        assert sorted(miss_idx.tolist()) == [0, 1, 2, 3, 4]
        assert writebacks == 1
        assert resident[0] == 0 and not dirty[0]

    def test_set_order_groups_by_set_preserving_program_order(self):
        rng = np.random.default_rng(11)
        lines = rng.integers(0, 512, size=1000).astype(np.int64)
        order = set_order(lines, 63)
        expected = np.argsort(lines & 63, kind="stable")
        np.testing.assert_array_equal(order, expected)


@pytest.mark.parametrize("backend", AVAILABLE)
@pytest.mark.parametrize("caches", [ALLCACHE_SIM, SNIPER_TABLE_III.caches],
                         ids=["direct-mapped", "associative"])
@pytest.mark.parametrize("writes", [True, False], ids=["dirty", "clean"])
@pytest.mark.parametrize("warmup", [0, 4], ids=["cold", "warmed"])
class TestBackendMatrix:
    """per-batch hierarchy and engine paths x geometry x write-traffic x
    warmup: identical stats to a per-batch hierarchy whose levels run the
    sequential oracle loops."""

    def test_matches_numpy_reference(
        self, backend, caches, writes, warmup, monkeypatch
    ):
        rng = np.random.default_rng(42)
        traces = [
            make_trace(rng, index=i, writes=writes) for i in range(12)
        ]

        def replay(hierarchy):
            tool = allcache_on(hierarchy)
            Engine([tool]).run(traces[warmup:], warmup=traces[:warmup])
            return level_stats(tool)

        reference = replay(reference_hierarchy(caches))
        assert replay(build(caches, backend, monkeypatch)) == reference
        assert reference["L1D"][0] == sum(
            t.mem_lines.size for t in traces[warmup:]
        )


class TestChunkInvariance:
    """Chunk boundaries are invisible: any flush threshold, same result."""

    @pytest.mark.parametrize("chunk", [1, 997, 10**9])
    def test_results_do_not_depend_on_chunk(self, chunk, monkeypatch):
        rng = np.random.default_rng(3)
        traces = [make_trace(rng, index=i) for i in range(10)]
        monkeypatch.setattr(fused, "DEFAULT_CHUNK_REFS", chunk)
        reference = CacheHierarchy(ALLCACHE_SIM)
        swept = build(ALLCACHE_SIM, "fused", monkeypatch)
        for hierarchy in (reference, swept):
            for trace in traces:
                hierarchy.process_trace(trace)
            hierarchy.drain()
        assert swept.snapshot() == reference.snapshot()

    def test_direct_access_drains_buffer_first(self, monkeypatch):
        rng = np.random.default_rng(5)
        trace = make_trace(rng)
        monkeypatch.setattr(fused, "DEFAULT_CHUNK_REFS", 10**9)
        extra = np.array([0, 64, 0], dtype=np.int64)
        for path in PATHS:
            reference = CacheHierarchy(ALLCACHE_SIM)
            engine = build(ALLCACHE_SIM, path, monkeypatch)
            for hierarchy in (reference, engine):
                hierarchy.process_trace(trace)
                # The per-batch call on the buffered hierarchy must
                # observe the slice's effects: it joins the buffer,
                # which drains.
                hierarchy.access_data(extra)
                hierarchy.access_ifetch(extra)
            assert engine.snapshot() == reference.snapshot(), path


class TestWriteFlags:
    """Write flags reach every kernel as one 0/1 byte per reference."""

    def test_bool_flags_are_kept_without_a_copy(self):
        trace = make_trace(np.random.default_rng(1))
        flags = trace.mem_is_write
        assert flags.dtype == bool
        assert dataclasses.replace(trace).mem_is_write is flags

    @pytest.mark.parametrize("backend", AVAILABLE)
    def test_integer_flags_count_like_booleans(self, backend, monkeypatch):
        def replay(hierarchy, flag_dtype):
            rng = np.random.default_rng(8)
            traces = [
                make_trace(rng, index=i, n_mem=3000, flag_dtype=flag_dtype)
                for i in range(6)
            ]
            tool = allcache_on(hierarchy)
            Engine([tool]).run(traces)
            return level_stats(tool)

        reference = replay(CacheHierarchy(ALLCACHE_SIM), bool)
        other = build(ALLCACHE_SIM, backend, monkeypatch)
        assert replay(other, np.int64) == reference
        assert reference["L1D"][2] > 0 and reference["L2"][2] > 0


def reference_hierarchy(config):
    """A per-batch hierarchy whose levels run the sequential oracle."""
    hierarchy = CacheHierarchy(config)
    hierarchy.l1i, hierarchy.l1d, hierarchy.l2, hierarchy.l3 = (
        CacheLevel(level, reference=True) for level in config.levels()
    )
    return hierarchy


def walk_geometry(l1i=1, l1d=1, l2=1, l3=1, line=32):
    """A hierarchy small enough that every data level evicts dirty lines."""
    return CacheHierarchyConfig(
        l1i=CacheConfig("L1I", size_bytes=line * 8, line_size=line,
                        associativity=l1i),
        l1d=CacheConfig("L1D", size_bytes=line * 16, line_size=line,
                        associativity=l1d),
        l2=CacheConfig("L2", size_bytes=line * 64, line_size=line,
                       associativity=l2),
        l3=CacheConfig("L3", size_bytes=line * 256, line_size=line,
                       associativity=l3),
    )


WALK_GEOMETRIES = {
    "direct-mapped": walk_geometry(),
    "l2l3-2way": walk_geometry(l2=2, l3=2),
    "l2l3-4way": walk_geometry(l2=4, l3=4),
    "l2l3-8way": walk_geometry(l2=8, l3=8),
    "l2l3-16way": walk_geometry(l2=16, l3=16),
    "assoc-l1": walk_geometry(l1i=2, l1d=4, l2=8, l3=1),
    "64B-lines": walk_geometry(l2=8, l3=16, line=64),
}


@pytest.mark.skipif("native" not in PATHS, reason="no working C compiler")
class TestNativeWalk:
    """The compiled hierarchy walk against the sequential oracle levels,
    on every geometry: per-level statistics and the full state."""

    @pytest.mark.parametrize("chunk", [1, 997, 10**9])
    def test_fuzz_matches_reference_levels(self, chunk, monkeypatch):
        monkeypatch.setattr(fused, "DEFAULT_CHUNK_REFS", chunk)
        for geometry, config in WALK_GEOMETRIES.items():
            self._fuzz(geometry, config)

    def _fuzz(self, geometry, config):
        rng = np.random.default_rng(29)
        recorder = telemetry.TraceRecorder()
        walk = FusedHierarchy(config)
        oracle = reference_hierarchy(config)

        def feed(first, count):
            for index in range(first, first + count):
                # Mixed, ifetch-only and data-only slices, in random
                # order, with recording toggled on and off.
                kind = int(rng.integers(3))
                trace = make_trace(
                    rng, index=index,
                    n_mem=0 if kind == 1 else int(rng.integers(1, 400)),
                    n_if=0 if kind == 2 else int(rng.integers(1, 120)),
                )
                for hierarchy in (walk, oracle):
                    hierarchy.set_recording(index % 9 >= 3)
                    hierarchy.process_trace(trace)

        with telemetry.using_recorder(recorder):
            feed(0, 30)
            # Per-batch traffic between chunks: a one-stream walk.
            walk.drain()
            extra = rng.integers(0, 2000, size=300)
            extra_writes = rng.random(300) < 0.5
            for hierarchy in (walk, oracle):
                hierarchy.access_data(extra, extra_writes)
            feed(30, 20)
            walk.drain()
        assert walk.backend == "native"
        assert walk.snapshot() == oracle.snapshot(), geometry
        for fast, slow in zip(walk.levels, oracle.levels):
            assert level_state(fast) == level_state(slow), (
                f"{geometry}: {fast.name}"
            )
        assert all(
            level.stats.writebacks > 0 for level in oracle.levels[1:]
        ), geometry
        # Every drain walked: a walked chunk counts one wave, a swept
        # chunk one per level with traffic.
        counters = recorder.metrics.counters
        assert counters["cache.fused.backend{backend=native}"] >= 2
        assert counters["cache.fused.waves"] == (
            counters["cache.fused.backend{backend=native}"]
        ), geometry

    @pytest.mark.parametrize("geometry", ["direct-mapped", "l2l3-8way"])
    def test_frozen_replayed_streams_match_reference_levels(
        self, geometry, monkeypatch
    ):
        """The slice memo freezes its arrays and replays them; the walk
        reads each frozen array's address once and forgets it when the
        array is freed."""
        config = WALK_GEOMETRIES[geometry]
        rng = np.random.default_rng(31)
        monkeypatch.setattr(fused, "DEFAULT_CHUNK_REFS", 997)
        walk = FusedHierarchy(config)
        oracle = reference_hierarchy(config)
        traces = [
            make_trace(rng, index=index, n_mem=int(rng.integers(1, 400)),
                       n_if=int(rng.integers(1, 120)))
            for index in range(12)
        ]
        streams = [
            stream for trace in traces
            for stream in (trace.mem_lines, trace.mem_is_write,
                           trace.ifetch_lines)
        ]
        for stream in streams:
            stream.flags.writeable = False
        for trace in traces + traces[::-1]:
            for hierarchy in (walk, oracle):
                hierarchy.process_trace(trace)
        walk.drain()
        assert walk.snapshot() == oracle.snapshot()
        for fast, slow in zip(walk.levels, oracle.levels):
            assert level_state(fast) == level_state(slow), fast.name
        known = _native.load_kernel()._addresses
        keys = {id(stream) for stream in streams}
        assert keys <= known.keys()
        del traces, trace, streams, stream
        assert not keys & known.keys()

    def test_body_streams_are_known_before_their_first_walk(self):
        kernel = _native.load_kernel()
        streams = kernel.body(
            np.random.default_rng(3), [5, 0, 0, 0, 8], [9, 1, 1, 1, 16],
            [0] * 5, 100, 4, 0.5,
        )
        for stream in streams:
            stream.flags.writeable = False
            assert kernel._addresses[id(stream)].address == stream.ctypes.data


class TestBackendResolution:
    """Nothing selects the engine's path: the kernel loading does."""

    def test_missing_native_falls_back_to_fused_with_counter(
        self, monkeypatch
    ):
        hide_kernel(monkeypatch)
        assert resolve_backend() == "fused"
        recorder = telemetry.TraceRecorder()
        with telemetry.using_recorder(recorder):
            hierarchy = FusedHierarchy(SNIPER_TABLE_III.caches)
            hierarchy.process_trace(make_trace(np.random.default_rng(4)))
            hierarchy.drain()
        counters = recorder.metrics.counters
        assert counters["cache.fused.backend{backend=fused}"] == 1
        assert all(level._strategy is not None for level in hierarchy.levels)

    def test_auto_resolves_to_available_backend(self):
        loaded = _native.load_kernel() is not None
        assert resolve_backend() == ("native" if loaded else "fused")
        assert FusedHierarchy(ALLCACHE_SIM).backend == resolve_backend()


class TestFusedTelemetry:
    def test_drain_emits_span_and_counters(self, monkeypatch):
        rng = np.random.default_rng(9)
        recorder = telemetry.TraceRecorder()
        with telemetry.using_recorder(recorder):
            swept = build(ALLCACHE_SIM, "fused", monkeypatch)
            swept.process_trace(make_trace(rng))
            swept.drain()
        names = [e["name"] for e in recorder.events]
        assert "cache.fused" in names
        counters = recorder.metrics.counters
        assert counters.get("cache.fused.waves", 0) > 0
        assert counters.get("cache.fused.backend{backend=fused}", 0) >= 1


class TestExperimentBytes:
    """fig8/fig10/fig12 rendered output is the same on every path, byte
    for byte (fig12 replays Sniper's associative hierarchy on each: the
    native walk, the numpy sweep and the per-batch hierarchy)."""

    BENCH = ["620.omnetpp_s"]

    def _sweep(self, path, tmp_path, monkeypatch, figures):
        from repro.experiments import common
        from repro.experiments.common import configure_cache

        with monkeypatch.context() as patch:
            if path == "numpy":
                for module in ("repro.pin.tools.allcache",
                               "repro.sniper.core"):
                    patch.setattr(f"{module}.FusedHierarchy", CacheHierarchy)
            elif path == "fused":
                hide_kernel(patch)
            configure_cache(tmp_path / path)
            common._PINPOINTS_CACHE.clear()
            common._WHOLE_CACHE.clear()
            common._POINTS_CACHE.clear()
            quick = dict(slice_size=3000, total_slices=120)
            return "\n".join(
                render(run(self.BENCH, jobs=1, **quick))
                for run, render in figures
            )

    def _assert_identical(self, tmp_path, monkeypatch, figures):
        renders = {
            path: self._sweep(path, tmp_path, monkeypatch, figures)
            for path in AVAILABLE
        }
        reference = renders["numpy"]
        assert "620.omnetpp_s" in reference
        for path, text in renders.items():
            assert text == reference, f"{path} diverged from numpy"

    def test_fig8_fig10_bytes_identical_across_backends(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments.fig8 import render_fig8, run_fig8
        from repro.experiments.fig10 import render_fig10, run_fig10

        self._assert_identical(tmp_path, monkeypatch, [
            (run_fig8, render_fig8), (run_fig10, render_fig10),
        ])

    def test_fig12_bytes_identical_across_backends(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments.fig12 import render_fig12, run_fig12

        self._assert_identical(tmp_path, monkeypatch, [
            (run_fig12, render_fig12),
        ])
