"""Differential tests for the fused cache engine and its backends.

The load-bearing invariant of ``repro.cache.fused``: every backend
(``numpy`` per-batch, ``fused`` chunked sweeps, ``native`` compiled
kernels) produces **bit-identical** results — same per-level miss
counts, same writeback counts, same rendered experiment bytes —
differing only in speed.  These tests pin that
invariant across the matrix of geometries (direct-mapped and
associative), write traffic (dirty and clean), and warmup, plus the
kernels' own oracles (the sequential per-access loops).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import telemetry
from repro.cache import _native, build_hierarchy, resolve_backend
from repro.cache.cache import CacheLevel, dm_sweep, set_order
from repro.cache.fused import BACKENDS, FusedHierarchy
from repro.cache.hierarchy import CacheHierarchy
from repro.config import (
    ALLCACHE_SIM,
    SNIPER_TABLE_III,
    CacheConfig,
    CacheHierarchyConfig,
)
from repro.errors import ConfigError
from repro.isa.trace import SliceTrace
from repro.pin.engine import Engine
from repro.pin.tools.allcache import AllCache

#: Backends that resolve to themselves on this machine.
AVAILABLE = [b for b in BACKENDS if resolve_backend(b) == b]


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


class TestInstallVectorized:
    """Grouped install against the per-line reference loop."""

    def _pair(self, assoc=4):
        config = CacheConfig("T", size_bytes=4096, line_size=32,
                             associativity=assoc)
        return CacheLevel(config), CacheLevel(config, reference=True)

    @pytest.mark.parametrize("assoc", [2, 4, 8])
    def test_fuzz_matches_reference(self, assoc):
        rng = np.random.default_rng(13 + assoc)
        fast, oracle = self._pair(assoc)
        for round_ in range(25):
            n = int(rng.integers(1, 200))
            lines = rng.integers(0, 400, size=n) * 32
            if round_ % 2:
                writes = rng.random(n) < 0.3
                np.testing.assert_array_equal(
                    fast.access_many(lines, writes),
                    oracle.access_many(lines, writes),
                )
            else:
                fast.install(lines)
                oracle.install(lines)
        probe = rng.integers(0, 400, size=500) * 32
        np.testing.assert_array_equal(
            fast.access_many(probe), oracle.access_many(probe)
        )
        assert fast.stats.writebacks == oracle.stats.writebacks

    def test_repeat_with_interleaved_line_is_not_deduplicated(self):
        # Install stream [a, c, a]: dropping the second ``a`` (as a
        # non-consecutive dedup would) loses its move-to-MRU, flipping
        # which line a later conflict evicts.
        fast, oracle = self._pair(assoc=2)
        a, b = 0, 32 * 128  # same set of the 2-way config
        c = 32 * 256
        for level in (fast, oracle):
            level.access_many(np.array([a, b], dtype=np.int64))
            level.install(np.array([a, c, a], dtype=np.int64))
        probe = np.array([b, a], dtype=np.int64)
        np.testing.assert_array_equal(
            fast.access_many(probe), oracle.access_many(probe)
        )


@pytest.mark.parametrize("backend", AVAILABLE)
@pytest.mark.parametrize("caches", [ALLCACHE_SIM, SNIPER_TABLE_III.caches],
                         ids=["direct-mapped", "associative"])
@pytest.mark.parametrize("writes", [True, False], ids=["dirty", "clean"])
@pytest.mark.parametrize("warmup", [0, 4], ids=["cold", "warmed"])
class TestBackendMatrix:
    """backends x geometry x write-traffic x warmup: identical stats."""

    def test_matches_numpy_reference(self, backend, caches, writes, warmup):
        rng = np.random.default_rng(42)
        traces = [
            make_trace(rng, index=i, writes=writes) for i in range(12)
        ]

        def replay(b):
            tool = AllCache(config=caches, backend=b)
            Engine([tool]).run(traces[warmup:], warmup=traces[:warmup])
            return level_stats(tool)

        reference = replay("numpy")
        assert replay(backend) == reference
        assert reference["L1D"][0] == sum(
            t.mem_lines.size for t in traces[warmup:]
        )


class TestChunkInvariance:
    """Chunk boundaries are invisible: any flush threshold, same result."""

    @pytest.mark.parametrize("chunk", [1, 997, 10**9])
    def test_results_do_not_depend_on_chunk(self, chunk):
        rng = np.random.default_rng(3)
        traces = [make_trace(rng, index=i) for i in range(10)]
        reference = CacheHierarchy(ALLCACHE_SIM)
        fused = FusedHierarchy(ALLCACHE_SIM, backend="fused",
                               chunk_refs=chunk)
        for hierarchy in (reference, fused):
            for trace in traces:
                hierarchy.process_trace(trace)
            hierarchy.drain()
        assert fused.snapshot() == reference.snapshot()

    def test_direct_access_drains_buffer_first(self):
        rng = np.random.default_rng(5)
        trace = make_trace(rng)
        reference = CacheHierarchy(ALLCACHE_SIM)
        fused = FusedHierarchy(ALLCACHE_SIM, backend="fused",
                               chunk_refs=10**9)
        extra = np.array([0, 64, 0], dtype=np.int64)
        for hierarchy in (reference, fused):
            hierarchy.process_trace(trace)
            # The per-batch call on the buffered hierarchy must observe
            # the slice's effects, i.e. drain before accessing.
            hierarchy.access_data(extra)
        assert fused.snapshot() == reference.snapshot()


class TestWriteFlags:
    """Write flags reach every kernel as one 0/1 byte per reference."""

    def test_bool_flags_are_kept_without_a_copy(self):
        trace = make_trace(np.random.default_rng(1))
        flags = trace.mem_is_write
        assert flags.dtype == bool
        assert dataclasses.replace(trace).mem_is_write is flags

    @pytest.mark.parametrize("backend", AVAILABLE)
    def test_integer_flags_count_like_booleans(self, backend):
        def replay(b, flag_dtype):
            rng = np.random.default_rng(8)
            traces = [
                make_trace(rng, index=i, n_mem=3000, flag_dtype=flag_dtype)
                for i in range(6)
            ]
            tool = AllCache(config=ALLCACHE_SIM, backend=b)
            Engine([tool]).run(traces)
            return level_stats(tool)

        reference = replay("numpy", bool)
        assert replay(backend, np.int64) == reference
        assert reference["L1D"][2] > 0 and reference["L2"][2] > 0


def reference_hierarchy(config):
    """A per-batch hierarchy whose levels run the sequential oracle."""
    hierarchy = CacheHierarchy(config)
    hierarchy.l1i, hierarchy.l1d, hierarchy.l2, hierarchy.l3 = (
        CacheLevel(level, reference=True) for level in config.levels()
    )
    return hierarchy


@pytest.mark.skipif("native" not in AVAILABLE,
                    reason="no working C compiler")
class TestNativeWalk:
    """The compiled direct-mapped walk against the sequential oracle
    levels: per-level statistics and the full per-set state."""

    #: Small enough that every data level evicts dirty lines.
    TINY = CacheHierarchyConfig(
        l1i=CacheConfig("L1I", size_bytes=32 * 8, line_size=32,
                        associativity=1),
        l1d=CacheConfig("L1D", size_bytes=32 * 16, line_size=32,
                        associativity=1),
        l2=CacheConfig("L2", size_bytes=32 * 64, line_size=32,
                       associativity=1),
        l3=CacheConfig("L3", size_bytes=32 * 256, line_size=32,
                       associativity=1),
    )

    @pytest.mark.parametrize("chunk", [1, 997, 10**9])
    def test_fuzz_matches_reference_levels(self, chunk):
        rng = np.random.default_rng(29)
        walk = FusedHierarchy(self.TINY, backend="native", chunk_refs=chunk)
        assert walk._walkable and walk._kernel is not None
        oracle = reference_hierarchy(self.TINY)
        for index in range(40):
            # Mixed, ifetch-only and data-only slices, in random order.
            kind = int(rng.integers(3))
            trace = make_trace(
                rng, index=index,
                n_mem=0 if kind == 1 else int(rng.integers(1, 400)),
                n_if=0 if kind == 2 else int(rng.integers(1, 120)),
            )
            for hierarchy in (walk, oracle):
                hierarchy.set_recording(index >= 4)
                hierarchy.process_trace(trace)
        walk.drain()
        assert walk.snapshot() == oracle.snapshot()
        for fast, slow in zip(walk.levels, oracle.levels):
            np.testing.assert_array_equal(fast._resident, slow._resident)
            np.testing.assert_array_equal(fast._dirty, slow._dirty)
        assert all(
            level.stats.writebacks > 0 for level in oracle.levels[1:]
        )


class TestBackendResolution:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            resolve_backend("verilog")

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_BACKEND", "fused")
        assert resolve_backend() == "fused"
        assert isinstance(build_hierarchy(ALLCACHE_SIM), FusedHierarchy)
        monkeypatch.setenv("REPRO_CACHE_BACKEND", "numpy")
        assert resolve_backend() == "numpy"
        built = build_hierarchy(ALLCACHE_SIM)
        assert not isinstance(built, FusedHierarchy)

    def test_missing_native_falls_back_to_fused_with_counter(
        self, monkeypatch
    ):
        monkeypatch.setattr(_native, "load_kernel", lambda: None)
        recorder = telemetry.TraceRecorder()
        with telemetry.using_recorder(recorder):
            assert resolve_backend("native") == "fused"
        key = "cache.fused.fallback{requested=native,to=fused}"
        assert recorder.metrics.counters.get(key, 0) == 1

    def test_auto_resolves_to_available_backend(self):
        assert resolve_backend("auto") in ("native", "fused")

    @pytest.mark.parametrize("backend", AVAILABLE)
    def test_hierarchy_backend_reaches_its_levels(self, backend, monkeypatch):
        # The environment asks for another backend; the explicit one
        # still picks every level's strategy.
        other = "fused" if backend == "native" else "native"
        monkeypatch.setenv("REPRO_CACHE_BACKEND", other)
        tool = AllCache(config=SNIPER_TABLE_III.caches, backend=backend)
        Engine([tool]).run([make_trace(np.random.default_rng(2))])
        strategies = {level._strategy for level in tool.hierarchy.levels}
        if backend == "native":
            assert strategies == {"native"}
        else:
            assert "native" not in strategies

    def test_fallback_counted_once_per_hierarchy_not_per_level(
        self, monkeypatch
    ):
        monkeypatch.setattr(_native, "load_kernel", lambda: None)
        monkeypatch.setenv("REPRO_CACHE_BACKEND", "native")
        trace = make_trace(np.random.default_rng(4))
        key = "cache.fused.fallback{requested=native,to=fused}"
        recorder = telemetry.TraceRecorder()
        with telemetry.using_recorder(recorder):
            # Levels that resolve the environment themselves (Sniper's
            # hierarchy) fall back silently ...
            CacheHierarchy(SNIPER_TABLE_III.caches).process_trace(trace)
            assert recorder.metrics.counters.get(key, 0) == 0
            # ... and a built hierarchy counts its one selection.
            built = build_hierarchy(SNIPER_TABLE_III.caches)
            built.process_trace(trace)
            built.drain()
        assert recorder.metrics.counters.get(key, 0) == 1
        assert all(level._strategy != "native" for level in built.levels)


class TestFusedTelemetry:
    def test_drain_emits_span_and_counters(self):
        rng = np.random.default_rng(9)
        recorder = telemetry.TraceRecorder()
        with telemetry.using_recorder(recorder):
            fused = FusedHierarchy(ALLCACHE_SIM, backend="fused")
            fused.process_trace(make_trace(rng))
            fused.drain()
        names = [e["name"] for e in recorder.events]
        assert "cache.fused" in names
        counters = recorder.metrics.counters
        assert counters.get("cache.fused.waves", 0) > 0
        assert counters.get("cache.fused.backend{backend=fused}", 0) >= 1


class TestExperimentBytes:
    """fig8/fig10/fig12 rendered output is backend-independent, byte for
    byte (fig12 replays Sniper's associative hierarchy per batch)."""

    BENCH = ["620.omnetpp_s"]

    def _sweep(self, backend, tmp_path, monkeypatch, figures):
        from repro.experiments import common
        from repro.experiments.common import configure_cache

        monkeypatch.setenv("REPRO_CACHE_BACKEND", backend)
        configure_cache(tmp_path / backend)
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
            backend: self._sweep(backend, tmp_path, monkeypatch, figures)
            for backend in AVAILABLE
        }
        reference = renders["numpy"]
        assert "620.omnetpp_s" in reference
        for backend, text in renders.items():
            assert text == reference, f"{backend} diverged from numpy"

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
