"""Shared experiment plumbing: measurement caching and resolution."""

import dataclasses

import numpy as np
import pytest

from repro.config import ALLCACHE_SIM, ALLCACHE_TABLE_I
from repro.errors import ConfigError
from repro.experiments import common
from repro.experiments.common import (
    clear_pinpoints_cache,
    configure_cache,
    map_benchmarks,
    measure_benchmark,
    measure_points,
    measure_whole,
    pinpoints_for,
    resolve_benchmarks,
)
from repro.pinpoints.pipeline import run_pinpoints
from repro.workloads.spec2017 import benchmark_names, build_program

from conftest import QUICK


class TestResolveBenchmarks:
    def test_default_is_full_suite(self):
        assert resolve_benchmarks(None) == benchmark_names()

    def test_subset_passthrough(self):
        assert resolve_benchmarks(["a", "b"]) == ["a", "b"]

    def test_copies_input(self):
        names = ["x"]
        resolved = resolve_benchmarks(names)
        resolved.append("y")
        assert names == ["x"]


class TestPinpointsCache:
    def test_same_kwargs_same_object(self):
        clear_pinpoints_cache()
        a = pinpoints_for("620.omnetpp_s", **QUICK)
        b = pinpoints_for("620.omnetpp_s", **QUICK)
        assert a is b

    def test_different_kwargs_different_objects(self):
        clear_pinpoints_cache()
        a = pinpoints_for("620.omnetpp_s", **QUICK)
        b = pinpoints_for("620.omnetpp_s", slice_size=3000,
                          total_slices=140)
        assert a is not b

    def test_clear(self):
        a = pinpoints_for("620.omnetpp_s", **QUICK)
        clear_pinpoints_cache()
        b = pinpoints_for("620.omnetpp_s", **QUICK)
        assert a is not b

    def test_dict_valued_kwargs_are_keyable(self):
        # ``--sampler stratified2:strata=4`` forwards sampler_params as
        # a dict; the in-process key must freeze it, not crash on it.
        clear_pinpoints_cache()
        a = pinpoints_for(
            "620.omnetpp_s", sampler="stratified2",
            sampler_params={"strata": 4}, **QUICK,
        )
        b = pinpoints_for(
            "620.omnetpp_s", sampler="stratified2",
            sampler_params={"strata": 4}, **QUICK,
        )
        c = pinpoints_for(
            "620.omnetpp_s", sampler="stratified2",
            sampler_params={"strata": 2}, **QUICK,
        )
        assert a is b
        assert a is not c
        assert a.selection.sampler == "stratified2"


class TestMeasurementCache:
    def test_whole_metrics_cached(self):
        clear_pinpoints_cache()
        out = pinpoints_for("620.omnetpp_s", **QUICK)
        a = measure_whole(out)
        b = measure_whole(out)
        assert a is b

    def test_config_distinguishes_entries(self):
        clear_pinpoints_cache()
        out = pinpoints_for("620.omnetpp_s", **QUICK)
        scaled = measure_whole(out)
        full = measure_whole(out, config=ALLCACHE_TABLE_I)
        assert scaled is not full
        # The full-size Table I L1D swallows the scaled working sets, so
        # its miss rate collapses (and the L3, seeing only compulsory
        # traffic, rises toward 100 %).
        assert full.miss_rates["L1D"] < scaled.miss_rates["L1D"]
        assert full.miss_rates["L3"] > scaled.miss_rates["L3"]

    def test_points_cache_keyed_on_warmup(self):
        clear_pinpoints_cache()
        out = pinpoints_for("620.omnetpp_s", **QUICK)
        cold = measure_points(out, out.regional)
        warm = measure_points(out, out.regional, with_warmup=True)
        assert cold is not warm
        assert warm.miss_rates["L3"] <= cold.miss_rates["L3"]

    def test_points_cache_keyed_on_subset(self):
        clear_pinpoints_cache()
        out = pinpoints_for("620.omnetpp_s", **QUICK)
        full = measure_points(out, out.regional)
        subset = measure_points(out, out.regional[:1])
        assert full is not subset

    def test_metrics_shapes(self):
        clear_pinpoints_cache()
        out = pinpoints_for("620.omnetpp_s", **QUICK)
        metrics = measure_whole(out)
        assert metrics.mix.shape == (4,)
        assert metrics.mix.sum() == pytest.approx(1.0)
        assert set(metrics.miss_rates) == {"L1D", "L2", "L3"}
        assert metrics.instructions > 0
        assert metrics.l3_accesses >= 0

    def test_default_config_is_scaled_table1(self):
        clear_pinpoints_cache()
        out = pinpoints_for("620.omnetpp_s", **QUICK)
        default = measure_whole(out)
        explicit = measure_whole(out, config=ALLCACHE_SIM)
        assert np.allclose(default.mix, explicit.mix)
        assert default.miss_rates == explicit.miss_rates


class TestMetricsKeys:
    """Cached metrics are keyed on every input that changes them."""

    def test_whole_metrics_keyed_on_the_program(self):
        clear_pinpoints_cache()
        short_runs = run_pinpoints(
            "505.mcf_r",
            program=build_program("505.mcf_r", mean_run_length=3, **QUICK),
            **QUICK,
        )
        default = run_pinpoints("505.mcf_r", **QUICK)
        assert (common._metrics_key(short_runs, None)
                != common._metrics_key(default, None))
        first = measure_whole(short_runs)
        second = measure_whole(default)
        clear_pinpoints_cache()
        fresh = measure_whole(default)
        assert second.miss_rates == fresh.miss_rates
        assert second.miss_rates["L3"] != first.miss_rates["L3"]

    def test_point_metrics_keyed_on_the_weights(self):
        clear_pinpoints_cache()
        out = pinpoints_for("505.mcf_r", **QUICK)
        assert len(out.regional) >= 2
        base = measure_points(out, out.regional)
        reweighted = [
            dataclasses.replace(pb, weight=pb.weight / 2) if i == 0 else pb
            for i, pb in enumerate(out.regional)
        ]
        shifted = measure_points(out, reweighted)
        assert shifted is not base
        assert shifted.miss_rates != base.miss_rates
        clear_pinpoints_cache()
        assert measure_points(out, reweighted).miss_rates == shifted.miss_rates


class TestDiskTier:
    """Two-tier behaviour: memory dicts in front of the artifact store."""

    def test_metrics_survive_a_memory_clear(self, tmp_path):
        configure_cache(tmp_path / "store")
        clear_pinpoints_cache()
        out = pinpoints_for("620.omnetpp_s", **QUICK)
        first = measure_whole(out)
        common._WHOLE_CACHE.clear()  # simulate a fresh process
        again = measure_whole(out)
        assert again is not first
        assert np.array_equal(again.mix, first.mix)
        assert again.miss_rates == first.miss_rates
        assert again.instructions == first.instructions
        assert again.l3_accesses == first.l3_accesses

    def test_point_metrics_survive_a_memory_clear(self, tmp_path):
        configure_cache(tmp_path / "store")
        clear_pinpoints_cache()
        out = pinpoints_for("620.omnetpp_s", **QUICK)
        first = measure_points(out, out.reduced, with_warmup=True)
        common._POINTS_CACHE.clear()
        again = measure_points(out, out.reduced, with_warmup=True)
        assert again is not first
        assert again.miss_rates == first.miss_rates

    def test_pipeline_bundles_survive_a_memory_clear(self, tmp_path):
        configure_cache(tmp_path / "store")
        clear_pinpoints_cache()
        first = pinpoints_for("620.omnetpp_s", **QUICK)
        common._PINPOINTS_CACHE.clear()
        again = pinpoints_for("620.omnetpp_s", **QUICK)
        assert again is not first
        assert again.benchmark == first.benchmark
        assert again.simpoints.num_points == first.simpoints.num_points
        assert np.array_equal(
            measure_whole(again).mix, measure_whole(first).mix
        )

    def test_clear_covers_the_disk_tier(self, tmp_path):
        configure_cache(tmp_path / "store")
        store = common.get_store()
        clear_pinpoints_cache()
        pinpoints_for("620.omnetpp_s", **QUICK)
        assert store.info().total_artifacts > 0
        clear_pinpoints_cache()
        assert store.info().total_artifacts == 0

    def test_no_store_means_memory_only(self):
        configure_cache(None, enabled=False)
        assert common.get_store() is None
        clear_pinpoints_cache()
        a = pinpoints_for("620.omnetpp_s", **QUICK)
        assert pinpoints_for("620.omnetpp_s", **QUICK) is a


class TestMeasureBenchmark:
    def test_unknown_run_type_rejected(self):
        with pytest.raises(ConfigError, match="unknown run type"):
            measure_benchmark("620.omnetpp_s", runs=("bogus",),
                              pinpoints_kwargs=QUICK)

    def test_result_shape(self):
        clear_pinpoints_cache()
        result = measure_benchmark(
            "620.omnetpp_s", runs=("whole", "reduced"),
            pinpoints_kwargs=QUICK,
        )
        assert result["benchmark"] == "620.omnetpp_s"
        assert result["num_points"] >= result["num_points_90"] >= 1
        assert result["whole"].mix.shape == (4,)
        assert set(result["reduced"].miss_rates) == {"L1D", "L2", "L3"}

    def test_map_benchmarks_preserves_input_order(self):
        clear_pinpoints_cache()
        names = ["557.xz_r", "620.omnetpp_s"]
        measured = map_benchmarks(names, runs=(), jobs=1, **QUICK)
        assert [m["benchmark"] for m in measured] == names
