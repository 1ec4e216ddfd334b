"""Shared experiment plumbing: measurement caching and resolution."""

import dataclasses
import inspect

import numpy as np
import pytest

from repro import __version__
from repro.config import ALLCACHE_SIM, ALLCACHE_TABLE_I
from repro.errors import ConfigError
from repro.experiments import common
from repro.experiments.common import (
    clear_pinpoints_cache,
    configure_cache,
    map_benchmarks,
    WHOLE,
    Run,
    measure_benchmark,
    measure_points,
    measure_runs,
    measure_whole,
    pinpoints_for,
    resolve_benchmarks,
)
from repro.parallel import ArtifactStore, artifact_key
from repro.pinball.pinball import ProgramRecipe, RegionalPinball
from repro.pinpoints.pipeline import run_pinpoints
from repro.simpoint.simpoints import DEFAULT_MAX_K
from repro.workloads.scaling import (
    DEFAULT_SLICE_INSTRUCTIONS,
    DEFAULT_TOTAL_SLICES,
)
from repro.workloads.spec2017 import benchmark_names, build_program

from conftest import QUICK


def memo_keys(monkeypatch, *calls):
    """The memo key each call asks for; nothing is computed or cached."""
    keys = []

    def record(key, result_type=None):
        assert key.digest == artifact_key(
            key.kind, key.params, version=__version__
        )
        keys.append(key.digest)
        return "recalled"

    with monkeypatch.context() as patch:
        patch.setattr(common, "recall", record)
        for call in calls:
            call()
    return keys


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

    def test_live_objects_compute_uncached(self, tmp_path):
        # A live program has no stable key: each call runs the pipeline,
        # and nothing reaches either tier.
        configure_cache(tmp_path / "store")
        clear_pinpoints_cache()
        program = build_program("620.omnetpp_s", **QUICK)
        a = pinpoints_for("620.omnetpp_s", program=program, **QUICK)
        b = pinpoints_for("620.omnetpp_s", program=program, **QUICK)
        assert a is not b
        assert a.program is b.program is program
        assert not common._MEMO
        assert common.get_store().info().total_artifacts == 0


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

    def test_whole_metrics_keyed_on_the_program(self, monkeypatch):
        clear_pinpoints_cache()
        short_runs = run_pinpoints(
            "505.mcf_r",
            program=build_program("505.mcf_r", mean_run_length=3, **QUICK),
            **QUICK,
        )
        default = run_pinpoints("505.mcf_r", **QUICK)
        short_key, default_key = memo_keys(
            monkeypatch,
            lambda: measure_whole(short_runs),
            lambda: measure_whole(default),
        )
        assert short_key != default_key
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


def _geometries(base):
    """``base`` with each cache-geometry field of each level changed."""
    for level in ("l1i", "l1d", "l2", "l3"):
        config = getattr(base, level)
        for field in ("size_bytes", "associativity"):
            changed = dataclasses.replace(
                config, **{field: getattr(config, field) * 2}
            )
            yield dataclasses.replace(base, **{level: changed})
    yield dataclasses.replace(base, **{
        level: dataclasses.replace(getattr(base, level), line_size=64)
        for level in ("l1i", "l1d", "l2", "l3")
    })


class TestMemoKeys:
    """Changing any one determinism-relevant input changes the memo key."""

    #: A changed value for every keyword of ``run_pinpoints`` that is
    #: not a live object.
    PIPELINE_KWARGS = {
        "slice_size": 6000,
        "total_slices": 240,
        "max_k": 10,
        "percentile": 0.8,
        "warmup_slices": 3,
        "sampler": "stratified2",
        "sampler_params": {"projection_dim": 8},
    }

    def test_pipeline_key_covers_every_run_pinpoints_keyword(
        self, monkeypatch
    ):
        keywords = set(inspect.signature(run_pinpoints).parameters)
        assert keywords == (
            {"benchmark", "program", "analysis"} | set(self.PIPELINE_KWARGS)
        )
        calls = [lambda: pinpoints_for("505.mcf_r", **QUICK),
                 lambda: pinpoints_for("520.omnetpp_r", **QUICK)]
        for name, value in self.PIPELINE_KWARGS.items():
            calls.append(
                lambda kw={**QUICK, name: value}: pinpoints_for(
                    "505.mcf_r", **kw
                )
            )
        keys = memo_keys(monkeypatch, *calls)
        assert len(set(keys)) == len(keys) == 2 + len(self.PIPELINE_KWARGS)

    def test_pipeline_key_fills_in_the_defaults(self, monkeypatch):
        implicit, explicit = memo_keys(
            monkeypatch,
            lambda: pinpoints_for("505.mcf_r"),
            lambda: pinpoints_for(
                "505.mcf_r", slice_size=DEFAULT_SLICE_INSTRUCTIONS,
                total_slices=DEFAULT_TOTAL_SLICES, max_k=DEFAULT_MAX_K,
                percentile=0.9, sampler="simpoint",
            ),
        )
        assert implicit == explicit

    def test_metrics_key_covers_every_replay_input(self, monkeypatch):
        out = run_pinpoints("505.mcf_r", **QUICK)
        other_program = dataclasses.replace(
            out,
            program=build_program("505.mcf_r", mean_run_length=3, **QUICK),
        )
        pinball = RegionalPinball(
            recipe=out.whole.recipe, region_start=5, region_length=1,
            weight=0.5, warmup_slices=2,
        )
        variants = [
            dataclasses.replace(pinball, **change) for change in (
                {"region_start": 6}, {"region_length": 3},
                {"warmup_slices": 3}, {"weight": 0.25},
            )
        ]
        calls = [
            lambda: measure_points(out, [pinball]),
            lambda: measure_points(out, [pinball], with_warmup=True),
            lambda: measure_points(other_program, [pinball]),
            lambda: measure_whole(out),
            lambda: measure_whole(other_program),
        ]
        calls += [lambda p=p: measure_points(out, [p]) for p in variants]
        for config in _geometries(ALLCACHE_SIM):
            calls.append(
                lambda c=config: measure_points(out, [pinball], config=c)
            )
            calls.append(lambda c=config: measure_whole(out, config=c))
        keys = memo_keys(monkeypatch, *calls)
        assert len(set(keys)) == len(keys) == 5 + 4 + 2 * 9

    def test_metrics_key_resolves_the_default_hierarchy(self, monkeypatch):
        out = run_pinpoints("505.mcf_r", **QUICK)
        default, explicit = memo_keys(
            monkeypatch,
            lambda: measure_whole(out),
            lambda: measure_whole(out, config=ALLCACHE_SIM),
        )
        assert default == explicit


class TestPinnedDigests:
    """Content addresses recorded before dataclasses were canonicalized
    by walking their fields: a changed digest would orphan every stored
    artifact, so each kind's is pinned (under a fixed version)."""

    RECIPE = ProgramRecipe(benchmark="505.mcf_r", slice_size=3000,
                           total_slices=120)

    def test_pipeline_key(self):
        call = inspect.signature(run_pinpoints).bind("505.mcf_r")
        call.apply_defaults()
        assert artifact_key("pinpoints", call.arguments, version="0") == (
            "6fd48ec44a34700ae8d1dfea2bd5d846072fcb88f40f0593485405ac1220f30d"
        )

    def test_metrics_key_with_pinballs(self):
        pinballs = [
            RegionalPinball(recipe=self.RECIPE, region_start=7,
                            region_length=1, weight=0.625, warmup_slices=17),
            RegionalPinball(recipe=self.RECIPE, region_start=40,
                            region_length=2, weight=0.375, warmup_slices=17),
        ]
        params = dict(
            benchmark="505.mcf_r", program="f" * 64,
            hierarchy=ALLCACHE_TABLE_I, run="points", pinballs=pinballs,
            with_warmup=True,
        )
        assert artifact_key("metrics", params, version="0") == (
            "15a7576a01282430b5a8a42a465c698073066353b83ca54ace63c5a659f611a5"
        )

    def test_item_key(self):
        params = {
            "worker": "repro.experiments.common.measure_benchmark",
            "item": "505.mcf_r",
            "bound": {"runs": tuple(common.RUN_TYPES), "config": ALLCACHE_SIM,
                      "pinpoints_kwargs": {}},
        }
        assert artifact_key("item", params, version="0") == (
            "ba3672ac6d84990a51dc6942b7b3c199b719a557e65b7e0bb274f84a06e22ebc"
        )

    def test_memo_keys_are_the_store_addresses(self):
        params = {"item": "505.mcf_r", "pinball": self.RECIPE}
        key = common.memo_key("item", params)
        assert key.digest == artifact_key("item", params, version=__version__)
        assert key.digest == ArtifactStore("unused").key("item", params)


class TestAddressOnce:
    """``memo`` derives each content address once and hands it to the
    store, which never canonicalizes the params again."""

    @pytest.fixture()
    def derived(self, tmp_path, monkeypatch, empty_memo):
        configure_cache(tmp_path / "store")
        kinds = []
        real = common.artifact_key

        def counted(kind, params, **kw):
            kinds.append(kind)
            return real(kind, params, **kw)

        def refuse(store, kind, params):
            raise AssertionError("the store re-derived an address")

        monkeypatch.setattr(common, "artifact_key", counted)
        monkeypatch.setattr(ArtifactStore, "key", refuse)
        return kinds

    def test_compute_recall_and_backfill(self, derived, tmp_path):
        assert common.memo("item", {"x": 1}, lambda: 7) == 7  # computed
        assert derived == ["item"]
        common._MEMO.clear()
        assert common.memo("item", {"x": 1}, lambda: 8) == 7  # stored
        configure_cache(tmp_path / "other")
        assert common.memo("item", {"x": 1}, lambda: 9) == 7  # backfilled
        assert common.get_store().get_pickle(
            "item", None, digest=common.memo_key("item", {"x": 1}).digest
        ) == 7
        assert derived == ["item"] * 4

    def test_measure_runs(self, derived):
        out = pinpoints_for("620.omnetpp_s", **QUICK)
        derived.clear()
        measure_runs(out, {"whole": WHOLE, "reduced": Run(tuple(out.reduced))})
        assert derived == ["metrics", "metrics"]


class TestDiskTier:
    """Two-tier behaviour: one memory dict in front of the artifact store."""

    def test_metrics_survive_a_memory_clear(self, tmp_path):
        configure_cache(tmp_path / "store")
        clear_pinpoints_cache()
        out = pinpoints_for("620.omnetpp_s", **QUICK)
        first = measure_whole(out)
        common._MEMO.clear()  # simulate a fresh process
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
        common._MEMO.clear()
        again = measure_points(out, out.reduced, with_warmup=True)
        assert again is not first
        assert again.miss_rates == first.miss_rates

    def test_pipeline_bundles_survive_a_memory_clear(self, tmp_path):
        configure_cache(tmp_path / "store")
        clear_pinpoints_cache()
        first = pinpoints_for("620.omnetpp_s", **QUICK)
        common._MEMO.clear()
        again = pinpoints_for("620.omnetpp_s", **QUICK)
        assert again is not first
        assert again.benchmark == first.benchmark
        assert again.simpoints.num_points == first.simpoints.num_points
        assert np.array_equal(
            measure_whole(again).mix, measure_whole(first).mix
        )

    def test_malformed_stored_metrics_recompute(self, tmp_path, monkeypatch):
        # A checksum-intact payload that no longer fits RunMetrics is a
        # miss: recomputed and overwritten, not a KeyError.
        configure_cache(tmp_path / "store")
        clear_pinpoints_cache()
        out = pinpoints_for("620.omnetpp_s", **QUICK)
        store = common.get_store()
        puts = []
        put_json = store.put_json
        monkeypatch.setattr(
            store, "put_json",
            lambda *args, **kw: puts.append(args) or put_json(*args, **kw),
        )
        first = measure_whole(out)
        [(kind, params, payload)] = puts
        broken = {k: v for k, v in payload.items() if k != "l3_accesses"}
        ArtifactStore(store.root).put_json(kind, params, broken)
        common._MEMO.clear()
        again = measure_whole(out)
        assert again is not first
        assert again.l3_accesses == first.l3_accesses
        assert again.miss_rates == first.miss_rates
        assert store.get_json(kind, params) == payload

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
