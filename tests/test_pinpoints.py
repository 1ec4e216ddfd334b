"""End-to-end PinPoints pipeline."""

import numpy as np
import pytest

from repro import telemetry
from repro.cache import _native
from repro.pinball import RegionalPinball, WholePinball
from repro.pinpoints import run_pinpoints
from repro.workloads import slicecache
from repro.workloads.spec2017 import get_descriptor

from conftest import QUICK


class TestPipeline:
    def test_output_structure(self, quick_pinpoints):
        out = quick_pinpoints
        assert out.benchmark == "620.omnetpp_s"
        assert isinstance(out.whole, WholePinball)
        assert all(isinstance(p, RegionalPinball) for p in out.regional)
        assert out.whole.num_slices == QUICK["total_slices"]

    def test_one_pinball_per_point(self, quick_pinpoints):
        out = quick_pinpoints
        assert len(out.regional) == out.simpoints.num_points

    def test_reduced_subset_of_regional(self, quick_pinpoints):
        out = quick_pinpoints
        regional_starts = {p.region_start for p in out.regional}
        reduced_starts = {p.region_start for p in out.reduced}
        assert reduced_starts <= regional_starts
        assert len(out.reduced) <= len(out.regional)

    def test_reduced_covers_ninety_percent(self, quick_pinpoints):
        covered = sum(p.weight for p in quick_pinpoints.reduced)
        assert covered >= 0.9

    def test_weights_sum_to_one(self, quick_pinpoints):
        total = sum(p.weight for p in quick_pinpoints.regional)
        assert total == pytest.approx(1.0)

    def test_recovers_table2_counts_quick(self, quick_pinpoints):
        descriptor = get_descriptor("620.omnetpp_s")
        assert quick_pinpoints.simpoints.k == descriptor.num_phases
        assert len(quick_pinpoints.reduced) == descriptor.num_90pct

    def test_points_are_valid_slices(self, quick_pinpoints):
        out = quick_pinpoints
        for point in out.simpoints.points:
            assert 0 <= point.slice_index < out.program.num_slices

    def test_custom_percentile(self):
        out = run_pinpoints("557.xz_r", percentile=0.5, **QUICK)
        covered = sum(p.weight for p in out.reduced)
        assert covered >= 0.5
        assert len(out.reduced) < len(out.regional)

    def test_warmup_slices_override(self):
        out = run_pinpoints("620.omnetpp_s", warmup_slices=3, **QUICK)
        assert all(p.warmup_slices == 3 for p in out.regional)

    def test_replayer_shares_program(self, quick_pinpoints):
        replayer = quick_pinpoints.replayer()
        assert replayer._resolve(quick_pinpoints.whole) is \
            quick_pinpoints.program

    def test_short_name_accepted(self):
        out = run_pinpoints("omnetpp_s", **QUICK)
        assert out.benchmark == "620.omnetpp_s"


class TestStagedProfiling:
    """BBV profiling draws slice headers; only MAV needs full slices."""

    @pytest.fixture(autouse=True)
    def _cold_memo(self):
        slicecache.reset_slice_cache()
        yield
        slicecache.reset_slice_cache()

    def _slice_counters(self, **kwargs):
        recorder = telemetry.TraceRecorder()
        with telemetry.using_recorder(recorder):
            out = run_pinpoints("505.mcf_r", **QUICK, **kwargs)
        counters = {
            name: value for name, value in recorder.metrics.counters.items()
            if name.startswith("slice.")
        }
        return out, counters

    def test_default_sampler_draws_no_full_slice(self):
        out, counters = self._slice_counters()
        assert counters == {"slice.header.miss": out.program.num_slices}

    def test_mav_sampler_draws_full_slices(self):
        out, counters = self._slice_counters(sampler="mav")
        path = "numpy" if _native.load_kernel() is None else "native"
        assert counters == {
            "slice.cache.miss": out.program.num_slices,
            f"slice.body{{path={path}}}": out.program.num_slices,
        }
        assert out.features.mav is not None

    def test_headers_and_full_slices_give_one_bbv_matrix(self):
        by_headers, _ = self._slice_counters()
        slicecache.reset_slice_cache()
        by_slices, _ = self._slice_counters(sampler="mav")
        np.testing.assert_array_equal(
            by_headers.features.bbv, by_slices.features.bbv
        )
