"""Experiment drivers on quick configurations.

These tests run every table/figure driver end-to-end on a small subset
with reduced workload sizes and assert the *structural* claims each
experiment exists to show.  Full-suite, full-size reproduction happens in
the benchmark harness and test_integration.py.
"""

import numpy as np
import pytest

from repro.experiments import (
    render_fig3,
    render_fig4,
    render_fig5,
    render_fig6,
    render_fig7,
    render_fig8,
    render_fig9,
    render_fig10,
    render_fig12,
    render_table2,
    run_fig3_maxk,
    run_fig3_slice_size,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10,
    run_fig12,
    run_table2,
)
from repro.experiments.common import LEVELS, clear_pinpoints_cache

from conftest import QUICK

#: Small suite subset used by every quick experiment test.
SUBSET = ["620.omnetpp_s", "557.xz_r"]


@pytest.fixture(autouse=True, scope="module")
def _fresh_cache():
    clear_pinpoints_cache()
    yield
    clear_pinpoints_cache()


class TestTable2:
    def test_quick_subset_matches(self):
        result = run_table2(SUBSET, **QUICK)
        assert len(result.rows) == 2
        assert result.mismatches == []

    def test_render(self):
        result = run_table2(SUBSET, **QUICK)
        text = render_table2(result)
        assert "620.omnetpp_s" in text
        assert "Average" in text


class TestFig3:
    def test_maxk_sweep_shapes(self):
        result = run_fig3_maxk(
            "557.xz_r", maxk_values=(4, 13), **QUICK
        )
        assert [p.setting for p in result.points] == [4.0, 13.0]
        # Starved MaxK must not exceed its cap.
        assert result.points[0].chosen_k <= 4
        # Starving the clusters hurts the mix accuracy.
        assert result.points[0].mix_error_pp >= result.points[1].mix_error_pp

    def test_slice_size_sweep(self):
        result = run_fig3_slice_size("620.omnetpp_s", slice_sizes_m=(15, 30))
        assert len(result.points) == 2
        for point in result.points:
            assert point.metrics.instructions > 0

    def test_render(self):
        result = run_fig3_maxk("557.xz_r", maxk_values=(13,), **QUICK)
        assert "MaxK" in render_fig3(result)


class TestFig4:
    def test_variance_decreases(self):
        result = run_fig4(SUBSET, k_values=(2, 8, 16), **QUICK)
        for curve in result.curves.values():
            assert curve[2] >= curve[16]

    def test_render(self):
        result = run_fig4(["620.omnetpp_s"], k_values=(2, 4), **QUICK)
        assert "Figure 4" in render_fig4(result)


class TestFig5:
    def test_reductions_in_paper_regime(self):
        result = run_fig5(SUBSET, **QUICK)
        # Shape claims: large reductions, reduced > regional.
        assert result.instruction_reduction > 50
        assert result.reduced_instruction_reduction > \
            result.instruction_reduction
        assert result.time_reduction > 50
        assert result.regional_to_reduced_instructions > 1.0

    def test_per_row_consistency(self):
        result = run_fig5(SUBSET, **QUICK)
        for row in result.rows:
            assert row.whole.instructions > row.regional.instructions
            assert row.regional.instructions >= row.reduced.instructions

    def test_render(self):
        assert "paper ~650x" in render_fig5(run_fig5(SUBSET, **QUICK))


class TestFig6:
    def test_weights_descend_and_sum_to_one(self):
        result = run_fig6(SUBSET, **QUICK)
        for row in result.rows:
            assert row.weights == sorted(row.weights, reverse=True)
            assert sum(row.weights) == pytest.approx(1.0)

    def test_cut_consistent_with_weights(self):
        result = run_fig6(SUBSET, **QUICK)
        for row in result.rows:
            covered = sum(row.weights[: row.cut])
            assert covered >= 0.9
            assert sum(row.weights[: row.cut - 1]) < 0.9

    def test_render(self):
        assert "90% cut" in render_fig6(run_fig6(["557.xz_r"], **QUICK))


class TestFig7:
    def test_mix_errors_small(self):
        result = run_fig7(SUBSET, **QUICK)
        # The paper's bound is < 1 pp; quick configs stay within a few pp.
        assert result.max_regional_error_pp < 3.0
        assert result.max_reduced_error_pp < 5.0

    def test_mixes_normalized(self):
        result = run_fig7(SUBSET, **QUICK)
        for row in result.rows:
            for mix in (row.whole, row.regional, row.reduced):
                assert mix.sum() == pytest.approx(1.0)

    def test_render(self):
        assert "NO_MEM" in render_fig7(run_fig7(SUBSET, **QUICK))


class TestFig8:
    def test_l3_error_dominates_and_warmup_helps(self):
        result = run_fig8(SUBSET, **QUICK)
        regional_l3 = result.average_delta_pp("regional", "L3")
        warmup_l3 = result.average_delta_pp("warmup", "L3")
        regional_l1 = abs(result.average_delta_pp("regional", "L1D"))
        # Cold L3 error is large, far above L1D, and warmup reduces it.
        assert regional_l3 > 5.0
        assert regional_l3 > regional_l1
        assert warmup_l3 < regional_l3

    def test_summary_structure(self):
        result = run_fig8(SUBSET, **QUICK)
        summary = result.summary()
        assert set(summary) == {"regional", "reduced", "warmup"}
        assert set(summary["regional"]) == set(LEVELS)

    def test_render(self):
        assert "paper" in render_fig8(run_fig8(["620.omnetpp_s"], **QUICK))


class TestFig9:
    def test_error_decreases_with_percentile(self):
        result = run_fig9(SUBSET, percentiles=(0.5, 0.9, 1.0), **QUICK)
        by_pct = result.by_percentile()
        assert by_pct[1.0].mix_error_pp <= by_pct[0.5].mix_error_pp + 0.5
        assert by_pct[0.5].execution_hours < by_pct[1.0].execution_hours
        assert by_pct[0.5].points_retained < by_pct[1.0].points_retained

    def test_render(self):
        result = run_fig9(SUBSET, percentiles=(0.9, 1.0), **QUICK)
        assert "percentile" in render_fig9(result)


class TestFig10:
    def test_whole_exercises_l3_more(self):
        result = run_fig10(SUBSET, **QUICK)
        for row in result.rows:
            assert row.whole > row.regional >= row.reduced
        assert result.average_ratio > 2

    def test_render(self):
        assert "L3" in render_fig10(run_fig10(SUBSET, **QUICK))


class TestFig12:
    def test_cpi_errors_bounded(self):
        result = run_fig12(SUBSET, **QUICK)
        assert 0 < result.average_regional_error_pct < 25
        for row in result.rows:
            assert row.native_cpi > 0
            assert row.regional_cpi > 0

    def test_outlier_reported(self):
        result = run_fig12(SUBSET, **QUICK)
        assert result.worst_outlier.benchmark in SUBSET

    def test_render(self):
        assert "2.59" in render_fig12(run_fig12(SUBSET, **QUICK))

    def test_each_regional_pinball_is_simulated_once(self, empty_memo):
        """The Reduced CPI reuses the regional timings of its pinballs:
        one Sniper region per regional pinball, plus the native run."""
        from repro.experiments.common import pinpoints_for
        from repro.experiments.fig12 import _benchmark_cpi
        from repro.telemetry.recorder import TraceRecorder, using_recorder

        out = pinpoints_for("557.xz_r", **QUICK)
        assert len(out.reduced) < len(out.regional)
        recorder = TraceRecorder()
        with using_recorder(recorder):
            _benchmark_cpi("557.xz_r", dict(QUICK))
        regions = recorder.metrics.counters["sniper.regions"]
        assert regions == len(out.regional) + 1
