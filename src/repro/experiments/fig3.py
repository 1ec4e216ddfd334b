"""Figure 3: sensitivity of sampling accuracy to MaxK and slice size.

The paper sweeps MaxK in {15, 20, 25, 30, 35} at a 30 M slice, then slice
size in {15, 25, 30, 50, 100} M instructions at MaxK=35, on
``xalancbmk_s``, and compares instruction mix and cache miss rates of the
sampled runs against the full run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.experiments.common import (
    LEVELS,
    RunMetrics,
    measure_points,
    measure_whole,
    pinpoints_for,
)
from repro.experiments.registry import experiment, renders
from repro.experiments.report import format_table, pct
from repro.stats.compare import max_abs_percentage_points
from repro.workloads.scaling import (
    DEFAULT_SLICE_INSTRUCTIONS,
    DEFAULT_TOTAL_SLICES,
    PAPER_SLICE_INSTRUCTIONS,
    ScaleModel,
)

#: Paper sweep values.
MAXK_VALUES = (15, 20, 25, 30, 35)
SLICE_SIZES_M = (15, 25, 30, 50, 100)

#: The paper's sensitivity-study benchmark.
DEFAULT_BENCHMARK = "623.xalancbmk_s"


@dataclass
class SweepPoint:
    """One sweep setting's sampled-run profile and errors vs the full run."""

    setting: float
    chosen_k: int
    metrics: RunMetrics
    mix_error_pp: float
    miss_rate_error_pp: Dict[str, float] = field(default_factory=dict)


@dataclass
class Fig3Result:
    """One sweep (MaxK or slice size) against the full-run reference."""

    benchmark: str
    axis: str
    whole: RunMetrics
    points: List[SweepPoint]


@experiment(
    "fig3a",
    result=Fig3Result,
    paper_ref="Figure 3(a) — sampling accuracy vs MaxK",
    benchmark_option=DEFAULT_BENCHMARK,
)
def run_fig3_maxk(
    benchmark: str = DEFAULT_BENCHMARK,
    maxk_values: Sequence[int] = MAXK_VALUES,
    slice_size: int = DEFAULT_SLICE_INSTRUCTIONS,
    total_slices: int = DEFAULT_TOTAL_SLICES,
) -> Fig3Result:
    """Figure 3(a): vary MaxK at a fixed slice size."""
    reference = pinpoints_for(
        benchmark, slice_size=slice_size, total_slices=total_slices
    )
    whole = measure_whole(reference)
    points = []
    for maxk in maxk_values:
        out = pinpoints_for(
            benchmark, slice_size=slice_size, total_slices=total_slices,
            max_k=maxk,
        )
        metrics = measure_points(out, out.regional)
        points.append(_sweep_point(float(maxk), out.simpoints.k, metrics, whole))
    return Fig3Result(benchmark=benchmark, axis="MaxK", whole=whole, points=points)


@experiment(
    "fig3b",
    result=Fig3Result,
    paper_ref="Figure 3(b) — sampling accuracy vs slice size",
    benchmark_option=DEFAULT_BENCHMARK,
)
def run_fig3_slice_size(
    benchmark: str = DEFAULT_BENCHMARK,
    slice_sizes_m: Sequence[int] = SLICE_SIZES_M,
    max_k: int = 35,
) -> Fig3Result:
    """Figure 3(b): vary the slice size at MaxK=35.

    Slice sizes are the paper's, in millions of instructions; the total
    simulated instruction volume is held constant, so smaller slices mean
    more of them (exactly as in the paper, where the program length is
    fixed and the slicing granularity changes).
    """
    scale = ScaleModel()
    budget = DEFAULT_SLICE_INSTRUCTIONS * DEFAULT_TOTAL_SLICES
    results: List[SweepPoint] = []
    whole: Optional[RunMetrics] = None
    reference_m = PAPER_SLICE_INSTRUCTIONS // 1_000_000

    for size_m in slice_sizes_m:
        sim_slice = scale.sim_slice_for_paper_slice_size(size_m * 1_000_000)
        total = max(2, int(round(budget / sim_slice)))
        out = pinpoints_for(
            benchmark, slice_size=sim_slice, total_slices=total, max_k=max_k
        )
        if size_m == reference_m or whole is None:
            whole = measure_whole(out)
        metrics = measure_points(out, out.regional)
        results.append(
            _sweep_point(float(size_m), out.simpoints.k, metrics, whole)
        )

    # Recompute errors against the 30 M-slice full run (the reference).
    final = [
        _sweep_point(p.setting, p.chosen_k, p.metrics, whole) for p in results
    ]
    return Fig3Result(
        benchmark=benchmark, axis="slice size (M)", whole=whole, points=final
    )


def _sweep_point(
    setting: float, chosen_k: int, metrics: RunMetrics, whole: RunMetrics
) -> SweepPoint:
    return SweepPoint(
        setting=setting,
        chosen_k=chosen_k,
        metrics=metrics,
        mix_error_pp=max_abs_percentage_points(metrics.mix, whole.mix),
        miss_rate_error_pp={
            lv: (metrics.miss_rates[lv] - whole.miss_rates[lv]) * 100.0
            for lv in LEVELS
        },
    )


@renders("fig3a")
@renders("fig3b")
def render_fig3(result: Fig3Result) -> str:
    """Render one Fig 3 sweep as a table."""
    headers = [result.axis, "k", "NO_MEM", "MEM_R", "MEM_W", "MEM_RW",
               "mix err(pp)"] + [f"{lv} err(pp)" for lv in LEVELS]
    rows = [
        ["full run", "-"] + [pct(v) for v in result.whole.mix]
        + ["-", "-", "-", "-"]
    ]
    for p in result.points:
        rows.append(
            [f"{p.setting:g}", p.chosen_k]
            + [pct(v) for v in p.metrics.mix]
            + [f"{p.mix_error_pp:.3f}"]
            + [f"{p.miss_rate_error_pp[lv]:+.2f}" for lv in LEVELS]
        )
    return format_table(
        headers, rows,
        title=f"Figure 3 -- {result.axis} sensitivity, {result.benchmark}",
    )
