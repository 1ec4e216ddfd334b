"""Figure 12: CPI — native hardware (perf) vs Sniper on simulation points.

The paper runs each benchmark natively on an i7-3770 (perf counters) and
in Sniper (Table III model) on Regional / Reduced Regional pinballs; the
average CPI error of the Regional runs is 2.59 %, Reduced runs deviate
13.9 % on average, and cactuBSSN_r is called out as the worst outlier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.experiments.common import (
    map_items,
    pinpoints_for,
    require_rows,
    resolve_benchmarks,
)
from repro.experiments.registry import experiment, renders
from repro.experiments.report import format_table
from repro.perf.native import NativeMachine
from repro.sniper.core import SniperSimulator
from repro.stats.compare import weighted_average


@dataclass
class Fig12Row:
    """CPI of the three setups for one benchmark."""

    benchmark: str
    native_cpi: float
    regional_cpi: float
    reduced_cpi: float

    @property
    def regional_error_pct(self) -> float:
        """|Sniper-Regional - native| / native, in percent."""
        return abs(self.regional_cpi - self.native_cpi) / self.native_cpi * 100

    @property
    def reduced_error_pct(self) -> float:
        """|Sniper-Reduced - native| / native, in percent."""
        return abs(self.reduced_cpi - self.native_cpi) / self.native_cpi * 100


@dataclass
class Fig12Result:
    """Suite-wide CPI validation."""

    rows: List[Fig12Row]

    @property
    def average_regional_error_pct(self) -> float:
        """Suite-average Regional CPI error (paper: 2.59 %)."""
        rows = require_rows(self.rows, "Figure 12 suite-average error")
        return float(np.mean([r.regional_error_pct for r in rows]))

    @property
    def average_reduced_error_pct(self) -> float:
        """Suite-average Reduced CPI deviation (paper: 13.9 %)."""
        rows = require_rows(self.rows, "Figure 12 suite-average deviation")
        return float(np.mean([r.reduced_error_pct for r in rows]))

    @property
    def worst_outlier(self) -> Fig12Row:
        """Benchmark with the largest Reduced deviation."""
        rows = require_rows(self.rows, "Figure 12 worst outlier")
        return max(rows, key=lambda r: r.reduced_error_pct)


def _benchmark_cpi(
    name: str,
    native: Optional[NativeMachine],
    simulator: Optional[SniperSimulator],
    pinpoints_kwargs: dict,
) -> Fig12Row:
    """One benchmark's native-vs-Sniper CPI (process-pool worker unit).

    ``native``/``simulator`` default to the paper's configurations when
    ``None``; constructing them here keeps the task payload picklable.
    """
    native = native if native is not None else NativeMachine()
    simulator = simulator if simulator is not None else SniperSimulator()
    out = pinpoints_for(name, **pinpoints_kwargs)
    counters = native.run(out.program)

    def weighted_cpi(pinballs) -> float:
        cpis, weights = [], []
        for pb in pinballs:
            timing = simulator.run_region(
                pb.replay_slices(out.program),
                warmup=pb.warmup_traces(out.program),
            )
            cpis.append(timing.cpi)
            weights.append(pb.weight)
        return weighted_average(cpis, weights)

    return Fig12Row(
        benchmark=out.benchmark,
        native_cpi=counters.cpi,
        regional_cpi=weighted_cpi(out.regional),
        reduced_cpi=weighted_cpi(out.reduced),
    )


@experiment(
    "fig12",
    result=Fig12Result,
    paper_ref="Figure 12 — CPI: native (perf) vs Sniper",
    supports_benchmarks=True,
    supports_jobs=True,
    supports_sampler=True,
)
def run_fig12(
    benchmarks: Optional[Sequence[str]] = None,
    native: Optional[NativeMachine] = None,
    simulator: Optional[SniperSimulator] = None,
    jobs: Optional[int] = None,
    **pinpoints_kwargs,
) -> Fig12Result:
    """Compare native perf CPI against Sniper on simulation points.

    Sniper runs include the 500 M-instruction warmup before each point
    (the paper's Sniper methodology); CPI values are weight-averaged,
    which the paper's ground rule permits (CPI yes, IPC no).
    ``jobs`` fans the per-benchmark work across worker processes (1 =
    serial, 0/None = one per core); output is order-stable.
    """
    rows = map_items(
        _benchmark_cpi,
        resolve_benchmarks(benchmarks),
        jobs=jobs,
        native=native,
        simulator=simulator,
        pinpoints_kwargs=dict(pinpoints_kwargs),
    )
    return Fig12Result(rows=rows)


@renders("fig12")
def render_fig12(result: Fig12Result) -> str:
    """Render CPI per benchmark plus the suite-average errors."""
    rows = [
        (
            r.benchmark,
            f"{r.native_cpi:.3f}",
            f"{r.regional_cpi:.3f}",
            f"{r.reduced_cpi:.3f}",
            f"{r.regional_error_pct:.2f}%",
            f"{r.reduced_error_pct:.2f}%",
        )
        for r in result.rows
    ]
    table = format_table(
        ["Benchmark", "native CPI", "sniper regional", "sniper reduced",
         "regional err", "reduced dev"],
        rows,
        title="Figure 12 -- CPI: native (perf) vs Sniper on simulation points",
    )
    outlier = result.worst_outlier
    return table + (
        f"\nSuite averages: regional error"
        f" {result.average_regional_error_pct:.2f}% (paper: 2.59%),"
        f" reduced deviation {result.average_reduced_error_pct:.2f}%"
        f" (paper: 13.9%)"
        f"\nWorst reduced outlier: {outlier.benchmark}"
        f" ({outlier.reduced_error_pct:.2f}%)"
    )
