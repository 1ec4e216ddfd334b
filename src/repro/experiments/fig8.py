"""Figure 8: cache miss rates — Whole / Regional / Reduced / Warmup runs.

The paper's numbers (suite averages, vs the Whole Run): Regional runs are
+0.18 pp (L1D), +0.10 pp (L2) and +25.16 pp (L3); Reduced runs +2.23 /
+0.33 / +25.53 pp; warming the caches for 500 M cycles before each point
drops the L3 error from 25.16 to 9.08 pp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.common import (
    LEVELS,
    RunMetrics,
    map_benchmarks,
    require_rows,
)
from repro.experiments.registry import experiment, renders
from repro.experiments.report import format_table


@dataclass
class Fig8Row:
    """Four run types' cache profiles for one benchmark."""

    benchmark: str
    whole: RunMetrics
    regional: RunMetrics
    reduced: RunMetrics
    warmup: RunMetrics

    def delta_pp(self, run: str, level: str) -> float:
        """Miss-rate delta of ``run`` vs the Whole Run, in pp."""
        metrics: RunMetrics = getattr(self, run)
        return (metrics.miss_rates[level] - self.whole.miss_rates[level]) * 100


@dataclass
class Fig8Result:
    """Suite-wide cache miss-rate comparison."""

    rows: List[Fig8Row]

    def average_delta_pp(self, run: str, level: str) -> float:
        """Suite-average miss-rate delta of ``run`` vs Whole, in pp."""
        rows = require_rows(self.rows, "Figure 8 suite-average delta")
        return sum(r.delta_pp(run, level) for r in rows) / len(rows)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """All suite-average deltas, keyed by run then level."""
        return {
            run: {lv: self.average_delta_pp(run, lv) for lv in LEVELS}
            for run in ("regional", "reduced", "warmup")
        }


@experiment(
    "fig8",
    result=Fig8Result,
    paper_ref="Figure 8 — cache miss rates across four run types",
    supports_benchmarks=True,
    supports_jobs=True,
    supports_sampler=True,
)
def run_fig8(
    benchmarks: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
    **pinpoints_kwargs,
) -> Fig8Result:
    """Measure the four run types on the Table I (scaled) hierarchy.

    ``jobs`` fans the per-benchmark work across worker processes (1 =
    serial, 0/None = one per core); results are order-stable, so the
    rendered figure is identical for any value.
    """
    measured = map_benchmarks(
        benchmarks,
        runs=("whole", "regional", "reduced", "warmup"),
        jobs=jobs,
        **pinpoints_kwargs,
    )
    rows = [
        Fig8Row(
            benchmark=m["benchmark"],
            whole=m["whole"],
            regional=m["regional"],
            reduced=m["reduced"],
            warmup=m["warmup"],
        )
        for m in measured
    ]
    return Fig8Result(rows=rows)


@renders("fig8")
def render_fig8(result: Fig8Result) -> str:
    """Render per-benchmark miss rates and the suite-average deltas."""
    rows = []
    for r in result.rows:
        cells = [r.benchmark]
        for lv in LEVELS:
            cells.append(f"{r.whole.miss_rates[lv] * 100:.1f}")
            cells.append(f"{r.delta_pp('regional', lv):+.2f}")
            cells.append(f"{r.delta_pp('warmup', lv):+.2f}")
        rows.append(cells)
    headers = ["Benchmark"]
    for lv in LEVELS:
        headers += [f"{lv} whole%", f"{lv} cold(pp)", f"{lv} warm(pp)"]
    table = format_table(
        headers, rows,
        title="Figure 8 -- cache miss rates vs Whole Run",
    )
    s = result.summary()
    summary = (
        "\nSuite-average deltas vs Whole (pp):"
        f"\n  Regional: L1D {s['regional']['L1D']:+.2f},"
        f" L2 {s['regional']['L2']:+.2f}, L3 {s['regional']['L3']:+.2f}"
        f"   (paper: +0.18 / +0.10 / +25.16)"
        f"\n  Reduced : L1D {s['reduced']['L1D']:+.2f},"
        f" L2 {s['reduced']['L2']:+.2f}, L3 {s['reduced']['L3']:+.2f}"
        f"   (paper: +2.23 / +0.33 / +25.53)"
        f"\n  Warmup  : L1D {s['warmup']['L1D']:+.2f},"
        f" L2 {s['warmup']['L2']:+.2f}, L3 {s['warmup']['L3']:+.2f}"
        f"   (paper L3: 25.16 -> 9.08)"
    )
    return table + summary
