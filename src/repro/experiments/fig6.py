"""Figure 6: weight of each simulation point, per benchmark.

Each benchmark's points are shown in descending weight order with the
90 %-coverage cut marked — the paper's stacked-bar figure in table form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.common import map_items, pinpoints_for, resolve_benchmarks
from repro.experiments.registry import experiment, renders
from repro.experiments.report import format_bar, format_table
from repro.simpoint.reduction import reduce_to_percentile


@dataclass
class Fig6Row:
    """Weights and cut for one benchmark."""

    benchmark: str
    weights: List[float]
    cut: int

    @property
    def dominant_weight(self) -> float:
        """Weight of the heaviest simulation point."""
        return self.weights[0]

    @property
    def top3_weight(self) -> float:
        """Combined weight of the three heaviest points."""
        return sum(self.weights[:3])


@dataclass
class Fig6Result:
    """Suite-wide weight profiles."""

    rows: List[Fig6Row]

    def by_benchmark(self) -> Dict[str, Fig6Row]:
        """Rows keyed by benchmark name."""
        return {r.benchmark: r for r in self.rows}


def _benchmark_weights(
    name: str, percentile: float, pinpoints_kwargs: dict
) -> Fig6Row:
    """One benchmark's weight profile (process-pool worker unit)."""
    out = pinpoints_for(name, **pinpoints_kwargs)
    ordered = out.simpoints.sorted_by_weight()
    cut = len(reduce_to_percentile(out.simpoints.points, percentile))
    return Fig6Row(
        benchmark=out.benchmark,
        weights=[p.weight for p in ordered],
        cut=cut,
    )


@experiment(
    "fig6",
    result=Fig6Result,
    paper_ref="Figure 6 — simulation-point weights per benchmark",
    supports_benchmarks=True,
    supports_jobs=True,
)
def run_fig6(
    benchmarks: Optional[Sequence[str]] = None,
    percentile: float = 0.9,
    jobs: Optional[int] = None,
    **pinpoints_kwargs,
) -> Fig6Result:
    """Collect per-benchmark point weights and the coverage cut.

    ``jobs`` fans the per-benchmark work across worker processes (1 =
    serial, 0/None = one per core); output is order-stable.
    """
    rows = map_items(
        _benchmark_weights,
        resolve_benchmarks(benchmarks),
        jobs=jobs,
        percentile=percentile,
        pinpoints_kwargs=dict(pinpoints_kwargs),
    )
    return Fig6Result(rows=rows)


@renders("fig6")
def render_fig6(result: Fig6Result) -> str:
    """Render weight profiles; '|' marks the 90th-percentile cut."""
    rows = []
    for r in result.rows:
        profile = " ".join(
            f"{w * 100:.0f}" + ("|" if i + 1 == r.cut else "")
            for i, w in enumerate(r.weights)
        )
        rows.append(
            (r.benchmark, len(r.weights), r.cut,
             f"{r.dominant_weight * 100:.0f}%", f"{r.top3_weight * 100:.0f}%",
             profile)
        )
    table = format_table(
        ["Benchmark", "points", "90pct", "top-1", "top-3",
         "weights (%) with cut"],
        rows,
        title="Figure 6 -- simulation-point weights (descending)",
    )
    sketch_rows = []
    for r in result.rows[:1]:
        for i, w in enumerate(r.weights):
            marker = " <- 90% cut" if i + 1 == r.cut else ""
            sketch_rows.append(
                f"  pt{i:>2} {format_bar(w, r.weights[0])} "
                f"{w * 100:.1f}%{marker}"
            )
        table += f"\n\n{r.benchmark}:\n" + "\n".join(sketch_rows)
    return table
