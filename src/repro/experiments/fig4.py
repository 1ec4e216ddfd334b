"""Figure 4: average within-cluster variance vs number of clusters.

Forcing fewer clusters than a benchmark has phases makes dissimilar
slices share clusters; the average per-cluster BBV variance quantifies
the resulting loss of representativeness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.common import map_items, pinpoints_for, resolve_benchmarks
from repro.experiments.registry import experiment, renders
from repro.experiments.report import format_bar, format_table
from repro.simpoint.simpoints import SimPointAnalysis
from repro.simpoint.variance import variance_sweep
from repro.workloads.spec2017 import get_descriptor

#: Cluster counts swept (the paper plots decreasing cluster budgets).
K_VALUES = (5, 10, 15, 20, 25, 30, 35)


@dataclass
class Fig4Result:
    """Per-benchmark variance curves."""

    k_values: List[int]
    curves: Dict[str, Dict[int, float]]


def _benchmark_curve(
    name: str, k_values: Tuple[int, ...], pinpoints_kwargs: dict
) -> Tuple[str, Dict[int, float]]:
    """One benchmark's variance curve (process-pool worker unit)."""
    descriptor = get_descriptor(name)
    out = pinpoints_for(name, **pinpoints_kwargs)
    analysis = SimPointAnalysis(seed=descriptor.seed)
    usable = [k for k in k_values if k <= out.program.num_slices]
    return descriptor.spec_id, variance_sweep(
        out.features.bbv, usable, analysis
    )


@experiment(
    "fig4",
    result=Fig4Result,
    paper_ref="Figure 4 — within-cluster variance vs cluster count",
    supports_benchmarks=True,
    supports_jobs=True,
)
def run_fig4(
    benchmarks: Optional[Sequence[str]] = None,
    k_values: Sequence[int] = K_VALUES,
    jobs: Optional[int] = None,
    **pinpoints_kwargs,
) -> Fig4Result:
    """Sweep forced cluster counts and record average cluster variance.

    ``jobs`` fans the per-benchmark work across worker processes (1 =
    serial, 0/None = one per core); output is order-stable.
    """
    measured = map_items(
        _benchmark_curve,
        resolve_benchmarks(benchmarks),
        jobs=jobs,
        k_values=tuple(int(k) for k in k_values),
        pinpoints_kwargs=dict(pinpoints_kwargs),
    )
    return Fig4Result(k_values=list(k_values), curves=dict(measured))


@renders("fig4")
def render_fig4(result: Fig4Result) -> str:
    """Render the variance curves as a table plus a bar sketch."""
    headers = ["Benchmark"] + [f"k={k}" for k in result.k_values]
    rows = []
    for name, curve in result.curves.items():
        rows.append(
            [name] + [
                f"{curve[k] * 1e3:.3f}" if k in curve else "-"
                for k in result.k_values
            ]
        )
    table = format_table(
        headers, rows,
        title="Figure 4 -- avg within-cluster variance (x1e-3) vs cluster count",
    )
    # A small sketch for the first benchmark to show the monotone shape.
    if result.curves:
        name, curve = next(iter(result.curves.items()))
        peak = max(curve.values()) or 1.0
        sketch = [f"\n{name}:"]
        for k in sorted(curve):
            sketch.append(f"  k={k:>2}  {format_bar(curve[k], peak)}")
        table += "\n".join(sketch)
    return table
