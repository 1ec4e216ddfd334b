"""Figure 10: number of L3 accesses, Whole vs Regional vs Reduced.

The discrepancy in LLC miss rates (Fig 8) is explained by the reduced
number of L3 accesses in the sampled runs: fewer instructions reach the
LLC, so cold misses dominate the rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.experiments.common import map_benchmarks
from repro.experiments.registry import experiment, renders
from repro.experiments.report import format_table


@dataclass
class Fig10Row:
    """L3 access counts of the three run types."""

    benchmark: str
    whole: int
    regional: int
    reduced: int

    @property
    def whole_to_regional(self) -> float:
        """Whole/Regional L3-access ratio."""
        if self.regional == 0:
            return float("inf")
        return self.whole / self.regional


@dataclass
class Fig10Result:
    """Suite-wide L3 access-count comparison."""

    rows: List[Fig10Row]

    @property
    def average_ratio(self) -> float:
        """Suite-average Whole/Regional L3-access ratio."""
        finite = [r.whole_to_regional for r in self.rows
                  if r.whole_to_regional != float("inf")]
        return sum(finite) / len(finite) if finite else float("inf")


@experiment(
    "fig10",
    result=Fig10Result,
    paper_ref="Figure 10 — L3 cache accesses per run type",
    supports_benchmarks=True,
    supports_jobs=True,
    supports_sampler=True,
)
def run_fig10(
    benchmarks: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
    **pinpoints_kwargs,
) -> Fig10Result:
    """Count L3 accesses for the three run types.

    ``jobs`` fans the per-benchmark work across worker processes (1 =
    serial, 0/None = one per core); output is order-stable.
    """
    measured = map_benchmarks(
        benchmarks, runs=("whole", "regional", "reduced"), jobs=jobs,
        **pinpoints_kwargs,
    )
    rows = [
        Fig10Row(
            benchmark=m["benchmark"],
            whole=m["whole"].l3_accesses,
            regional=m["regional"].l3_accesses,
            reduced=m["reduced"].l3_accesses,
        )
        for m in measured
    ]
    return Fig10Result(rows=rows)


@renders("fig10")
def render_fig10(result: Fig10Result) -> str:
    """Render L3 access counts and the Whole/Regional ratio."""
    rows = [
        (r.benchmark, r.whole, r.regional, r.reduced,
         f"{r.whole_to_regional:.0f}x")
        for r in result.rows
    ]
    table = format_table(
        ["Benchmark", "whole L3 acc", "regional", "reduced", "whole/regional"],
        rows,
        title="Figure 10 -- L3 cache accesses per run type",
    )
    return table + (
        f"\nSuite-average Whole/Regional L3-access ratio:"
        f" {result.average_ratio:.0f}x (sampled runs exercise the LLC far"
        f" less, explaining the Fig 8 L3 miss-rate error)"
    )
