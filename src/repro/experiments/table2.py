"""Table II: simulation points per benchmark and the 90th-percentile cut."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.experiments.common import map_benchmarks, require_rows
from repro.experiments.registry import experiment, renders
from repro.experiments.report import format_table
from repro.workloads.spec2017 import get_descriptor


@dataclass
class Table2Row:
    """One benchmark's measured and published point counts."""

    benchmark: str
    points: int
    points_90: int
    paper_points: int
    paper_points_90: int

    @property
    def matches_paper(self) -> bool:
        """Whether both measured counts equal the published ones."""
        return (
            self.points == self.paper_points
            and self.points_90 == self.paper_points_90
        )


@dataclass
class Table2Result:
    """Full Table II reproduction."""

    rows: List[Table2Row]

    @property
    def average_points(self) -> float:
        """Suite-average number of simulation points."""
        rows = require_rows(self.rows, "Table II average points")
        return sum(r.points for r in rows) / len(rows)

    @property
    def average_points_90(self) -> float:
        """Suite-average number of 90th-percentile points."""
        rows = require_rows(self.rows, "Table II average 90pct points")
        return sum(r.points_90 for r in rows) / len(rows)

    @property
    def mismatches(self) -> List[str]:
        """Benchmarks whose counts deviate from the published table."""
        return [r.benchmark for r in self.rows if not r.matches_paper]


@experiment(
    "table2",
    result=Table2Result,
    paper_ref="Table II — simulation points per benchmark",
    supports_benchmarks=True,
    supports_jobs=True,
)
def run_table2(
    benchmarks: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
    **pinpoints_kwargs,
) -> Table2Result:
    """Measure simulation-point counts for the suite (Table II).

    Args:
        benchmarks: Benchmarks to include (default: all of Table II).
        jobs: Worker processes for the per-benchmark fan-out (1 =
            serial, 0/None = one per core); output is order-stable.
        **pinpoints_kwargs: Forwarded to the PinPoints pipeline (used by
            quick test configurations).
    """
    measured = map_benchmarks(benchmarks, jobs=jobs, **pinpoints_kwargs)
    rows = []
    for m in measured:
        descriptor = get_descriptor(m["benchmark"])
        rows.append(
            Table2Row(
                benchmark=descriptor.spec_id,
                points=m["num_points"],
                points_90=m["num_points_90"],
                paper_points=descriptor.num_phases,
                paper_points_90=descriptor.num_90pct,
            )
        )
    return Table2Result(rows=rows)


@renders("table2")
def render_table2(result: Table2Result) -> str:
    """Render the measured Table II next to the published values."""
    rows = [
        (
            r.benchmark,
            r.points,
            r.points_90,
            r.paper_points,
            r.paper_points_90,
            "yes" if r.matches_paper else "NO",
        )
        for r in result.rows
    ]
    rows.append(
        (
            "Average",
            f"{result.average_points:.2f}",
            f"{result.average_points_90:.2f}",
            "19.75",
            "11.31",
            "",
        )
    )
    return format_table(
        ["Benchmark", "SimPoints", "90pct pts", "paper", "paper 90pct", "match"],
        rows,
        title="Table II -- SPEC CPU2017 simulation points",
    )
