"""Extension experiment: projected Table II for the full 43-workload suite.

The paper checkpoints 29 of CPU2017's 43 workloads and leaves the rest
(dominated by the FP speed suite, whose logging took months) to future
work.  Here we run the identical PinPoints analysis on projected
stand-ins for the missing 14, producing the full-suite simulation-point
table.  Measured counts for the missing workloads validate the pipeline
against the *projections* (clearly not published data; see
``repro.workloads.future``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.experiments.common import map_items, pinpoints_for, require_rows
from repro.experiments.registry import experiment, renders
from repro.experiments.report import format_table
from repro.pin.engine import Engine
from repro.pin.tools.bbv import BBVProfiler
from repro.simpoint.reduction import reduce_to_percentile
from repro.simpoint.simpoints import SimPointAnalysis
from repro.workloads.future import FUTURE_WORK, get_future_descriptor
from repro.workloads.scaling import (
    DEFAULT_SLICE_INSTRUCTIONS,
    DEFAULT_TOTAL_SLICES,
)
from repro.workloads.spec2017 import SPEC_CPU2017, build_program_from_descriptor


def _full_suite_names() -> List[str]:
    """All 43 workload names: Table II plus future-work projections."""
    return list(SPEC_CPU2017) + list(FUTURE_WORK)


@dataclass
class FutureRow:
    """One workload's measured counts and their provenance."""

    benchmark: str
    points: int
    points_90: int
    reference_points: int
    reference_points_90: int
    projected: bool

    @property
    def consistent(self) -> bool:
        """Whether measured counts match the reference (table/projection)."""
        return (self.points == self.reference_points
                and self.points_90 == self.reference_points_90)


@dataclass
class FutureSuiteResult:
    """The full-suite table."""

    rows: List[FutureRow]

    @property
    def average_points(self) -> float:
        """Full-suite average simulation points."""
        rows = require_rows(self.rows, "full-suite average points")
        return sum(r.points for r in rows) / len(rows)

    @property
    def average_points_90(self) -> float:
        """Full-suite average 90th-percentile points."""
        rows = require_rows(self.rows, "full-suite average 90pct points")
        return sum(r.points_90 for r in rows) / len(rows)

    @property
    def projected_rows(self) -> List[FutureRow]:
        """Only the future-work (projected) rows."""
        return [r for r in self.rows if r.projected]


def _workload_points(
    name: str, slice_size: int, total_slices: int
) -> FutureRow:
    """One workload's simulation-point counts (process-pool worker unit)."""
    if name in SPEC_CPU2017:
        descriptor = SPEC_CPU2017[name]
        out = pinpoints_for(
            name, slice_size=slice_size, total_slices=total_slices
        )
        points = out.num_points
        points_90 = len(out.reduced)
        projected = False
    else:
        descriptor = get_future_descriptor(name)
        program = build_program_from_descriptor(
            descriptor, slice_size=slice_size, total_slices=total_slices
        )
        profiler = BBVProfiler(program.block_sizes)
        Engine([profiler]).run(program.iter_headers())
        analysis = SimPointAnalysis(seed=descriptor.seed)
        result = analysis.analyze(
            profiler.matrix(), profiler.slice_indices()
        )
        points = result.num_points
        points_90 = len(reduce_to_percentile(result.points))
        projected = True
    return FutureRow(
        benchmark=descriptor.spec_id,
        points=points,
        points_90=points_90,
        reference_points=descriptor.num_phases,
        reference_points_90=descriptor.num_90pct,
        projected=projected,
    )


@experiment(
    "table2-projected",
    result=FutureSuiteResult,
    paper_ref="Extension — projected full-suite simulation points",
    supports_benchmarks=True,
    supports_jobs=True,
    benchmark_universe=_full_suite_names,
)
def run_future_suite(
    benchmarks: Optional[Sequence[str]] = None,
    slice_size: int = DEFAULT_SLICE_INSTRUCTIONS,
    total_slices: int = DEFAULT_TOTAL_SLICES,
    jobs: Optional[int] = None,
) -> FutureSuiteResult:
    """Measure simulation points across all 43 workloads.

    Args:
        benchmarks: Optional subset (full or short names, projected or
            published); defaults to the whole 43-workload suite.
        jobs: Worker processes for the per-workload fan-out (1 = serial,
            0/None = one per core); output is order-stable.
    """
    names = _full_suite_names() if benchmarks is None else list(benchmarks)
    rows = map_items(
        _workload_points,
        names,
        jobs=jobs,
        slice_size=slice_size,
        total_slices=total_slices,
    )
    return FutureSuiteResult(rows=rows)


@renders("table2-projected")
def render_future_suite(result: FutureSuiteResult) -> str:
    """Render the full-suite table, marking projected rows."""
    rows = []
    for r in result.rows:
        rows.append(
            (r.benchmark,
             r.points, r.points_90,
             "projected" if r.projected else "Table II",
             "yes" if r.consistent else "NO")
        )
    rows.append(
        ((f"Average ({len(result.rows)})"), f"{result.average_points:.2f}",
         f"{result.average_points_90:.2f}", "", "")
    )
    table = format_table(
        ["Benchmark", "SimPoints", "90pct pts", "provenance", "consistent"],
        rows,
        title="Extension -- projected full-suite simulation points "
              "(future-work workloads are projections, not published data)",
    )
    return table + (
        "\nProjected rows validate the pipeline against the projection "
        "inputs; only Table II rows reproduce the paper."
    )
