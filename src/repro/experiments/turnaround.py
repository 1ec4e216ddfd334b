"""Extension experiment: campaign turnaround across simulation strategies.

Prices "detailed results for every simulation point" under the methods
the paper and its related work discuss: full detailed simulation (the
motivation strawman), serial pinball replay, parallel replay across
hosts, and Full Speed Ahead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.common import (
    map_items,
    pinpoints_for,
    require_rows,
    resolve_benchmarks,
)
from repro.experiments.registry import experiment, renders
from repro.experiments.report import format_table
from repro.fsa.turnaround import (
    CampaignCost,
    detailed_full_cost,
    fsa_cost,
    parallel_replay_cost,
    serial_replay_cost,
)
from repro.workloads.spec2017 import get_descriptor

#: Host pool assumed for the parallel-replay strategy.
PARALLEL_HOSTS = 8


@dataclass
class TurnaroundRow:
    """One benchmark's campaign costs per strategy."""

    benchmark: str
    costs: Dict[str, CampaignCost]


@dataclass
class TurnaroundResult:
    """The full strategy comparison."""

    rows: List[TurnaroundRow]

    def average_hours(self, strategy: str) -> float:
        """Suite-average turnaround in hours for one strategy."""
        rows = require_rows(self.rows, "turnaround suite average")
        return sum(r.costs[strategy].hours for r in rows) / len(rows)


def _benchmark_turnaround(
    name: str, hosts: int, pinpoints_kwargs: dict
) -> TurnaroundRow:
    """One benchmark's strategy costs (process-pool worker unit)."""
    descriptor = get_descriptor(name)
    out = pinpoints_for(name, **pinpoints_kwargs)
    return TurnaroundRow(
        benchmark=descriptor.spec_id,
        costs={
            "detailed-full": detailed_full_cost(
                descriptor.paper_instructions
            ),
            "serial-replay": serial_replay_cost(out.regional),
            "parallel-replay": parallel_replay_cost(
                out.regional, hosts
            ),
            "fsa": fsa_cost(
                out.regional, descriptor.paper_instructions
            ),
        },
    )


@experiment(
    "turnaround",
    result=TurnaroundResult,
    paper_ref="Extension — campaign turnaround by simulation strategy",
    supports_benchmarks=True,
    supports_jobs=True,
)
def run_turnaround(
    benchmarks: Optional[Sequence[str]] = None,
    hosts: int = PARALLEL_HOSTS,
    jobs: Optional[int] = None,
    **pinpoints_kwargs,
) -> TurnaroundResult:
    """Cost every strategy for each benchmark's simulation-point campaign.

    ``jobs`` fans the per-benchmark work across worker processes (1 =
    serial, 0/None = one per core); output is order-stable.
    """
    rows = map_items(
        _benchmark_turnaround,
        resolve_benchmarks(benchmarks),
        jobs=jobs,
        hosts=hosts,
        pinpoints_kwargs=dict(pinpoints_kwargs),
    )
    return TurnaroundResult(rows=rows)


@renders("turnaround")
def render_turnaround(result: TurnaroundResult) -> str:
    """Render per-benchmark and average campaign turnaround."""
    rows = []
    for r in result.rows:
        rows.append(
            (r.benchmark,
             f"{r.costs['detailed-full'].days:.0f} d",
             f"{r.costs['serial-replay'].hours:.2f} h",
             f"{r.costs['parallel-replay'].hours:.2f} h",
             f"{r.costs['fsa'].hours:.2f} h")
        )
    rows.append(
        ("Average",
         f"{result.average_hours('detailed-full') / 24:.0f} d",
         f"{result.average_hours('serial-replay'):.2f} h",
         f"{result.average_hours('parallel-replay'):.2f} h",
         f"{result.average_hours('fsa'):.2f} h")
    )
    return format_table(
        ["Benchmark", "detailed full", "serial replay",
         f"parallel@{PARALLEL_HOSTS}", "FSA"],
        rows,
        title="Extension -- campaign turnaround by simulation strategy",
    )
