"""Figure 5: dynamic instruction counts and execution times.

Whole vs Regional vs Reduced Regional runs: the paper reports suite
averages of 6 873.9 B -> 10.4 B instructions (~650x) and 213.2 h -> 17.17
min (~750x), with Reduced Regional runs a further ~1.74x cheaper
(~1225x / ~1297x overall).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.experiments.common import (
    map_items,
    pinpoints_for,
    require_rows,
    resolve_benchmarks,
)
from repro.experiments.registry import experiment, renders
from repro.experiments.report import format_table
from repro.timemodel.runtime import (
    RunCost,
    reduced_regional_run_cost,
    regional_run_cost,
    whole_run_cost,
)
from repro.workloads.spec2017 import get_descriptor


@dataclass
class Fig5Row:
    """Per-benchmark run costs."""

    benchmark: str
    whole: RunCost
    regional: RunCost
    reduced: RunCost

    @property
    def instruction_reduction(self) -> float:
        """Whole/Regional dynamic instruction ratio."""
        return self.whole.instructions / self.regional.instructions

    @property
    def time_reduction(self) -> float:
        """Whole/Regional execution-time ratio."""
        return self.whole.seconds / self.regional.seconds

    @property
    def reduced_instruction_reduction(self) -> float:
        """Whole/Reduced dynamic instruction ratio."""
        return self.whole.instructions / self.reduced.instructions

    @property
    def reduced_time_reduction(self) -> float:
        """Whole/Reduced execution-time ratio."""
        return self.whole.seconds / self.reduced.seconds


@dataclass
class Fig5Result:
    """Suite-wide run-cost comparison."""

    rows: List[Fig5Row]

    def _mean(self, getter) -> float:
        rows = require_rows(self.rows, "Figure 5 suite average")
        return sum(getter(r) for r in rows) / len(rows)

    @property
    def average_whole_instructions(self) -> float:
        """Suite-average whole-run instructions (paper: 6 873.9 B)."""
        return self._mean(lambda r: r.whole.instructions)

    @property
    def average_regional_instructions(self) -> float:
        """Suite-average regional-run instructions (paper: 10.4 B)."""
        return self._mean(lambda r: r.regional.instructions)

    @property
    def instruction_reduction(self) -> float:
        """Suite instruction reduction, Whole/Regional (paper: ~650x)."""
        return (self.average_whole_instructions
                / self.average_regional_instructions)

    @property
    def time_reduction(self) -> float:
        """Suite time reduction, Whole/Regional (paper: ~750x)."""
        whole = self._mean(lambda r: r.whole.seconds)
        regional = self._mean(lambda r: r.regional.seconds)
        return whole / regional

    @property
    def reduced_instruction_reduction(self) -> float:
        """Suite instruction reduction, Whole/Reduced (paper: ~1225x)."""
        whole = self.average_whole_instructions
        reduced = self._mean(lambda r: r.reduced.instructions)
        return whole / reduced

    @property
    def reduced_time_reduction(self) -> float:
        """Suite time reduction, Whole/Reduced (paper: ~1297x)."""
        whole = self._mean(lambda r: r.whole.seconds)
        reduced = self._mean(lambda r: r.reduced.seconds)
        return whole / reduced

    @property
    def regional_to_reduced_instructions(self) -> float:
        """Regional/Reduced instruction ratio (paper: ~1.743x)."""
        regional = self.average_regional_instructions
        reduced = self._mean(lambda r: r.reduced.instructions)
        return regional / reduced


def _benchmark_costs(name: str, pinpoints_kwargs: dict) -> Fig5Row:
    """One benchmark's run costs (process-pool worker unit)."""
    descriptor = get_descriptor(name)
    out = pinpoints_for(name, **pinpoints_kwargs)
    return Fig5Row(
        benchmark=descriptor.spec_id,
        whole=whole_run_cost(descriptor.paper_instructions),
        regional=regional_run_cost(out.regional),
        reduced=reduced_regional_run_cost(out.reduced),
    )


@experiment(
    "fig5",
    result=Fig5Result,
    paper_ref="Figure 5 — dynamic instruction count and execution time",
    supports_benchmarks=True,
    supports_jobs=True,
)
def run_fig5(
    benchmarks: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
    **pinpoints_kwargs,
) -> Fig5Result:
    """Compute run costs for the suite.

    Instruction counts are paper-scale: the whole run uses the
    benchmark's paper-scale dynamic instruction count; regional runs use
    #points x (warmup + region) x 30 M (the captured pinball sizes).
    ``jobs`` fans the per-benchmark work across worker processes (1 =
    serial, 0/None = one per core); output is order-stable.
    """
    rows = map_items(
        _benchmark_costs,
        resolve_benchmarks(benchmarks),
        jobs=jobs,
        pinpoints_kwargs=dict(pinpoints_kwargs),
    )
    return Fig5Result(rows=rows)


@renders("fig5")
def render_fig5(result: Fig5Result) -> str:
    """Render per-benchmark costs plus the headline suite ratios."""
    rows = []
    for r in result.rows:
        rows.append(
            (
                r.benchmark,
                f"{r.whole.instructions / 1e9:.0f}",
                f"{r.regional.instructions / 1e9:.2f}",
                f"{r.reduced.instructions / 1e9:.2f}",
                f"{r.whole.hours:.1f}",
                f"{r.regional.minutes:.1f}",
                f"{r.reduced.minutes:.1f}",
                f"{r.instruction_reduction:.0f}x",
                f"{r.time_reduction:.0f}x",
            )
        )
    table = format_table(
        ["Benchmark", "whole (B)", "regional (B)", "reduced (B)",
         "whole (h)", "regional (min)", "reduced (min)",
         "instr redux", "time redux"],
        rows,
        title="Figure 5 -- dynamic instruction count and execution time",
    )
    summary = (
        f"\nSuite: whole avg {result.average_whole_instructions / 1e9:.1f} B"
        f" -> regional avg {result.average_regional_instructions / 1e9:.2f} B"
        f"  | instr {result.instruction_reduction:.0f}x (paper ~650x)"
        f", time {result.time_reduction:.0f}x (paper ~750x)"
        f"\n       reduced: instr {result.reduced_instruction_reduction:.0f}x"
        f" (paper ~1225x), time {result.reduced_time_reduction:.0f}x"
        f" (paper ~1297x), regional/reduced"
        f" {result.regional_to_reduced_instructions:.2f}x (paper ~1.74x)"
    )
    return table + summary
