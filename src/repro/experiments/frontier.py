"""Registry experiment: the sampler accuracy/cost frontier.

The question every sampling paper ultimately argues about: *how much
accuracy does each methodology buy per simulated instruction?*  This
experiment runs every requested registry sampler at a sweep of
simulation-point budgets, replays the selected regions through Sniper
(warmup included, exactly like Figure 12), and reports the predicted
whole-program CPI error against the fully simulated Whole Run, next to
the instruction budget each prediction consumed.  One curve per sampler,
error on one axis and cost on the other — the frontier.

Because every sampler flows through the same registry interface and the
same pinball machinery, adding a methodology to the registry
automatically adds its curve here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.experiments.common import (
    map_items,
    pinpoints_for,
    require_rows,
    resolve_benchmarks,
)
from repro.experiments.registry import experiment, renders
from repro.experiments.report import format_bar, format_table
from repro.pinball.logger import PinPlayLogger
from repro.sampling.features import FEATURE_BBV, FEATURE_MAV, collect_features
from repro.sampling.registry import get_sampler, run_sampler
from repro.sniper.core import SniperSimulator
from repro.stats.compare import weighted_average
from repro.workloads.spec2017 import get_descriptor

#: Samplers drawn on the frontier by default: the paper's methodology,
#: the strongest classic baselines, and the three newly ported methods.
DEFAULT_SAMPLERS = (
    "simpoint", "random", "stratified", "stratified2", "ranked", "mav",
)

#: Simulation-point budgets swept per sampler.
DEFAULT_BUDGETS = (2, 4, 8, 16)


@dataclass
class FrontierRow:
    """One (benchmark, sampler, budget) frontier measurement."""

    benchmark: str
    sampler: str
    budget: int
    points: int
    instructions: int
    whole_instructions: int
    whole_cpi: float
    predicted_cpi: float

    @property
    def cpi_error_pct(self) -> float:
        """|predicted - whole| / whole CPI error, in percent."""
        return abs(self.predicted_cpi - self.whole_cpi) / self.whole_cpi * 100

    @property
    def budget_fraction_pct(self) -> float:
        """Simulated instructions (warmup included) over the Whole Run."""
        return self.instructions / self.whole_instructions * 100


@dataclass
class FrontierResult:
    """Suite-wide accuracy/cost frontier across registered samplers."""

    rows: List[FrontierRow]

    def samplers(self) -> List[str]:
        """Sampler names present, in first-appearance order."""
        seen: Dict[str, None] = {}
        for row in self.rows:
            seen.setdefault(row.sampler, None)
        return list(seen)

    def budgets(self) -> List[int]:
        """Budgets present, ascending."""
        return sorted({row.budget for row in self.rows})

    def mean_error_pct(self, sampler: str, budget: int) -> float:
        """Suite-mean CPI error of one sampler at one budget."""
        rows = [
            r for r in require_rows(self.rows, "frontier mean error")
            if r.sampler == sampler and r.budget == budget
        ]
        if not rows:
            raise ConfigError(
                f"no frontier rows for sampler {sampler!r} at budget "
                f"{budget}"
            )
        return float(np.mean([r.cpi_error_pct for r in rows]))

    def mean_fraction_pct(self, sampler: str, budget: int) -> float:
        """Suite-mean simulated-instruction fraction at one budget."""
        rows = [
            r for r in require_rows(self.rows, "frontier mean fraction")
            if r.sampler == sampler and r.budget == budget
        ]
        if not rows:
            raise ConfigError(
                f"no frontier rows for sampler {sampler!r} at budget "
                f"{budget}"
            )
        return float(np.mean([r.budget_fraction_pct for r in rows]))


def _benchmark_frontier(
    name: str,
    samplers: Tuple[str, ...],
    budgets: Tuple[int, ...],
    pinpoints_kwargs: dict,
) -> List[FrontierRow]:
    """One benchmark's frontier sweep (process-pool worker unit)."""
    out = pinpoints_for(name, **pinpoints_kwargs)
    descriptor = get_descriptor(name)
    simulator = SniperSimulator()
    whole_timing = simulator.run_region(out.whole.replay_slices(out.program))
    whole_cpi = whole_timing.cpi

    # One feature bundle serves every sampler: collect the union of the
    # requested feature families.  The whole-run timing above just left
    # the full slices in the slice-trace memo, and a full entry answers a
    # header request too, so this second profiling pass draws nothing
    # while they fit the memo's budget.
    needs_mav = any(
        FEATURE_MAV in get_sampler(s).requires for s in samplers
    )
    requires = (FEATURE_BBV, FEATURE_MAV) if needs_mav else (FEATURE_BBV,)
    features = collect_features(
        out.program, out.whole,
        benchmark=out.benchmark, seed=descriptor.seed, requires=requires,
    )

    logger = PinPlayLogger(out.benchmark, out.program)
    rows: List[FrontierRow] = []
    for sampler_name in samplers:
        for budget in budgets:
            selection = run_sampler(sampler_name, features, budget)
            pinballs = logger.log_regions(selection.replay_points())
            cpis, weights = [], []
            simulated = 0
            for pb in pinballs:
                timing = simulator.run_region(
                    pb.replay_slices(out.program),
                    warmup=pb.warmup_traces(out.program),
                )
                cpis.append(timing.cpi)
                weights.append(pb.weight)
                simulated += pb.total_slices_with_warmup
            rows.append(
                FrontierRow(
                    benchmark=out.benchmark,
                    sampler=sampler_name,
                    budget=budget,
                    points=selection.num_points,
                    instructions=simulated * out.program.slice_size,
                    whole_instructions=(
                        out.program.num_slices * out.program.slice_size
                    ),
                    whole_cpi=whole_cpi,
                    predicted_cpi=weighted_average(cpis, weights),
                )
            )
    return rows


@experiment(
    "sampler-frontier",
    result=FrontierResult,
    paper_ref="Extension — accuracy/cost frontier of the sampler registry",
    supports_benchmarks=True,
    supports_jobs=True,
)
def run_frontier(
    benchmarks: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
    samplers: Sequence[str] = DEFAULT_SAMPLERS,
    budgets: Sequence[int] = DEFAULT_BUDGETS,
    **pinpoints_kwargs,
) -> FrontierResult:
    """Sweep every requested sampler across simulation-point budgets.

    Args:
        benchmarks: Benchmark subset (default: the paper's whole suite).
        jobs: Per-benchmark process fan-out (1 = serial, 0/None = cores).
        samplers: Registry sampler names to draw curves for.
        budgets: Simulation-point budgets to sweep.
        **pinpoints_kwargs: Forwarded to the PinPoints pipeline
            (``slice_size``, ``total_slices``, ...).

    Returns:
        A :class:`FrontierResult` with one row per (benchmark, sampler,
        budget).
    """
    samplers = tuple(samplers)
    budgets = tuple(int(b) for b in budgets)
    if not samplers:
        raise ConfigError("sampler-frontier needs at least one sampler")
    if not budgets or any(b < 1 for b in budgets):
        raise ConfigError("budgets must be positive integers")
    for name in samplers:
        get_sampler(name)  # fail fast on unknown names
    nested = map_items(
        _benchmark_frontier,
        resolve_benchmarks(benchmarks),
        jobs=jobs,
        samplers=samplers,
        budgets=budgets,
        pinpoints_kwargs=dict(pinpoints_kwargs),
    )
    return FrontierResult(rows=[row for rows in nested for row in rows])


@renders("sampler-frontier")
def render_frontier(result: FrontierResult) -> str:
    """Render the frontier: error table plus an ASCII error chart."""
    samplers = result.samplers()
    budgets = result.budgets()
    rows = []
    for budget in budgets:
        rows.append(
            (budget,)
            + tuple(
                f"{result.mean_error_pct(s, budget):.3f}" for s in samplers
            )
        )
    table = format_table(
        ["Budget"] + [f"{s} (%)" for s in samplers],
        rows,
        title="Extension -- suite-mean CPI error vs simulation budget, "
              "per registered sampler",
    )
    top_budget = budgets[-1]
    errors = {s: result.mean_error_pct(s, top_budget) for s in samplers}
    maximum = max(errors.values()) or 1.0
    width = max(len(s) for s in samplers)
    chart = [f"\nCPI error at budget {top_budget} "
             "(lower is better; sim % = fraction of whole-run "
             "instructions simulated, warmup included):"]
    for s in samplers:
        chart.append(
            f"  {s:<{width}} |{format_bar(errors[s], maximum):<40}| "
            f"{errors[s]:6.3f} %  "
            f"@ {result.mean_fraction_pct(s, top_budget):5.2f} % sim"
        )
    return table + "\n" + "\n".join(chart)
