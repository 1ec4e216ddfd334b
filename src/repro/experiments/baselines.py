"""Extension experiment: SimPoint vs classic sampling baselines.

At an equal slice budget (each baseline gets exactly as many slices as
SimPoint chose points), compare the sampled instruction mix and cache
behaviour against the Whole Run.  SimPoint's phase-aware selection should
beat naive prefix sampling decisively and match or beat random/systematic
sampling, with far fewer pathological outliers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.experiments.common import (
    map_items,
    measure_points,
    measure_whole,
    pinpoints_for,
    require_rows,
    resolve_benchmarks,
)
from repro.experiments.registry import experiment, renders
from repro.experiments.report import format_table
from repro.pinball.logger import PinPlayLogger
from repro.sampling.registry import run_sampler
from repro.stats.compare import max_abs_percentage_points

#: Registry sampler names compared at SimPoint's slice budget.
STRATEGIES = ("simpoint", "random", "systematic", "stratified", "prefix")


@dataclass
class BaselineRow:
    """One benchmark's per-strategy errors vs the Whole Run."""

    benchmark: str
    budget: int
    mix_error_pp: Dict[str, float]
    l3_error_pp: Dict[str, float]


@dataclass
class BaselineResult:
    """Suite-wide sampling-strategy comparison."""

    rows: List[BaselineRow]

    def average_mix_error(self, strategy: str) -> float:
        """Suite-average worst-category mix error for one strategy."""
        rows = require_rows(self.rows, "baseline suite-average mix error")
        return float(np.mean([r.mix_error_pp[strategy] for r in rows]))

    def average_l3_error(self, strategy: str) -> float:
        """Suite-average |L3 miss-rate error| for one strategy."""
        rows = require_rows(self.rows, "baseline suite-average L3 error")
        return float(np.mean([r.l3_error_pp[strategy] for r in rows]))


def _benchmark_baselines(name: str, pinpoints_kwargs: dict) -> BaselineRow:
    """One benchmark's strategy comparison (process-pool worker unit)."""
    out = pinpoints_for(name, **pinpoints_kwargs)
    whole = measure_whole(out)
    logger = PinPlayLogger(out.benchmark, out.program)
    budget = out.num_points

    mix_errors: Dict[str, float] = {}
    l3_errors: Dict[str, float] = {}
    for strategy in STRATEGIES:
        if strategy == "simpoint":
            pinballs = out.regional
        else:
            selection = run_sampler(strategy, out.features, budget)
            pinballs = logger.log_regions(selection.replay_points())
        metrics = measure_points(out, pinballs)
        mix_errors[strategy] = max_abs_percentage_points(
            metrics.mix, whole.mix
        )
        l3_errors[strategy] = abs(
            metrics.miss_rates["L3"] - whole.miss_rates["L3"]
        ) * 100
    return BaselineRow(
        benchmark=out.benchmark,
        budget=budget,
        mix_error_pp=mix_errors,
        l3_error_pp=l3_errors,
    )


@experiment(
    "baselines",
    result=BaselineResult,
    paper_ref="Extension — SimPoint vs classic sampling baselines",
    supports_benchmarks=True,
    supports_jobs=True,
    supports_sampler=True,
)
def run_baselines(
    benchmarks: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
    **pinpoints_kwargs,
) -> BaselineResult:
    """Compare sampling strategies at SimPoint's slice budget.

    ``jobs`` fans the per-benchmark work across worker processes (1 =
    serial, 0/None = one per core); output is order-stable.
    """
    rows = map_items(
        _benchmark_baselines,
        resolve_benchmarks(benchmarks),
        jobs=jobs,
        pinpoints_kwargs=dict(pinpoints_kwargs),
    )
    return BaselineResult(rows=rows)


@renders("baselines")
def render_baselines(result: BaselineResult) -> str:
    """Render per-benchmark and suite-average strategy errors."""
    rows = []
    for r in result.rows:
        rows.append(
            (r.benchmark, r.budget)
            + tuple(f"{r.mix_error_pp[s]:.3f}" for s in STRATEGIES)
        )
    rows.append(
        ("Average", "")
        + tuple(f"{result.average_mix_error(s):.3f}" for s in STRATEGIES)
    )
    table = format_table(
        ["Benchmark", "budget"] + [f"{s} (pp)" for s in STRATEGIES],
        rows,
        title="Extension -- worst-category instruction-mix error by "
              "sampling strategy (equal slice budget)",
    )
    summary = "\nSuite-average |L3 miss-rate error| (pp): " + ", ".join(
        f"{s} {result.average_l3_error(s):.2f}" for s in STRATEGIES
    )
    return table + summary
