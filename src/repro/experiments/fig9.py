"""Figure 9: error rates and execution time vs simulation-point percentile.

The paper sweeps the fraction of (descending-weight) simulation points
executed — 100 % is the Regional Run, 90 % the Reduced Regional Run —
and shows errors growing and execution time shrinking as points are
dropped.  Each regional pinball is measured once; percentile subsets are
then aggregated by weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.experiments.common import (
    LEVELS,
    map_items,
    measure_whole,
    pinpoints_for,
    resolve_benchmarks,
)
from repro.experiments.registry import experiment, renders
from repro.experiments.report import format_table
from repro.pin.tools.allcache import AllCache
from repro.pin.tools.ldstmix import LdStMix
from repro.simpoint.reduction import reduce_to_percentile
from repro.stats.compare import (
    max_abs_percentage_points,
    weighted_average,
    weighted_mix,
)
from repro.timemodel.runtime import reduced_regional_run_cost

#: Percentiles swept (fractions of total weight retained).
PERCENTILES = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


@dataclass
class Fig9Point:
    """Suite-average errors and time at one percentile."""

    percentile: float
    mix_error_pp: float
    miss_rate_error_pp: Dict[str, float]
    execution_hours: float
    points_retained: float


@dataclass
class Fig9Result:
    """The full percentile sweep."""

    points: List[Fig9Point]

    def by_percentile(self) -> Dict[float, Fig9Point]:
        """Points keyed by percentile."""
        return {p.percentile: p for p in self.points}


def _benchmark_sweep(
    name: str, percentiles: Tuple[float, ...], pinpoints_kwargs: dict
) -> List[Tuple[float, Dict[str, float], float, int]]:
    """One benchmark's per-percentile errors (process-pool worker unit).

    Measures every regional pinball once, then aggregates each
    percentile subset by weight; returns, aligned with ``percentiles``,
    tuples of (mix error, per-level |miss-rate error|, execution hours,
    points retained).
    """
    out = pinpoints_for(name, **pinpoints_kwargs)
    whole = measure_whole(out)
    replayer = out.replayer()
    measured = {}
    for pinball in out.regional:
        cache = AllCache()
        mix = LdStMix()
        replayer.replay(pinball, [cache, mix])
        stats = cache.stats()
        measured[pinball.region_start] = (
            mix.fractions(),
            {lv: stats[lv].miss_rate for lv in LEVELS},
        )

    per_percentile = []
    for percentile in percentiles:
        subset = reduce_to_percentile(out.simpoints.points, percentile)
        weights = [p.weight for p in subset]
        mixes = [measured[p.slice_index][0] for p in subset]
        agg_mix = weighted_mix(mixes, weights)
        mix_error = max_abs_percentage_points(agg_mix, whole.mix)
        level_errors = {}
        for lv in LEVELS:
            rates = [measured[p.slice_index][1][lv] for p in subset]
            level_errors[lv] = (
                abs(weighted_average(rates, weights)
                    - whole.miss_rates[lv]) * 100
            )
        pinballs = [
            pb for pb in out.regional
            if pb.region_start in {p.slice_index for p in subset}
        ]
        hours = reduced_regional_run_cost(pinballs).hours
        per_percentile.append((mix_error, level_errors, hours, len(subset)))
    return per_percentile


@experiment(
    "fig9",
    result=Fig9Result,
    paper_ref="Figure 9 — error vs execution time across point percentiles",
    supports_benchmarks=True,
    supports_jobs=True,
)
def run_fig9(
    benchmarks: Optional[Sequence[str]] = None,
    percentiles: Sequence[float] = PERCENTILES,
    jobs: Optional[int] = None,
    **pinpoints_kwargs,
) -> Fig9Result:
    """Sweep the retained-weight percentile across the suite.

    ``jobs`` fans the per-benchmark work across worker processes (1 =
    serial, 0/None = one per core); output is order-stable.
    """
    names = resolve_benchmarks(benchmarks)
    if not names:
        raise ConfigError(
            "Figure 9 needs at least one benchmark to sweep"
        )
    percentiles = tuple(percentiles)
    per_benchmark = map_items(
        _benchmark_sweep,
        names,
        jobs=jobs,
        percentiles=percentiles,
        pinpoints_kwargs=dict(pinpoints_kwargs),
    )

    points = []
    for index, percentile in enumerate(percentiles):
        mix_errors = [sweep[index][0] for sweep in per_benchmark]
        level_errors = {
            lv: [sweep[index][1][lv] for sweep in per_benchmark]
            for lv in LEVELS
        }
        hours = [sweep[index][2] for sweep in per_benchmark]
        retained = [sweep[index][3] for sweep in per_benchmark]
        points.append(
            Fig9Point(
                percentile=percentile,
                mix_error_pp=float(np.mean(mix_errors)),
                miss_rate_error_pp={
                    lv: float(np.mean(level_errors[lv])) for lv in LEVELS
                },
                execution_hours=float(np.mean(hours)),
                points_retained=float(np.mean(retained)),
            )
        )
    return Fig9Result(points=points)


@renders("fig9")
def render_fig9(result: Fig9Result) -> str:
    """Render the error/time trade-off sweep."""
    rows = []
    for p in result.points:
        rows.append(
            (
                f"{p.percentile * 100:.0f}%",
                f"{p.points_retained:.1f}",
                f"{p.mix_error_pp:.3f}",
                f"{p.miss_rate_error_pp['L1D']:.2f}",
                f"{p.miss_rate_error_pp['L2']:.2f}",
                f"{p.miss_rate_error_pp['L3']:.2f}",
                f"{p.execution_hours * 60:.1f}",
            )
        )
    return format_table(
        ["percentile", "avg points", "mix err(pp)", "L1D err(pp)",
         "L2 err(pp)", "L3 err(pp)", "exec time (min)"],
        rows,
        title="Figure 9 -- error vs execution time across point percentiles"
              " (100% == Regional, 90% == Reduced)",
    )
