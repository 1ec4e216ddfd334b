"""Cache-warming strategies for regional replay.

The paper proposes two mitigations for the cold-LLC bias of regional
runs (Section IV-D): execute a warmup prefix before each simulation
point, or "run the set of Regional Pinballs multiple times, thus
exercising the LLC to remove the cold cache effects".  The prefix
strategy lives on the standard measurement path
(a ``Run`` with ``with_warmup=True``); this module implements the
second strategy — the *double run* — plus a comparison helper.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.config import CacheHierarchyConfig
from repro.errors import SimulationError
from repro.experiments.common import (
    LEVELS,
    WHOLE,
    Run,
    RunMetrics,
    combine_points,
    measure_runs,
    replay_metrics,
)
from repro.pin.engine import Engine
from repro.pin.tools.allcache import AllCache
from repro.pin.tools.ldstmix import LdStMix
from repro.pinball.pinball import RegionalPinball
from repro.pinpoints.pipeline import PinPointsOutput


def measure_points_double_run(
    out: PinPointsOutput,
    pinballs: Sequence[RegionalPinball],
    config: Optional[CacheHierarchyConfig] = None,
    passes: int = 2,
) -> RunMetrics:
    """Replay each pinball ``passes`` times, measuring only the last pass.

    The earlier passes execute with statistics frozen, leaving the caches
    populated with exactly the region's working set — the paper's
    "run the Regional Pinballs multiple times" mitigation.  Unlike prefix
    warmup it needs no extra checkpointed instructions, but it can
    *overfit* the caches to the region (every line is resident, even ones
    the whole run would have evicted).

    Args:
        out: The pipeline output whose program replays the pinballs.
        pinballs: Regional pinballs to measure.
        passes: Total replays per pinball (>= 2; the last is measured).
    """
    if passes < 2:
        raise SimulationError("double-run warming needs at least two passes")
    program = out.program
    points = []
    for pinball in pinballs:
        cache = AllCache(config)
        mix = LdStMix()
        warm_passes = []
        for _ in range(passes - 1):
            warm_passes.extend(pinball.replay_slices(program))
        Engine([cache, mix]).run(
            pinball.replay_slices(program), warmup=warm_passes
        )
        points.append(replay_metrics(cache, mix))
    return combine_points(points, [pinball.weight for pinball in pinballs])


def compare_warming_strategies(
    out: PinPointsOutput,
    config: Optional[CacheHierarchyConfig] = None,
) -> Dict[str, Dict[str, float]]:
    """L1D/L2/L3 miss-rate deltas vs the Whole Run for every strategy.

    Returns:
        ``{"cold" | "prefix" | "double-run": {level: delta_pp}}``.
    """
    regional = tuple(out.regional)
    strategies = measure_runs(
        out,
        {
            "whole": WHOLE,
            "cold": Run(regional),
            "prefix": Run(regional, with_warmup=True),
        },
        config,
    )
    whole = strategies.pop("whole")
    strategies["double-run"] = measure_points_double_run(
        out, out.regional, config=config
    )
    return {
        name: {
            lv: (metrics.miss_rates[lv] - whole.miss_rates[lv]) * 100.0
            for lv in LEVELS
        }
        for name, metrics in strategies.items()
    }
