"""Reference replays: one isolated replay per run, kept as a test oracle.

:func:`reference_whole` and :func:`reference_points` are the per-run
loops that :func:`repro.experiments.common.measure_runs` replaced: each
run replays its pinballs on its own, every pinball from fresh tools
over the pinball's own slice streams, and the per-pinball results are
combined in list order.  :func:`reference_run` is the engine loop they
used, written out here so that it shares no step with
:class:`~repro.pin.engine.Engine`.  The library measures every run of a
set in one replay pass; the differential tests in
``test_replay_pass.py`` hold the two bit-identical.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.config import CacheHierarchyConfig
from repro.experiments.common import LEVELS, RunMetrics
from repro.pin.pintool import Pintool
from repro.pin.tools.allcache import AllCache
from repro.pin.tools.ldstmix import LdStMix
from repro.pinball.pinball import RegionalPinball
from repro.pinpoints.pipeline import PinPointsOutput
from repro.stats.compare import weighted_average, weighted_mix


def reference_run(tools: Sequence[Pintool], slices, warmup=()) -> None:
    """One region under ``tools``: the warmup prefix first, seen only by
    stateful tools with their statistics frozen, then every slice by
    every tool."""
    for tool in tools:
        tool.begin()
    stateful = [tool for tool in tools if tool.stateful]
    for tool in stateful:
        tool.warmup = True
    for trace in warmup:
        for tool in stateful:
            tool.process_slice(trace)
    for tool in stateful:
        tool.warmup = False
    for trace in slices:
        for tool in tools:
            tool.process_slice(trace)
    for tool in tools:
        tool.end()


def reference_whole(
    out: PinPointsOutput, config: Optional[CacheHierarchyConfig] = None
) -> RunMetrics:
    """The Whole Run: one replay of the whole pinball."""
    cache = AllCache(config)
    mix = LdStMix()
    reference_run([cache, mix], out.whole.replay_slices(out.program))
    stats = cache.stats()
    return RunMetrics(
        instructions=mix.total_instructions,
        mix=mix.fractions(),
        miss_rates={lv: stats[lv].miss_rate for lv in LEVELS},
        l3_accesses=stats["L3"].accesses,
    )


def reference_points(
    out: PinPointsOutput,
    pinballs: Sequence[RegionalPinball],
    with_warmup: bool = False,
    config: Optional[CacheHierarchyConfig] = None,
) -> RunMetrics:
    """Each pinball replayed in isolation, then weight-combined."""
    mixes, weights, instructions, l3_accesses = [], [], 0, 0
    rates: Dict[str, List[float]] = {lv: [] for lv in LEVELS}
    for pinball in pinballs:
        cache = AllCache(config)
        mix = LdStMix()
        warmup = pinball.warmup_traces(out.program) if with_warmup else ()
        reference_run(
            [cache, mix], pinball.replay_slices(out.program), warmup
        )
        stats = cache.stats()
        for lv in LEVELS:
            rates[lv].append(stats[lv].miss_rate)
        mixes.append(mix.fractions())
        weights.append(pinball.weight)
        instructions += mix.total_instructions
        l3_accesses += stats["L3"].accesses
    return RunMetrics(
        instructions=instructions,
        mix=weighted_mix(mixes, weights),
        miss_rates={lv: weighted_average(rates[lv], weights) for lv in LEVELS},
        l3_accesses=l3_accesses,
    )
