"""sniper-regional: the simulated side of Fig 12.

Why this workload: the associative ``CacheLevel`` path carries about
88 % of it, and it never clusters or touches the direct-mapped engine,
so it is the bypass case for both.  Layer map: ``cache.assoc``,
``sniper.model``, ``workloads.slicegen`` and ``parallel.store_get``
carry it; ``clustering.*``, ``pin.bbv`` and ``cache.dm_replay`` read zero.

Set-up builds the round's pipelines into a private store from a separate
process, so the timed process starts with an empty slice memo.  The timed
section loads each pipeline from the store and runs
``SniperSimulator.run_region`` over every regional and reduced pinball,
each with its warmup prefix, combining CPIs with ``weighted_average`` --
the same calls Fig 12 makes.  Native CPI comes from the committed rows.
"""

from __future__ import annotations

from calibrate import ScaledTimer
from checks import fig12_problems
from context import Outcome, Round, prepare_store

#: Reference-speed seconds of one benchmark's regional + reduced replays.
SECONDS_PER_BENCHMARK = 2.2


def subset_size(seconds: float) -> int:
    return round(seconds / SECONDS_PER_BENCHMARK)


def setup(rnd: Round) -> None:
    from repro.experiments.common import configure_cache

    prepare_store(rnd)
    configure_cache(rnd.store)


def timed(rnd: Round, meter) -> Outcome:
    from repro.experiments.common import pinpoints_for
    from repro.sniper.core import SniperSimulator
    from repro.stats.compare import weighted_average

    simulator = SniperSimulator()
    timer = ScaledTimer()
    outcome = Outcome()
    errors = []
    for benchmark in rnd.benchmarks:
        out = timer.run(pinpoints_for, benchmark)
        cpi = {}
        for label, pinballs in (("regional", out.regional),
                                ("reduced", out.reduced)):
            cpis, weights = [], []
            for pinball in pinballs:
                timing = timer.run(
                    simulator.run_region,
                    meter.count(pinball.replay_slices(out.program)),
                    warmup=meter.count(pinball.warmup_traces(out.program)),
                    op=True,
                )
                cpis.append(timing.cpi)
                weights.append(pinball.weight)
            cpi[label] = timer.run(weighted_average, cpis, weights)
        outcome.check(fig12_problems(rnd.committed, benchmark,
                                     cpi["regional"], cpi["reduced"]))
        native = rnd.committed.row("fig12", benchmark)["native_cpi"]
        errors.append(abs(cpi["regional"] - native) / native * 100)
    timer.finish()
    outcome.take(timer)
    outcome.samples["accuracy.cpi_err_pct"] = errors
    return outcome
