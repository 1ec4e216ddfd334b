"""fig8-cold: the cold Fig 8 flow, one benchmark after another.

Why this workload: it is the paper's main measurement, and the only flow
that runs slice generation, k-means/BIC ``choose_k`` and the
direct-mapped fused/native cache engine together -- about 45 %, 29 % and
25 % of its time.  Layer map: ``workloads.slicegen``, ``pin.bbv``,
``sampling.select``/``clustering.*``, ``pinball.regions``,
``cache.dm_replay`` and ``parallel.store_put`` carry it; ``cache.assoc``
and ``sniper.model`` read zero.

Each benchmark runs ``measure_benchmark`` with all four run types against
an empty store and an empty slice memo (a fresh process per round), with
no process-pool fan-out (the serial unit of ``jobs=1``).
"""

from __future__ import annotations

from calibrate import ScaledTimer
from checks import RUN_TYPES, fig8_problems
from context import Outcome, Round

#: Reference-speed seconds one benchmark's cold flow takes; sizes the subset
#: so a run measures about ``--seconds``.
SECONDS_PER_BENCHMARK = 1.1


def subset_size(seconds: float) -> int:
    return round(seconds / SECONDS_PER_BENCHMARK)


def setup(rnd: Round) -> None:
    from repro.experiments.common import configure_cache

    configure_cache(rnd.store)


def timed(rnd: Round, meter) -> Outcome:
    from repro.experiments.common import measure_benchmark, metrics_to_payload

    meter.install_engine()
    timer = ScaledTimer()
    outcome = Outcome()
    deltas = []
    for benchmark in rnd.benchmarks:
        measured = timer.run(measure_benchmark, benchmark, runs=RUN_TYPES,
                             op=True)
        runs = {run: metrics_to_payload(measured[run]) for run in RUN_TYPES}
        outcome.check(fig8_problems(
            rnd.committed, benchmark, runs,
            measured["num_points"], measured["num_points_90"],
        ))
        deltas.append(abs(runs["warmup"]["miss_rates"]["L3"]
                          - runs["whole"]["miss_rates"]["L3"]) * 100)
    timer.finish()
    outcome.take(timer)
    outcome.samples["accuracy.l3_err_pp"] = deltas
    return outcome
