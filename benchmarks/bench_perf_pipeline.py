"""Times the fig7+fig8+fig10 sweep: serial vs parallel vs warm store.

Three timed passes over the full-suite sweep, all against a private
artifact store so prior runs cannot contaminate the cold measurements:

1. serial cold   -- ``jobs=1``, both cache tiers empty
2. parallel cold -- ``jobs=`` all cores, both tiers empty again
3. warm          -- memory tier dropped (as a fresh process would see),
                    every artifact served from the disk store

Timing runs on the telemetry clock, and the serial cold pass records a
full trace, so alongside the top-level wall numbers the record carries a
per-stage breakdown (pipeline / cache-sim / sniper / store-io) summed
from the recorded spans.

The numbers land in ``BENCH_pipeline.json`` at the repository root (the
perf trajectory the acceptance criteria track) with the span-level
manifest next to it in ``BENCH_trace_summary.json``, and the rendered
output of all three passes must be byte-identical — speed never changes
results.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro import telemetry
from repro.experiments import common
from repro.experiments.common import clear_pinpoints_cache, configure_cache, set_store
from repro.experiments.fig7 import render_fig7, run_fig7
from repro.experiments.fig8 import render_fig8, run_fig8
from repro.experiments.fig10 import render_fig10, run_fig10
from repro.parallel import resolve_jobs
from repro.telemetry.clock import monotonic_ns

_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = _ROOT / "BENCH_pipeline.json"
TRACE_SUMMARY_PATH = _ROOT / "BENCH_trace_summary.json"

#: Span-name prefixes folded into each reported stage.  ``cache_sim``
#: sums only the top-level replay spans: the fused engine emits nested
#: ``cache.fused`` drain spans inside ``cache.replay``, and a ``cache.``
#: prefix would count that time twice.
_STAGES = {
    "pipeline": ("pinpoints.",),
    "cache_sim": ("cache.replay",),
    "sniper": ("sniper.",),
    "store_io": ("store.",),
}

#: Serial-cold per-stage time budgets in seconds, with headroom over the
#: measured baseline (see BENCH_pipeline.json).  A stage exceeding its
#: budget by more than ``_BUDGET_TOLERANCE`` fails the run when
#: ``REPRO_BENCH_ENFORCE`` is set (the CI bench-smoke job sets it);
#: otherwise overruns only show up in the recorded report.
_BUDGETS = {
    "pipeline": 30.0,
    "cache_sim": 12.5,
    "sniper": 1.0,
    "store_io": 1.0,
}
_BUDGET_TOLERANCE = 1.2
_ENFORCE_ENV = "REPRO_BENCH_ENFORCE"


def _enforcing() -> bool:
    return os.environ.get(_ENFORCE_ENV, "").lower() not in ("", "0", "false")


def _sweep(jobs: int) -> str:
    return "\n".join([
        render_fig7(run_fig7(jobs=jobs)),
        render_fig8(run_fig8(jobs=jobs)),
        render_fig10(run_fig10(jobs=jobs)),
    ])


def _drop_memory_tier() -> None:
    """What a new process sees: empty dicts, a populated disk store."""
    common._PINPOINTS_CACHE.clear()
    common._WHOLE_CACHE.clear()
    common._POINTS_CACHE.clear()


def _timed(fn):
    start = monotonic_ns()
    result = fn()
    return result, (monotonic_ns() - start) / 1e9


def _stage_breakdown(recorder: telemetry.TraceRecorder) -> dict:
    """Seconds spent per stage, summed over the recorder's spans.

    Stages overlap (store reads happen inside pipeline spans), so the
    breakdown localizes time rather than summing to the wall total.
    """
    totals = {stage: 0 for stage in _STAGES}
    for event in recorder.events:
        for stage, prefixes in _STAGES.items():
            if event["name"].startswith(prefixes):
                totals[stage] += event["dur"]
    return {stage: round(ns / 1e9, 3) for stage, ns in totals.items()}


def test_pipeline_serial_parallel_warm(tmp_path):
    cores = resolve_jobs(None)
    jobs = resolve_jobs(None)
    previous = configure_cache(tmp_path / "store")
    recorder = telemetry.TraceRecorder()
    try:
        clear_pinpoints_cache()
        with telemetry.using_recorder(recorder):
            serial, serial_cold_s = _timed(lambda: _sweep(jobs=1))

        clear_pinpoints_cache()
        parallel, parallel_cold_s = _timed(lambda: _sweep(jobs=jobs))

        _drop_memory_tier()
        warm, warm_s = _timed(lambda: _sweep(jobs=1))
    finally:
        set_store(previous)

    from repro.cache.fused import resolve_backend

    identical = serial == parallel == warm
    record = {
        "bench": "fig7+fig8+fig10 full-suite sweep",
        "cores": cores,
        "jobs_parallel": jobs,
        "cache_backend": resolve_backend(),
        "serial_cold_s": round(serial_cold_s, 3),
        "parallel_cold_s": round(parallel_cold_s, 3),
        "warm_s": round(warm_s, 3),
        "parallel_speedup": round(serial_cold_s / parallel_cold_s, 2),
        "warm_speedup": round(serial_cold_s / warm_s, 2),
        "outputs_identical": identical,
        "serial_cold_stages_s": _stage_breakdown(recorder),
        "budgets": {
            "tolerance": _BUDGET_TOLERANCE,
            "stages_s": dict(_BUDGETS),
            "enforced": _enforcing(),
        },
    }
    # The chaos section is owned by tools/chaos_smoke.sh (it merges the
    # measured scenario wall time in); rewriting the manifest here must
    # not discard it.
    try:
        record["chaos"] = json.loads(RESULT_PATH.read_text())["chaos"]
    except (OSError, ValueError, KeyError):
        pass
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    manifest = telemetry.summarize(recorder)
    telemetry.write_summary(TRACE_SUMMARY_PATH, manifest)
    print()
    print(json.dumps(record, indent=2))

    assert identical
    # The warm pass replays nothing: every pipeline and every metrics
    # bundle comes back from the store.
    assert record["warm_speedup"] >= 5.0
    # Per-benchmark fan-out only pays off with real cores under it.
    if cores >= 4:
        assert record["parallel_speedup"] >= 2.0
    # The trace accounts for the bulk of the serial pass: the pipeline
    # and cache-sim stages dominate a cold sweep.
    stages = record["serial_cold_stages_s"]
    assert stages["pipeline"] > 0.0
    assert stages["cache_sim"] > 0.0
    # Per-stage budget gate: opt-in so developer laptops and loaded CI
    # runners do not flake, mandatory where REPRO_BENCH_ENFORCE is set.
    if _enforcing():
        for stage, budget in _BUDGETS.items():
            assert stages[stage] <= budget * _BUDGET_TOLERANCE, (
                f"stage {stage!r} took {stages[stage]}s, budget "
                f"{budget}s (tolerance x{_BUDGET_TOLERANCE})"
            )
