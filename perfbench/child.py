"""One fresh process of a benchmark run: ``build``, ``prepare`` or ``round``.

``run.py`` starts every process with the pinned environment (one OpenBLAS
thread, the native cache backend, a private store); see ``run.py``.

* ``build``   -- compile/load the native cache kernel and print the
  resolved backend and versions as JSON;
* ``prepare`` -- fill a store with pipelines and stored results;
* ``round``   -- set up, run one share of a workload's timed section, and
  write what it measured to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from calibrate import probe_ms, scale
from context import ROUNDS, Round
from layers import (CLIENT_LAYERS, LAYER_NAMES, LayerTracer, Patches,
                    SliceMeter, install_layers)
from subset import partition, stratified_subset

import fig8_cold
import service_mixed
import sniper_regional

#: Workload name -> module; each module's docstring says why it exists.
WORKLOADS = {
    "fig8-cold": fig8_cold,
    "sniper-regional": sniper_regional,
    "service-mixed": service_mixed,
}


def benchmark_table():
    """(id, Table II point count, memory archetype) for every benchmark."""
    from repro.workloads.spec2017 import benchmark_names, get_descriptor

    return [
        (name, get_descriptor(name).num_phases,
         get_descriptor(name).memory_class)
        for name in benchmark_names()
    ]


def round_benchmarks(workload: str, seed: int, seconds: float,
                     part: int) -> list:
    """The part of the seeded subset one round works on."""
    n = WORKLOADS[workload].subset_size(seconds)
    return partition(stratified_subset(benchmark_table(), n, seed),
                     ROUNDS)[part]


def build() -> int:
    import numpy

    from repro.cache.fused import resolve_backend

    backend = resolve_backend()
    print(json.dumps({
        "backend": backend,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }, sort_keys=True))
    if backend != "native":
        print(f"cache backend resolved to {backend!r}, not 'native' "
              "(no C compiler on PATH?); refusing to time a different "
              "set-up", file=sys.stderr)
        return 3
    return 0


def prepare(store: str, benchmarks: list, result_keys: list) -> int:
    from repro.experiments.common import configure_cache, pinpoints_for
    from repro.experiments.registry import execute, get_spec

    configure_cache(store)
    for benchmark in benchmarks:
        pinpoints_for(benchmark)
    for experiment, names in result_keys:
        execute(get_spec(experiment), {"benchmarks": names, "jobs": 1})
    return 0


def _counter_totals(recorder) -> dict:
    """Telemetry counters summed over their tags, keyed by bare name."""
    totals = defaultdict(float)
    for key, value in recorder.metrics.snapshot()["counters"].items():
        totals[key.split("{", 1)[0]] += value
    return dict(totals)


def _merged(mine: dict, theirs) -> dict:
    merged = dict(mine)
    for name, value in (theirs or {}).items():
        merged[name] = merged.get(name, 0) + value
    return merged


def run_round(args) -> int:
    first_probe = probe_ms()
    module = WORKLOADS[args.workload]
    rnd = Round(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds / ROUNDS,
        benchmarks=round_benchmarks(args.workload, args.seed, args.seconds,
                                    args.part),
        root=Path.cwd(),
        work=Path(args.work),
        tracer=LayerTracer() if args.trace else None,
    )
    rnd.work.mkdir(parents=True, exist_ok=True)
    patches = Patches()
    meter = SliceMeter(patches)
    extra = {}
    try:
        module.setup(rnd)
        setup_raw = (time.monotonic_ns() - args.spawned_ns) / 1e9
        setup_probe = probe_ms()
        tracer, recorder = rnd.tracer, None
        if tracer is not None:
            from repro.telemetry.recorder import TraceRecorder, set_recorder

            install_layers(tracer, patches, CLIENT_LAYERS)
            recorder = TraceRecorder()
            set_recorder(recorder)
        outcome = module.timed(rnd, meter)
    finally:
        teardown = getattr(module, "teardown", None)
        if teardown is not None:
            extra = teardown(rnd)
        patches.restore()
    outcome.values.update(extra.get("values", {}))
    outcome.samples.update(extra.get("samples", {}))
    report = {
        "benchmarks": rnd.benchmarks,
        "setup_raw_s": setup_raw,
        "setup_s": scale(setup_raw, first_probe, setup_probe),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems[:20],
        "ops_ms": outcome.ops_ms,
        "raw_s": outcome.raw_s,
        "scaled_s": outcome.scaled_s,
        "probes_ms": outcome.probes_ms,
        "instructions": meter.instructions,
        "values": outcome.values,
        "samples": outcome.samples,
    }
    if tracer is not None:
        # Layers of the processes the round started (the campaign server
        # and its job processes) add to the round's own.
        report["layers_s"] = {
            name: tracer.self_seconds(name)
            + extra.get("layers_s", {}).get(name, 0.0)
            for name in LAYER_NAMES}
        report["layer_calls"] = _merged(tracer.calls, extra.get("layer_calls"))
        report["layer_counts"] = _merged(tracer.counts,
                                         extra.get("layer_counts"))
        report["counters"] = _counter_totals(recorder)
    Path(args.out).write_text(json.dumps(report), encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("build")
    prep = sub.add_parser("prepare")
    prep.add_argument("--store", required=True)
    prep.add_argument("--benchmarks", required=True)
    prep.add_argument("--result-keys", required=True)
    rnd = sub.add_parser("round")
    rnd.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    rnd.add_argument("--seed", type=int, required=True)
    rnd.add_argument("--seconds", type=float, required=True)
    rnd.add_argument("--part", type=int, required=True)
    rnd.add_argument("--trace", action="store_true")
    rnd.add_argument("--spawned-ns", type=int, required=True)
    rnd.add_argument("--work", required=True)
    rnd.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.command == "build":
        return build()
    if args.command == "prepare":
        return prepare(args.store, args.benchmarks.split(","), json.loads(
            Path(args.result_keys).read_text(encoding="utf-8")))
    try:
        return run_round(args)
    except Exception:  # the round's only report is its exit code and stderr
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
