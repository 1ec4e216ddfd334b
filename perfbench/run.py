"""The repository's benchmark: one workload, one seed, one JSON result line.

Run from the checkout root::

    python3 perfbench/run.py --workload fig8-cold --seed 1 --seconds 20 --trace 0

Workloads (each module's docstring gives its reason and layer map):
``fig8-cold``, ``sniper-regional`` and ``service-mixed``.  A run starts
``context.ROUNDS`` fresh processes one after another; each sets itself
up in a private directory and times its share of the seeded work.
``--trace 0`` prints the gated end-to-end metrics; ``--trace 1`` runs
every share twice -- untraced, then with the layer wrappers -- and prints
the per-layer metrics and the tracing overhead instead.  The last stdout
line is the JSON result; every line before it is for people.  Every
output is checked against ``results/*.json``; a mismatch is a failed
operation.  ``--workload all`` runs every workload in turn.

Gated metrics, the same on every workload:

* ``setup_s`` -- median over the rounds of the time from a round's
  process start to its first timed call (store preparation and server
  boot included), at the calibration probe's reference speed;
* ``peak_rss_mb`` -- peak resident set over every process of the run;
* ``op_p50_ms`` -- median time of the workload's unit operation at
  reference speed: one benchmark's cold flow (fig8-cold), one
  ``run_region`` call (sniper-regional), one stored-result hit -- a key's
  first submission, answered from the store -- from when it was due until
  it was answered (service-mixed).

"At reference speed" means scaled by the ratio of
``calibrate.REFERENCE_PROBE_MS`` to the interleaved probe, raised to
``calibrate.ELASTICITY`` (see ``calibrate.py``); cold-job latencies stay
raw because the server's 50 ms poll dominates them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from context import ROUNDS
from stats import median, percentile

WORKLOADS = ("fig8-cold", "sniper-regional", "service-mixed")

#: Every run must end within 180 s; rounds that would overrun are killed.
RUN_BUDGET_S = 170.0

WORK_DIR = ".perfbench"

CHILD = str(Path(__file__).with_name("child.py"))

#: Per-layer metrics: name -> unit.  Layers a workload never calls read 0.
PER_LAYER_UNITS = {
    "workloads.build_s": "s",
    "workloads.slicegen_s": "s",
    "workloads.slices": "count",
    "workloads.memo_hit_ratio": "ratio",
    "pin.bbv_s": "s",
    "sampling.select_s": "s",
    "clustering.project_s": "s",
    "clustering.choose_k_s": "s",
    "clustering.kmeans_runs": "count",
    "clustering.lloyd_iters": "count",
    "pinball.regions_s": "s",
    "cache.dm_replay_s": "s",
    "cache.dm_mrefs": "Mref",
    "cache.assoc_s": "s",
    "cache.assoc_mrefs": "Mref",
    "sniper.model_s": "s",
    "sniper.regions": "count",
    "parallel.store_put_s": "s",
    "parallel.store_puts": "count",
    "parallel.store_put_mb": "MB",
    "parallel.store_get_s": "s",
    "parallel.store_hit_ratio": "ratio",
    "experiments.memtier_hits": "count",
    "campaign.submit_s": "s",
    "campaign.result_s": "s",
    "campaign.ledger_s": "s",
    "campaign.protocol_s": "s",
    "campaign.client_protocol_s": "s",
    "campaign.hit_p50_ms": "ms",
    "campaign.server_ms": "ms",
    "campaign.client_ms": "ms",
    "campaign.hit_p99_ms": "ms",
    "campaign.queue_wait_ms": "ms",
    "campaign.run_ms": "ms",
    "campaign.cold_p50_s": "s",
    "campaign.hits": "count",
    "campaign.cold_jobs": "count",
    "campaign.failed": "count",
    "campaign.worker_tracebacks": "count",
    "campaign.server_store_hits": "count",
    "campaign.server_inflight_hits": "count",
    "campaign.server_done": "count",
    "campaign.traced_processes": "count",
    "accuracy.l3_err_pp": "pp",
    "accuracy.cpi_err_pct": "%",
    "bench.minst_per_s": "Minst/s",
    "bench.sim_minst": "Minst",
    "bench.late_p50_ms": "ms",
    "bench.late_p99_ms": "ms",
    "bench.probe_ms": "ms",
    "bench.idle_s": "s",
    "bench.probe_s": "s",
    "bench.raw_s": "s",
    "bench.timed_s": "s",
    "bench.unattributed_s": "s",
    "bench.attributed_pct": "%",
    "bench.trace_overhead_pct": "%",
}


class RunFailed(Exception):
    """The run cannot produce a result (its reason goes to stderr)."""


def pinned_env(root: Path, work: Path) -> dict:
    """The environment every process of the run starts with."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({
        "PYTHONPATH": str(root / "src"),
        "OPENBLAS_NUM_THREADS": "1",
        "REPRO_CACHE_BACKEND": "native",
        "REPRO_NATIVE_CACHE": str(root / WORK_DIR / "native"),
        "REPRO_CACHE_DIR": str(work / "default-store"),
    })
    return env


def spawn(command, root: Path, env: dict, deadline: float) -> str:
    """Run one child to completion within the run's budget; return stdout."""
    proc = subprocess.Popen(command, cwd=root, env=env, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunFailed(f"{command[2]} ran past the run's time budget")
    finally:
        try:  # anything the child left behind in its session
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RunFailed(f"{' '.join(command[1:4])} exited {proc.returncode}")
    return out


def check_environment(root: Path, env: dict, deadline: float) -> dict:
    """Build the native kernel; refuse a set-up that differs from earlier runs."""
    recorded = json.loads(
        spawn([sys.executable, CHILD, "build"], root, env, deadline)
        .strip().splitlines()[-1])
    marker = root / WORK_DIR / "environment.json"
    if marker.exists():
        first = json.loads(marker.read_text(encoding="utf-8"))
        if first != recorded:
            raise RunFailed(
                f"run environment {recorded} differs from this checkout's "
                f"earlier runs {first}; delete {marker} to start over")
    else:
        marker.write_text(json.dumps(recorded, sort_keys=True), encoding="utf-8")
    return recorded


def run_rounds(args, root: Path, work: Path, env: dict, deadline: float):
    """Every round's report, as (traced, report) in run order."""
    reports = []
    for part in range(ROUNDS):
        for traced in ((False, True) if args.trace else (False,)):
            tag = f"part{part}{'-traced' if traced else ''}"
            out = work / f"{tag}.json"
            command = [
                sys.executable, CHILD, "round",
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--part", str(part),
                "--work", str(work / tag), "--out", str(out),
                "--spawned-ns", str(time.monotonic_ns()),
            ]
            if traced:
                command.append("--trace")
            spawn(command, root, env, deadline)
            reports.append((traced, json.loads(out.read_text(encoding="utf-8"))))
    return reports


def _pooled(reports, key):
    return [x for r in reports for x in r["samples"].get(key, [])]


def end_to_end(reports) -> dict:
    """The gated metrics: name -> (value, unit, note)."""
    ops = [x for r in reports for x in r["ops_ms"]]
    if not ops:
        raise RunFailed("no operation was timed")
    rss_kb = max(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    setups = [r["setup_s"] for r in reports]
    op_p50, op_note = percentile(ops, 50)
    return {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} fresh-process set-ups"),
        "peak_rss_mb": (rss_kb / 1024, "MB",
                        "max over the run's processes"),
        "op_p50_ms": (op_p50, "ms", op_note),
    }


def per_layer(workload: str, plain, traced) -> dict:
    """Layer numbers and the hit latency split from the traced rounds;
    accuracy, throughput and the other service percentiles from the
    untraced rounds of the same run."""
    def total(reports, section, key):
        return sum(r.get(section, {}).get(key, 0.0) for r in reports)

    def ratio(hit, miss):
        return hit / (hit + miss) if hit + miss else 0.0

    values = {name: 0.0 for name in PER_LAYER_UNITS}
    notes = {}
    for key in PER_LAYER_UNITS:
        if key.endswith("_s") and key[:-2] in traced[0].get("layers_s", {}):
            values[key] = total(traced, "layers_s", key[:-2])
    def counters(name):
        return total(traced, "counters", name)

    values.update({
        "workloads.slices": total(traced, "layer_calls", "workloads.slicegen"),
        "workloads.memo_hit_ratio": ratio(counters("slice.cache.hit"),
                                          counters("slice.cache.miss")),
        "clustering.kmeans_runs": counters("clustering.runs"),
        "clustering.lloyd_iters": counters("clustering.iterations"),
        "cache.dm_mrefs": total(traced, "layer_counts", "cache.dm_refs") / 1e6,
        "cache.assoc_mrefs":
            total(traced, "layer_counts", "cache.assoc_refs") / 1e6,
        "sniper.regions": total(traced, "layer_calls", "sniper.model"),
        "parallel.store_puts":
            total(traced, "layer_calls", "parallel.store_put"),
        "parallel.store_put_mb":
            total(traced, "layer_counts", "parallel.store_put_bytes") / 2**20,
        "parallel.store_hit_ratio": ratio(counters("store.hit"),
                                          counters("store.miss")),
        "experiments.memtier_hits": counters("memtier.hit"),
    })
    for key in ("campaign.hits", "campaign.cold_jobs",
                "campaign.worker_tracebacks", "campaign.server_store_hits",
                "campaign.server_inflight_hits", "campaign.server_done",
                "campaign.traced_processes", "bench.idle_s", "bench.probe_s"):
        values[key] = total(traced, "values", key)
    service = workload == "service-mixed"
    hits = [x for r in plain for x in r["ops_ms"]] if service else []
    # The hit latency split (raw ms, p50 over the traced rounds' hits):
    # due -> sent is lateness, the server's submit call is server time,
    # and the rest of the round trip is client time.
    for key, reports, samples, q in (
        ("campaign.hit_p50_ms", traced, "campaign.hit_raw_ms", 50),
        ("bench.late_p50_ms", traced, "bench.late_ms", 50),
        ("campaign.server_ms", traced, "campaign.server_ms", 50),
        ("campaign.client_ms", traced, "campaign.client_ms", 50),
        ("campaign.queue_wait_ms", traced, "campaign.queue_wait_ms", 50),
        ("campaign.run_ms", traced, "campaign.run_ms", 50),
        ("campaign.cold_p50_s", plain, "campaign.cold_s", 50),
        ("bench.late_p99_ms", plain, "bench.late_ms", 99),
    ):
        values[key], notes[key] = percentile(_pooled(reports, samples), q)
    if service:
        values["campaign.hit_p99_ms"], notes["campaign.hit_p99_ms"] = \
            percentile(hits, 99)
    values.update({
        "campaign.failed":
            sum(r["failed"] for r in plain + traced) if service else 0.0,
        "accuracy.l3_err_pp": statistics.fmean(
            _pooled(plain, "accuracy.l3_err_pp") or [0.0]),
        "accuracy.cpi_err_pct": statistics.fmean(
            _pooled(plain, "accuracy.cpi_err_pct") or [0.0]),
        "bench.sim_minst": sum(r["instructions"] for r in plain) / 1e6,
        "bench.probe_ms": median([p for r in plain for p in r["probes_ms"]]),
    })
    plain_s = sum(r["scaled_s"] for r in plain)
    traced_s = sum(r["scaled_s"] for r in traced)
    if values["bench.sim_minst"]:
        values["bench.minst_per_s"] = values["bench.sim_minst"] / plain_s
    if service:
        # Program time is the open-loop window minus the hit loop's sleeps
        # and probes.  Named in it: the server's time inside each hit's
        # submit call and the client's frame coding; the rest is socket
        # transport, event-loop and process wake-ups.  The window is
        # fixed, so the tracing overhead compares the hits' medians.
        window = total(traced, "values", "bench.program_s")
        named = (total(traced, "values", "bench.hit_server_s")
                 + total(traced, "values", "bench.window_protocol_s"))
        untraced_cost = median(hits)
        traced_cost = median([x for r in traced for x in r["ops_ms"]])
    else:
        window = sum(r["raw_s"] for r in traced)
        named = sum(total(traced, "layers_s", k)
                    for k in traced[0].get("layers_s", {}))
        untraced_cost, traced_cost = plain_s, traced_s
    values.update({
        "bench.raw_s": window,
        "bench.timed_s": traced_s,
        "bench.unattributed_s": window - named,
        "bench.attributed_pct": 100 * named / window if window else 0.0,
        "bench.trace_overhead_pct":
            100 * (traced_cost - untraced_cost) / untraced_cost,
    })
    return {name: (values[name], unit, notes.get(name, ""))
            for name, unit in PER_LAYER_UNITS.items()}


def describe(reports, metrics, environment) -> None:
    """Human-readable lines: every metric with its unit and sample counts."""
    print(f"environment: {json.dumps(environment, sort_keys=True)}")
    for name, (value, unit, note) in metrics.items():
        print(f"{name:28s} {value:14.6f} {unit:8s} {note}".rstrip())
    for r in reports:
        for problem in r["problems"]:
            print(f"FAILED: {problem}")


def run_workload(args, root: Path) -> dict:
    """One workload's run; returns its result object."""
    deadline = time.monotonic() + RUN_BUDGET_S
    work = root / WORK_DIR / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    env = pinned_env(root, work)
    try:
        environment = check_environment(root, env, deadline)
        reports = run_rounds(args, root, work, env, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    plain = [r for traced, r in reports if not traced]
    traced = [r for is_traced, r in reports if is_traced]
    metrics = (per_layer(args.workload, plain, traced) if args.trace
               else end_to_end(plain))
    every = plain + traced
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)
    (root / WORK_DIR / "reports").mkdir(exist_ok=True)
    (root / WORK_DIR / "reports" /
     f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": environment, "rounds": every}),
        encoding="utf-8")
    describe(every, metrics, environment)
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload in turn, each as its own run; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
        if proc.returncode != 0 or not lines:
            print(f"{workload}: run failed ({proc.returncode})", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro").is_dir() or not (root / "results").is_dir():
        print("run from the root of a checkout holding src/repro and results/",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args, root)
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
