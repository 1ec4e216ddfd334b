"""service-mixed: the campaign service under mixed traffic.

Why this workload: it is the only one where the server's submit path --
validation, the dedup key, the result-store lookup and the fsync'd ledger
record -- the wire protocol and the result-store read path carry the
time.  It reads the store instead of writing it (the opposite of
fig8-cold) and runs no clustering or cache simulation.  Layer map:
``campaign.submit``, ``parallel.store_get``, ``campaign.ledger``,
``campaign.result`` and ``campaign.protocol`` in the server and
``campaign.client_protocol`` in the client carry the hits; the cold jobs'
processes read stored pipelines, so ``clustering.*`` and
``cache.dm_replay`` read zero.

Set-up fills a private store with the round's pipelines and the stored
result of every hit key (from a separate process), flushes the file
system so the timed ledger fsyncs do not pay for set-up's writes, and
boots ``repro serve --workers 1`` on it through ``serve.py`` (traced in
the traced run).  Nothing is submitted during set-up: every timed hit is
its key's first submission, so the server answers it from the store --
``store.has``, a new job born done, an fsync'd ledger record -- and a hit
answered with a job the round has seen before is a failed operation.

Traffic, and where its sizes come from:

* hit keys: every ordering of 1-4 of the round's ``STORED_PER_ROUND`` = 5
  benchmarks, for table2 and fig6, minus the cold combinations:
  2 x (5 + 20 + 60 + 120) - 40 = 370 keys per round, 1110 per run.  Five
  is the smallest subset that gives at least 1000 first-submission hits
  a run, so the hit p99 has at least 10 samples beyond it.
* open loop: the keys, in seeded order, are dealt evenly over the
  window's seconds.  Each second starts with a ``PROBE_SLOT_S``
  calibration slot and then offers its share of hits ``SPACING_S`` apart;
  each hit is timed from when it was due until it is answered ``done``.
  Its result is fetched and checked after the window, so the connection
  carries nothing but submissions while it is timed.  A submission took
  0.8-1.1 ms back to back (p50 of three rounds) on the 2-vCPU host the
  benchmark was sized on, where the probe swung between 20 and 69 ms
  within a run; ``SPACING_S`` = 10 ms offers the connection about a
  tenth of its saturation rate, so the open loop keeps up (lateness p50
  about 0.2 ms) even while the host runs three times slower, and a
  slower hit path shows as latency, not backlog.
* closed loop: once a second's hits are answered, cold table2/fig6 jobs
  over the 2- and 3-benchmark combinations of the round's benchmarks run
  one after another, with no think time (the single worker's saturation
  rate), each timed from its submission to its ``watch`` end frame.
  Multi-benchmark jobs keep the default process-pool fan-out, so the
  pool children's traceback defect stays visible.  No cold job starts in
  the last ``QUIET_TICKS`` = 4 server ticks of a second -- twice a cold
  job's two-tick length -- so the probe that follows, and the next
  second's hits, find no cold job running.  The two streams share the
  server, its job table and its ledger, but take turns: on a 2-vCPU
  host, cold jobs forking beside the hits made the open loop fall 2-8 ms
  behind on slow-host runs and swung the hit p50 between 1.4 and 5 ms.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ReproError

from calibrate import probe_ms, scale
from checks import result_problems
from context import ROUNDS, Outcome, Round, prepare_store
from layers import load_dumps
from subset import partition

HIT_EXPERIMENTS = ("table2", "fig6")

STORED_PER_ROUND = 5
HIT_SIZES = (1, 2, 3, 4)
COLD_SIZES = (2, 3)
SPACING_S = 0.010
PROBE_SLOT_S = 0.05
QUIET_TICKS = 4
BOOT_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 30.0
JOB_TIMEOUT_S = 60.0

#: The traceback each forked pool child of a cold job prints while the
#: heartbeat thread shadows ``Thread._stop`` (a known program defect).
WORKER_TRACEBACK = "TypeError: 'Event' object is not callable"


def subset_size(seconds: float) -> int:
    return STORED_PER_ROUND * ROUNDS


def cold_keys(benchmarks) -> List[tuple]:
    """(experiment, benchmarks) of every cold job a round may run."""
    return [(exp, combo) for size in COLD_SIZES
            for combo in itertools.combinations(benchmarks, size)
            for exp in HIT_EXPERIMENTS]


def hit_keys(benchmarks) -> List[tuple]:
    """(experiment, benchmarks) of every stored result a round hits once."""
    cold = set(cold_keys(benchmarks))
    return [(exp, combo) for size in HIT_SIZES
            for combo in itertools.permutations(benchmarks, size)
            for exp in HIT_EXPERIMENTS if (exp, combo) not in cold]


class Connection:
    """One persistent connection speaking newline-delimited frames."""

    def __init__(self, path: str, timeout_s: float) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout_s)
        self.sock.connect(path)
        self.buffer = bytearray()

    def send(self, op: str, **fields) -> None:
        from repro.campaign.protocol import encode_frame, request_frame

        self.sock.sendall(encode_frame(request_frame(op, **fields)))

    def read(self) -> dict:
        from repro.campaign.protocol import decode_frame

        while True:
            newline = self.buffer.find(b"\n")
            if newline >= 0:
                raw = bytes(self.buffer[: newline + 1])
                del self.buffer[: newline + 1]
                return decode_frame(raw)
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("campaign server closed the connection")
            self.buffer.extend(chunk)

    def request(self, op: str, **fields) -> dict:
        self.send(op, **fields)
        return self.read()

    def close(self) -> None:
        self.sock.close()


@dataclass
class Service:
    server: subprocess.Popen
    hits: Connection
    cold: Connection
    socket: str
    hit_keys: List[tuple]
    cold_keys: List[tuple]
    #: Per timed hit: (job id, raw ms late, raw ms round trip).
    hit_log: List[tuple] = field(default_factory=list)


def _rel(rnd: Round, path) -> str:
    # Unix socket paths are limited to ~107 bytes; the checkout root may be
    # deep, so every process addresses the socket relative to the root.
    return str(path.relative_to(rnd.root))


def _boot(rnd: Round) -> subprocess.Popen:
    ready = rnd.work / "ready.json"
    command = [sys.executable, str(Path(__file__).with_name("serve.py"))]
    if rnd.tracer is not None:
        command += ["--trace-dir", str(rnd.work / "server-trace")]
    command += [
        "--", "--workers", "1",
        "--cache-dir", str(rnd.store),
        "--socket", _rel(rnd, rnd.work / "campaign.sock"),
        "--ready-file", str(ready),
        "--metrics-out", str(rnd.work / "server-metrics.json"),
    ]
    with open(rnd.work / "server.stderr", "wb") as log:
        server = subprocess.Popen(command, cwd=rnd.root,
                                  stdout=subprocess.DEVNULL, stderr=log)
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    while not ready.exists():
        if server.poll() is not None:
            raise RuntimeError(f"campaign server exited with {server.returncode}")
        if time.monotonic() > deadline:
            server.kill()
            server.wait()
            raise RuntimeError("campaign server did not become ready")
        time.sleep(0.01)
    return server


def setup(rnd: Round) -> None:
    keys = hit_keys(rnd.benchmarks)
    prepare_store(rnd, result_keys=keys)
    os.sync()
    rng = np.random.default_rng([rnd.seed, len(rnd.benchmarks)])
    server = _boot(rnd)
    sock = _rel(rnd, rnd.work / "campaign.sock")
    cold = cold_keys(rnd.benchmarks)
    rnd.state = Service(
        server=server,
        hits=Connection(sock, REQUEST_TIMEOUT_S),
        cold=Connection(sock, JOB_TIMEOUT_S),
        socket=sock,
        hit_keys=[keys[i] for i in rng.permutation(len(keys))],
        cold_keys=[cold[i] for i in rng.permutation(len(cold))],
    )


def _hit_problems(reply: dict, label: str, seen: set) -> List[str]:
    job = reply.get("job") or {}
    if not reply.get("ok") or job.get("state") != "done" or not job.get("cached"):
        return [f"{label}: not a stored-result hit: {json.dumps(reply)[:200]}"]
    if job["id"] in seen:
        return [f"{label}: answered with earlier job {job['id']}, not from "
                "the store"]
    seen.add(job["id"])
    return []


def _cold_job(service: Service, rnd: Round, experiment: str, benchmarks,
              cold: dict) -> List[str]:
    """One closed-loop cold job: submit, watch to its end frame, check."""
    conn = service.cold
    start = time.monotonic()
    reply = conn.request("submit", experiment=experiment,
                         kwargs={"benchmarks": list(benchmarks)})
    label = f"{experiment} {list(benchmarks)}"
    if not reply.get("ok"):
        return [f"{label}: submit refused: {json.dumps(reply)[:200]}"]
    job = reply["job"]
    if reply.get("deduped") or job.get("state") != "queued":
        return [f"{label}: expected a fresh queued job, got {job.get('state')}"]
    conn.send("watch", job=job["id"])
    frame = conn.read()
    if not frame.get("ok"):
        return [f"{label}: watch refused: {json.dumps(frame)[:200]}"]
    job = frame["job"]
    while True:
        frame = conn.read()
        if frame.get("event") == "state":
            job = frame["job"]
        if frame.get("event") == "end":
            break
    cold["latency_s"].append(time.monotonic() - start)
    if frame.get("state") != "done":
        return [f"{label}: ended {frame.get('state')}: {job.get('error')}"]
    if job.get("started_ns") and job.get("finished_ns"):
        cold["queue_wait_ms"].append(
            (job["started_ns"] - job["submitted_ns"]) / 1e6)
        cold["run_ms"].append((job["finished_ns"] - job["started_ns"]) / 1e6)
    result = conn.request("result", job=job["id"])
    if not result.get("ok"):
        return [f"{label}: result refused: {json.dumps(result)[:200]}"]
    return result_problems(rnd.committed, experiment, benchmarks,
                           result["payload"])


def _cold_loop(service: Service, rnd: Round, stop: threading.Event,
               allowed: threading.Event, idle: threading.Event,
               cold: dict) -> None:
    for experiment, benchmarks in service.cold_keys:
        allowed.wait()
        if stop.is_set():
            return
        idle.clear()
        try:
            problems = _cold_job(service, rnd, experiment, benchmarks, cold)
        except Exception as exc:  # thread boundary: timeout, reset, bad frame
            problems = [f"{experiment} {list(benchmarks)}: {exc!r}"]
            cold["problems"].append(problems)
            return  # the connection's state is unknown; stop the loop
        finally:
            idle.set()
        cold["problems"].append(problems)


class _Clock:
    """The hit loop's wall clock, split into idle, probe and the rest."""

    def __init__(self) -> None:
        self.idle_s = 0.0
        self.probe_s = 0.0
        self.probes: List[float] = []

    def sleep_until(self, when: float) -> None:
        now = time.monotonic()
        if now < when:
            time.sleep(when - now)
            self.idle_s += time.monotonic() - now

    def wait(self, event: threading.Event) -> None:
        now = time.monotonic()
        event.wait()
        self.idle_s += time.monotonic() - now

    def probe(self) -> None:
        start = time.monotonic()
        self.probes.append(probe_ms())
        self.probe_s += time.monotonic() - start


def _hit(service: Service, key: tuple, due: float, seen: set) -> tuple:
    """One open-loop hit: ``(raw seconds from due to answer, job id,
    problems)``; the job id is None when the hit failed."""
    experiment, benchmarks = key
    label = f"hit {experiment} {list(benchmarks)}"
    sent = time.monotonic()
    try:
        reply = service.hits.request("submit", experiment=experiment,
                                     kwargs={"benchmarks": list(benchmarks)})
    except (OSError, ReproError) as exc:  # timeout, reset, bad frame
        service.hits.close()  # its state is unknown: reconnect
        service.hits = Connection(service.socket, REQUEST_TIMEOUT_S)
        return time.monotonic() - due, None, [f"{label}: {exc!r}"]
    answered = time.monotonic()
    problems = _hit_problems(reply, label, seen)
    job = None if problems else reply["job"]["id"]
    service.hit_log.append((job, (sent - due) * 1e3, (answered - sent) * 1e3))
    return answered - due, job, problems


def _check_hits(service: Service, rnd: Round, answered: list,
                outcome: Outcome) -> None:
    """Fetch every hit's stored result and check it; one operation a hit."""
    for (experiment, benchmarks), job, problems in answered:
        if job is not None:
            try:
                result = service.hits.request("result", job=job)
            except (OSError, ReproError) as exc:
                outcome.check([f"result {job}: {exc!r}"])
                continue
            problems = result_problems(
                rnd.committed, experiment, benchmarks, result["payload"]) \
                if result.get("ok") else [f"result {job} refused: {result}"]
        outcome.check(problems)


def timed(rnd: Round, meter) -> Outcome:
    from repro.campaign.server import TICK_S

    service: Service = rnd.state
    outcome = Outcome()
    cold = {"latency_s": [], "queue_wait_ms": [], "run_ms": [],
            "problems": []}
    stop = threading.Event()
    allowed = threading.Event()
    idle = threading.Event()
    idle.set()
    worker = threading.Thread(target=_cold_loop,
                              args=(service, rnd, stop, allowed, idle, cold))
    clock = _Clock()
    seen: set = set()
    answered = []
    hits_ms, raw_ms = [], []
    scaled_busy = raw_busy = 0.0
    start = time.monotonic()
    end = start + rnd.seconds
    shares = partition(service.hit_keys, math.ceil(rnd.seconds))
    clock.probe()  # the first second's probe slot
    worker.start()
    try:
        for block, share in enumerate(shares):
            base = start + block
            clock.wait(idle)  # a slow cold job may still be running
            first_due = max(base + PROBE_SLOT_S, time.monotonic())
            block_hits = []
            for i, key in enumerate(share):
                due = first_due + i * SPACING_S
                clock.sleep_until(due)
                raw, job, problems = _hit(service, key, due, seen)
                block_hits.append(raw)
                answered.append((key, job, problems))
            block_end = min(base + 1.0, end)
            allowed.set()
            clock.sleep_until(block_end - QUIET_TICKS * TICK_S)
            allowed.clear()
            clock.sleep_until(block_end)
            clock.probe()
            for raw in block_hits:
                hits_ms.append(scale(raw, *clock.probes[-2:]) * 1e3)
                raw_ms.append(raw * 1e3)
            raw_busy += sum(block_hits)
            scaled_busy += scale(sum(block_hits), *clock.probes[-2:])
        window = time.monotonic() - start
        # The client's frame coding inside the window (results are
        # fetched after it).
        window_protocol_s = (0.0 if rnd.tracer is None else
                             rnd.tracer.self_seconds("campaign.client_protocol"))
    finally:
        stop.set()
        allowed.set()
        worker.join(JOB_TIMEOUT_S + 5)
    _check_hits(service, rnd, answered, outcome)
    for problems in cold["problems"]:
        outcome.check(problems)
    outcome.ops_ms = hits_ms
    outcome.raw_s = raw_busy
    outcome.scaled_s = scaled_busy
    outcome.probes_ms = clock.probes
    outcome.samples.update({
        "campaign.cold_s": cold["latency_s"],
        "campaign.queue_wait_ms": cold["queue_wait_ms"],
        "campaign.run_ms": cold["run_ms"],
        "campaign.hit_raw_ms": raw_ms,
        "bench.late_ms": [late for _, late, _ in service.hit_log],
    })
    outcome.values.update({
        "campaign.hits": len(hits_ms),
        "campaign.cold_jobs": len(cold["problems"]),
        "bench.idle_s": clock.idle_s,
        "bench.probe_s": clock.probe_s,
        "bench.program_s": window - clock.idle_s - clock.probe_s,
        "bench.window_protocol_s": window_protocol_s,
    })
    return outcome


def _server_side(rnd: Round, service: Service) -> dict:
    """The traced server's layer totals and each hit's server/client split."""
    trace_dir = rnd.work / "server-trace"
    dumps = [trace_dir / "server.json", *sorted(trace_dir.glob("job-*.json"))]
    layers = load_dumps(dumps)
    submits = json.loads((trace_dir / "submits.json").read_text(
        encoding="utf-8"))
    server_ms, client_ms = [], []
    hit_server_s = 0.0
    for job, _, round_trip in service.hit_log:
        submit = submits.get(job)
        if submit is None:
            continue
        server_ms.append(submit)
        client_ms.append(round_trip - submit)
        hit_server_s += submit / 1e3
    return {
        **layers,
        "values": {"bench.hit_server_s": hit_server_s,
                   "campaign.traced_processes": len(dumps) - 1},
        "samples": {"campaign.server_ms": server_ms,
                    "campaign.client_ms": client_ms},
    }


def teardown(rnd: Round) -> dict:
    """Drain the server; return its counters, traceback count and, when
    traced, its layer totals."""
    service: Optional[Service] = rnd.state
    if service is None:
        return {}
    try:
        service.hits.request("shutdown")
    except (OSError, ValueError):
        pass
    service.hits.close()
    service.cold.close()
    try:
        service.server.wait(timeout=BOOT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        service.server.kill()
        service.server.wait()
    text = (rnd.work / "server.stderr").read_text(encoding="utf-8",
                                                  errors="replace")
    try:
        manifest = json.loads((rnd.work / "server-metrics.json").read_text(
            encoding="utf-8"))
    except (OSError, ValueError):
        manifest = {}
    counters: Dict[str, float] = manifest.get("counters", {})

    def total(name: str, tag: str = "") -> float:
        return sum(v for k, v in counters.items()
                   if k.split("{")[0] == name and tag in k)

    extra = _server_side(rnd, service) if rnd.tracer is not None else {}
    extra.setdefault("values", {}).update({
        "campaign.worker_tracebacks": text.count(WORKER_TRACEBACK),
        "campaign.server_store_hits": total("campaign.dedup.hit", "store"),
        "campaign.server_inflight_hits":
            total("campaign.dedup.hit", "inflight"),
        "campaign.server_done": total("campaign.done"),
    })
    return extra
