"""Job execution in an isolated child process, with live progress.

The recorder, store and fault-plan slots are all module-level
singletons, so two experiments cannot share one process.  The server
therefore forks one child per job (:func:`child_main` is the
``multiprocessing.Process`` target) — which also gives the service its
crash semantics for free: every item a SIGKILL'd child finished is
already in the artifact store, and the re-adopted job reads it back.

Progress streaming: :class:`ProgressRecorder` extends the normal
:class:`TraceRecorder` by mirroring a whitelist of per-item counters
(completed items, result-cache hits, fan-out sizes) as JSONL lines into
``<store root>/campaigns/<job id>.progress.jsonl``.  The server tails
that file on its scheduler tick and broadcasts new lines to ``watch``
subscribers — no sockets in the child, no extra IPC machinery, and a
dead child's progress trail survives for post-mortems.

Completion handshake: the child atomically writes
``<job id>.status.json`` (tmp + ``os.replace``) as its last act, so the
server distinguishes "exited after finishing" from "died mid-run" by
the file's existence, never by exit-code guesswork alone.

Liveness: a :class:`HeartbeatPump` daemon thread appends periodic beat
lines to the same progress stream.  Beats flow as long as the process
is alive and scheduled — a child wedged hard enough to stop its threads
(SIGSTOP, unkillable I/O, a dead box) stops beating, which is exactly
the signal the server watchdog kills on.  A busy child computing one
long item keeps beating, so honest work is never mistaken for a hang.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
from pathlib import Path

from repro.telemetry.metrics import metric_key
from repro.telemetry.recorder import TraceRecorder

__all__ = [
    "PROGRESS_COUNTERS",
    "HeartbeatPump",
    "ProgressRecorder",
    "child_main",
    "progress_path",
    "run_job",
    "status_path",
]

#: Counters mirrored into the progress stream.  Everything here is
#: incremented per item or per fan-out by the parallel runner or the
#: registry, so the stream reads as a live per-item trace of the job.
PROGRESS_COUNTERS = frozenset(
    {
        "parallel.completed",
        "parallel.tasks",
        "result.hit",
        "result.miss",
    }
)

#: Counters of a fan-out item answered by the ``item`` memo without
#: computing: from this process's memory, or from the artifact store.
_REUSED_COUNTERS = (
    metric_key("memtier.hit", {"kind": "item"}),
    metric_key("store.hit", {"kind": "item"}),
)


def progress_path(store_root, job_id: str) -> Path:
    """Where a job's live progress JSONL accumulates."""
    return Path(store_root) / "campaigns" / f"{job_id}.progress.jsonl"


def status_path(store_root, job_id: str) -> Path:
    """Where a job's terminal status document lands (atomic write)."""
    return Path(store_root) / "campaigns" / f"{job_id}.status.json"


class ProgressRecorder(TraceRecorder):
    """TraceRecorder that streams whitelisted counters to a JSONL file.

    Lines are flushed per event (they are rare — one per completed item,
    not per simulated access), so the server's tail sees them promptly.
    A write failure disables the stream rather than failing the job:
    progress is observability, not correctness.
    """

    def __init__(self, stream_path: Path, clock=None) -> None:
        super().__init__(clock=clock)
        self._stream_path = Path(stream_path)
        self._stream = None
        self._stream_dead = False
        # The heartbeat pump writes from its own thread; one lock keeps
        # beat lines and counter lines from interleaving mid-line.
        self._stream_lock = threading.Lock()

    def _emit(self, payload: dict) -> None:
        if self._stream_dead:
            return
        line = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        try:
            with self._stream_lock:
                if self._stream is None:
                    self._stream_path.parent.mkdir(
                        parents=True, exist_ok=True
                    )
                    self._stream = open(
                        self._stream_path, "a", encoding="utf-8"
                    )
                self._stream.write(line + "\n")
                self._stream.flush()
        except OSError:
            self._stream_dead = True

    def count(self, name: str, n: int = 1, **tags) -> None:
        super().count(name, n, **tags)
        if name not in PROGRESS_COUNTERS:
            return
        self._emit({"counter": name, "n": n, "tags": tags})

    def beat(self, sequence: int) -> None:
        """Append one liveness beat line (heartbeat-pump thread only).

        Deliberately bypasses the metrics dict — the recorder's metric
        machinery is not thread-safe, and a beat is a pulse for the
        server's watchdog, not a statistic.
        """
        from repro.campaign.supervision import HEARTBEAT_COUNTER

        self._emit({"counter": HEARTBEAT_COUNTER, "n": sequence, "tags": {}})

    def close_stream(self) -> None:
        with self._stream_lock:
            if self._stream is not None:
                try:
                    self._stream.close()
                except OSError:
                    pass
                self._stream = None
                self._stream_dead = True


class HeartbeatPump(threading.Thread):
    """Daemon thread beating the job's progress stream every interval.

    Beats prove the child is alive *and scheduled*: SIGSTOP, a dead
    machine, or a process wedged in the kernel stops all threads —
    including this one — so the server-side stall deadline fires.  The
    pump is pure liveness; it never touches the recorder's metrics.
    """

    def __init__(self, recorder: ProgressRecorder, interval_s: float) -> None:
        super().__init__(name="campaign-heartbeat", daemon=True)
        self.recorder = recorder
        self.interval_s = float(interval_s)
        # Not ``_stop``: that would shadow ``Thread._stop()``, which
        # ``threading`` calls on every other thread in a forked child.
        self._stop_event = threading.Event()
        self._beats = 0

    def run(self) -> None:
        while not self._stop_event.wait(self.interval_s):
            self._beats += 1
            self.recorder.beat(self._beats)

    def stop(self) -> None:
        self._stop_event.set()


def run_job(payload: dict) -> dict:
    """Execute one job in this process; returns its status document.

    ``payload`` carries everything the child needs (it must be
    picklable across the fork): store root, job id, experiment name and
    kwargs.  The job's first failed item fails it: the status document
    carries that item's error.  Its item counts come from the job's
    recorder: fan-out sizes, merged items, and items the ``item`` memo
    answered without computing.
    """
    from repro.experiments.common import configure_cache
    from repro.experiments.registry import execute, get_spec
    from repro.telemetry.recorder import using_recorder

    store_root = payload["store_root"]
    job_id = payload["job_id"]
    spec = get_spec(payload["experiment"])
    recorder = ProgressRecorder(progress_path(store_root, job_id))
    # Degraded (low-disk) mode: run memory-only so the job completes
    # without a single artifact write that could ENOSPC mid-campaign.
    configure_cache(store_root, enabled=not payload.get("no_cache"))
    pump = None
    heartbeat_s = float(payload.get("heartbeat_s", 0) or 0)
    if heartbeat_s > 0:
        pump = HeartbeatPump(recorder, heartbeat_s)
        pump.start()
    status = {"job_id": job_id, "ok": False, "error": None}
    try:
        with using_recorder(recorder):
            execute(spec, payload.get("kwargs") or {})
        status["ok"] = True
    except Exception as exc:  # repro-lint: disable=REP006 -- the child is the process boundary: any failure must become a status document for the server, not a traceback lost in a daemon log
        status["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        if pump is not None:
            pump.stop()
        recorder.close_stream()
    counters = recorder.metrics.counters
    status["total_items"] = counters.get("parallel.tasks", 0)
    status["completed_items"] = counters.get("parallel.completed", 0)
    status["reused_items"] = sum(counters.get(k, 0) for k in _REUSED_COUNTERS)
    return status


def child_main(payload: dict) -> None:
    """``multiprocessing.Process`` target: run the job, land the status.

    The status file is written atomically (tmp + ``os.replace``) so the
    server never reads a half-written document; its absence after the
    child exits means the child died mid-run.

    The fork inherits the server's asyncio signal handlers and its
    ledger lock fd; both are shed first — a child outliving a dead
    server must not hold the server-singleton lock, and SIGTERM must
    kill the child (cancel), not poke the parent's event loop.
    """
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(sig, signal.SIG_DFL)
        except (OSError, ValueError):
            pass
    try:
        signal.set_wakeup_fd(-1)
    except (OSError, ValueError):
        pass
    for fd in payload.get("close_fds", ()):
        try:
            os.close(fd)
        except OSError:
            pass
    # Mark this process as a service worker for the fault plan:
    # workerkill/workerhang clauses only ever fire here, and gen=N
    # clauses match the job's kill count (its run generation).
    from repro.resilience import faults

    faults.set_service_context(True, int(payload.get("generation", 0)))
    status = run_job(payload)
    target = status_path(payload["store_root"], payload["job_id"])
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(target.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(status, handle, sort_keys=True)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, target)
    sys.exit(0 if status["ok"] else 1)
