"""The campaign daemon: asyncio event loop + forked worker children.

One :class:`CampaignServer` owns four things:

* the **listener** — a unix-domain socket speaking newline-delimited
  ``repro-campaign-v1`` frames;
* the **scheduler** — a priority/FIFO :class:`JobQueue` drained onto a
  bounded pool of forked children (one process per job, because the
  recorder/store/fault-plan slots are process-level singletons);
* the **ledger** — every accepted submission and state transition is
  fsync'd through :class:`ServerLedger` before it is acknowledged, so a
  SIGKILL'd server rebooted with ``--resume`` re-adopts its in-flight
  jobs, which run again and read their finished items back from the
  artifact store;
* the **broadcast plane** — the scheduler tick tails each running job's
  progress JSONL and fans new lines out to ``watch`` subscribers.

Deduplication happens at submit time against both the in-flight job
table and the artifact store, using the registry result-cache key — an
identical submission either joins the existing job or is born ``done``
from the stored result, and ``campaign.dedup.hit`` counts both.

Shutdown is a drain: SIGTERM (or the ``shutdown`` op) stops the
scheduler from starting new work, lets running children finish, then
exits 0.  Queued jobs stay in the ledger and run on the
next ``--resume`` boot.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import signal
from pathlib import Path
from typing import Dict, List, Optional

from repro.campaign import worker
from repro.campaign.jobs import (
    DEFAULT_PRIORITY,
    STATE_CANCELLED,
    STATE_DONE,
    STATE_FAILED,
    STATE_POISONED,
    STATE_QUEUED,
    STATE_RUNNING,
    TERMINAL_STATES,
    Job,
    job_key,
    summarize_jobs,
    validate_submission,
)
from repro.campaign.ledger import ServerLedger
from repro.campaign.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL,
    decode_frame,
    encode_frame,
    error_frame,
    ok_frame,
)
from repro.campaign.queue import JobQueue
from repro.campaign.supervision import (
    DECISION_POISON,
    HEARTBEAT_COUNTER,
    JobSupervisor,
    SupervisionPolicy,
    free_disk_bytes,
)
from repro.errors import (
    CampaignRejectedError,
    CampaignServiceError,
    ProtocolError,
    StoreError,
)
from repro.resilience.faults import inject_service_fault
from repro.telemetry.clock import monotonic_ns
from repro.telemetry.exporters import summarize, write_summary
from repro.telemetry.recorder import TraceRecorder

__all__ = ["CampaignServer", "TICK_S"]

#: Scheduler cadence: start work, tail progress, reap children.
TICK_S = 0.05


class CampaignServer:
    """One campaign service instance bound to one artifact store."""

    def __init__(
        self,
        store,
        socket_path,
        *,
        workers: int = 2,
        resume: bool = False,
        metrics_out=None,
        supervision: Optional[SupervisionPolicy] = None,
    ) -> None:
        if store is None:
            raise CampaignServiceError(
                "the campaign service needs an artifact store "
                "(it is the dedup index and the crash-safe ledger); "
                "run serve without --no-cache"
            )
        self.store = store
        self.socket_path = Path(socket_path)
        self.workers = max(1, int(workers))
        self.resume = resume
        self.metrics_out = metrics_out
        self.recorder = TraceRecorder()
        self.ledger = ServerLedger(store.root)
        self.supervision = supervision or SupervisionPolicy()
        self.supervisor = JobSupervisor(self.supervision)
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._by_key: Dict[str, str] = {}
        self._queue = JobQueue(limit=self.supervision.max_queued)
        self._running: Dict[str, multiprocessing.Process] = {}
        self._watchers: Dict[str, List[asyncio.Queue]] = {}
        self._progress_offset: Dict[str, int] = {}
        self._next_id = 1
        self._draining = False
        self._adopted = 0
        self._conn_tasks: set = set()
        self.degraded = False
        self._last_disk_probe_ns: Optional[int] = None
        self._doctor_report: Dict[str, int] = {}

    # -- boot ----------------------------------------------------------

    def boot(self) -> None:
        """Acquire the singleton lock and replay (or discard) the ledger.

        Raises :class:`~repro.errors.JournalLockedError` when another
        server already owns this store root.

        A ``--resume`` boot first runs the ledger doctor (torn/corrupt
        lines are quarantined, never fatal — a server that died mid-
        append must not brick its own restart) and then compacts the
        healthy history into one snapshot record, so replay cost stays
        bounded by job count across arbitrarily many crash/resume
        cycles.
        """
        self.ledger.acquire()
        if not self.resume:
            self.ledger.discard()
            return
        self._doctor_report = self.ledger.doctor()
        if self._doctor_report.get("quarantined"):
            self.recorder.count(
                "campaign.ledger.quarantined",
                n=self._doctor_report["quarantined"],
            )
        jobs = self.ledger.load()
        self.ledger.compact(jobs)
        for job in jobs:
            self._jobs[job.id] = job
            self._order.append(job.id)
            if job.id.startswith("job-"):
                try:
                    self._next_id = max(self._next_id, int(job.id[4:]) + 1)
                except ValueError:
                    pass
            if job.key and (
                job.state not in (STATE_FAILED, STATE_POISONED)
                or job.key not in self._by_key
            ):
                self._by_key.setdefault(job.key, job.id)
            if not job.terminal:
                # Re-adopt: the job runs again, and the items it had
                # finished come back from the artifact store.
                job.state = STATE_QUEUED
                job.error = None
                self._queue.push(job.id, job.priority)
                self._adopted += 1
                self.recorder.count("campaign.adopted")
                self.ledger.record_state(job)

    # -- submission / dedup --------------------------------------------

    def submit(
        self,
        experiment: str,
        kwargs: Optional[dict] = None,
        priority: int = DEFAULT_PRIORITY,
    ) -> dict:
        """Validate, dedup, ledger, and queue one submission.

        Returns ``{"job": <describe>, "deduped": bool}``.  Raises
        :class:`CampaignServiceError` on validation failure or while
        draining, and :class:`CampaignRejectedError` when the bounded
        queue is full (admission control: dedup hits and stored-result
        hits still succeed — they add no queue load).
        """
        if self._draining:
            raise CampaignServiceError(
                "server is draining and not accepting submissions"
            )
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise CampaignServiceError(
                f"priority must be an integer, got {priority!r}"
            )
        spec, kwargs = validate_submission(experiment, kwargs)
        key = job_key(self.store, spec.name, kwargs)
        if key is not None:
            existing_id = self._by_key.get(key)
            existing = self._jobs.get(existing_id) if existing_id else None
            if existing is not None and existing.state not in (
                STATE_FAILED,
                STATE_CANCELLED,
                STATE_POISONED,
            ):
                self.recorder.count("campaign.dedup.hit", source="inflight")
                return {"job": existing.describe(), "deduped": True}
        stored = key is not None and self.store.has(
            "result", None, digest=key
        )
        if not stored and self._queue.full:
            self.recorder.count("campaign.rejected")
            raise CampaignRejectedError(
                f"queue is full ({self.supervision.max_queued} queued); "
                f"retry after the backlog drains"
            )
        job = Job(
            id=f"job-{self._next_id:04d}",
            experiment=spec.name,
            kwargs=kwargs,
            priority=priority,
            key=key,
            submitted_ns=monotonic_ns(),
        )
        self._next_id += 1
        self._jobs[job.id] = job
        self._order.append(job.id)
        if key is not None:
            self._by_key[key] = job.id
        if stored:
            # The store already holds this exact result: the job is
            # born done, no child ever forks.
            job.state = STATE_DONE
            job.cached = True
            job.finished_ns = monotonic_ns()
            self.recorder.count("campaign.dedup.hit", source="store")
            self.recorder.count("campaign.done")
            self.ledger.record_submit(job)
            return {"job": job.describe(), "deduped": True}
        self.ledger.record_submit(job)
        self._queue.push(job.id, job.priority)
        self.recorder.count("campaign.queued")
        return {"job": job.describe(), "deduped": False}

    def cancel(self, job_id: str) -> Job:
        job = self._require_job(job_id)
        if job.terminal:
            return job
        job.cancel_requested = True
        if job.state == STATE_QUEUED:
            self._queue.drop(job.id)
            self._transition(job, STATE_CANCELLED)
        else:
            proc = self._running.get(job.id)
            if proc is not None and proc.is_alive():
                proc.terminate()
        return job

    def _require_job(self, job_id) -> Job:
        job = self._jobs.get(job_id) if isinstance(job_id, str) else None
        if job is None:
            raise CampaignServiceError(f"unknown job {job_id!r}")
        return job

    # -- scheduling ----------------------------------------------------

    def _transition(self, job: Job, state: str) -> None:
        job.state = state
        if state in TERMINAL_STATES:
            job.finished_ns = monotonic_ns()
            self.recorder.count(f"campaign.{state}")
        self.ledger.record_state(job)

    def _start_job(self, job: Job) -> None:
        job.started_ns = monotonic_ns()
        self.recorder.observe(
            "campaign.queue_latency_s",
            (job.started_ns - job.submitted_ns) / 1e9,
        )
        status_file = worker.status_path(self.store.root, job.id)
        try:
            status_file.unlink()
        except OSError:
            pass
        progress_file = worker.progress_path(self.store.root, job.id)
        self._progress_offset[job.id] = (
            progress_file.stat().st_size if progress_file.exists() else 0
        )
        payload = {
            "store_root": str(self.store.root),
            "job_id": job.id,
            "experiment": job.experiment,
            "kwargs": dict(job.kwargs),
            "close_fds": self.ledger.open_fds(),
            "heartbeat_s": self.supervision.heartbeat_s,
            "no_cache": self.degraded,
            "generation": job.kills,
        }
        if self.degraded:
            job.degraded = True
        ctx = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        proc = ctx.Process(
            target=worker.child_main, args=(payload,), daemon=False
        )
        proc.start()
        self._running[job.id] = proc
        self.supervisor.note_start(job.id, monotonic_ns())
        job.state = STATE_RUNNING
        self.recorder.count("campaign.running")
        self.ledger.record_state(job)
        self._broadcast(job.id, {"event": "state", "job": job.describe()})

    def _tick(self) -> None:
        self._probe_disk()
        if not self._draining:
            while len(self._running) < self.workers:
                job_id = self._queue.pop()
                if job_id is None:
                    break
                job = self._jobs[job_id]
                if job.cancel_requested:
                    self._transition(job, STATE_CANCELLED)
                    continue
                self._start_job(job)
        self._pump_progress()
        self._reap()

    def _probe_disk(self) -> None:
        """Flip degraded (no-cache) mode on the free-disk watermark.

        Degradation, not death: below the watermark new children run
        memory-only so the campaign keeps answering, just without
        artifacts.  The mode clears itself once space returns.
        """
        if self.supervision.min_free_bytes <= 0:
            return
        now_ns = monotonic_ns()
        interval_ns = int(self.supervision.disk_probe_interval_s * 1e9)
        if (
            self._last_disk_probe_ns is not None
            and now_ns - self._last_disk_probe_ns < interval_ns
        ):
            return
        self._last_disk_probe_ns = now_ns
        low = (
            free_disk_bytes(self.store.root)
            < self.supervision.min_free_bytes
        )
        if low != self.degraded:
            self.degraded = low
            self.recorder.count(
                "campaign.degraded.flip",
                direction="enter" if low else "exit",
            )
        self.recorder.gauge("campaign.degraded", 1 if self.degraded else 0)

    def _pump_progress(self) -> None:
        for job_id in list(self._running):
            self._drain_progress_file(job_id)

    def _drain_progress_file(self, job_id: str) -> None:
        path = worker.progress_path(self.store.root, job_id)
        offset = self._progress_offset.get(job_id, 0)
        try:
            with open(path, "rb") as handle:
                handle.seek(offset)
                chunk = handle.read()
        except OSError:
            return
        if not chunk:
            return
        # Any growth of the progress file proves the child is alive and
        # scheduled — even a torn tail counts as a beat.
        self.supervisor.note_beat(job_id, monotonic_ns())
        # Only complete lines; a torn tail is re-read next tick.
        end = chunk.rfind(b"\n")
        if end < 0:
            return
        self._progress_offset[job_id] = offset + end + 1
        for line in chunk[: end + 1].splitlines():
            try:
                event = json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                continue
            if isinstance(event, dict):
                if event.get("counter") == HEARTBEAT_COUNTER:
                    # Beats are a pulse for the watchdog, not progress;
                    # watchers never see them.
                    continue
                event.update({"event": "progress", "job": job_id})
                self._broadcast(job_id, event)

    def _reap(self) -> None:
        for job_id, proc in list(self._running.items()):
            if proc.is_alive():
                continue
            proc.join()
            del self._running[job_id]
            job = self._jobs[job_id]
            self._drain_progress_file(job_id)
            self.supervisor.note_exit(job_id)
            status = self._read_status(job_id)
            if status is not None:
                job.reused_items = int(status.get("reused_items", 0))
                job.completed_items = int(status.get("completed_items", 0))
                job.total_items = int(status.get("total_items", 0))
                job.error = status.get("error")
                self._transition(
                    job, STATE_DONE if status.get("ok") else STATE_FAILED
                )
            elif job.cancel_requested:
                self._transition(job, STATE_CANCELLED)
            else:
                # Died without finishing: a watchdog kill or a
                # spontaneous crash.  Charge the kill budget — requeue
                # (stored items are reused) while under it, quarantine
                # as poisoned at it.
                reason = self.supervisor.kill_reason(job_id)
                if reason is None:
                    reason = (
                        f"worker crashed without a status document "
                        f"(exit code {proc.exitcode})"
                    )
                    self.recorder.count("campaign.worker.crash")
                decision = self.supervisor.record_kill(job)
                if decision == DECISION_POISON:
                    job.error = (
                        f"poisoned after {job.kills} dead workers "
                        f"(last: {reason})"
                    )
                    self._transition(job, STATE_POISONED)
                else:
                    job.error = reason
                    job.state = STATE_QUEUED
                    self.ledger.record_state(job)
                    self._queue.push(job.id, job.priority)
                    self.recorder.count("campaign.requeued")
            self._broadcast(job_id, {"event": "state", "job": job.describe()})
            if job.terminal:
                self._broadcast(
                    job_id,
                    {"event": "end", "job": job_id, "state": job.state},
                )
                self._watchers.pop(job_id, None)

    def _read_status(self, job_id: str) -> Optional[dict]:
        path = worker.status_path(self.store.root, job_id)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                status = json.load(handle)
        except (OSError, ValueError):
            return None
        return status if isinstance(status, dict) else None

    def _broadcast(self, job_id: str, event: dict) -> None:
        for queue in self._watchers.get(job_id, ()):  # pragma: no branch
            queue.put_nowait(event)

    # -- the watchdog --------------------------------------------------

    async def _watchdog(self) -> None:
        """SIGKILL workers whose heartbeat went silent past the deadline."""
        while True:
            await asyncio.sleep(self.supervision.watchdog_interval_s)
            self._check_stalls()

    def _check_stalls(self) -> None:
        if self.supervision.stall_timeout_s <= 0:
            return
        for job_id in self.supervisor.stalled_jobs(monotonic_ns()):
            proc = self._running.get(job_id)
            if proc is None or not proc.is_alive():
                continue
            self.supervisor.note_kill(
                job_id,
                f"stalled: no heartbeat for "
                f"{self.supervision.stall_timeout_s:g}s "
                f"(SIGKILLed by the watchdog)",
            )
            self.recorder.count("campaign.watchdog.kill")
            proc.kill()

    # -- status payloads -----------------------------------------------

    def server_status(self) -> dict:
        states: Dict[str, int] = {}
        for job in self._jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "pid": os.getpid(),
            "protocol": PROTOCOL,
            "store_root": str(self.store.root),
            "workers": self.workers,
            "draining": self._draining,
            "adopted": self._adopted,
            "jobs": states,
            "queue_depth": len(self._queue),
            "degraded": self.degraded,
            "supervision": self.supervision.describe(),
            "ledger_quarantined": self._doctor_report.get("quarantined", 0),
            "metrics": self.recorder.metrics.snapshot(),
        }

    def stored_result(self, job: Job) -> dict:
        from repro.experiments.registry import result_key_params

        if job.state != STATE_DONE:
            raise CampaignServiceError(
                f"job {job.id} is {job.state}, not done"
            )
        try:
            payload = self.store.get_json(
                "result", result_key_params(job.experiment, job.kwargs)
            )
        except StoreError as exc:
            raise CampaignServiceError(
                f"stored result for {job.id} is unreadable: {exc}"
            ) from exc
        if payload is None:
            raise CampaignServiceError(
                f"no stored result for {job.id} (store was cleared?)"
            )
        return payload

    def request_drain(self) -> None:
        self._draining = True

    # -- event loop ----------------------------------------------------

    async def run(self, ready_file=None) -> int:
        """Serve until drained; returns the process exit code (0)."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_drain)
            except (NotImplementedError, RuntimeError):
                pass
        try:
            self.socket_path.unlink()
        except OSError:
            pass
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        listener = await asyncio.start_unix_server(
            self._handle_client,
            path=str(self.socket_path),
            limit=MAX_FRAME_BYTES + 1024,
        )
        if ready_file is not None:
            Path(ready_file).write_text(
                json.dumps(
                    {
                        "socket": str(self.socket_path),
                        "pid": os.getpid(),
                    },
                    sort_keys=True,
                )
                + "\n",
                encoding="utf-8",
            )
        watchdog = asyncio.ensure_future(self._watchdog())
        try:
            while not (self._draining and not self._running):
                self._tick()
                await asyncio.sleep(TICK_S)
            self._tick()
        finally:
            watchdog.cancel()
            await asyncio.gather(watchdog, return_exceptions=True)
            listener.close()
            await listener.wait_closed()
            # Idle connections (a peer holding the socket open between
            # requests) would otherwise be cancelled at loop teardown
            # and logged as unretrieved exceptions.
            for task in list(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.gather(
                    *self._conn_tasks, return_exceptions=True
                )
            self._finalize()
        return 0

    def _finalize(self) -> None:
        if self.metrics_out is not None:
            try:
                write_summary(self.metrics_out, summarize(self.recorder))
            except OSError:
                pass
        self.ledger.close()
        try:
            self.socket_path.unlink()
        except OSError:
            pass

    # -- frame dispatch ------------------------------------------------

    async def _handle_client(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    await self._send(
                        writer,
                        error_frame("protocol", "frame exceeds size limit"),
                    )
                    break
                if not line:
                    break
                try:
                    frame = decode_frame(line)
                except ProtocolError as exc:
                    await self._send(
                        writer, error_frame("protocol", str(exc))
                    )
                    break
                response = await self._dispatch(frame, writer)
                if response is not None:
                    await self._send(writer, response)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # The server drained while this peer idled; drop the
            # connection quietly (run() cancels and gathers us).
            pass
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _send(self, writer, frame: dict) -> None:
        writer.write(encode_frame(frame))
        await writer.drain()

    async def _dispatch(self, frame: dict, writer) -> Optional[dict]:
        op = frame.get("op")
        try:
            if op == "ping":
                return ok_frame(server=self.server_status())
            if op == "submit":
                outcome = self.submit(
                    frame.get("experiment"),
                    frame.get("kwargs"),
                    priority=frame.get("priority", DEFAULT_PRIORITY),
                )
                return ok_frame(**outcome)
            if op == "status":
                if frame.get("job") is None:
                    return ok_frame(server=self.server_status())
                return ok_frame(job=self._require_job(frame["job"]).describe())
            if op == "result":
                job = self._require_job(frame.get("job"))
                return ok_frame(job=job.describe(), payload=self.stored_result(job))
            if op == "cancel":
                return ok_frame(job=self.cancel(frame.get("job")).describe())
            if op == "ls":
                return ok_frame(
                    jobs=summarize_jobs(
                        [self._jobs[j] for j in self._order]
                    )
                )
            if op == "watch":
                await self._op_watch(frame, writer)
                return None
            if op == "shutdown":
                await self._send(writer, ok_frame(draining=True))
                self.request_drain()
                return None
            return error_frame("unknown-op", f"unknown op {op!r}")
        except CampaignRejectedError as exc:
            # Load shed, not refusal: a distinct code so clients can
            # back off and retry instead of treating it as fatal.
            return error_frame(
                "rejected",
                str(exc),
                queue_depth=len(self._queue),
                max_queued=self.supervision.max_queued,
            )
        except (CampaignServiceError, ProtocolError) as exc:
            return error_frame("refused", str(exc))

    async def _op_watch(self, frame: dict, writer) -> None:
        try:
            job = self._require_job(frame.get("job"))
        except CampaignServiceError as exc:
            await self._send(writer, error_frame("refused", str(exc)))
            return
        await self._send(writer, ok_frame(job=job.describe()))
        if job.terminal:
            await self._send(
                writer, {"event": "end", "job": job.id, "state": job.state}
            )
            return
        # The connreset service fault drops this subscription after one
        # forwarded event — exercising the client's reconnect path
        # without a flaky network to provide the drops.
        reset_after = 1 if inject_service_fault("connreset") else None
        queue: asyncio.Queue = asyncio.Queue()
        self._watchers.setdefault(job.id, []).append(queue)
        try:
            forwarded = 0
            while True:
                event = await queue.get()
                await self._send(writer, event)
                if event.get("event") == "end":
                    break
                forwarded += 1
                if reset_after is not None and forwarded >= reset_after:
                    writer.close()
                    break
        finally:
            try:
                self._watchers.get(job.id, []).remove(queue)
            except ValueError:
                pass
