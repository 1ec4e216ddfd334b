"""Unit tests for the campaign service's pieces (no sockets, no forks).

The wire protocol, the scheduling queue, submission validation, the
dedup key, the server ledger, and the server's submit/dedup logic
driven directly as objects.  The end-to-end daemon behaviour (real
subprocesses, kill -9, drain) lives in ``test_campaign_service.py``.
"""

from __future__ import annotations

import pytest

from repro.campaign.jobs import (
    Job,
    job_key,
    summarize_jobs,
    validate_submission,
)
from repro.campaign.ledger import ServerLedger
from repro.campaign.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL,
    check_ok,
    decode_frame,
    encode_frame,
    error_frame,
    ok_frame,
    request_frame,
)
from repro.campaign.queue import JobQueue
from repro.errors import CampaignServiceError, ProtocolError


class TestProtocol:
    def test_round_trip(self):
        frame = request_frame("submit", experiment="fig8", kwargs={})
        decoded = decode_frame(encode_frame(frame))
        assert decoded["op"] == "submit"
        assert decoded["experiment"] == "fig8"
        assert decoded["v"] == PROTOCOL

    def test_version_mismatch_rejected(self):
        raw = b'{"v": "repro-campaign-v999", "op": "ping"}\n'
        with pytest.raises(ProtocolError, match="version mismatch"):
            decode_frame(raw)

    def test_missing_version_rejected(self):
        with pytest.raises(ProtocolError, match="version mismatch"):
            decode_frame(b'{"op": "ping"}\n')

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_frame(b'[1, 2]\n')

    def test_garbage_rejected(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_frame(b'not json at all\n')

    def test_oversized_frame_rejected_both_ways(self):
        big = {"op": "submit", "blob": "x" * (MAX_FRAME_BYTES + 1)}
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame(big)
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_frame(b"x" * (MAX_FRAME_BYTES + 1))

    def test_unknown_op_rejected_client_side(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            request_frame("reboot")

    def test_check_ok_passes_and_raises(self):
        assert check_ok(ok_frame(x=1))["x"] == 1
        with pytest.raises(ProtocolError, match="refused-code"):
            check_ok(error_frame("refused-code", "nope"))


class TestJobQueue:
    def test_priority_order(self):
        q = JobQueue()
        q.push("low", 200)
        q.push("high", 10)
        q.push("mid", 100)
        assert [q.pop(), q.pop(), q.pop()] == ["high", "mid", "low"]
        assert q.pop() is None

    def test_fifo_within_priority(self):
        q = JobQueue()
        for name in ("a", "b", "c"):
            q.push(name, 100)
        assert [q.pop(), q.pop(), q.pop()] == ["a", "b", "c"]

    def test_lazy_cancellation(self):
        q = JobQueue()
        q.push("a", 1)
        q.push("b", 2)
        q.drop("a")
        assert len(q) == 1
        assert q.pop() == "b"
        assert q.pop() is None


class TestValidateSubmission:
    def test_unknown_experiment(self):
        with pytest.raises(CampaignServiceError, match="unknown experiment"):
            validate_submission("nope", {})

    def test_unknown_kwarg(self):
        with pytest.raises(CampaignServiceError, match="keyword"):
            validate_submission("fig8", {"frobnicate": 1})

    def test_unknown_benchmark(self):
        with pytest.raises(CampaignServiceError, match="unknown benchmarks"):
            validate_submission("fig8", {"benchmarks": ["999.bogus_r"]})

    def test_bad_jobs_value(self):
        with pytest.raises(CampaignServiceError, match="jobs"):
            validate_submission("fig8", {"jobs": -1})
        with pytest.raises(CampaignServiceError, match="jobs"):
            validate_submission("fig8", {"jobs": True})

    @pytest.mark.parametrize("kwargs", ["abc", [1], 5])
    def test_kwargs_must_be_a_mapping(self, kwargs):
        with pytest.raises(CampaignServiceError, match="mapping"):
            validate_submission("fig8", kwargs)

    def test_valid_submission_normalizes(self):
        spec, kwargs = validate_submission(
            "fig8", {"benchmarks": ("505.mcf_r",), "jobs": 2}
        )
        assert spec.name == "fig8"
        assert kwargs["benchmarks"] == ["505.mcf_r"]
        assert kwargs["jobs"] == 2


class TestJobKey:
    def test_jobs_kwarg_does_not_fragment_key(self, tmp_path):
        from repro.parallel.store import ArtifactStore

        store = ArtifactStore(tmp_path)
        one = job_key(store, "fig8", {"benchmarks": ["505.mcf_r"], "jobs": 1})
        two = job_key(store, "fig8", {"benchmarks": ["505.mcf_r"], "jobs": 8})
        assert one == two

    def test_matches_registry_result_cache_key(self, tmp_path):
        """The dedup predicate and the result cache share one key fn."""
        from repro.experiments.registry import result_key_params
        from repro.parallel.store import ArtifactStore

        store = ArtifactStore(tmp_path)
        kwargs = {"benchmarks": ["505.mcf_r"], "jobs": 3}
        assert job_key(store, "fig8", kwargs) == store.key(
            "result", result_key_params("fig8", kwargs)
        )

    def test_no_store_means_no_key(self):
        assert job_key(None, "fig8", {}) is None


class TestJobRecord:
    def test_describe_round_trip(self):
        job = Job(
            id="job-0007",
            experiment="fig8",
            kwargs={"benchmarks": ["505.mcf_r"]},
            priority=5,
            key="abc",
            state="running",
            reused_items=2,
            completed_items=3,
            total_items=4,
        )
        clone = Job.from_record(job.describe())
        assert clone.describe() == job.describe()

    def test_from_record_requires_identity(self):
        with pytest.raises(CampaignServiceError, match="missing"):
            Job.from_record({"experiment": "fig8"})

    def test_unknown_fields_ignored(self):
        job = Job.from_record(
            {"id": "job-1", "experiment": "fig8", "future_field": 42}
        )
        assert job.id == "job-1"

    def test_summarize(self):
        rows = summarize_jobs([Job(id="job-1", experiment="fig8")])
        assert rows[0]["state"] == "queued"


class TestServerLedger:
    def test_last_write_wins_replay(self, tmp_path):
        ledger = ServerLedger(tmp_path)
        job = Job(id="job-0001", experiment="fig8")
        ledger.record_submit(job)
        job.state = "running"
        ledger.record_state(job)
        job.state = "done"
        ledger.record_state(job)
        ledger.close()

        fresh = ServerLedger(tmp_path)
        fresh.acquire()
        jobs = fresh.load()
        fresh.close()
        assert len(jobs) == 1
        assert jobs[0].state == "done"

    def test_truncated_final_line_skipped(self, tmp_path):
        ledger = ServerLedger(tmp_path)
        ledger.record_submit(Job(id="job-0001", experiment="fig8"))
        ledger.close()
        # Simulate the torn append of a hard kill.
        path = ledger.path
        with open(path, "ab") as handle:
            handle.write(b'{"event": "job", "action": "state", "jo')
        fresh = ServerLedger(tmp_path)
        jobs = fresh.load()
        assert [j.id for j in jobs] == ["job-0001"]

    def test_singleton_lock(self, tmp_path):
        from repro.errors import JournalLockedError

        first = ServerLedger(tmp_path)
        first.acquire()
        second = ServerLedger(tmp_path)
        with pytest.raises(JournalLockedError):
            second.acquire()
        first.close()
        second.acquire()
        second.close()


class TestServerSubmitDedup:
    """Drive CampaignServer.submit directly — no event loop needed."""

    @pytest.fixture
    def server(self, tmp_path):
        from repro.campaign.server import CampaignServer
        from repro.parallel.store import ArtifactStore

        store = ArtifactStore(tmp_path / "store")
        srv = CampaignServer(store, tmp_path / "sock")
        srv.boot()
        yield srv
        srv.ledger.close()

    def test_identical_submissions_dedup(self, server):
        first = server.submit("fig8", {"benchmarks": ["505.mcf_r"]})
        second = server.submit("fig8", {"benchmarks": ["505.mcf_r"]})
        assert first["deduped"] is False
        assert second["deduped"] is True
        assert second["job"]["id"] == first["job"]["id"]
        counters = server.recorder.metrics.snapshot()["counters"]
        assert counters.get("campaign.dedup.hit{source=inflight}") == 1

    def test_jobs_kwarg_still_dedups(self, server):
        first = server.submit("fig8", {"benchmarks": ["505.mcf_r"], "jobs": 1})
        second = server.submit("fig8", {"benchmarks": ["505.mcf_r"], "jobs": 4})
        assert second["deduped"] is True
        assert second["job"]["id"] == first["job"]["id"]

    def test_different_kwargs_do_not_dedup(self, server):
        first = server.submit("fig8", {"benchmarks": ["505.mcf_r"]})
        second = server.submit("fig8", {"benchmarks": ["520.omnetpp_r"]})
        assert second["deduped"] is False
        assert second["job"]["id"] != first["job"]["id"]

    def test_stored_result_births_done_job(self, server):
        from repro.experiments.registry import result_key_params

        params = result_key_params("fig8", {"benchmarks": ["505.mcf_r"]})
        server.store.put_json("result", params, {"any": "payload"})
        outcome = server.submit("fig8", {"benchmarks": ["505.mcf_r"]})
        assert outcome["deduped"] is True
        assert outcome["job"]["state"] == "done"
        assert outcome["job"]["cached"] is True
        counters = server.recorder.metrics.snapshot()["counters"]
        assert counters.get("campaign.dedup.hit{source=store}") == 1

    def test_invalid_submission_refused(self, server):
        with pytest.raises(CampaignServiceError):
            server.submit("fig8", {"benchmarks": ["999.bogus_r"]})

    def test_draining_refuses_submissions(self, server):
        server.request_drain()
        with pytest.raises(CampaignServiceError, match="draining"):
            server.submit("fig8", {})

    def test_cancel_queued_job(self, server):
        job_id = server.submit("fig8", {})["job"]["id"]
        job = server.cancel(job_id)
        assert job.state == "cancelled"
        # A new identical submission is accepted (terminal-failed/
        # cancelled jobs don't hold the dedup slot).
        again = server.submit("fig8", {})
        assert again["deduped"] is False

    def test_ledger_survives_for_resume(self, tmp_path, server):
        server.submit("fig8", {"benchmarks": ["505.mcf_r"]})
        server.ledger.close()

        from repro.campaign.server import CampaignServer

        reborn = CampaignServer(
            server.store, tmp_path / "sock", resume=True
        )
        reborn.boot()
        try:
            assert reborn._adopted == 1
            jobs = list(reborn._jobs.values())
            assert jobs[0].state == "queued"
        finally:
            reborn.ledger.close()

    def test_boot_without_resume_discards_ledger(self, tmp_path, server):
        server.submit("fig8", {"benchmarks": ["505.mcf_r"]})
        server.ledger.close()

        from repro.campaign.server import CampaignServer

        reborn = CampaignServer(server.store, tmp_path / "sock")
        reborn.boot()
        try:
            assert reborn._jobs == {}
        finally:
            reborn.ledger.close()

    def test_requires_store(self, tmp_path):
        from repro.campaign.server import CampaignServer

        with pytest.raises(CampaignServiceError, match="store"):
            CampaignServer(None, tmp_path / "sock")


class _StubClient:
    """Answers ``status``/``wait``/``watch`` with one job in ``state``."""

    def __init__(self, state: str) -> None:
        self.job = {
            "id": "job-0001", "experiment": "fig8", "state": state,
            "total_items": 3, "completed_items": 3, "reused_items": 2,
        }

    def status(self, job_id=None):
        return dict(self.job)

    def wait(self, job_id, timeout_s=None):
        return dict(self.job)

    def watch(self, job_id):
        yield {"event": "progress", "counter": "parallel.completed",
               "tags": {}}
        yield {"event": "end", "job": job_id, "state": self.job["state"]}


class TestClientExitCodes:
    """``campaign status`` and ``watch`` agree on a job's exit code."""

    EXPECTED = {"done": 0, "failed": 3, "cancelled": 0, "poisoned": 5}

    @pytest.mark.parametrize("state", sorted(EXPECTED))
    @pytest.mark.parametrize("wait", [False, True])
    def test_status(self, state, wait, capsys):
        import argparse

        from repro.campaign.cli import _run_status

        args = argparse.Namespace(
            job="job-0001", wait=wait, wait_timeout=1.0, as_json=False
        )
        assert _run_status(_StubClient(state), args) == self.EXPECTED[state]
        out = capsys.readouterr().out
        assert "items: 3 of 3 completed" in out
        assert "reused: 2 stored item(s)" in out

    @pytest.mark.parametrize("state", sorted(EXPECTED))
    def test_watch(self, state, capsys):
        import argparse

        from repro.campaign.cli import _run_watch

        args = argparse.Namespace(job="job-0001")
        assert _run_watch(_StubClient(state), args) == self.EXPECTED[state]
        out = capsys.readouterr().out
        assert "job-0001: parallel.completed" in out
        assert f"job-0001: finished ({state})" in out


class TestWatchReconnect:
    """``watch`` stitches a dropped stream on the fixed backoff schedule."""

    STATE = {"event": "state", "job": {"id": "job-0001", "state": "running"}}
    END = {"event": "end", "job": "job-0001", "state": "done"}

    def watch(self, monkeypatch, streams):
        """Events and sleeps of one ``watch`` over scripted subscriptions.

        Each subscription yields its events, then drops the connection
        unless its last event is ``end``.  Returns ``(events, slept,
        error)``, where ``error`` is what ended the watch, if anything.
        """
        from repro.campaign.client import CampaignClient
        from repro.resilience import policy

        slept = []
        monkeypatch.setattr(policy, "sleep_s", slept.append)
        pending = iter(streams)

        def watch_once(self, job_id):
            events = next(pending)
            yield from events
            if not events or events[-1]["event"] != "end":
                raise CampaignServiceError("connection reset")

        monkeypatch.setattr(CampaignClient, "_watch_once", watch_once)
        events, error = [], None
        try:
            for event in CampaignClient("unused.sock").watch("job-0001"):
                events.append(event)
        except CampaignServiceError as exc:
            error = exc
        return events, slept, error

    def test_one_drop_waits_the_first_delay_and_resumes(self, monkeypatch):
        from repro.resilience import BACKOFF_SCHEDULE_S

        events, slept, error = self.watch(
            monkeypatch, [[self.STATE], [self.STATE, self.END]]
        )
        assert error is None
        assert events == [
            self.STATE,
            {"event": "reconnect", "job": "job-0001", "attempt": 1,
             "resumed": True},
            self.STATE,
            self.END,
        ]
        assert slept == [BACKOFF_SCHEDULE_S[0]]

    def test_gives_up_after_the_schedule(self, monkeypatch):
        from repro.campaign.client import WATCH_RECONNECT_ATTEMPTS
        from repro.resilience import BACKOFF_SCHEDULE_S

        events, slept, error = self.watch(
            monkeypatch, [[]] * (WATCH_RECONNECT_ATTEMPTS + 1)
        )
        assert "connection reset" in str(error)
        assert [e["attempt"] for e in events] == list(
            range(1, WATCH_RECONNECT_ATTEMPTS + 1)
        )
        assert not any(e["resumed"] for e in events)
        assert slept == list(BACKOFF_SCHEDULE_S)

    def test_a_delivered_event_resets_the_count(self, monkeypatch):
        from repro.campaign.client import WATCH_RECONNECT_ATTEMPTS
        from repro.resilience import BACKOFF_SCHEDULE_S

        n = WATCH_RECONNECT_ATTEMPTS
        events, slept, error = self.watch(
            monkeypatch,
            [[]] * n + [[self.STATE]] + [[]] * (n - 1)
            + [[self.STATE, self.END]],
        )
        assert error is None
        attempts = [e["attempt"] for e in events if e["event"] == "reconnect"]
        assert attempts == [*range(1, n + 1), *range(1, n + 1)]
        assert events[-1] == self.END
        assert slept == 2 * list(BACKOFF_SCHEDULE_S)
