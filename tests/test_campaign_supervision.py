"""Unit tests for the supervision layer (no sockets, no forks).

The policy knobs, the supervisor's stall/kill-budget verdicts, the
journal doctor's quarantine, ledger compaction, admission control, and
the poisoned quarantine surviving ``--resume`` — all driven directly as
objects.  The end-to-end choreography (real forked workers, SIGKILL,
the watchdog task) lives in ``test_campaign_service.py`` and the chaos
harness (``tools/chaos.py``).
"""

from __future__ import annotations

import json

import pytest

from repro.campaign.jobs import (
    Job,
    STATE_POISONED,
    STATE_QUEUED,
    STATE_RUNNING,
)
from repro.campaign.ledger import ServerLedger
from repro.campaign.supervision import (
    DECISION_POISON,
    DECISION_REQUEUE,
    JobSupervisor,
    SupervisionPolicy,
)
from repro.errors import CampaignRejectedError, ConfigError


class TestSupervisionPolicy:
    def test_defaults_are_valid(self):
        policy = SupervisionPolicy()
        assert policy.stall_timeout_s == 300.0
        assert policy.max_kills == 3
        assert policy.max_queued is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"heartbeat_s": 0},
            {"heartbeat_s": -1.0},
            {"max_kills": 0},
            {"max_kills": True},
            {"max_kills": 1.5},
            {"max_queued": 0},
            {"max_queued": True},
        ],
        ids=lambda kw: repr(kw),
    )
    def test_bad_knobs_refused(self, kwargs):
        with pytest.raises(ConfigError):
            SupervisionPolicy(**kwargs)

    def test_watchdog_wakes_well_inside_one_deadline(self):
        assert SupervisionPolicy(stall_timeout_s=8.0).watchdog_interval_s == 2.0
        # With hang detection disabled the watchdog still wakes once a
        # second; it checks nothing.
        assert SupervisionPolicy(stall_timeout_s=0).watchdog_interval_s == 1.0
        # Never busier than 20 Hz, however tight the deadline.
        assert SupervisionPolicy(
            stall_timeout_s=0.01
        ).watchdog_interval_s == 0.05

    def test_describe_is_json_safe(self):
        doc = SupervisionPolicy(max_queued=7).describe()
        assert doc["max_queued"] == 7
        assert json.loads(json.dumps(doc)) == doc


class TestJobSupervisor:
    SECOND_NS = 1_000_000_000

    def make(self, **kwargs) -> JobSupervisor:
        return JobSupervisor(SupervisionPolicy(stall_timeout_s=10.0, **kwargs))

    def test_fresh_start_is_not_stalled(self):
        sup = self.make()
        sup.note_start("job-1", now_ns=0)
        assert sup.stalled_jobs(now_ns=9 * self.SECOND_NS) == []

    def test_silence_past_the_deadline_stalls(self):
        sup = self.make()
        sup.note_start("job-1", now_ns=0)
        assert sup.stalled_jobs(now_ns=11 * self.SECOND_NS) == ["job-1"]

    def test_beats_push_the_deadline_out(self):
        sup = self.make()
        sup.note_start("job-1", now_ns=0)
        sup.note_beat("job-1", now_ns=8 * self.SECOND_NS)
        assert sup.stalled_jobs(now_ns=17 * self.SECOND_NS) == []
        assert sup.stalled_jobs(now_ns=19 * self.SECOND_NS) == ["job-1"]

    def test_beats_for_unknown_jobs_ignored(self):
        sup = self.make()
        sup.note_beat("never-started", now_ns=0)
        assert sup.stalled_jobs(now_ns=99 * self.SECOND_NS) == []

    def test_exit_stops_liveness_tracking(self):
        sup = self.make()
        sup.note_start("job-1", now_ns=0)
        sup.note_exit("job-1")
        assert sup.stalled_jobs(now_ns=99 * self.SECOND_NS) == []

    def test_killed_jobs_not_reported_stalled_again(self):
        # Between the watchdog's SIGKILL and the reap the job would
        # otherwise re-stall every watchdog tick.
        sup = self.make()
        sup.note_start("job-1", now_ns=0)
        sup.note_kill("job-1", "stalled")
        assert sup.stalled_jobs(now_ns=99 * self.SECOND_NS) == []
        assert sup.kill_reason("job-1") == "stalled"
        # The reason is consumed by the reap.
        assert sup.kill_reason("job-1") is None

    def test_zero_timeout_disables_hang_detection(self):
        sup = JobSupervisor(SupervisionPolicy(stall_timeout_s=0))
        sup.note_start("job-1", now_ns=0)
        assert sup.stalled_jobs(now_ns=10**15) == []

    def test_kill_budget_requeues_then_poisons(self):
        sup = self.make(max_kills=3)
        job = Job(id="job-1", experiment="fig8")
        assert sup.record_kill(job) == DECISION_REQUEUE
        assert sup.record_kill(job) == DECISION_REQUEUE
        assert sup.record_kill(job) == DECISION_POISON
        assert job.kills == 3


class TestJournalDoctor:
    def intact_ledger(self, tmp_path, n: int = 3) -> ServerLedger:
        ledger = ServerLedger(tmp_path)
        for i in range(n):
            ledger.record_submit(Job(id=f"job-{i}", experiment="fig8"))
        ledger.close()
        return ledger

    def test_clean_journal_untouched(self, tmp_path):
        ledger = self.intact_ledger(tmp_path)
        before = ledger.path.read_bytes()
        report = ledger.doctor()
        assert report == {"lines": 3, "intact": 3, "quarantined": 0}
        assert ledger.path.read_bytes() == before
        assert not ledger.quarantine_path.exists()

    def test_torn_final_line_quarantined(self, tmp_path):
        ledger = self.intact_ledger(tmp_path)
        with open(ledger.path, "ab") as handle:
            handle.write(b'{"event": "job", "i": 3, "schema": "re')
        report = ledger.doctor()
        assert report["quarantined"] == 1
        assert report["intact"] == 3
        assert len(ledger.load()) == 3
        assert b'"i": 3' in ledger.quarantine_path.read_bytes()

    def test_corrupt_midfile_line_quarantined_intact_kept(self, tmp_path):
        ledger = self.intact_ledger(tmp_path)
        lines = ledger.path.read_bytes().splitlines()
        mangled = lines[:1] + [b"\x00garbage\xff"] + lines[1:]
        ledger.path.write_bytes(b"\n".join(mangled) + b"\n")
        report = ledger.doctor()
        assert report["quarantined"] == 1
        # Survivors are byte-identical, in their original order.
        assert ledger.path.read_bytes().splitlines() == lines

    def test_doctor_is_idempotent(self, tmp_path):
        ledger = self.intact_ledger(tmp_path)
        with open(ledger.path, "ab") as handle:
            handle.write(b"not json\n")
        first = ledger.doctor()
        after_first = ledger.path.read_bytes()
        second = ledger.doctor()
        assert first["quarantined"] == 1
        assert second["quarantined"] == 0
        assert ledger.path.read_bytes() == after_first

    def test_missing_journal_is_healthy(self, tmp_path):
        ledger = ServerLedger(tmp_path / "ghost")
        assert ledger.doctor() == {"lines": 0, "intact": 0, "quarantined": 0}


class TestLedgerCompaction:
    def grow_history(self, root) -> None:
        ledger = ServerLedger(root)
        for i in range(3):
            job = Job(id=f"job-{i}", experiment="fig8", kwargs={"jobs": i})
            ledger.record_submit(job)
            job.state = STATE_RUNNING
            ledger.record_state(job)
            if i == 0:
                job.state = "done"
                ledger.record_state(job)
        ledger.close()

    @staticmethod
    def replayed(root):
        ledger = ServerLedger(root)
        jobs = [job.describe() for job in ledger.load()]
        ledger.close()
        return jobs

    def test_snapshot_tail_replays_like_full_history(self, tmp_path):
        full_root = tmp_path / "full"
        compacted_root = tmp_path / "compacted"
        for root in (full_root, compacted_root):
            self.grow_history(root)

        ledger = ServerLedger(compacted_root)
        ledger.acquire()
        ledger.compact(ledger.load())
        ledger.close()
        # The tail: one more transition after the snapshot, mirrored
        # into the full-history ledger.
        for root in (full_root, compacted_root):
            tail = ServerLedger(root)
            job = Job(id="job-2", experiment="fig8", kwargs={"jobs": 2})
            job.state = "failed"
            tail.record_state(job)
            tail.close()

        assert self.replayed(compacted_root) == self.replayed(full_root)

    def test_compaction_bounds_the_file_and_is_idempotent(self, tmp_path):
        self.grow_history(tmp_path)
        ledger = ServerLedger(tmp_path)
        ledger.acquire()
        before = self.count_lines(ledger)
        ledger.compact(ledger.load())
        once = ledger.path.read_bytes()
        assert self.count_lines(ledger) == 1 < before
        ledger.compact(ledger.load())
        assert ledger.path.read_bytes() == once
        ledger.close()

    @staticmethod
    def count_lines(ledger) -> int:
        return len(ledger.path.read_bytes().splitlines())


@pytest.fixture
def server_factory(tmp_path):
    """Build direct (loop-less) CampaignServer instances on one store."""
    from repro.campaign.server import CampaignServer
    from repro.parallel.store import ArtifactStore

    store = ArtifactStore(tmp_path / "store")
    servers = []

    def build(**kwargs):
        server = CampaignServer(store, tmp_path / "sock", **kwargs)
        server.boot()
        servers.append(server)
        return server

    yield build
    for server in servers:
        server.ledger.close()


class TestAdmissionControl:
    def test_full_queue_rejects_with_structured_error(self, server_factory):
        server = server_factory(
            supervision=SupervisionPolicy(max_queued=1)
        )
        server.submit("fig8", {"benchmarks": ["505.mcf_r"]})
        with pytest.raises(CampaignRejectedError, match="queue is full"):
            server.submit("fig8", {"benchmarks": ["520.omnetpp_r"]})

    def test_stored_results_bypass_admission(self, server_factory):
        from repro.experiments.registry import result_key_params

        server = server_factory(
            supervision=SupervisionPolicy(max_queued=1)
        )
        server.submit("fig8", {"benchmarks": ["505.mcf_r"]})
        params = result_key_params(
            "fig8", {"benchmarks": ["520.omnetpp_r"]}
        )
        server.store.put_json("result", params, {"any": "payload"})
        # The answer already exists: serving it adds no queue load, so
        # a full queue must not refuse it.
        outcome = server.submit("fig8", {"benchmarks": ["520.omnetpp_r"]})
        assert outcome["deduped"] is True
        assert outcome["job"]["state"] == "done"

    def test_rejections_are_counted(self, server_factory):
        server = server_factory(
            supervision=SupervisionPolicy(max_queued=1)
        )
        server.submit("fig8", {"benchmarks": ["505.mcf_r"]})
        with pytest.raises(CampaignRejectedError):
            server.submit("fig8", {"benchmarks": ["520.omnetpp_r"]})
        counters = server.recorder.metrics.snapshot()["counters"]
        assert counters.get("campaign.rejected") == 1


class TestPoisonedQuarantine:
    def poison_job(self, server) -> str:
        job_id = server.submit("fig8", {"benchmarks": ["505.mcf_r"]})["job"][
            "id"
        ]
        job = server._jobs[job_id]
        job.kills = server.supervision.max_kills
        job.error = "poisoned after 3 dead workers"
        server._transition(job, STATE_POISONED)
        return job_id

    def test_poisoned_survives_resume_without_requeue(self, server_factory):
        first = server_factory()
        job_id = self.poison_job(first)
        first.ledger.close()

        reborn = server_factory(resume=True)
        job = reborn._jobs[job_id]
        assert job.state == STATE_POISONED
        assert job.kills == 3
        # Terminal: not adopted back into the queue.
        assert reborn._adopted == 0
        assert len(reborn._queue) == 0

    def test_poisoned_does_not_hold_the_dedup_slot(self, server_factory):
        server = server_factory()
        self.poison_job(server)
        again = server.submit("fig8", {"benchmarks": ["505.mcf_r"]})
        assert again["deduped"] is False
        assert again["job"]["state"] == STATE_QUEUED


class TestWatchdog:
    class FakeProc:
        def __init__(self):
            self.killed = False

        def is_alive(self):
            return not self.killed

        def kill(self):
            self.killed = True

    def test_check_stalls_kills_and_records(self, server_factory):
        server = server_factory(
            supervision=SupervisionPolicy(stall_timeout_s=0.001)
        )
        job_id = server.submit("fig8", {"benchmarks": ["505.mcf_r"]})["job"][
            "id"
        ]
        job = server._jobs[job_id]
        job.state = STATE_RUNNING
        proc = self.FakeProc()
        server._running[job_id] = proc
        server.supervisor.note_start(job_id, now_ns=0)

        server._check_stalls()

        assert proc.killed is True
        reason = server.supervisor.kill_reason(job_id)
        assert reason is not None and "watchdog" in reason
        counters = server.recorder.metrics.snapshot()["counters"]
        assert counters.get("campaign.watchdog.kill") == 1
        del server._running[job_id]

    def test_kill_budget_cycle_requeues_then_poisons(self, server_factory):
        server = server_factory(
            supervision=SupervisionPolicy(max_kills=2)
        )
        job_id = server.submit("fig8", {"benchmarks": ["505.mcf_r"]})["job"][
            "id"
        ]
        job = server._jobs[job_id]
        assert server.supervisor.record_kill(job) == DECISION_REQUEUE
        assert server.supervisor.record_kill(job) == DECISION_POISON
