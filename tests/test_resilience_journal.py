"""Rerunning an interrupted run, and the campaign server's ledger file.

The acceptance contract: a run interrupted partway (here: an injected
crash, whose first failed item fails the run like a kill would) leaves
every item it finished in the artifact store, so a plain rerun with the
same arguments computes only the unfinished items, and its output is
byte-identical to a clean uninterrupted run.  The one append-only
journal that remains is the campaign server's ledger file.
"""

from __future__ import annotations

import dataclasses
import json
import time
from typing import List

import pytest

from repro.campaign.jobs import Job
from repro.campaign.ledger import ServerLedger
from repro.errors import JournalLockedError
from repro.experiments import common
from repro.experiments.common import configure_cache, map_items, set_store
from repro.experiments.registry import ExperimentSpec, execute
from repro.parallel import ArtifactStore
from repro.resilience import (
    InjectedFaultError,
    parse_spec,
    set_plan,
    using_plan,
)
from repro.telemetry.recorder import TraceRecorder, using_recorder

#: Each test starts from an empty in-process memo, so no other test's
#: items answer here.
pytestmark = [pytest.mark.resilience, pytest.mark.usefixtures("empty_memo")]

ITEMS = list(range(5))

#: Items ``_tenfold_logged`` computed (serial runs only: the calls of
#: pool workers happen in other processes).
_COMPUTED: List[int] = []

#: The counters of the ``item`` memo.
ITEM_MISS = "memtier.miss{kind=item}"
ITEM_STORE_HIT = "store.hit{kind=item}"
ITEM_MEMORY_HIT = "memtier.hit{kind=item}"


@pytest.fixture()
def store(tmp_path):
    """A configured artifact store for this test; restored afterwards."""
    previous = configure_cache(tmp_path / "store")
    try:
        yield common.get_store()
    finally:
        set_store(previous)


def _tenfold(x):
    return x * 10


def _tenfold_logged(x):
    _COMPUTED.append(x)
    return x * 10


def _slow_first(x):
    # Item 0 holds the driving process's in-order harvest while the
    # other pool worker finishes every later item.
    if x == 0:
        time.sleep(1.0)
    return x * 10


def _nested_value(tag):
    return {"tag": tag, "nested": [1, 2.5, (tag, None)]}


def _stored_items(store) -> int:
    return store.info().artifacts.get("item", 0)


def _rerun_serially(items=ITEMS):
    """Rerun at jobs=1: (results, items recomputed, recorder)."""
    _COMPUTED.clear()
    rec = TraceRecorder()
    with using_recorder(rec):
        results = map_items(_tenfold_logged, items, jobs=1)
    return results, list(_COMPUTED), rec


#: The stamp on every ledger line since the ledger was first written.
LEDGER_STAMP = "repro-journal-v1"


def _ledger_line(record: dict) -> bytes:
    """A ledger line exactly as earlier releases wrote it."""
    stamped = dict(record, schema=LEDGER_STAMP)
    return json.dumps(
        stamped, sort_keys=True, separators=(",", ":")
    ).encode("utf-8") + b"\n"


class TestJournalFile:
    def test_append_and_load_round_trip(self, tmp_path):
        ledger = ServerLedger(tmp_path)
        job = Job(id="job-0001", experiment="fig8")
        ledger.record_submit(job)
        job.state = "running"
        ledger.record_state(job)
        ledger.close()
        # Each append is one line in the on-disk format, stamped.
        assert ledger.path.read_bytes() == _ledger_line(
            {"event": "job", "action": "submit",
             "job": dict(job.describe(), state="queued")}
        ) + _ledger_line(
            {"event": "job", "action": "state", "job": job.describe()}
        )
        (loaded,) = ServerLedger(tmp_path).load()
        assert loaded.describe() == job.describe()

    def test_layout_under_store_root(self, tmp_path):
        ledger = ServerLedger(tmp_path / "store")
        journals = tmp_path / "store" / "journals"
        assert ledger.path == journals / "campaign-server.jsonl"
        assert ledger.lock_path == journals / "campaign-server.jsonl.lock"
        assert ledger.quarantine_path == (
            journals / "campaign-server.jsonl.quarantine"
        )

    def test_corrupt_lines_are_skipped_and_counted(self, tmp_path):
        ledger = ServerLedger(tmp_path)
        ledger.record_submit(Job(id="job-0001", experiment="fig8"))
        ledger.close()
        with open(ledger.path, "ab") as handle:
            handle.write(b'{"torn": ')  # the hard-kill torn final append
            handle.write(b"\n")
            handle.write(
                json.dumps({"schema": "other-v9", "event": "job"}).encode()
                + b"\n"
            )
        rec = TraceRecorder()
        with using_recorder(rec):
            jobs = ServerLedger(tmp_path).load()
        assert [job.id for job in jobs] == ["job-0001"]
        assert rec.metrics.counters["journal.corrupt_line"] == 2

    def test_discard_removes_the_file(self, tmp_path):
        ledger = ServerLedger(tmp_path)
        ledger.record_submit(Job(id="job-0001", experiment="fig8"))
        ledger.discard()
        assert not ledger.path.exists()
        ledger.close()

    def test_earlier_ledger_is_doctored_compacted_and_resumed(self, tmp_path):
        """A ledger in the on-disk format earlier releases wrote, with a
        torn line among its records, boots a ``--resume`` server."""
        from repro.campaign.server import CampaignServer

        store = ArtifactStore(tmp_path / "store")
        done = {"id": "job-0001", "experiment": "fig6", "kwargs": {},
                "state": "done", "key": None}
        running = {"id": "job-0002", "experiment": "fig8",
                   "kwargs": {"benchmarks": ["505.mcf_r"]},
                   "state": "running", "key": "k2"}
        torn = _ledger_line({"event": "job", "action": "state",
                             "job": dict(running, state="failed")})
        lines = [
            _ledger_line({"event": "job", "action": "submit",
                          "job": dict(done, state="queued")}),
            _ledger_line({"event": "job", "action": "state", "job": done}),
            _ledger_line({"event": "job", "action": "submit",
                          "job": dict(running, state="queued")}),
            torn[: len(torn) // 2] + b"\n",
            _ledger_line({"event": "job", "action": "state",
                          "job": running}),
        ]
        path = tmp_path / "store" / "journals" / "campaign-server.jsonl"
        path.parent.mkdir(parents=True)
        path.write_bytes(b"".join(lines))

        server = CampaignServer(store, tmp_path / "sock", resume=True)
        server.boot()
        try:
            assert server._doctor_report == {
                "lines": 5, "intact": 4, "quarantined": 1,
            }
            assert path.with_name(path.name + ".quarantine").read_bytes() \
                == lines[3]
            jobs = {job.id: job for job in server._jobs.values()}
            assert jobs["job-0001"].state == "done"
            # The job that was running is re-adopted and queued again.
            assert jobs["job-0002"].state == "queued"
            assert jobs["job-0002"].kwargs == running["kwargs"]
            assert server._adopted == 1
        finally:
            server.ledger.close()
        # Compacted: one snapshot line, then the re-adoption's tail.
        records = [json.loads(line) for line in path.read_bytes().splitlines()]
        assert [r["event"] for r in records] == ["snapshot", "job"]
        assert all(r["schema"] == LEDGER_STAMP for r in records)
        reloaded = {job.id: job.state for job in ServerLedger(
            tmp_path / "store").load()}
        assert reloaded == {"job-0001": "done", "job-0002": "queued"}


class TestResume:
    def test_interrupted_campaign_resumes_byte_identically(
        self, store, inject_faults
    ):
        reference = [x * 10 for x in range(6)]
        inject_faults("crash:items=1")
        with pytest.raises(InjectedFaultError, match="item 1"):
            map_items(_slow_first, range(6), jobs=2)
        # Each item is stored by its worker as it completes, so the
        # items the other worker finished behind the failed one survive
        # although the in-order harvest never reached them.
        assert _stored_items(store) == 5
        set_plan(None)

        rec = TraceRecorder()
        with using_recorder(rec):
            results = map_items(_slow_first, range(6), jobs=2)
        assert results == reference
        assert rec.metrics.counters[ITEM_STORE_HIT] == 5
        assert rec.metrics.counters[ITEM_MISS] == 1

    def test_two_fanouts_reuse_their_own_items(self, store):
        map_items(_tenfold_logged, [1, 2], jobs=1)
        map_items(_tenfold_logged, [7, 8], jobs=1)
        common._MEMO.clear()  # a new process: the store answers

        a, recomputed_a, _ = _rerun_serially([1, 2])
        b, recomputed_b, _ = _rerun_serially([8, 7])
        assert (a, b) == ([10, 20], [80, 70])
        assert recomputed_a == recomputed_b == []
        # Items are keyed by value, not position: an overlapping fan-out
        # computes only its new item (the others, read back above, are
        # now in memory).
        c, recomputed_c, rec = _rerun_serially([2, 7, 9])
        assert c == [20, 70, 90]
        assert recomputed_c == [9]
        assert rec.metrics.counters[ITEM_MEMORY_HIT] == 2


# -- through the experiment registry -----------------------------------


@dataclasses.dataclass
class _ToyResult:
    values: List[int]


def _toy_runner(jobs=None):
    return _ToyResult(values=map_items(_tenfold_logged, ITEMS, jobs=jobs))


def _toy_renderer(result: _ToyResult) -> str:
    return " ".join(str(v) for v in result.values)


def _toy_spec() -> ExperimentSpec:
    return ExperimentSpec(
        name="toy", runner=_toy_runner, result_type=_ToyResult,
        paper_ref="test-only", supports_jobs=True, renderer=_toy_renderer,
    )


class TestExecuteWithCampaign:
    def test_failed_run_is_never_cached(self, store):
        spec = _toy_spec()
        with using_plan(parse_spec("crash:items=1")):
            with pytest.raises(InjectedFaultError, match="item 1"):
                execute(spec, {"jobs": 1})
        info = store.info().artifacts
        assert not info.get("result")
        # The item finished before the failure is stored all the same.
        assert info.get("item") == 1

    def test_resume_completes_and_caches(self, store):
        spec = _toy_spec()
        _COMPUTED.clear()
        with using_plan(parse_spec("crash:items=1")):
            with pytest.raises(InjectedFaultError):
                execute(spec, {"jobs": 1})
        assert _COMPUTED == [0]

        _COMPUTED.clear()
        result = execute(spec, {"jobs": 1})
        assert result.values == [x * 10 for x in ITEMS]
        assert _COMPUTED == [1, 2, 3, 4]

        # The completed result is cached: a poisoned runner must never
        # execute on the third run.
        def _boom(**kwargs):
            raise AssertionError("must hit the result cache")

        poisoned = dataclasses.replace(spec, runner=_boom)
        cached = execute(poisoned, {"jobs": 1})
        assert cached.values == result.values

    def test_jobs_value_does_not_change_campaign_identity(self, store):
        spec = _toy_spec()
        with using_plan(parse_spec("crash:items=1")):
            with pytest.raises(InjectedFaultError):
                execute(spec, {"jobs": 2})
        # Rerun with another jobs value: the pool workers' items (jobs
        # is no part of an item key) come back from the store.
        stored = _stored_items(store)
        assert stored >= 1
        rec = TraceRecorder()
        with using_recorder(rec):
            result = execute(spec, {"jobs": 1})
        assert result.values == [x * 10 for x in ITEMS]
        assert rec.metrics.counters[ITEM_STORE_HIT] == stored
        assert rec.metrics.counters[ITEM_MISS] == len(ITEMS) - stored


# -- through the CLI ----------------------------------------------------


class TestCliCampaign:
    """The user-facing acceptance path: exit codes, stderr, reruns."""

    def test_interrupted_run_then_resume_is_byte_identical(
        self, tmp_path, capsys, inject_faults
    ):
        from repro.cli import main

        benchmarks = ["620.omnetpp_s", "557.xz_r"]
        ref_args = ["fig10", "--benchmarks", *benchmarks, "--jobs", "2",
                    "--cache-dir", str(tmp_path / "clean-store")]
        assert main(ref_args) == 0
        reference = capsys.readouterr().out

        args = ["fig10", "--benchmarks", *benchmarks, "--jobs", "2",
                "--cache-dir", str(tmp_path / "store")]
        inject_faults("crash:items=1")
        with pytest.raises(InjectedFaultError, match="item 1"):
            main(args)
        assert capsys.readouterr().out == ""
        set_plan(None)

        # The same command again, no flag: only the crashed item runs.
        rec = TraceRecorder()
        with using_recorder(rec):
            assert main(args) == 0
        assert capsys.readouterr().out == reference
        assert rec.metrics.counters[ITEM_STORE_HIT] == 1
        assert rec.metrics.counters[ITEM_MISS] == 1

    def test_bad_fault_spec_is_a_usage_error(self, capsys, monkeypatch):
        from repro.cli import main
        from repro.resilience import reset_plan

        monkeypatch.setenv("REPRO_INJECT_FAULTS", "meteor")
        reset_plan()
        code = main(["fig10", "--benchmarks", "620.omnetpp_s"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("invalid REPRO_INJECT_FAULTS: ")
        assert "meteor" in line

    def test_bad_fault_spec_stops_serve_before_it_binds(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.campaign.server import CampaignServer
        from repro.cli import main
        from repro.resilience import reset_plan

        def _must_not_boot(self):
            raise AssertionError("serve booted despite a malformed plan")

        monkeypatch.setattr(CampaignServer, "boot", _must_not_boot)
        monkeypatch.setenv("REPRO_INJECT_FAULTS", "crash:items=1:hang=2")
        reset_plan()
        cache = tmp_path / "store"
        ready = tmp_path / "ready.json"
        code = main(["serve", "--cache-dir", str(cache),
                     "--ready-file", str(ready)])
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("invalid REPRO_INJECT_FAULTS: ")
        assert not (cache / "campaign.sock").exists()
        assert not ready.exists()

    def test_cache_doctor_flow(self, tmp_path, capsys):
        from repro.cli import main
        from repro.parallel import ArtifactStore

        store_dir = str(tmp_path / "store")
        store = ArtifactStore(store_dir, version="v")
        bad = store.put_json("metrics", {"k": 1}, {"v": 1})
        bad.write_bytes(b"garbage")
        assert main(["cache", "doctor", "--cache-dir", store_dir]) == 1
        assert "newly quarantined" in capsys.readouterr().out
        assert main(
            ["cache", "doctor", "--cache-dir", store_dir, "--prune"]
        ) == 0
        assert "pruned" in capsys.readouterr().out
        assert main(["cache", "doctor", "--cache-dir", store_dir]) == 0


class TestReplayEdgeCases:
    """What a hard kill, a stray edit or version skew leaves behind."""

    def test_torn_item_artifact_recomputes_only_that_item(self, store):
        map_items(_tenfold_logged, ITEMS, jobs=1)
        common._MEMO.clear()
        # Tear item 3's artifact mid-payload, as a damaged disk would.
        params = {
            "worker": f"{__name__}._tenfold_logged", "item": 3, "bound": {},
        }
        path = store.path_for("item", store.key("item", params), "pickle")
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])

        results, recomputed, rec = _rerun_serially()
        assert results == [x * 10 for x in ITEMS]
        assert recomputed == [3]
        assert rec.metrics.counters[ITEM_STORE_HIT] == len(ITEMS) - 1

    def test_item_outcome_payload_round_trip(self, store):
        """A stored item reads back equal to the value its worker
        returned, with no recomputation."""
        first = map_items(_nested_value, ["a", "b"], jobs=1)
        common._MEMO.clear()
        rec = TraceRecorder()
        with using_recorder(rec):
            again = map_items(_nested_value, ["a", "b"], jobs=1)
        assert again == first == [_nested_value("a"), _nested_value("b")]
        assert rec.metrics.counters[ITEM_STORE_HIT] == 2
        assert ITEM_MISS not in rec.metrics.counters

    def test_future_schema_lines_are_ignored_not_trusted(self, tmp_path):
        """Version skew: items stored by another package version are
        never read back, only recomputed."""
        old = ArtifactStore(tmp_path / "store", version="0.0-old")
        previous = set_store(old)
        try:
            map_items(_tenfold_logged, ITEMS, jobs=1)
        finally:
            set_store(previous)
        common._MEMO.clear()
        previous = configure_cache(tmp_path / "store")
        try:
            results, recomputed, _ = _rerun_serially()
        finally:
            set_store(previous)
        assert results == [x * 10 for x in ITEMS]
        assert recomputed == ITEMS

    def test_unknown_record_fields_are_tolerated(self, tmp_path):
        """Ledger lines from older or newer servers still replay: a job
        record's unknown fields (an old ``resume`` flag, say) are
        dropped, never fatal."""
        ledger = ServerLedger(tmp_path)
        ledger.path.parent.mkdir(parents=True)
        ledger.path.write_bytes(_ledger_line(
            {
                "event": "job", "action": "submit",
                "job": {"id": "job-0001", "experiment": "fig8",
                        "state": "running", "resume": True},
                "future_field": {"anything": True},
            }
        ))
        (job,) = ledger.load()
        assert (job.id, job.experiment, job.state) == (
            "job-0001", "fig8", "running",
        )
        assert "resume" not in job.describe()


class TestJournalLock:
    """One ledger, one writer: the flock on <ledger>.lock."""

    def test_second_acquirer_gets_structured_error(self, tmp_path):
        first = ServerLedger(tmp_path)
        first.acquire()
        second = ServerLedger(tmp_path)
        with pytest.raises(JournalLockedError) as excinfo:
            second.acquire()
        assert str(first.path) == excinfo.value.path
        first.close()

    def test_lock_released_on_close(self, tmp_path):
        first = ServerLedger(tmp_path)
        first.record_submit(Job(id="job-0001", experiment="fig8"))
        first.close()
        second = ServerLedger(tmp_path)
        second.acquire()  # must not raise
        second.close()

    def test_acquire_is_idempotent_per_instance(self, tmp_path):
        ledger = ServerLedger(tmp_path)
        ledger.acquire()
        ledger.acquire()
        ledger.close()

    def test_discard_keeps_the_lock(self, tmp_path):
        holder = ServerLedger(tmp_path)
        holder.record_submit(Job(id="job-0001", experiment="fig8"))
        holder.discard()
        rival = ServerLedger(tmp_path)
        with pytest.raises(JournalLockedError):
            rival.acquire()
        holder.close()

    def test_orphaned_job_child_does_not_hold_the_lock(self, tmp_path):
        """A job child outliving its server does not block the restart.

        The fork shares the server's lock, so the lock outlives the
        server for as long as the child keeps the inherited descriptors.
        The server hands them over as ``open_fds()`` in the
        ``close_fds`` list :func:`repro.campaign.worker.child_main`
        closes before the job runs.
        """
        import os
        import signal
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(__file__), "..", "src")
        code = (
            "import multiprocessing, os, sys, time\n"
            "from repro.campaign import worker\n"
            "from repro.campaign.jobs import Job\n"
            "from repro.campaign.ledger import ServerLedger\n"
            "root = sys.argv[1]\n"
            "ledger = ServerLedger(root)\n"
            "ledger.acquire()\n"
            "ledger.record_submit(Job(id='job-0001', experiment='fig8'))\n"
            "def run_job(payload):\n"
            "    os.write(1, b'child %d\\n' % os.getpid())\n"
            "    time.sleep(60)\n"
            "worker.run_job = run_job\n"
            "payload = {'store_root': root, 'job_id': 'job-0001',\n"
            "           'experiment': 'fig8',\n"
            "           'close_fds': ledger.open_fds()}\n"
            "multiprocessing.get_context('fork').Process(\n"
            "    target=worker.child_main, args=(payload,)).start()\n"
            "os.write(1, b'fds %d\\n' % len(payload['close_fds']))\n"
            "os._exit(0)\n"  # the server dies; its job child lives on
        )
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        server = subprocess.Popen(
            [sys.executable, "-c", code, str(tmp_path)],
            env=env, stdout=subprocess.PIPE,
        )
        child_pid = None
        try:
            lines = dict(
                server.stdout.readline().split() for _ in range(2)
            )
            child_pid = int(lines[b"child"])
            assert lines[b"fds"] == b"2"  # the lock and the ledger
            assert server.wait(timeout=10) == 0
            os.kill(child_pid, 0)  # the orphaned child is still running
            restarted = ServerLedger(tmp_path)
            restarted.acquire()  # must not raise
            restarted.close()
        finally:
            if child_pid is not None:
                os.kill(child_pid, signal.SIGKILL)
            if server.poll() is None:
                server.kill()
            server.stdout.close()

    def test_lock_dies_with_the_process(self, tmp_path):
        """Kernel-released lock: a SIGKILL'd holder does not wedge the
        ledger for the resuming process."""
        import os
        import signal
        import subprocess
        import sys
        import time

        src = os.path.join(os.path.dirname(__file__), "..", "src")
        code = (
            "import sys, time\n"
            "from repro.campaign.ledger import ServerLedger\n"
            f"ledger = ServerLedger({str(tmp_path)!r})\n"
            "ledger.acquire()\n"
            "print('locked', flush=True)\n"
            "time.sleep(60)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        proc = subprocess.Popen(
            [sys.executable, "-c", code],
            env=env, stdout=subprocess.PIPE,
        )
        try:
            assert proc.stdout.readline().strip() == b"locked"
            mine = ServerLedger(tmp_path)
            with pytest.raises(JournalLockedError):
                mine.acquire()
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
            deadline = time.monotonic() + 10
            while True:
                try:
                    mine.acquire()
                    break
                except JournalLockedError:
                    assert time.monotonic() < deadline
                    time.sleep(0.05)
            mine.close()
        finally:
            if proc.poll() is None:
                proc.kill()
