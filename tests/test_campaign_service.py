"""End-to-end tests of the campaign daemon: real subprocesses, real kills.

These spawn ``repro-spec2017 serve`` as a subprocess (its own session,
so SIGKILL can take out the server *and* its forked worker children the
way a machine crash would), drive it through the sync client, and pin
the service's three headline guarantees:

* a service-run result is byte-identical to a direct CLI run;
* identical concurrent submissions run the work exactly once
  (``campaign.dedup.hit`` >= 1);
* kill -9 mid-campaign + restart ``--resume`` reuses the items the
  killed job stored instead of recomputing them, and the final artifact
  is still byte-identical.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign.client import CampaignClient
from repro.errors import CampaignServiceError

pytestmark = [pytest.mark.slow, pytest.mark.resilience]

#: One benchmark keeps a job around a second; three give the kill test
#: something to interrupt.
QUICK_BENCH = ["505.mcf_r"]
KILL_BENCH = ["505.mcf_r", "520.omnetpp_r", "525.x264_r"]

BOOT_TIMEOUT_S = 30.0
JOB_TIMEOUT_S = 180.0


def _spawn_server(
    cache_dir: Path, *extra_args: str, faults: str = None
) -> subprocess.Popen:
    """Start ``serve`` in its own session; returns once it is listening.

    ``faults``, when given, is the server's ``REPRO_INJECT_FAULTS``.
    """
    ready = cache_dir / f"ready-{time.monotonic_ns()}.json"
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    if faults is not None:
        env["REPRO_INJECT_FAULTS"] = faults
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep * bool(env.get("PYTHONPATH")) + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--ready-file", str(ready), *extra_args,
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    while not ready.is_file():
        if proc.poll() is not None:
            raise AssertionError(
                f"server exited during boot (code {proc.returncode})"
            )
        if time.monotonic() > deadline:
            proc.kill()
            raise AssertionError("server did not become ready in time")
        time.sleep(0.05)
    return proc


def _kill_server_group(proc: subprocess.Popen) -> None:
    """SIGKILL the server's whole session (server + worker children)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait(timeout=10)


def _shutdown(client: CampaignClient, proc: subprocess.Popen) -> int:
    try:
        client.shutdown()
    except CampaignServiceError:
        pass
    try:
        return proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        _kill_server_group(proc)
        raise


def _client_for(cache_dir: Path) -> CampaignClient:
    return CampaignClient(cache_dir / "campaign.sock")


def _write_result_like_cli(client, job_id: str, path: Path) -> None:
    """Re-serialize a job's stored result through the CLI's one writer."""
    from repro.experiments.registry import (
        get_spec,
        result_from_payload,
        write_result,
    )

    spec = get_spec(client.status(job_id)["experiment"])
    write_result(path, spec, result_from_payload(spec, client.result(job_id)))


def _direct_json(tmp_path: Path, benchmarks) -> Path:
    """A direct (service-free) CLI run's --json-out, in a fresh store."""
    from repro.cli import main as cli_main

    out = tmp_path / "direct.json"
    code = cli_main(
        [
            "fig8", "--benchmarks", *benchmarks,
            "--cache-dir", str(tmp_path / "direct-cache"),
            "--json-out", str(out),
        ]
    )
    assert code == 0
    return out


class TestServiceEndToEnd:
    def test_submit_runs_and_matches_direct_run(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        cache.mkdir()
        proc = _spawn_server(cache)
        client = _client_for(cache)
        try:
            outcome = client.submit("fig8", {"benchmarks": QUICK_BENCH})
            job_id = outcome["job"]["id"]
            assert outcome["deduped"] is False
            job = client.wait(job_id, timeout_s=JOB_TIMEOUT_S)
            assert job["state"] == "done"
            assert job["completed_items"] == job["total_items"] > 0
            svc_json = tmp_path / "svc.json"
            _write_result_like_cli(client, job_id, svc_json)
        finally:
            assert _shutdown(client, proc) == 0
        direct = _direct_json(tmp_path, QUICK_BENCH)
        assert svc_json.read_bytes() == direct.read_bytes()

    def test_identical_submissions_dedup_to_one_run(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        proc = _spawn_server(cache)
        client = _client_for(cache)
        try:
            first = client.submit("fig8", {"benchmarks": QUICK_BENCH})
            second = client.submit(
                "fig8", {"benchmarks": QUICK_BENCH, "jobs": 2}
            )
            assert second["deduped"] is True
            assert second["job"]["id"] == first["job"]["id"]
            client.wait(first["job"]["id"], timeout_s=JOB_TIMEOUT_S)
            # A third submission after completion dedups against the
            # done job / stored result — still no second run.
            third = client.submit("fig8", {"benchmarks": QUICK_BENCH})
            assert third["deduped"] is True
            counters = client.status()["metrics"]["counters"]
            dedup_hits = sum(
                v for k, v in counters.items()
                if k.startswith("campaign.dedup.hit")
            )
            assert dedup_hits >= 1
            assert counters.get("campaign.queued", 0) == 1
            jobs = client.ls()
            assert len(jobs) == 1
        finally:
            assert _shutdown(client, proc) == 0

    def test_watch_streams_progress_to_end(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        proc = _spawn_server(cache)
        client = _client_for(cache)
        try:
            job_id = client.submit(
                "fig8", {"benchmarks": QUICK_BENCH}
            )["job"]["id"]
            events = list(client.watch(job_id))
            kinds = [event.get("event") for event in events]
            assert kinds[0] == "state"
            assert kinds[-1] == "end"
            assert any(k == "progress" for k in kinds)
            assert events[-1]["state"] == "done"
        finally:
            assert _shutdown(client, proc) == 0

    def test_kill9_then_resume_reuses_stored_items(self, tmp_path):
        """The acceptance scenario: SIGKILL mid-campaign, restart
        ``--resume``, stored items are not recomputed, and the final
        artifact is byte-identical to an uninterrupted run."""
        cache = tmp_path / "cache"
        cache.mkdir()
        proc = _spawn_server(cache)
        client = _client_for(cache)
        job_id = client.submit(
            "fig8", {"benchmarks": KILL_BENCH, "jobs": 1}
        )["job"]["id"]
        # Wait until at least one item is stored, then pull the plug
        # (also when the wait fails, so no server outlives the test).
        items = cache / "objects" / "item"
        deadline = time.monotonic() + JOB_TIMEOUT_S
        try:
            while not any(items.rglob("*.pkl")):
                assert time.monotonic() < deadline, "no item stored in time"
                time.sleep(0.05)
        finally:
            _kill_server_group(proc)

        proc2 = _spawn_server(cache, "--resume")
        client2 = _client_for(cache)
        try:
            job = client2.wait(job_id, timeout_s=JOB_TIMEOUT_S)
            assert job["state"] == "done"
            assert job["reused_items"] >= 1
            assert job["completed_items"] == job["total_items"]
            svc_json = tmp_path / "svc.json"
            _write_result_like_cli(client2, job_id, svc_json)
        finally:
            assert _shutdown(client2, proc2) == 0
        direct = _direct_json(tmp_path, KILL_BENCH)
        assert svc_json.read_bytes() == direct.read_bytes()

    def test_failed_item_fails_the_job_and_frees_its_key(
        self, tmp_path, capsys
    ):
        """A crashed item ends its job ``failed`` with the item's own
        error; ``campaign result`` refuses the job, and an identical
        resubmission runs anew instead of joining the failed job."""
        from repro.cli import main as cli_main

        cache = tmp_path / "cache"
        cache.mkdir()
        proc = _spawn_server(cache, faults="crash:items=1")
        client = _client_for(cache)
        kwargs = {"benchmarks": KILL_BENCH, "jobs": 1}
        try:
            job_id = client.submit("fig8", kwargs)["job"]["id"]
            job = client.wait(job_id, timeout_s=JOB_TIMEOUT_S)
            assert job["state"] == "failed"
            assert "InjectedFaultError" in job["error"]
            assert job["completed_items"] == 1
            assert job["total_items"] == len(KILL_BENCH)

            code = cli_main(["campaign", "result", job_id,
                             "--socket", str(cache / "campaign.sock")])
            assert code == 2
            assert f"{job_id} is failed, not done" in capsys.readouterr().err

            again = client.submit("fig8", kwargs)
            assert again["deduped"] is False
            assert again["job"]["id"] != job_id
            client.cancel(again["job"]["id"])
        finally:
            assert _shutdown(client, proc) == 0

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        proc = _spawn_server(cache)
        client = _client_for(cache)
        job_id = client.submit(
            "fig8", {"benchmarks": QUICK_BENCH}
        )["job"]["id"]
        # Let the scheduler start the job, then ask for a graceful stop.
        deadline = time.monotonic() + JOB_TIMEOUT_S
        while client.status(job_id)["state"] == "queued":
            assert time.monotonic() < deadline
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=JOB_TIMEOUT_S) == 0
        # The in-flight job was finished (not abandoned) before exit.
        ledger = cache / "journals" / "campaign-server.jsonl"
        states = [
            json.loads(line)["job"]["state"]
            for line in ledger.read_text().splitlines()
            if '"event":"job"' in line or '"event": "job"' in line
        ]
        assert states[-1] == "done"

    def test_cancel_queued_job(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        # One worker slot: the second submission must queue behind the
        # first, so it is reliably cancellable.
        proc = _spawn_server(cache, "--workers", "1")
        client = _client_for(cache)
        try:
            first = client.submit(
                "fig8", {"benchmarks": KILL_BENCH, "jobs": 1}
            )["job"]["id"]
            second = client.submit(
                "fig8", {"benchmarks": ["500.perlbench_r"]}
            )["job"]["id"]
            assert second != first
            cancelled = client.cancel(second)
            deadline = time.monotonic() + JOB_TIMEOUT_S
            while cancelled["state"] not in ("cancelled",):
                assert time.monotonic() < deadline
                time.sleep(0.05)
                cancelled = client.status(second)
            assert cancelled["state"] == "cancelled"
            client.wait(first, timeout_s=JOB_TIMEOUT_S)
        finally:
            assert _shutdown(client, proc) == 0

    def test_client_without_server_fails_cleanly(self, tmp_path):
        client = CampaignClient(tmp_path / "nothing.sock")
        with pytest.raises(CampaignServiceError, match="cannot reach"):
            client.ping()


#: Starts a heartbeat pump, forks while it beats, and reports the
#: child's exit code; the child exits at once.  Python 3.12+ warns on
#: every fork of a multi-threaded process (the pump is a thread); that
#: warning is the parent's and expected, so only it is silenced.
_FORK_WHILE_BEATING = """
import os, sys, time, warnings
from repro.campaign.worker import HeartbeatPump, ProgressRecorder

warnings.filterwarnings(
    "ignore", "This process .* is multi-threaded", DeprecationWarning
)

pump = HeartbeatPump(ProgressRecorder(sys.argv[1]), 0.01)
pump.start()
time.sleep(0.05)
pid = os.fork()
if pid == 0:
    os._exit(0)
_, status = os.waitpid(pid, 0)
pump.stop()
pump.join(timeout=5)
if pump.is_alive():
    sys.exit("heartbeat pump did not stop")
sys.exit(os.waitstatus_to_exitcode(status))
"""


class TestHeartbeatPumpFork:
    def test_fork_while_pump_runs_leaves_child_stderr_clean(self, tmp_path):
        # A job's pool fans out by forking while its heartbeat pump
        # runs; each child resets the thread table it inherits, which
        # calls Thread._stop() on the pump.
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", _FORK_WHILE_BEATING,
             str(tmp_path / "progress.jsonl")],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0
        assert done.stderr == ""
