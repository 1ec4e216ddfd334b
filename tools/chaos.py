"""Service-level chaos harness for the campaign daemon.

``python tools/chaos.py --seed S --workdir D`` (with ``src`` on
``PYTHONPATH``; ``tools/chaos_smoke.sh`` sets it and gates the wall
time) drives a real ``repro-spec2017 serve`` subprocess through a
seeded crash schedule and asserts the supervision invariants the system
promises:

* **no job lost** — every accepted submission reaches a terminal state
  across worker hangs (``workerhang``), worker SIGKILLs
  (``workerkill``), torn ledger lines (``ledgertear``), dropped watch
  streams (``connreset``), and a mid-run SIGKILL of the whole server
  session followed by a ``--resume`` reboot;
* **no job double-completed** — once the ledger records ``done`` for a
  job id, no later record moves it anywhere else;
* **artifacts byte-identical** — a job that survived kills and resumes
  renders exactly the bytes an undisturbed direct CLI run renders;
* **ledger replayable** — after the dust settles the server ledger
  still loads, and the doctor's quarantine absorbed every torn line;
* **repeat offenders poisoned** — a job whose worker dies every
  generation is quarantined as ``poisoned`` at the kill budget, with
  the kill count intact across server reboots;
* **backpressure** — with no fault plan, a bounded queue answers
  ``rejected`` when full, and every ``done`` job's result can be
  fetched.

Everything is deterministic modulo scheduling: the crash phase's fault
plan is the ``ci-chaos`` preset (pure functions of item index and run
generation), and the only random choice — when to pull the plug on the
server — is drawn from ``random.Random(seed)``, so a failing run
reproduces with its seed.  Violations accumulate in a list and are
reported together; the process exits non-zero if any invariant broke.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.campaign.client import CampaignClient
from repro.campaign.ledger import ServerLedger
from repro.errors import CampaignRejectedError, CampaignServiceError
from repro.telemetry.clock import monotonic_ns, sleep_s

#: Fault plan of the crash phase (see faults.PRESETS["ci-chaos"]).
CHAOS_PLAN = "ci-chaos"

#: The three submissions of the crash phase.  One benchmark finishes
#: untouched; three trip the gen-0 hang once and then complete; five
#: reach item 4 every generation and exhaust the kill budget.
QUICK_BENCH = ["505.mcf_r"]
RECOVERY_BENCH = ["500.perlbench_r", "502.gcc_r", "520.omnetpp_r"]
POISON_BENCH = [
    "525.x264_r", "531.deepsjeng_r", "541.leela_r",
    "548.exchange2_r", "557.xz_r",
]

#: Backpressure-phase benchmarks (disjoint from the crash phase so
#: nothing dedups against a stored result).
BACKPRESSURE_BENCH = ["600.perlbench_s", "602.gcc_s", "605.mcf_s"]

BOOT_TIMEOUT_S = 30.0
JOB_TIMEOUT_S = 120.0


class ChaosRunner:
    """One seeded chaos scenario against one scratch store."""

    def __init__(self, workdir, seed: int = 0) -> None:
        self.workdir = Path(workdir)
        self.seed = int(seed)
        self.rng = random.Random(self.seed)
        self.cache = self.workdir / "cache"
        self.socket = self.cache / "campaign.sock"
        self.violations: List[str] = []
        self.reconnects = 0
        self._boots = 0
        self._server: Optional[subprocess.Popen] = None

    # -- plumbing ------------------------------------------------------

    def _fail(self, message: str) -> None:
        self.violations.append(message)
        print(f"chaos: VIOLATION: {message}", file=sys.stderr)

    def _client(self) -> CampaignClient:
        return CampaignClient(self.socket)

    def _boot(self, plan: Optional[str], *extra: str) -> None:
        """Start ``serve`` in its own session and wait for the ready file.

        ``plan`` is the server's ``REPRO_INJECT_FAULTS``; None boots it
        with no fault plan.
        """
        self._boots += 1
        ready = self.workdir / f"ready-{self._boots}.json"
        log = open(self.workdir / f"server-{self._boots}.log", "wb")
        env = dict(os.environ)
        env.pop("REPRO_INJECT_FAULTS", None)
        if plan is not None:
            env["REPRO_INJECT_FAULTS"] = plan
        self._server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--cache-dir", str(self.cache),
                "--socket", str(self.socket),
                "--ready-file", str(ready),
                "--heartbeat", "0.25",
                "--stall-timeout", "2",
                "--max-kills", "3",
                *extra,
            ],
            env=env,
            stdout=log,
            stderr=log,
            start_new_session=True,
        )
        log.close()
        deadline = monotonic_ns() + int(BOOT_TIMEOUT_S * 1e9)
        while not ready.is_file():
            if self._server.poll() is not None:
                raise CampaignServiceError(
                    f"server exited during boot "
                    f"(code {self._server.returncode}); see "
                    f"{self.workdir}/server-{self._boots}.log"
                )
            if monotonic_ns() > deadline:
                self._kill_server()
                raise CampaignServiceError("server never became ready")
            sleep_s(0.05)

    def _kill_server(self) -> None:
        """SIGKILL the whole server session: daemon + worker children."""
        if self._server is None:
            return
        try:
            os.killpg(self._server.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self._server.wait(timeout=10)
        self._server = None

    def _shutdown(self) -> None:
        if self._server is None:
            return
        try:
            self._client().shutdown()
        except CampaignServiceError:
            # A wedged server fails the drain; the SIGKILL below keeps
            # the harness moving and the exit-code check records it.
            pass
        try:
            code = self._server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._fail("server did not drain within 30s of shutdown")
            self._kill_server()
            return
        if code != 0:
            self._fail(f"server exited {code} from a graceful drain")
        self._server = None

    def _watch(self, job_id: str) -> Optional[str]:
        """Watch a job to its end; counts reconnects; returns final state."""
        final = None
        try:
            for event in self._client().watch(job_id):
                kind = event.get("event")
                if kind == "reconnect":
                    self.reconnects += 1
                elif kind == "end":
                    final = event.get("state")
        except CampaignServiceError as exc:
            self._fail(f"watch of {job_id} gave up: {exc}")
        return final

    # -- phases --------------------------------------------------------

    def crash_phase(self) -> Dict[str, str]:
        """Hang/kill/tear/reset faults + a mid-run server SIGKILL."""
        print("chaos: phase 1 — crash scenario (plan: ci-chaos)")
        self._boot(CHAOS_PLAN)
        client = self._client()
        quick = client.submit("fig8", {"benchmarks": QUICK_BENCH, "jobs": 1})
        recovery = client.submit(
            "fig8", {"benchmarks": RECOVERY_BENCH, "jobs": 1}
        )
        poison = client.submit(
            "fig8", {"benchmarks": POISON_BENCH, "jobs": 1}
        )
        ids = {
            "quick": quick["job"]["id"],
            "recovery": recovery["job"]["id"],
            "poison": poison["job"]["id"],
        }
        print(f"chaos: submitted {ids}")

        # The one seeded choice: how long the first server lives.
        plug_after = 0.6 + 1.2 * self.rng.random()
        sleep_s(plug_after)
        print(f"chaos: SIGKILL server session after {plug_after:.2f}s")
        self._kill_server()

        print("chaos: rebooting with --resume")
        self._boot(CHAOS_PLAN, "--resume")
        client = self._client()

        status = client.status()
        if status.get("ledger_quarantined", 0) < 1:
            self._fail(
                "ledgertear injected torn lines but the boot doctor "
                "quarantined none"
            )

        # Two watches: the first consumes connreset ordinal 0 (clean),
        # the second hits ordinal 1 (every=2) and must stitch the
        # stream with a reconnect.
        self._watch(ids["recovery"])
        if client.status(ids["poison"]).get("state") not in (
            "poisoned", "done", "failed", "cancelled"
        ):
            self._watch(ids["poison"])
        for name, job_id in ids.items():
            job = client.wait(job_id, timeout_s=JOB_TIMEOUT_S)
            print(
                f"chaos: {name} ({job_id}) -> {job['state']} "
                f"(kills={job.get('kills')})"
            )
        return ids

    def check_crash_invariants(self, ids: Dict[str, str]) -> None:
        client = self._client()
        quick = client.status(ids["quick"])
        recovery = client.status(ids["recovery"])
        poison = client.status(ids["poison"])

        if quick["state"] != "done":
            self._fail(f"quick job ended {quick['state']!r}, expected done")
        if recovery["state"] != "done":
            self._fail(
                f"recovery job ended {recovery['state']!r}, expected done"
            )
        elif recovery.get("kills", 0) < 1:
            self._fail(
                "recovery job was never killed: the workerhang clause "
                "(or the watchdog) did not fire"
            )
        if recovery.get("completed_items") != recovery.get("total_items"):
            self._fail(
                f"recovery job completed "
                f"{recovery.get('completed_items')} of "
                f"{recovery.get('total_items')} items"
            )
        if poison["state"] != "poisoned":
            self._fail(
                f"poison job ended {poison['state']!r}, expected poisoned"
            )
        if poison.get("kills") != 3:
            self._fail(
                f"poison job has kills={poison.get('kills')}, expected "
                "exactly the --max-kills budget of 3"
            )
        if self.reconnects < 1:
            self._fail(
                "connreset dropped no watch stream (no reconnect event "
                "was observed)"
            )
        for job in client.ls():
            if job["state"] not in ("done", "failed", "cancelled", "poisoned"):
                self._fail(
                    f"job {job['id']} left non-terminal: {job['state']!r}"
                )

    def render_results(self, ids: Dict[str, str]) -> None:
        """Byte-compare surviving jobs' results against direct runs."""
        pairs = [
            ("quick", QUICK_BENCH),
            ("recovery", RECOVERY_BENCH),
        ]
        for name, benchmarks in pairs:
            service_json = self.workdir / f"service-{name}.json"
            code = subprocess.call(
                [
                    sys.executable, "-m", "repro", "campaign", "result",
                    ids[name],
                    "--cache-dir", str(self.cache),
                    "--socket", str(self.socket),
                    "--json-out", str(service_json),
                ],
                stdout=subprocess.DEVNULL,
            )
            if code != 0:
                self._fail(
                    f"campaign result for the {name} job exited {code}"
                )
                continue
            direct_json = self.workdir / f"direct-{name}.json"
            env = dict(os.environ)
            env.pop("REPRO_INJECT_FAULTS", None)
            code = subprocess.call(
                [
                    sys.executable, "-m", "repro", "fig8",
                    "--benchmarks", *benchmarks,
                    "--cache-dir", str(self.workdir / f"direct-cache-{name}"),
                    "--json-out", str(direct_json),
                ],
                env=env,
                stdout=subprocess.DEVNULL,
            )
            if code != 0:
                self._fail(f"direct {name} run exited {code}")
                continue
            if service_json.read_bytes() != direct_json.read_bytes():
                self._fail(
                    f"{name} artifact differs between the chaos-run "
                    "service and an undisturbed direct run"
                )
            else:
                print(f"chaos: {name} artifact byte-identical to direct run")

    def check_ledger(self, ids: Dict[str, str]) -> None:
        """The ledger still replays, and no job un-completes."""
        ledger = ServerLedger(self.cache)
        by_id = {job.id: job for job in ledger.load()}
        for name, job_id in ids.items():
            if job_id not in by_id:
                self._fail(f"{name} job {job_id} lost from the ledger")
        done: set = set()
        for line in ledger.path.read_bytes().splitlines():
            try:
                record = json.loads(line)
            except ValueError:
                # Torn decoy lines that arrived after the last doctor
                # pass; the next boot quarantines them.
                continue
            payloads = []
            if record.get("event") == "job":
                payloads = [record.get("job") or {}]
            elif record.get("event") == "snapshot":
                payloads = list(record.get("jobs") or ())
            for payload in payloads:
                job_id = payload.get("id")
                state = payload.get("state")
                if job_id in done and state != "done":
                    self._fail(
                        f"job {job_id} moved from done to {state!r}: "
                        "a completed job was re-run"
                    )
                if state == "done":
                    done.add(job_id)

    def backpressure_phase(self) -> None:
        """A bounded queue sheds load; every done job's result fetches."""
        print("chaos: phase 2 — backpressure (no fault plan, --max-queued)")
        self._boot(None, "--resume", "--workers", "1", "--max-queued", "1")
        client = self._client()
        first = client.submit(
            "fig8", {"benchmarks": BACKPRESSURE_BENCH[:1], "jobs": 1}
        )["job"]["id"]
        # Let the single worker pick the first job up, so the second
        # lands in the (size-1) queue and the third overflows it.
        deadline = monotonic_ns() + int(BOOT_TIMEOUT_S * 1e9)
        while client.status(first).get("state") == "queued":
            if monotonic_ns() > deadline:
                self._fail("first backpressure-phase job never started")
                break
            sleep_s(0.05)
        second = client.submit(
            "fig8", {"benchmarks": BACKPRESSURE_BENCH[1:2], "jobs": 1}
        )["job"]["id"]
        rejected = False
        try:
            client.submit(
                "fig8", {"benchmarks": BACKPRESSURE_BENCH[2:3], "jobs": 1}
            )
        except CampaignRejectedError as exc:
            rejected = True
            print(f"chaos: overflow submission rejected as expected: {exc}")
        if not rejected:
            self._fail(
                "a submission beyond --max-queued was accepted instead "
                "of rejected"
            )
        for job_id in (first, second):
            job = client.wait(job_id, timeout_s=JOB_TIMEOUT_S)
            if job["state"] != "done":
                self._fail(
                    f"backpressure-phase job {job_id} ended {job['state']!r}"
                )
        done = [job["id"] for job in client.ls() if job["state"] == "done"]
        for job_id in done:
            try:
                client.result(job_id)
            except CampaignServiceError as exc:
                self._fail(f"done job {job_id} has no result to fetch: {exc}")
        print(f"chaos: all {len(done)} done job(s) have a stored result")

    # -- entry ---------------------------------------------------------

    def run(self) -> int:
        start_ns = monotonic_ns()
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.cache.mkdir(parents=True, exist_ok=True)
        try:
            ids = self.crash_phase()
            self.check_crash_invariants(ids)
            self.render_results(ids)
            self._shutdown()
            self.check_ledger(ids)
            self.backpressure_phase()
            self._shutdown()
        finally:
            self._kill_server()
        wall_s = (monotonic_ns() - start_ns) / 1e9
        report = {
            "seed": self.seed,
            "wall_s": round(wall_s, 3),
            "reconnects": self.reconnects,
            "violations": list(self.violations),
        }
        (self.workdir / "chaos_report.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        if self.violations:
            print(
                f"chaos: FAILED with {len(self.violations)} violation(s) "
                f"in {wall_s:.1f}s (seed {self.seed})",
                file=sys.stderr,
            )
            return 1
        print(
            f"chaos: OK — all invariants held in {wall_s:.1f}s "
            f"(seed {self.seed}, {self.reconnects} reconnect(s))"
        )
        return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/chaos.py",
        description="seeded chaos scenario against the campaign service",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="seed for the crash schedule (default: 0)",
    )
    parser.add_argument(
        "--workdir", required=True, metavar="DIR",
        help="scratch directory for the store, logs, and report",
    )
    args = parser.parse_args(argv)
    return ChaosRunner(args.workdir, seed=args.seed).run()


if __name__ == "__main__":
    sys.exit(main())
