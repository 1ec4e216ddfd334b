"""Checkpoint/resume: the campaign journal and its replay semantics.

The acceptance contract: a campaign interrupted partway (here: items
failing under a ``skip`` policy, the moral equivalent of a kill) leaves
a journal from which ``--resume`` completes the run without recomputing
journaled items, and the resumed output is byte-identical to a clean
uninterrupted run.
"""

from __future__ import annotations

import dataclasses
import json
from typing import List

import pytest

from repro.errors import ResilienceError
from repro.experiments.common import configure_cache, map_items, set_store
from repro.experiments.registry import ExperimentSpec, execute
from repro.parallel import parallel_map, resilient_map
from repro.resilience import (
    Campaign,
    CampaignJournal,
    JOURNAL_SCHEMA,
    OnFailure,
    ResiliencePolicy,
    parse_spec,
    using_campaign,
    using_plan,
)
from repro.resilience.journal import decode_value, encode_value
from repro.telemetry.recorder import TraceRecorder, using_recorder

pytestmark = pytest.mark.resilience

ITEMS = list(range(5))
SKIP = ResiliencePolicy(on_failure=OnFailure.SKIP)


def _tenfold(x):
    return x * 10


class TestValueCodec:
    def test_round_trip(self):
        payload = encode_value({"rows": [1, 2], "rate": 0.25})
        assert decode_value(payload) == {"rows": [1, 2], "rate": 0.25}

    def test_tampered_payload_rejected(self):
        payload = encode_value([1, 2, 3])
        payload["sha256"] = "0" * 64
        with pytest.raises(ResilienceError, match="integrity"):
            decode_value(payload)

    def test_malformed_payload_rejected(self):
        with pytest.raises(ResilienceError, match="malformed"):
            decode_value({"sha256": "x"})


class TestJournalFile:
    def test_append_and_load_round_trip(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl")
        journal.append({"event": "item", "seq": 0, "index": 1, "status": "ok"})
        journal.append({"event": "complete"})
        journal.close()
        records = journal.load()
        assert [r["event"] for r in records] == ["item", "complete"]
        assert all(r["schema"] == JOURNAL_SCHEMA for r in records)

    def test_layout_under_store_root(self, tmp_path):
        path = CampaignJournal.path_for(tmp_path / "store", "abc123")
        assert path == tmp_path / "store" / "journals" / "abc123.jsonl"

    def test_corrupt_lines_are_skipped_and_counted(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl")
        journal.append({"event": "item", "seq": 0, "index": 0, "status": "ok"})
        journal.close()
        with open(journal.path, "ab") as handle:
            handle.write(b'{"torn": ')  # the hard-kill torn final append
            handle.write(b"\n")
            handle.write(
                json.dumps({"schema": "other-v9", "event": "item"}).encode()
                + b"\n"
            )
        rec = TraceRecorder()
        with using_recorder(rec):
            records = journal.load()
        assert len(records) == 1
        assert rec.metrics.counters["journal.corrupt_line"] == 2

    def test_discard_removes_the_file(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl")
        journal.append({"event": "item"})
        journal.discard()
        assert not journal.path.exists()


class TestCampaignAttach:
    def test_fresh_campaign_discards_stale_journal(self, tmp_path):
        stale = Campaign(policy=SKIP)
        stale.attach_journal(tmp_path, "key-1")
        with using_campaign(stale):
            resilient_map(_tenfold, ITEMS, jobs=1)
        stale.finish(complete=False)
        assert CampaignJournal.path_for(tmp_path, "key-1").exists()

        fresh = Campaign()  # resume=False: never reuse silently
        fresh.attach_journal(tmp_path, "key-1")
        assert not fresh._cached
        with using_campaign(fresh):
            outcome = resilient_map(_tenfold, ITEMS, jobs=1)
        assert all(not o.cached for o in outcome.outcomes)

    def test_damaged_payload_entry_recomputes(self, tmp_path):
        first = Campaign(policy=SKIP)
        first.attach_journal(tmp_path, "key-2")
        with using_campaign(first):
            resilient_map(_tenfold, ITEMS, jobs=1)
        first.finish(complete=False)
        # Corrupt item 3's payload digest in place.
        path = CampaignJournal.path_for(tmp_path, "key-2")
        lines = path.read_bytes().splitlines()
        doctored = []
        for line in lines:
            record = json.loads(line)
            if record.get("index") == 3:
                record["payload"]["sha256"] = "0" * 64
            doctored.append(json.dumps(record).encode())
        path.write_bytes(b"\n".join(doctored) + b"\n")

        resumed = Campaign(resume=True)
        resumed.attach_journal(tmp_path, "key-2")
        with using_campaign(resumed):
            outcome = resilient_map(_tenfold, ITEMS, jobs=1)
        assert outcome.results == [x * 10 for x in ITEMS]
        assert [o.cached for o in outcome.outcomes] == [
            True, True, True, False, True,
        ]


class TestResume:
    def test_interrupted_campaign_resumes_byte_identically(self, tmp_path):
        reference = parallel_map(_tenfold, ITEMS, jobs=1)

        first = Campaign(policy=SKIP)
        first.attach_journal(tmp_path, "campaign-key")
        with using_campaign(first), using_plan(parse_spec("crash:items=2")):
            partial = resilient_map(_tenfold, ITEMS, jobs=2)
        first.finish(complete=False)
        assert partial.degraded and partial.completed == len(ITEMS) - 1
        assert first.summary() == (
            "campaign: 4 of 5 items completed; skipped: item[2]"
        )

        resumed = Campaign(resume=True)
        resumed.attach_journal(tmp_path, "campaign-key")
        rec = TraceRecorder()
        with using_recorder(rec), using_campaign(resumed):
            outcome = resilient_map(_tenfold, ITEMS, jobs=2)
        assert outcome.results == reference
        assert resumed.reused_items == len(ITEMS) - 1
        assert rec.metrics.counters["journal.hit"] == len(ITEMS) - 1
        # Only the crashed item was recomputed.
        assert [o.cached for o in outcome.outcomes] == [
            True, True, False, True, True,
        ]
        assert "4 reused from journal" in resumed.summary()

    def test_sequence_numbers_separate_fanouts(self, tmp_path):
        first = Campaign(policy=SKIP)
        first.attach_journal(tmp_path, "two-maps")
        with using_campaign(first):
            resilient_map(_tenfold, [1, 2], jobs=1)
            resilient_map(_tenfold, [7, 8], jobs=1)
        first.finish(complete=False)

        resumed = Campaign(resume=True)
        resumed.attach_journal(tmp_path, "two-maps")
        with using_campaign(resumed):
            a = resilient_map(_tenfold, [1, 2], jobs=1)
            b = resilient_map(_tenfold, [7, 8], jobs=1)
        assert a.results == [10, 20]
        assert b.results == [70, 80]
        assert resumed.reused_items == 4


# -- through the experiment registry -----------------------------------


@dataclasses.dataclass
class _ToyResult:
    values: List[int]


def _toy_runner(jobs=None):
    return _ToyResult(values=map_items(_tenfold, ITEMS, jobs=jobs))


def _toy_renderer(result: _ToyResult) -> str:
    return " ".join(str(v) for v in result.values)


def _toy_spec() -> ExperimentSpec:
    return ExperimentSpec(
        name="toy", runner=_toy_runner, result_type=_ToyResult,
        paper_ref="test-only", supports_jobs=True, renderer=_toy_renderer,
    )


class TestExecuteWithCampaign:
    def test_degraded_result_is_never_cached(self, tmp_path):
        previous = configure_cache(tmp_path / "store")
        try:
            spec = _toy_spec()
            campaign = Campaign(policy=SKIP)
            with using_campaign(campaign), using_plan(
                parse_spec("crash:items=1")
            ):
                degraded = execute(spec, {"jobs": 1})
            assert degraded.values == [0, 20, 30, 40]
            assert campaign.degraded
            from repro.experiments.common import get_store

            assert not get_store().info().artifacts.get("result")
        finally:
            set_store(previous)

    def test_resume_completes_and_caches(self, tmp_path):
        previous = configure_cache(tmp_path / "store")
        try:
            spec = _toy_spec()
            first = Campaign(policy=SKIP)
            with using_campaign(first), using_plan(
                parse_spec("crash:items=1")
            ):
                execute(spec, {"jobs": 1})

            resumed = Campaign(resume=True)
            with using_campaign(resumed):
                result = execute(spec, {"jobs": 1})
            assert result.values == [x * 10 for x in ITEMS]
            assert resumed.reused_items == len(ITEMS) - 1
            assert not resumed.degraded

            # The completed result is cached: a poisoned runner must
            # never execute on the third run.
            def _boom(**kwargs):
                raise AssertionError("must hit the result cache")

            poisoned = dataclasses.replace(spec, runner=_boom)
            third = Campaign()
            with using_campaign(third):
                cached = execute(poisoned, {"jobs": 1})
            assert cached.values == result.values
        finally:
            set_store(previous)

    def test_jobs_value_does_not_change_campaign_identity(self, tmp_path):
        previous = configure_cache(tmp_path / "store")
        try:
            spec = _toy_spec()
            first = Campaign(policy=SKIP)
            with using_campaign(first), using_plan(
                parse_spec("crash:items=1")
            ):
                execute(spec, {"jobs": 2})
            # Resume with a different jobs value: same campaign key
            # (jobs is excluded from the result key), same journal.
            resumed = Campaign(resume=True)
            with using_campaign(resumed):
                result = execute(spec, {"jobs": 1})
            assert result.values == [x * 10 for x in ITEMS]
            assert resumed.reused_items == len(ITEMS) - 1
        finally:
            set_store(previous)


# -- through the CLI ----------------------------------------------------


class TestCliCampaign:
    """The user-facing acceptance path: exit codes, stderr, --resume."""

    def test_degraded_run_then_resume_is_byte_identical(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        benchmarks = ["620.omnetpp_s", "557.xz_r"]
        ref_args = ["fig10", "--benchmarks", *benchmarks, "--jobs", "2",
                    "--cache-dir", str(tmp_path / "clean-store")]
        assert main(ref_args) == 0
        reference = capsys.readouterr().out

        args = ["fig10", "--benchmarks", *benchmarks, "--jobs", "2",
                "--cache-dir", str(tmp_path / "store")]
        code = main(args + ["--inject-faults", "crash:items=1",
                            "--on-failure", "skip"])
        captured = capsys.readouterr()
        assert code == 3
        assert "1 of 2 items completed" in captured.err
        assert "557.xz_r" in captured.err

        assert main(args + ["--resume"]) == 0
        captured = capsys.readouterr()
        assert captured.out == reference
        assert "resumed: 1 journaled item(s) reused" in captured.err

    def test_resume_requires_the_store(self, capsys):
        from repro.cli import main

        code = main(["fig10", "--benchmarks", "620.omnetpp_s",
                     "--resume", "--no-cache"])
        assert code == 2
        assert "--resume" in capsys.readouterr().err

    def test_bad_fault_spec_is_a_usage_error(self, capsys):
        from repro.cli import main

        code = main(["fig10", "--benchmarks", "620.omnetpp_s",
                     "--inject-faults", "meteor"])
        assert code == 2
        assert "resilience options" in capsys.readouterr().err

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
    """The journal states a hard kill (or stray edit) can leave behind."""

    def _journaled_run(self, tmp_path, key: str) -> CampaignJournal:
        campaign = Campaign(policy=SKIP)
        campaign.attach_journal(tmp_path, key)
        with using_campaign(campaign):
            resilient_map(_tenfold, ITEMS, jobs=1)
        campaign.finish(complete=False)
        return CampaignJournal(CampaignJournal.path_for(tmp_path, key))

    def test_truncated_final_line_recomputes_only_that_item(self, tmp_path):
        journal = self._journaled_run(tmp_path, "trunc")
        raw = journal.path.read_bytes()
        # Tear the last append mid-record, as SIGKILL during write would.
        journal.path.write_bytes(raw[: raw.rfind(b'"status"')])

        resumed = Campaign(resume=True)
        resumed.attach_journal(tmp_path, "trunc")
        with using_campaign(resumed):
            outcome = resilient_map(_tenfold, ITEMS, jobs=1)
        assert outcome.results == [x * 10 for x in ITEMS]
        assert [o.cached for o in outcome.outcomes] == [
            True, True, True, True, False,
        ]
        assert resumed.reused_items == len(ITEMS) - 1

    def test_duplicate_item_records_last_write_wins(self, tmp_path):
        journal = self._journaled_run(tmp_path, "dup")
        # Re-append item 2 with a different (detectably newer) value, as
        # an interrupted retry that ran the item twice would.
        journal.append(
            {
                "event": "item", "seq": 0, "index": 2, "status": "ok",
                "label": "2", "attempts": 1, "kind": None, "error": None,
                "payload": encode_value(999),
            }
        )
        journal.close()

        resumed = Campaign(resume=True)
        resumed.attach_journal(tmp_path, "dup")
        with using_campaign(resumed):
            outcome = resilient_map(_tenfold, ITEMS, jobs=1)
        assert outcome.results == [0, 10, 999, 30, 40]
        assert all(o.cached for o in outcome.outcomes)

    def test_item_outcome_payload_round_trip(self, tmp_path):
        """to_payload -> journal -> cached_outcome preserves the item."""
        from repro.resilience.policy import ItemOutcome

        original = ItemOutcome(
            index=3, label="item-3", status="ok", attempts=2,
            value={"nested": [1, 2.5, "x"]},
        )
        campaign = Campaign()
        campaign.attach_journal(tmp_path, "rt")
        campaign.journal_item(0, original)
        campaign.finish(complete=False)

        resumed = Campaign(resume=True)
        resumed.attach_journal(tmp_path, "rt")
        replayed = resumed.cached_outcome(0, 3, "item-3")
        assert replayed is not None
        assert replayed.value == original.value
        assert replayed.cached is True

    def test_future_schema_lines_are_ignored_not_trusted(self, tmp_path):
        """Version skew: records from any other journal schema replay as
        absent (recompute), never as misparsed values."""
        journal = self._journaled_run(tmp_path, "ver")
        lines = journal.path.read_bytes().splitlines()
        doctored = []
        for line in lines:
            record = json.loads(line)
            if record.get("index") == 1:
                record["schema"] = "repro-journal-v999"
            doctored.append(json.dumps(record).encode())
        journal.path.write_bytes(b"\n".join(doctored) + b"\n")

        resumed = Campaign(resume=True)
        resumed.attach_journal(tmp_path, "ver")
        with using_campaign(resumed):
            outcome = resilient_map(_tenfold, ITEMS, jobs=1)
        assert outcome.results == [x * 10 for x in ITEMS]
        assert [o.cached for o in outcome.outcomes] == [
            True, False, True, True, True,
        ]

    def test_unknown_record_fields_are_tolerated(self, tmp_path):
        journal = self._journaled_run(tmp_path, "fwd")
        lines = journal.path.read_bytes().splitlines()
        doctored = []
        for line in lines:
            record = json.loads(line)
            record["future_field"] = {"anything": True}
            doctored.append(json.dumps(record).encode())
        journal.path.write_bytes(b"\n".join(doctored) + b"\n")

        resumed = Campaign(resume=True)
        resumed.attach_journal(tmp_path, "fwd")
        with using_campaign(resumed):
            outcome = resilient_map(_tenfold, ITEMS, jobs=1)
        assert all(o.cached for o in outcome.outcomes)


class TestJournalLock:
    """One journal, one writer: the flock on <journal>.lock."""

    def test_second_acquirer_gets_structured_error(self, tmp_path):
        from repro.errors import JournalLockedError

        first = CampaignJournal(tmp_path / "j.jsonl")
        first.acquire()
        second = CampaignJournal(tmp_path / "j.jsonl")
        with pytest.raises(JournalLockedError) as excinfo:
            second.acquire()
        assert str(tmp_path / "j.jsonl") == excinfo.value.path
        first.close()

    def test_lock_released_on_close(self, tmp_path):
        first = CampaignJournal(tmp_path / "j.jsonl")
        first.append({"event": "item"})
        first.close()
        second = CampaignJournal(tmp_path / "j.jsonl")
        second.acquire()  # must not raise
        second.close()

    def test_acquire_is_idempotent_per_instance(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl")
        journal.acquire()
        journal.acquire()
        journal.close()

    def test_discard_keeps_the_lock(self, tmp_path):
        holder = CampaignJournal(tmp_path / "j.jsonl")
        holder.append({"event": "item"})
        holder.discard()
        from repro.errors import JournalLockedError

        rival = CampaignJournal(tmp_path / "j.jsonl")
        with pytest.raises(JournalLockedError):
            rival.acquire()
        holder.close()

    def test_campaign_attach_conflict(self, tmp_path):
        from repro.errors import JournalLockedError

        first = Campaign(policy=SKIP)
        first.attach_journal(tmp_path, "same-key")
        second = Campaign(resume=True)
        with pytest.raises(JournalLockedError):
            second.attach_journal(tmp_path, "same-key")
        first.finish(complete=False)
        # After the holder seals its campaign, attaching succeeds.
        third = Campaign(resume=True)
        third.attach_journal(tmp_path, "same-key")
        third.finish(complete=False)

    def test_lock_dies_with_the_process(self, tmp_path):
        """Kernel-released lock: a SIGKILL'd holder does not wedge the
        journal for the resuming process."""
        import os
        import signal
        import subprocess
        import sys
        import time

        src = os.path.join(os.path.dirname(__file__), "..", "src")
        code = (
            "import sys, time\n"
            "from repro.resilience.journal import CampaignJournal\n"
            f"j = CampaignJournal({str(tmp_path / 'j.jsonl')!r})\n"
            "j.acquire()\n"
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
            mine = CampaignJournal(tmp_path / "j.jsonl")
            from repro.errors import JournalLockedError

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
