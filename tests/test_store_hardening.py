"""Store hardening: checksum envelopes, quarantine, doctor, injection."""

from __future__ import annotations

import errno
import json
import tempfile
from pathlib import Path

import pytest

from repro.errors import StoreError
from repro.parallel import ArtifactStore, ENVELOPE_TAG
from repro.telemetry.recorder import TraceRecorder, using_recorder

pytestmark = pytest.mark.resilience


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "store", version="test-1")


@pytest.fixture()
def injecting_store(tmp_path):
    return ArtifactStore(tmp_path / "store", version="test-1",
                         inject_faults=True)


def counter_total(rec: TraceRecorder, name: str) -> int:
    return sum(
        value for key, value in rec.metrics.counters.items()
        if key == name or key.startswith(name + "{")
    )


class TestEnvelopes:
    def test_json_artifact_is_enveloped_on_disk(self, store):
        path = store.put_json("metrics", {"k": 1}, {"rate": 0.5})
        envelope = json.loads(path.read_text())
        assert envelope["schema"] == ENVELOPE_TAG
        assert envelope["payload"] == {"rate": 0.5}
        assert len(envelope["sha256"]) == 64

    def test_pickle_artifact_carries_a_header_line(self, store):
        path = store.put_pickle("pinpoints", {"k": 1}, [1, 2, 3])
        header = path.read_bytes().split(b"\n", 1)[0].split(b" ")
        assert header[0] == ENVELOPE_TAG.encode()
        assert len(header) == 3

    def test_flipped_payload_bit_is_detected(self, store):
        path = store.put_json("metrics", {"k": 1}, {"rate": 0.5})
        raw = bytearray(path.read_bytes())
        # Flip one character inside the payload without breaking JSON:
        # 0.5 -> 0.7 still parses, but the digest no longer matches.
        raw = bytes(raw).replace(b"0.5", b"0.7")
        path.write_bytes(raw)
        assert store.get_json("metrics", {"k": 1}) is None

    def test_pre_envelope_artifact_reads_as_corrupt(self, store):
        # A v1-era artifact (bare JSON payload) must never be trusted.
        path = store.put_json("metrics", {"k": 1}, {"rate": 0.5})
        path.write_text('{"rate": 0.5}')
        assert store.get_json("metrics", {"k": 1}) is None


class TestQuarantine:
    def test_corrupt_read_moves_the_file_and_counts(self, store):
        path = store.put_json("metrics", {"k": 1}, {"v": 1})
        path.write_bytes(b"garbage")
        rec = TraceRecorder()
        with using_recorder(rec):
            assert store.get_json("metrics", {"k": 1}) is None
        assert not path.exists()
        quarantined = list((store.root / "quarantine").iterdir())
        assert [p.name for p in quarantined] == [path.name]
        assert counter_total(rec, "store.corrupt") == 1

    def test_corrupt_pickle_quarantined_without_unpickling(self, store):
        path = store.put_pickle("pinpoints", {"k": 1}, [1, 2, 3])
        data = path.read_bytes()
        path.write_bytes(data[:-4])  # torn write: length check fails
        assert store.get_pickle("pinpoints", {"k": 1}) is None
        assert not path.exists()
        assert store.info().quarantined == 1

    def test_recompute_after_quarantine_round_trips(self, store):
        path = store.put_json("metrics", {"k": 1}, {"v": 1})
        path.write_bytes(b"garbage")
        assert store.get_json("metrics", {"k": 1}) is None
        store.put_json("metrics", {"k": 1}, {"v": 2})
        assert store.get_json("metrics", {"k": 1}) == {"v": 2}

    def test_info_reports_quarantine(self, store):
        path = store.put_json("metrics", {"k": 1}, {"v": 1})
        path.write_bytes(b"garbage")
        store.get_json("metrics", {"k": 1})
        assert "cache doctor" in store.info().render()

    def test_clear_keeps_quarantine_and_journals(self, store):
        path = store.put_json("metrics", {"k": 1}, {"v": 1})
        path.write_bytes(b"garbage")
        store.get_json("metrics", {"k": 1})
        journal = store.root / "journals" / "c.jsonl"
        journal.parent.mkdir(parents=True)
        journal.write_text("{}\n")
        store.clear()
        assert store.info().total_artifacts == 0
        assert store.info().quarantined == 1
        assert journal.exists()


class TestDoctor:
    def test_scan_quarantines_corrupt_artifacts(self, store):
        good = store.put_json("metrics", {"k": 1}, {"v": 1})
        bad = store.put_json("metrics", {"k": 2}, {"v": 2})
        bad.write_bytes(b"garbage")
        report = store.doctor()
        assert report.scanned == 2
        assert report.healthy == 1
        assert report.quarantined_now == 1
        assert report.quarantine_files == 1
        assert good.exists() and not bad.exists()
        assert "newly quarantined" in report.render()

    def test_prune_empties_the_quarantine(self, store):
        bad = store.put_json("metrics", {"k": 1}, {"v": 1})
        bad.write_bytes(b"garbage")
        store.doctor()
        report = store.doctor(prune=True)
        assert report.pruned == 1
        assert store.doctor().quarantine_files == 0

    def test_clean_store_scans_healthy(self, store):
        store.put_json("metrics", {"k": 1}, {"v": 1})
        store.put_pickle("pinpoints", {"k": 1}, [1])
        report = store.doctor()
        assert report.scanned == 2 and report.healthy == 2
        assert report.quarantined_now == 0


class TestFaultInjection:
    def test_truncated_write_self_heals_on_read(
        self, injecting_store, inject_faults
    ):
        inject_faults("truncate:items=0:kinds=metrics")
        rec = TraceRecorder()
        with using_recorder(rec):
            injecting_store.put_json("metrics", {"k": 1}, {"v": 1})
            # The truncated artifact fails its checksum, quarantines,
            # and reads as a miss -- the caller recomputes.
            assert injecting_store.get_json("metrics", {"k": 1}) is None
        assert counter_total(rec, "fault.injected") == 1
        assert counter_total(rec, "store.corrupt") == 1

    def test_garbage_write_is_caught_by_the_envelope(
        self, injecting_store, inject_faults
    ):
        inject_faults("garbage:items=0:kinds=metrics")
        injecting_store.put_json("metrics", {"k": 1}, {"v": 1})
        assert injecting_store.get_json("metrics", {"k": 1}) is None

    def test_enospc_surfaces_as_store_error(
        self, injecting_store, inject_faults
    ):
        inject_faults("enospc:items=0:kinds=metrics")
        with pytest.raises(StoreError, match="ENOSPC|No space|injected"):
            injecting_store.put_json("metrics", {"k": 1}, {"v": 1})

    def test_raw_stores_are_exempt(self, store, inject_faults):
        inject_faults("truncate:items=0:kinds=metrics")
        store.put_json("metrics", {"k": 1}, {"v": 1})
        assert store.get_json("metrics", {"k": 1}) == {"v": 1}

    def test_configured_cache_opts_in(self, tmp_path):
        from repro.experiments.common import configure_cache, get_store, set_store

        previous = configure_cache(tmp_path / "store")
        try:
            assert get_store().inject_faults
        finally:
            set_store(previous)

    def test_every_clause_leaves_early_writes_clean(
        self, injecting_store, inject_faults
    ):
        inject_faults("truncate:every=3:kinds=metrics")
        for k in range(3):
            injecting_store.put_json("metrics", {"k": k}, {"v": k})
        # Ordinals 0 and 1 are clean; ordinal 2 was truncated.
        assert injecting_store.get_json("metrics", {"k": 0}) == {"v": 0}
        assert injecting_store.get_json("metrics", {"k": 1}) == {"v": 1}
        assert injecting_store.get_json("metrics", {"k": 2}) is None


def _enospc(*args, **kwargs):
    raise OSError(errno.ENOSPC, "No space left on device")


#: The two calls a full disk fails before any byte is written.
FULL_DISK_CALLS = {
    "mkdir": (Path, "mkdir"),
    "mkstemp": (tempfile, "mkstemp"),
}


class TestFullDisk:
    """A full disk fails a write as StoreError wherever it strikes: at
    the store root, the artifact's directory, or its temp file."""

    @pytest.mark.parametrize("root", ["existing", "fresh"])
    @pytest.mark.parametrize("call", ["mkdir", "mkstemp"])
    def test_enospc_is_a_store_error(self, store, monkeypatch, call, root):
        if root == "existing":
            store.put_json("metrics", {"k": 0}, {"v": 0})
        monkeypatch.setattr(*FULL_DISK_CALLS[call], _enospc)
        with pytest.raises(StoreError, match="No space left"):
            store.put_json("metrics", {"k": 1}, {"v": 1})
        assert not store.has("metrics", {"k": 1})

    @pytest.mark.parametrize("call", ["mkdir", "mkstemp"])
    def test_memo_computes_uncached(self, tmp_path, monkeypatch, empty_memo,
                                    call):
        from repro.experiments.common import memo, set_store

        previous = set_store(ArtifactStore(tmp_path / "store"))
        try:
            monkeypatch.setattr(*FULL_DISK_CALLS[call], _enospc)
            assert memo("full-disk", {"k": 1}, lambda: {"v": 1}) == {"v": 1}
        finally:
            set_store(previous)

