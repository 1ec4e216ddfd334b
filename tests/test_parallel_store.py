"""The on-disk artifact store: keys, atomicity, corruption, safety."""

from __future__ import annotations

import dataclasses
import json
import threading
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StoreError
from repro.parallel import (
    ArtifactStore,
    artifact_key,
    canonical_params,
    default_cache_dir,
)


@dataclass(frozen=True)
class _Geometry:
    sets: int
    ways: int


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "store", version="test-1")


class TestKeys:
    def test_stable_across_processes_and_dict_order(self):
        a = artifact_key("k", {"b": 1, "a": 2}, version="v")
        b = artifact_key("k", {"a": 2, "b": 1}, version="v")
        assert a == b
        assert len(a) == 64 and set(a) <= set("0123456789abcdef")

    def test_kind_version_and_params_distinguish(self):
        base = artifact_key("k", {"x": 1}, version="v")
        assert artifact_key("other", {"x": 1}, version="v") != base
        assert artifact_key("k", {"x": 1}, version="v2") != base
        assert artifact_key("k", {"x": 2}, version="v") != base

    def test_tuple_and_list_are_equivalent(self):
        assert artifact_key("k", {"x": (1, 2)}, version="v") == artifact_key(
            "k", {"x": [1, 2]}, version="v"
        )

    def test_float_keys_are_bit_exact(self):
        a = artifact_key("k", {"x": 0.1}, version="v")
        b = artifact_key("k", {"x": 0.1 + 2**-55}, version="v")
        assert a != b
        # ... and an int is not a float: 1 and 1.0 are different keys.
        assert artifact_key("k", {"x": 1}, version="v") != artifact_key(
            "k", {"x": 1.0}, version="v"
        )

    def test_numpy_scalars_and_dataclasses(self):
        assert canonical_params(np.int64(7)) == 7
        geometry = canonical_params(_Geometry(sets=4, ways=2))
        assert geometry["__dataclass__"] == "_Geometry"
        assert geometry["fields"] == {"sets": 4, "ways": 2}

    def test_field_walk_matches_asdict(self):
        """Dataclasses canonicalize field by field, as they did through
        ``dataclasses.asdict``: tagged at the top, plain dicts inside."""
        from repro.config import ALLCACHE_TABLE_I
        from repro.pinball.pinball import ProgramRecipe, RegionalPinball

        def through_asdict(value):
            if isinstance(value, (list, tuple)):
                return [through_asdict(item) for item in value]
            if isinstance(value, dict):
                return {k: through_asdict(v) for k, v in value.items()}
            if dataclasses.is_dataclass(value):
                return {
                    "__dataclass__": type(value).__name__,
                    "fields": canonical_params(dataclasses.asdict(value)),
                }
            return canonical_params(value)

        pinball = RegionalPinball(
            recipe=ProgramRecipe("505.mcf_r", 3000, 120), region_start=5,
            region_length=2, weight=0.375, warmup_slices=17,
        )
        for value in (
            ALLCACHE_TABLE_I,
            pinball,
            {"pinballs": [pinball, pinball], "geometry": _Geometry(4, 2)},
            [_Geometry(np.int64(8), 1), (0.1, None, "x")],
        ):
            assert canonical_params(value) == through_asdict(value)

    def test_a_given_digest_is_used_as_the_address(self, store):
        digest = store.key("metrics", {"k": 2})
        store.put_json("metrics", {"ignored": True}, {"v": 2}, digest=digest)
        assert store.has("metrics", {"k": 2})
        assert store.get_json("metrics", {"k": 2}) == {"v": 2}
        assert store.get_json("metrics", None, digest=digest) == {"v": 2}

    def test_unhashable_params_rejected(self):
        with pytest.raises(StoreError):
            canonical_params(object())
        with pytest.raises(StoreError):
            canonical_params({1: "non-string key"})

    @settings(max_examples=50, deadline=None)
    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(),
                st.floats(allow_nan=False),
                st.text(max_size=16),
                st.lists(st.integers(), max_size=4),
            ),
            max_size=5,
        )
    )
    def test_key_is_a_pure_function(self, params):
        assert artifact_key("k", params, version="v") == artifact_key(
            "k", dict(reversed(list(params.items()))), version="v"
        )


class TestRoundTrip:
    def test_json(self, store):
        params = {"benchmark": "620.omnetpp_s", "slices": 120}
        assert store.get_json("metrics", params) is None
        store.put_json("metrics", params, {"miss_rate": 0.25})
        assert store.get_json("metrics", params) == {"miss_rate": 0.25}

    def test_pickle(self, store):
        payload = {"array": np.arange(5), "nested": [(1, 2)]}
        assert store.get_pickle("pinpoints", {"b": "x"}) is None
        store.put_pickle("pinpoints", {"b": "x"}, payload)
        loaded = store.get_pickle("pinpoints", {"b": "x"})
        assert np.array_equal(loaded["array"], payload["array"])
        assert loaded["nested"] == [(1, 2)]

    def test_json_floats_round_trip_exactly(self, store):
        values = [0.1, 1 / 3, 2**-40, 1e300]
        store.put_json("metrics", {"k": 1}, {"values": values})
        assert store.get_json("metrics", {"k": 1})["values"] == values

    def test_version_change_invalidates(self, store, tmp_path):
        store.put_json("metrics", {"k": 1}, {"v": 1})
        upgraded = ArtifactStore(tmp_path / "store", version="test-2")
        assert upgraded.get_json("metrics", {"k": 1}) is None


class TestCorruption:
    def test_corrupt_json_discarded_and_recomputable(self, store):
        path = store.put_json("metrics", {"k": 1}, {"v": 1})
        path.write_bytes(b'{"v": 1')  # truncated write
        assert store.get_json("metrics", {"k": 1}) is None
        assert not path.exists()
        store.put_json("metrics", {"k": 1}, {"v": 2})
        assert store.get_json("metrics", {"k": 1}) == {"v": 2}

    def test_corrupt_pickle_discarded(self, store):
        path = store.put_pickle("pinpoints", {"k": 1}, [1, 2, 3])
        path.write_bytes(path.read_bytes()[:-4])
        assert store.get_pickle("pinpoints", {"k": 1}) is None
        assert not path.exists()


class TestConcurrency:
    def test_concurrent_writers_leave_one_complete_artifact(self, store):
        errors = []

        def put(i):
            try:
                store.put_json("metrics", {"k": "shared"}, {"writer": i})
            except StoreError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=put, args=(i,)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        payload = store.get_json("metrics", {"k": "shared"})
        assert payload is not None and 0 <= payload["writer"] < 16
        # No temp-file litter: exactly one artifact remains.
        assert store.info().total_artifacts == 1


class TestMaintenance:
    def test_info_counts_by_kind(self, store):
        info = store.info()
        assert not info.exists and info.total_artifacts == 0
        store.put_json("metrics", {"k": 1}, {})
        store.put_json("metrics", {"k": 2}, {})
        store.put_pickle("pinpoints", {"k": 1}, [1])
        info = store.info()
        assert info.exists
        assert info.artifacts == {"metrics": 2, "pinpoints": 1}
        assert info.total_bytes > 0
        assert "metrics" in info.render()

    def test_clear_removes_artifacts_but_not_root(self, store):
        store.put_json("metrics", {"k": 1}, {})
        assert store.clear() == 1
        assert store.info().total_artifacts == 0
        assert store.root.exists()
        assert store.clear() == 0

    def test_clear_refuses_unmarked_directory(self, tmp_path):
        foreign = tmp_path / "home"
        foreign.mkdir()
        (foreign / "precious.txt").write_text("do not delete")
        innocent = ArtifactStore(foreign, version="v")
        with pytest.raises(StoreError):
            innocent.clear()
        assert (foreign / "precious.txt").exists()

    def test_marker_written_on_first_put(self, store):
        store.put_json("metrics", {"k": 1}, {})
        marker = store.root / "repro-store.json"
        assert json.loads(marker.read_text())["schema"] == "repro-store-v3"


class TestDefaultDir:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"

    def test_xdg_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro-spec2017"
