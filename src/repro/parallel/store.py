"""Content-addressed on-disk artifact store for expensive intermediates.

The experiment drivers recompute three kinds of expensive artifacts:
PinPoints pipeline outputs (logging + BBV profiling + clustering),
replay measurements (:class:`~repro.experiments.common.RunMetrics`)
and the per-item results of their fan-outs.  All are deterministic
functions of *(benchmark, parameters, machine geometry, code
version)*, so they can be persisted once and shared across worker
processes and across sessions.

Keys are content addresses: the SHA-256 of a canonical JSON document
containing the store schema tag, the repro package version, the artifact
kind, and every determinism-relevant parameter.  Any code release or
parameter change therefore produces a different key — stale artifacts
are never *read*, only orphaned (and removable with ``cache clear``).

Writes are crash- and race-safe: payloads land in a temporary file in
the destination directory and are published with :func:`os.replace`, so
concurrent writers of the same key each produce a complete artifact and
the last atomic rename wins.

Every payload travels inside a checksum envelope (``repro-envelope-v1``:
a SHA-256 digest over the payload bytes), so corruption that JSON or
pickle would happily half-parse — torn writes, bit rot, foreign files —
is detected on read.  A corrupt artifact is counted on the
``store.corrupt`` metric, moved to ``<root>/quarantine/`` (for
``cache doctor`` to report and prune), and the read retries once before
reporting a miss; the caller then recomputes and rewrites.

Layout::

    <root>/repro-store.json                 # marker, guards clear()
    <root>/objects/<kind>/<aa>/<digest>.json|.pkl
    <root>/quarantine/<digest>.json|.pkl    # corrupt artifacts, doctor
    <root>/journals/campaign-server.jsonl   # the campaign server's ledger
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.errors import StoreError
from repro.telemetry.recorder import get_recorder, span

__all__ = [
    "ArtifactStore",
    "DoctorReport",
    "ENVELOPE_TAG",
    "SCHEMA_TAG",
    "StoreInfo",
    "artifact_key",
    "canonical_params",
    "default_cache_dir",
]

#: Bumped whenever the on-disk layout or payload encoding changes; part
#: of every key, so old-schema artifacts are silently orphaned.
#: v2: payloads moved inside checksum envelopes.
#: v3: a pickled pipeline output's program keeps each phase's body
#: regions as arrays; a v2 program unpickles without them and cannot
#: draw a slice body.
SCHEMA_TAG = "repro-store-v3"

#: Envelope format tag for checksummed payloads.
ENVELOPE_TAG = "repro-envelope-v1"

#: Marker file identifying a directory as an artifact store.  ``clear``
#: refuses to delete anything from a directory that lacks it.
MARKER_NAME = "repro-store.json"

_EXTENSIONS = {"json": ".json", "pickle": ".pkl"}


def default_cache_dir() -> Path:
    """Resolve the store location: ``REPRO_CACHE_DIR`` > XDG > ``~/.cache``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro-spec2017"


def canonical_params(value):
    """Normalize a parameter structure into canonical JSON-compatible data.

    Supported: None, bool, int, float, str, numpy scalars, (frozen)
    dataclasses, and lists/tuples/dicts thereof.  Anything else (live
    pipeline objects, analysis instances, ...) raises :class:`StoreError`
    so callers fall back to in-memory caching rather than building an
    unstable key.
    """
    return _canonical(value, nested=False)


def _canonical(value, nested: bool):
    """:func:`canonical_params`; ``nested`` inside a dataclass's fields.

    A top-level dataclass is tagged with its type name; one nested in
    another's fields is its plain field dict, as
    :func:`dataclasses.asdict` would give it.  The fields are read in
    place rather than through ``asdict``'s deep copy.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return {"__float__": value.hex()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item, nested) for item in value]
    if isinstance(value, dict):
        out = {}
        for key in sorted(value):
            if not isinstance(key, str):
                raise StoreError(
                    f"artifact key parameters need string dict keys, got {key!r}"
                )
            out[key] = _canonical(value[key], nested)
        return out
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            field.name: _canonical(getattr(value, field.name), nested=True)
            for field in dataclasses.fields(value)
        }
        if nested:
            return fields
        return {"__dataclass__": type(value).__name__, "fields": fields}
    item = getattr(value, "item", None)
    if callable(item):  # numpy scalar
        return _canonical(item(), nested)
    raise StoreError(
        f"cannot build a stable artifact key from {type(value).__name__!r}"
    )


def artifact_key(kind: str, params, *, version: str) -> str:
    """SHA-256 content address of (schema, version, kind, params)."""
    document = json.dumps(
        {
            "schema": SCHEMA_TAG,
            "version": version,
            "kind": kind,
            "params": canonical_params(params),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


# -- checksum envelopes ------------------------------------------------


def _encode_json_envelope(payload) -> bytes:
    body = json.dumps(payload, sort_keys=True)
    return json.dumps(
        {
            "schema": ENVELOPE_TAG,
            "sha256": hashlib.sha256(body.encode("utf-8")).hexdigest(),
            "payload": payload,
        },
        sort_keys=True,
    ).encode("utf-8")


def _decode_json_envelope(raw: bytes):
    """(payload, ok) — ok is False for anything but an intact envelope."""
    try:
        envelope = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None, False
    if not isinstance(envelope, dict) or envelope.get("schema") != ENVELOPE_TAG:
        return None, False
    payload = envelope.get("payload")
    body = json.dumps(payload, sort_keys=True)
    if hashlib.sha256(body.encode("utf-8")).hexdigest() != envelope.get("sha256"):
        return None, False
    return payload, True


def _encode_pickle_envelope(data: bytes) -> bytes:
    digest = hashlib.sha256(data).hexdigest()
    header = f"{ENVELOPE_TAG} {digest} {len(data)}\n".encode("ascii")
    return header + data


def _decode_pickle_envelope(raw: bytes):
    """(pickled bytes, ok) — ok is False unless the header verifies."""
    newline = raw.find(b"\n")
    if newline < 0:
        return None, False
    fields = raw[:newline].split(b" ")
    if len(fields) != 3 or fields[0] != ENVELOPE_TAG.encode("ascii"):
        return None, False
    data = raw[newline + 1:]
    try:
        expected_len = int(fields[2])
    except ValueError:
        return None, False
    if len(data) != expected_len:
        return None, False
    if hashlib.sha256(data).hexdigest().encode("ascii") != fields[1]:
        return None, False
    return data, True


@dataclass(frozen=True)
class StoreInfo:
    """Summary of a store directory for ``repro-spec2017 cache info``."""

    root: str
    exists: bool
    artifacts: Dict[str, int]
    total_bytes: int
    quarantined: int = 0

    @property
    def total_artifacts(self) -> int:
        return sum(self.artifacts.values())

    def render(self) -> str:
        lines = [f"artifact store: {self.root}", f"schema: {SCHEMA_TAG}"]
        if not self.exists:
            lines.append("status: not created yet (no artifacts)")
            return "\n".join(lines)
        lines.append(
            f"artifacts: {self.total_artifacts} "
            f"({self.total_bytes / 1024:.1f} KiB)"
        )
        for kind in sorted(self.artifacts):
            lines.append(f"  {kind:12s} {self.artifacts[kind]}")
        if self.quarantined:
            lines.append(
                f"quarantined: {self.quarantined} "
                "(inspect with 'cache doctor', drop with 'cache doctor --prune')"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class DoctorReport:
    """Result of a ``cache doctor`` integrity scan."""

    root: str
    scanned: int
    healthy: int
    quarantined_now: int
    quarantine_files: int
    quarantine_bytes: int
    pruned: int

    def render(self) -> str:
        lines = [
            f"artifact store: {self.root}",
            f"scanned: {self.scanned} artifacts "
            f"({self.healthy} healthy, {self.quarantined_now} newly quarantined)",
            f"quarantine: {self.quarantine_files} files "
            f"({self.quarantine_bytes / 1024:.1f} KiB)",
        ]
        if self.pruned:
            lines.append(f"pruned: {self.pruned} quarantined files removed")
        return "\n".join(lines)


class ArtifactStore:
    """A content-addressed artifact directory (see module docstring).

    Args:
        root: Store directory; created lazily on first write.
        version: Code version folded into every key.  Defaults to the
            installed repro package version, so upgrading the package
            invalidates every artifact.
        inject_faults: Whether this store honors the active
            fault-injection plan on writes.  Only the experiment disk
            tier (:func:`repro.experiments.common.configure_cache`)
            opts in — its callers all recover from corrupt/failed
            artifacts transparently; raw stores stay exempt so
            injection never fails code without a recovery path.
    """

    def __init__(
        self, root, version: Optional[str] = None, *, inject_faults: bool = False
    ) -> None:
        self.root = Path(root).expanduser()
        if version is None:
            from repro import __version__

            version = __version__
        self.version = version
        self.inject_faults = inject_faults

    # -- keys and paths ------------------------------------------------

    def key(self, kind: str, params) -> str:
        """Content address for ``params`` under this store's version."""
        return artifact_key(kind, params, version=self.version)

    def _address(self, kind: str, params, digest: Optional[str]) -> str:
        return self.key(kind, params) if digest is None else digest

    def path_for(self, kind: str, digest: str, fmt: str) -> Path:
        ext = _EXTENSIONS.get(fmt)
        if ext is None:
            raise StoreError(f"unknown artifact format {fmt!r}")
        return self.root / "objects" / kind / digest[:2] / f"{digest}{ext}"

    # -- reads ---------------------------------------------------------

    # Every read and write takes ``params`` and, optionally, ``digest``:
    # their content address under this store's version, for a caller
    # that has derived it already (the memo), so ``params`` are not
    # canonicalized again.

    def has(
        self, kind: str, params, fmt: str = "json", *,
        digest: Optional[str] = None,
    ) -> bool:
        """Whether an artifact for ``params`` exists (no payload read)."""
        return self.path_for(
            kind, self._address(kind, params, digest), fmt
        ).is_file()

    @staticmethod
    def _note_read(kind: str, hit: bool) -> None:
        recorder = get_recorder()
        if recorder is not None:
            recorder.count("store.hit" if hit else "store.miss", kind=kind)

    def get_json(self, kind: str, params, *, digest: Optional[str] = None):
        """Stored JSON payload for ``params``, or None (missing/corrupt).

        A corrupt artifact is quarantined and the read retried once —
        a concurrent writer may have republished a good copy under the
        same content address in the meantime.
        """
        path = self.path_for(kind, self._address(kind, params, digest), "json")
        with span("store.get", kind=kind, fmt="json"):
            for _attempt in range(2):
                try:
                    raw = path.read_bytes()
                except OSError:
                    break
                payload, ok = _decode_json_envelope(raw)
                if ok:
                    self._note_read(kind, hit=True)
                    return payload
                self._quarantine(path, kind)
            self._note_read(kind, hit=False)
            return None

    def get_pickle(self, kind: str, params, *, digest: Optional[str] = None):
        """Stored pickled object for ``params``, or None (missing/corrupt).

        Same quarantine-and-retry-once behaviour as :meth:`get_json`;
        the checksum is verified *before* unpickling, so corrupt bytes
        never reach the unpickler.
        """
        path = self.path_for(
            kind, self._address(kind, params, digest), "pickle"
        )
        with span("store.get", kind=kind, fmt="pickle"):
            for _attempt in range(2):
                try:
                    raw = path.read_bytes()
                except OSError:
                    break
                data, ok = _decode_pickle_envelope(raw)
                if ok:
                    try:
                        payload = pickle.loads(data)
                    except Exception:  # repro-lint: disable=REP006 -- unpickling can raise nearly anything even for checksum-intact bytes (e.g. a renamed class); the artifact is quarantined and recomputed
                        self._quarantine(path, kind)
                        continue
                    self._note_read(kind, hit=True)
                    return payload
                self._quarantine(path, kind)
            self._note_read(kind, hit=False)
            return None

    # -- writes --------------------------------------------------------

    def put_json(
        self, kind: str, params, payload, *, digest: Optional[str] = None
    ) -> Path:
        """Persist a JSON payload; returns the artifact path."""
        with span("store.put", kind=kind, fmt="json"):
            data = _encode_json_envelope(payload)
            path = self.path_for(
                kind, self._address(kind, params, digest), "json"
            )
            self._atomic_write(path, data, kind=kind)
        recorder = get_recorder()
        if recorder is not None:
            recorder.count("store.put", kind=kind)
        return path

    def put_pickle(
        self, kind: str, params, payload, *, digest: Optional[str] = None
    ) -> Path:
        """Persist a pickled object; returns the artifact path."""
        with span("store.put", kind=kind, fmt="pickle"):
            data = _encode_pickle_envelope(
                pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            )
            path = self.path_for(
                kind, self._address(kind, params, digest), "pickle"
            )
            self._atomic_write(path, data, kind=kind)
        recorder = get_recorder()
        if recorder is not None:
            recorder.count("store.put", kind=kind)
        return path

    def _atomic_write(
        self, path: Path, data: bytes, kind: Optional[str] = None
    ) -> None:
        if kind is not None and self.inject_faults:
            from repro.resilience.faults import inject_store_fault

            try:
                data = inject_store_fault(kind, data)
            except OSError as exc:
                raise StoreError(f"cannot write artifact {path}: {exc}") from exc
        self._ensure_root()
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_name, path)
        except OSError as exc:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise StoreError(f"cannot write artifact {path}: {exc}") from exc

    def _ensure_root(self) -> None:
        marker = self.root / MARKER_NAME
        if marker.is_file():
            return
        self.root.mkdir(parents=True, exist_ok=True)
        self._atomic_marker(marker)

    def _atomic_marker(self, marker: Path) -> None:
        data = json.dumps({"schema": SCHEMA_TAG}).encode("utf-8")
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.root), prefix=MARKER_NAME + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_name, marker)
        except OSError as exc:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise StoreError(f"cannot initialize store {self.root}: {exc}") from exc

    def _quarantine(self, path: Path, kind: str) -> None:
        """Move a corrupt artifact out of the object tree for doctor.

        Quarantining (not deleting) keeps the evidence: ``cache doctor``
        reports what was damaged, and a copy of the bytes survives for
        forensics until ``doctor --prune``.
        """
        recorder = get_recorder()
        if recorder is not None:
            recorder.count("store.corrupt", kind=kind)
        dest = self.root / "quarantine" / path.name
        try:
            dest.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest)
        except OSError:
            self._discard(path)

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    # -- maintenance ---------------------------------------------------

    def _iter_artifacts(self) -> Tuple[Tuple[str, Path], ...]:
        objects = self.root / "objects"
        found = []
        if not objects.is_dir():
            return ()
        for kind_dir in sorted(objects.iterdir()):
            if not kind_dir.is_dir():
                continue
            for path in sorted(kind_dir.rglob("*")):
                if path.is_file() and path.suffix in (".json", ".pkl"):
                    found.append((kind_dir.name, path))
        return tuple(found)

    def _quarantine_files(self) -> Tuple[Path, ...]:
        qdir = self.root / "quarantine"
        if not qdir.is_dir():
            return ()
        return tuple(sorted(p for p in qdir.iterdir() if p.is_file()))

    def info(self) -> StoreInfo:
        """Artifact counts and sizes (``cache info``)."""
        exists = (self.root / MARKER_NAME).is_file()
        artifacts: Dict[str, int] = {}
        total = 0
        for kind, path in self._iter_artifacts():
            artifacts[kind] = artifacts.get(kind, 0) + 1
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return StoreInfo(
            root=str(self.root), exists=exists,
            artifacts=artifacts, total_bytes=total,
            quarantined=len(self._quarantine_files()),
        )

    def doctor(self, prune: bool = False) -> DoctorReport:
        """Verify every artifact's envelope; quarantine what fails.

        Pickled artifacts are verified by checksum only — nothing is
        unpickled, so a doctor scan never executes payload code.  With
        ``prune``, previously and newly quarantined files are deleted.
        """
        scanned = healthy = moved = 0
        for kind, path in self._iter_artifacts():
            scanned += 1
            try:
                raw = path.read_bytes()
            except OSError:
                continue
            if path.suffix == ".json":
                _, ok = _decode_json_envelope(raw)
            else:
                _, ok = _decode_pickle_envelope(raw)
            if ok:
                healthy += 1
            else:
                self._quarantine(path, kind)
                moved += 1
        files = self._quarantine_files()
        total_bytes = 0
        for path in files:
            try:
                total_bytes += path.stat().st_size
            except OSError:
                pass
        pruned = 0
        if prune:
            for path in files:
                self._discard(path)
                pruned += 1
            files = ()
            total_bytes = 0
        return DoctorReport(
            root=str(self.root), scanned=scanned, healthy=healthy,
            quarantined_now=moved, quarantine_files=len(files),
            quarantine_bytes=total_bytes, pruned=pruned,
        )

    def clear(self) -> int:
        """Delete every stored artifact; returns how many were removed.

        A directory without the store marker is never touched: pointing
        ``--cache-dir`` at, say, a home directory must not delete it.
        The campaign server's ledger and the quarantine are deliberately
        kept — clearing intermediates must not lose the server's jobs or
        corruption evidence.  Stored fan-out items go with the rest, so
        a rerun after a clear computes every item again.
        """
        if not self.root.exists():
            return 0
        if not (self.root / MARKER_NAME).is_file():
            raise StoreError(
                f"{self.root} has no {MARKER_NAME} marker; refusing to clear "
                "a directory this store did not create"
            )
        count = len(self._iter_artifacts())
        objects = self.root / "objects"
        if objects.is_dir():
            shutil.rmtree(objects)
        return count
