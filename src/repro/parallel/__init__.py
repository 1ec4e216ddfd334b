"""Parallel execution layer: deterministic fan-out + persistent artifacts.

Two halves, composed by ``repro.experiments.common``:

* :mod:`repro.parallel.pool` — a deterministic process-pool runner
  that fans per-benchmark work across cores and merges results in
  submission order, so parallel runs are bit-identical to serial ones;
  the first failed item fails the run.
* :mod:`repro.parallel.store` — a content-addressed on-disk artifact
  store (pipeline outputs, replay metrics, fan-out items) shared across
  worker processes and across sessions, versioned by a schema tag plus
  a parameter hash, with checksum envelopes and quarantine of corrupt
  artifacts.  Items are stored as they finish, so a rerun of an
  interrupted run computes only the rest.
"""

from repro.parallel.pool import parallel_map, resolve_jobs
from repro.parallel.store import (
    ENVELOPE_TAG,
    SCHEMA_TAG,
    ArtifactStore,
    DoctorReport,
    StoreInfo,
    artifact_key,
    canonical_params,
    default_cache_dir,
)

__all__ = [
    "ArtifactStore",
    "DoctorReport",
    "ENVELOPE_TAG",
    "SCHEMA_TAG",
    "StoreInfo",
    "artifact_key",
    "canonical_params",
    "default_cache_dir",
    "parallel_map",
    "resolve_jobs",
]
