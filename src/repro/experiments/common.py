"""Shared measurement plumbing for the experiment drivers.

Expensive intermediates flow through a two-tier cache:

* **memory tier** — per-process dicts, exactly as fast as before;
* **disk tier** — an optional content-addressed
  :class:`~repro.parallel.store.ArtifactStore` shared across worker
  processes and across sessions (enabled by the CLI / bench harness via
  :func:`configure_cache`, disabled by default for library use so tests
  stay hermetic).

Every disk key folds in the store schema tag, the repro package
version, and a canonical hash of all determinism-relevant parameters
(pipeline kwargs, cache geometry, region sets), so a stale artifact
from an older code revision or a different configuration can never be
read back.

Per-benchmark work fans out through :func:`map_benchmarks`, which
drives :func:`measure_benchmark` workers over a deterministic process
pool (results merged in submission order — parallel output is
bit-identical to serial).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import CacheHierarchyConfig
from repro.errors import ConfigError, StoreError
from repro.experiments.serialize import from_payload, to_payload
from repro.parallel import ArtifactStore, parallel_map
from repro.pin.tools.allcache import AllCache
from repro.pin.tools.ldstmix import LdStMix
from repro.pinball.pinball import RegionalPinball
from repro.pinpoints.pipeline import PinPointsOutput, run_pinpoints
from repro.stats.compare import weighted_average, weighted_mix
from repro.telemetry.recorder import count as telemetry_count
from repro.telemetry.recorder import span
from repro.workloads.spec2017 import benchmark_names

#: Cache levels reported throughout the evaluation.
LEVELS = ("L1D", "L2", "L3")

#: Run types understood by :func:`measure_benchmark`.
RUN_TYPES = ("whole", "regional", "reduced", "warmup")


@dataclass
class RunMetrics:
    """Per-run profile: instruction mix + cache behaviour.

    Attributes:
        instructions: Simulated instructions measured.
        mix: Length-4 instruction-class distribution.
        miss_rates: Per-level miss rate, keyed by L1D/L2/L3.
        l3_accesses: Raw number of accesses that reached the L3.
    """

    instructions: int
    mix: np.ndarray
    miss_rates: Dict[str, float]
    l3_accesses: int


def resolve_benchmarks(benchmarks: Optional[Sequence[str]]) -> List[str]:
    """Default to the full Table II suite when no subset is given."""
    if benchmarks is None:
        return benchmark_names()
    return list(benchmarks)


def require_rows(rows: Sequence, what: str) -> Sequence:
    """Guard a suite aggregate against an empty row set.

    Dividing by ``len(rows)`` with zero rows used to surface as a bare
    ``ZeroDivisionError`` deep inside a property; raise the library's
    :class:`ConfigError` with an actionable message instead.
    """
    if not rows:
        raise ConfigError(
            f"cannot compute {what}: the result has no rows "
            "(was the experiment run with an empty benchmark list?)"
        )
    return rows


# -- the disk tier ----------------------------------------------------

_STORE: Optional[ArtifactStore] = None


def get_store() -> Optional[ArtifactStore]:
    """The configured disk tier, or None (memory-only caching)."""
    return _STORE


def set_store(store: Optional[ArtifactStore]) -> Optional[ArtifactStore]:
    """Install (or disable, with None) the disk tier; returns the old one."""
    global _STORE
    previous = _STORE
    _STORE = store
    return previous


def configure_cache(
    cache_dir=None, enabled: bool = True
) -> Optional[ArtifactStore]:
    """Point the disk tier at ``cache_dir`` (default: standard location).

    The CLI and benchmark harness call this; libraries and tests that
    want persistence opt in explicitly.  Returns the previous store so
    callers can restore it.
    """
    if not enabled:
        return set_store(None)
    from repro.parallel import default_cache_dir

    # The disk tier opts into fault injection: every read/write of it
    # recovers transparently (corrupt artifacts recompute, failed puts
    # are swallowed as StoreError), so the CI faults job can corrupt it
    # without failing code that has no recovery path.
    return set_store(
        ArtifactStore(cache_dir or default_cache_dir(), inject_faults=True)
    )


#: The metrics tier's encoder under its historical name (the benchmark
#: harness imports it); any result dataclass goes through the same codec.
metrics_to_payload = to_payload


def _store_get_metrics(run: str, key: tuple) -> Optional[RunMetrics]:
    if _STORE is None:
        return None
    try:
        payload = _STORE.get_json("metrics", {"run": run, "key": key})
    except StoreError:
        return None
    if payload is None:
        return None
    return from_payload(RunMetrics, payload)


def _store_put_metrics(run: str, key: tuple, metrics: RunMetrics) -> None:
    """Persist metrics unless the artifact already exists.

    Also called on memory-tier hits, so a store configured *after* a
    result was computed still captures it (write-through backfill).
    """
    if _STORE is None:
        return
    try:
        params = {"run": run, "key": key}
        if not _STORE.has("metrics", params):
            _STORE.put_json("metrics", params, to_payload(metrics))
    except StoreError:
        pass


def _metrics_key(out: PinPointsOutput, config, extra=()) -> tuple:
    # The program's content fingerprint: two programs of one benchmark and
    # shape (a custom ``mean_run_length``, say) replay different slices.
    levels = None if config is None else tuple(
        (c.name, c.size_bytes, c.line_size, c.associativity)
        for c in config.levels()
    )
    return (out.benchmark, out.program._trace_key, out.program.slice_size,
            out.program.num_slices, levels) + tuple(extra)


_WHOLE_CACHE: Dict[tuple, RunMetrics] = {}
_POINTS_CACHE: Dict[tuple, RunMetrics] = {}


def measure_whole(
    out: PinPointsOutput, config: Optional[CacheHierarchyConfig] = None
) -> RunMetrics:
    """Profile the Whole Run (full execution, continuously warm caches).

    Results are cached per (benchmark, program content, hierarchy): whole
    replays are deterministic and several figures share them.  With a
    disk tier configured, results also persist across processes and
    sessions.
    """
    key = _metrics_key(out, config)
    if key in _WHOLE_CACHE:
        telemetry_count("memtier.hit", kind="whole")
        metrics = _WHOLE_CACHE[key]
        _store_put_metrics("whole", key, metrics)
        return metrics
    stored = _store_get_metrics("whole", key)
    if stored is not None:
        _WHOLE_CACHE[key] = stored
        return stored
    telemetry_count("memtier.miss", kind="whole")
    cache = AllCache(config)
    mix = LdStMix()
    with span("cache.replay", run="whole", benchmark=out.benchmark):
        out.replayer().replay(out.whole, [cache, mix])
    stats = cache.stats()
    metrics = RunMetrics(
        instructions=mix.total_instructions,
        mix=mix.fractions(),
        miss_rates={lv: stats[lv].miss_rate for lv in LEVELS},
        l3_accesses=stats["L3"].accesses,
    )
    _WHOLE_CACHE[key] = metrics
    _store_put_metrics("whole", key, metrics)
    return metrics


def measure_points(
    out: PinPointsOutput,
    pinballs: Sequence[RegionalPinball],
    with_warmup: bool = False,
    config: Optional[CacheHierarchyConfig] = None,
) -> RunMetrics:
    """Profile a set of regional pinballs and weight-combine the results.

    Each pinball is replayed in isolation (fresh caches), matching the
    paper's methodology; ``with_warmup`` replays the warmup prefix with
    statistics frozen first (the Warmup Regional Run).  Deterministic, so
    results are cached like :func:`measure_whole`, keyed also on each
    pinball's region, warmup and weight.
    """
    key = _metrics_key(
        out, config,
        extra=(
            tuple(
                (p.region_start, p.warmup_slices, p.weight) for p in pinballs
            ),
            with_warmup,
        ),
    )
    if key in _POINTS_CACHE:
        telemetry_count("memtier.hit", kind="points")
        metrics = _POINTS_CACHE[key]
        _store_put_metrics("points", key, metrics)
        return metrics
    stored = _store_get_metrics("points", key)
    if stored is not None:
        _POINTS_CACHE[key] = stored
        return stored
    telemetry_count("memtier.miss", kind="points")
    replayer = out.replayer()
    mixes, weights, instructions, l3_accesses = [], [], 0, 0
    rates: Dict[str, List[float]] = {lv: [] for lv in LEVELS}
    with span(
        "cache.replay",
        run="points",
        benchmark=out.benchmark,
        points=len(pinballs),
        warmup=with_warmup,
    ):
        for pinball in pinballs:
            cache = AllCache(config)
            mix = LdStMix()
            replayer.replay(pinball, [cache, mix], with_warmup=with_warmup)
            stats = cache.stats()
            for lv in LEVELS:
                rates[lv].append(stats[lv].miss_rate)
            mixes.append(mix.fractions())
            weights.append(pinball.weight)
            instructions += mix.total_instructions
            l3_accesses += stats["L3"].accesses
    metrics = RunMetrics(
        instructions=instructions,
        mix=weighted_mix(mixes, weights),
        miss_rates={lv: weighted_average(rates[lv], weights) for lv in LEVELS},
        l3_accesses=l3_accesses,
    )
    _POINTS_CACHE[key] = metrics
    _store_put_metrics("points", key, metrics)
    return metrics


_PINPOINTS_CACHE: Dict[tuple, PinPointsOutput] = {}


def _freeze(value):
    """Make a kwarg value hashable for the in-process pinpoints key.

    ``sampler_params`` arrives as a dict; live objects (``program``,
    ``analysis``) hash by identity, which is exactly the sharing the
    per-process tier wants.
    """
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def pinpoints_for(benchmark: str, **kwargs) -> PinPointsOutput:
    """Run (or fetch a cached) PinPoints flow for a benchmark.

    Experiments share whole-pipeline outputs per process so that e.g.
    Fig 7, Fig 8 and Fig 10 do not re-cluster the same benchmark three
    times.  The cache key includes all keyword arguments.  With a disk
    tier configured, pipeline bundles persist (pickled) across processes
    and sessions; kwargs that cannot be hashed stably — live ``program``
    or ``analysis`` objects — simply bypass the disk tier.
    """
    key = (benchmark,) + tuple(
        (name, _freeze(value)) for name, value in sorted(kwargs.items())
    )
    # ``schema`` versions the pickled bundle's shape: bundles persisted
    # before the sampler-registry refactor (no ``selection`` field) must
    # miss here and recompute rather than resurrect with stale attributes.
    params = {"benchmark": benchmark, "kwargs": dict(kwargs), "schema": 2}
    if key in _PINPOINTS_CACHE:
        telemetry_count("memtier.hit", kind="pinpoints")
        out = _PINPOINTS_CACHE[key]
        _store_put_pinpoints(params, out)
        return out
    if _STORE is not None:
        try:
            stored = _STORE.get_pickle("pinpoints", params)
        except StoreError:
            stored = None
        if stored is not None:
            _PINPOINTS_CACHE[key] = stored
            return stored
    telemetry_count("memtier.miss", kind="pinpoints")
    out = run_pinpoints(benchmark, **kwargs)
    _PINPOINTS_CACHE[key] = out
    _store_put_pinpoints(params, out)
    return out


def _store_put_pinpoints(params: dict, out: PinPointsOutput) -> None:
    """Persist a pipeline bundle unless already stored (or unkeyable).

    Like :func:`_store_put_metrics`, this also backfills a store that
    was configured after the bundle was computed.
    """
    if _STORE is None:
        return
    try:
        if not _STORE.has("pinpoints", params, "pickle"):
            _STORE.put_pickle("pinpoints", params, out)
    except StoreError:
        pass


def clear_pinpoints_cache() -> None:
    """Drop all cached pipeline/measurement results (test isolation).

    Clears both tiers: the per-process dicts and, when a disk store is
    configured, every persisted artifact in it — a test that clears the
    cache must never read a stale artifact from a previous run.
    """
    _PINPOINTS_CACHE.clear()
    _WHOLE_CACHE.clear()
    _POINTS_CACHE.clear()
    if _STORE is not None:
        _STORE.clear()


# -- per-benchmark fan-out --------------------------------------------


def measure_benchmark(
    benchmark: str,
    runs: Tuple[str, ...] = (),
    config: Optional[CacheHierarchyConfig] = None,
    pinpoints_kwargs: Optional[dict] = None,
) -> Dict[str, object]:
    """Measure one benchmark: the process-pool worker unit.

    Runs (or loads) the PinPoints pipeline, profiles the requested run
    types, and returns a lightweight result dict — benchmark id, point
    counts, and one :class:`RunMetrics` per entry of ``runs`` — instead
    of shipping whole :class:`PinPointsOutput` bundles back through the
    pool.  ``runs`` entries come from :data:`RUN_TYPES`.
    """
    for run in runs:
        if run not in RUN_TYPES:
            raise ConfigError(
                f"unknown run type {run!r}; expected one of {RUN_TYPES}"
            )
    with span("measure.benchmark", benchmark=benchmark, runs=len(runs)):
        out = pinpoints_for(benchmark, **(pinpoints_kwargs or {}))
        result: Dict[str, object] = {
            "benchmark": out.benchmark,
            "num_points": out.num_points,
            "num_points_90": len(out.reduced),
        }
        for run in runs:
            if run == "whole":
                result[run] = measure_whole(out, config)
            elif run == "regional":
                result[run] = measure_points(out, out.regional, config=config)
            elif run == "reduced":
                result[run] = measure_points(out, out.reduced, config=config)
            else:
                result[run] = measure_points(
                    out, out.regional, with_warmup=True, config=config
                )
        return result


def map_benchmarks(
    benchmarks: Optional[Sequence[str]],
    runs: Tuple[str, ...] = (),
    jobs: Optional[int] = None,
    config: Optional[CacheHierarchyConfig] = None,
    **pinpoints_kwargs,
) -> List[Dict[str, object]]:
    """Fan :func:`measure_benchmark` across the suite, one result per name.

    Results come back in suite order regardless of worker completion
    order, so driver output is identical for any ``jobs`` value.  With a
    disk store configured, workers share pipelines and metrics through
    it; without one, each worker recomputes its own (still correct, just
    colder).
    """
    worker = functools.partial(
        measure_benchmark,
        runs=tuple(runs),
        config=config,
        pinpoints_kwargs=dict(pinpoints_kwargs),
    )
    names = resolve_benchmarks(benchmarks)
    return parallel_map(worker, names, jobs=jobs, labels=names)


def map_items(
    worker: Callable,
    items: Sequence,
    jobs: Optional[int] = None,
    labels: Optional[Sequence[str]] = None,
    **bound,
) -> List:
    """Fan any per-item worker across the process pool, input order kept.

    The generalized sibling of :func:`map_benchmarks` for drivers whose
    per-benchmark unit is not :func:`measure_benchmark` (variance
    sweeps, cost models, Sniper runs, ...).  ``worker`` must be a
    module-level callable (pool tasks are pickled even under fork);
    ``bound`` keywords are attached via :func:`functools.partial`.
    Results merge in submission order, so output is byte-identical for
    any ``jobs`` value.

    Resilience policies from the active campaign apply per item; under a
    ``skip`` policy the returned list holds only the survivors (string
    items label their own outcome records unless ``labels`` overrides).
    """
    if bound:
        worker = functools.partial(worker, **bound)
    return parallel_map(worker, list(items), jobs=jobs, labels=labels)
