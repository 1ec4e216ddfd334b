"""Shared measurement plumbing for the experiment drivers.

Every expensive intermediate -- a benchmark's PinPoints pipeline, the
metrics of each Whole or Regional replay, and each fan-out item's
result -- goes through one :func:`memo`: a per-process dict in front of
an optional content-addressed :class:`~repro.parallel.store.ArtifactStore`
shared across worker processes and sessions (enabled by the CLI and the
benchmark harness via :func:`configure_cache`, disabled by default for
library use so tests stay hermetic).  Both tiers are keyed by the
store's own content address: the store schema tag, the repro package
version, the artifact kind and a canonical document of every
determinism-relevant input (pipeline kwargs; the program fingerprint,
the resolved cache hierarchy and each replayed pinball; a fan-out's
worker, item and bound keywords), so a stale artifact from an older
code revision or a different configuration can never be read back.

Per-benchmark work fans out through :func:`map_items` (and its
:func:`measure_benchmark` form, :func:`map_benchmarks`) over a
deterministic process pool, results merged in submission order, so
parallel output is bit-identical to serial.  Each item's result is a
memo artifact of its own (kind ``item``), stored by the worker the
moment the item completes: a rerun of an interrupted or failed run
computes only the items that never finished.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import __version__
from repro.config import ALLCACHE_SIM, CacheHierarchyConfig
from repro.errors import ConfigError, StoreError
from repro.experiments.serialize import from_payload, to_payload
from repro.parallel import ArtifactStore, artifact_key, parallel_map
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


# -- the memo: a memory tier in front of the artifact store -----------

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


#: The metrics memo's encoder under its historical name (the benchmark
#: harness imports it); any result dataclass goes through the same codec.
metrics_to_payload = to_payload

#: The memory tier of :func:`memo`: content address -> value.
_MEMO: Dict[str, object] = {}


def memo(
    kind: str,
    params: dict,
    compute: Callable[[], object],
    result_type: Optional[type] = None,
):
    """``compute()``, remembered in this process and in the artifact store.

    ``params`` holds every input the value depends on, and its store
    content address keys both tiers.  Memory answers first (backfilling
    a store configured since the value was computed), then the store,
    and only then ``compute``, whose value both tiers keep.  Values of
    ``result_type`` are stored as JSON through the result codec, other
    values pickled.  A stored value that no longer decodes is a miss and
    is overwritten, a failing store behaves as no store, and params the
    canonicalizer rejects (live objects) compute uncached.
    """
    try:
        key = artifact_key(kind, params, version=__version__)
    except StoreError:
        return compute()
    fmt = "pickle" if result_type is None else "json"
    store = _STORE
    if key in _MEMO:
        telemetry_count("memtier.hit", kind=kind)
        value = _MEMO[key]
        if store is None or store.has(kind, params, fmt):
            return value
    else:
        value = None
        if store is not None:
            try:
                if result_type is None:
                    value = store.get_pickle(kind, params)
                else:
                    payload = store.get_json(kind, params)
                    if payload is not None:
                        value = from_payload(result_type, payload)
            except (StoreError, KeyError, TypeError, ValueError):
                pass  # unreadable, or no longer fits: overwritten below
            if value is not None:
                _MEMO[key] = value
                return value
        telemetry_count("memtier.miss", kind=kind)
        value = _MEMO[key] = compute()
        if store is None:
            return value
    try:
        if result_type is None:
            store.put_pickle(kind, params, value)
        else:
            store.put_json(kind, params, to_payload(value))
    except StoreError:
        pass
    return value


def _replay_params(
    out: PinPointsOutput, config: Optional[CacheHierarchyConfig], **replay
) -> dict:
    """The metrics memo's params: everything a replay of ``out`` reads.

    The program's content fingerprint, not its name: two programs of one
    benchmark and shape (a custom ``mean_run_length``, say) replay
    different slices.  The hierarchy is the resolved one, so the default
    and an explicit :data:`~repro.config.ALLCACHE_SIM` share entries.
    """
    return dict(
        benchmark=out.benchmark,
        program=out.program._trace_key,
        hierarchy=config or ALLCACHE_SIM,
        **replay,
    )


def measure_whole(
    out: PinPointsOutput, config: Optional[CacheHierarchyConfig] = None
) -> RunMetrics:
    """Profile the Whole Run (full execution, continuously warm caches).

    Whole replays are deterministic and several figures share them, so
    the metrics are memoized per program and hierarchy (:func:`memo`).
    """

    def replay() -> RunMetrics:
        cache = AllCache(config)
        mix = LdStMix()
        with span("cache.replay", run="whole", benchmark=out.benchmark):
            out.replayer().replay(out.whole, [cache, mix])
        stats = cache.stats()
        return RunMetrics(
            instructions=mix.total_instructions,
            mix=mix.fractions(),
            miss_rates={lv: stats[lv].miss_rate for lv in LEVELS},
            l3_accesses=stats["L3"].accesses,
        )

    params = _replay_params(out, config, run="whole")
    return memo("metrics", params, replay, RunMetrics)


def measure_points(
    out: PinPointsOutput,
    pinballs: Sequence[RegionalPinball],
    with_warmup: bool = False,
    config: Optional[CacheHierarchyConfig] = None,
) -> RunMetrics:
    """Profile a set of regional pinballs and weight-combine the results.

    Each pinball is replayed in isolation (fresh caches), matching the
    paper's methodology; ``with_warmup`` replays the warmup prefix with
    statistics frozen first (the Warmup Regional Run).  Memoized like
    :func:`measure_whole`, keyed also on every pinball (region, warmup
    and weight) and on ``with_warmup``.
    """

    def replay() -> RunMetrics:
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
        return RunMetrics(
            instructions=instructions,
            mix=weighted_mix(mixes, weights),
            miss_rates={
                lv: weighted_average(rates[lv], weights) for lv in LEVELS
            },
            l3_accesses=l3_accesses,
        )

    params = _replay_params(
        out, config, run="points", pinballs=list(pinballs),
        with_warmup=with_warmup,
    )
    return memo("metrics", params, replay, RunMetrics)


def pinpoints_for(benchmark: str, **kwargs) -> PinPointsOutput:
    """Run (or fetch a memoized) PinPoints flow for a benchmark.

    Experiments share whole-pipeline outputs so that e.g. Fig 7, Fig 8
    and Fig 10 do not re-cluster the same benchmark three times.  The
    :func:`memo` key holds every argument of :func:`run_pinpoints` with
    its defaults filled in, so a call that spells a default out shares
    the entry of one that leaves it implicit; with a disk tier
    configured the bundles persist (pickled) across processes and
    sessions.  Live ``program`` or ``analysis`` objects have no stable
    key, so a call passing one runs the pipeline uncached.
    """
    call = inspect.signature(run_pinpoints).bind(benchmark, **kwargs)
    call.apply_defaults()
    return memo(
        "pinpoints", call.arguments, lambda: run_pinpoints(benchmark, **kwargs)
    )


def clear_pinpoints_cache() -> None:
    """Drop all memoized pipeline/measurement results (test isolation).

    Clears both tiers: the per-process dict and, when a disk store is
    configured, every persisted artifact in it — a test that clears the
    cache must never read a stale artifact from a previous run.
    """
    _MEMO.clear()
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

    :func:`map_items` over the benchmark names; the item key holds the
    resolved hierarchy, so the default and an explicit
    :data:`~repro.config.ALLCACHE_SIM` share entries.
    """
    return map_items(
        measure_benchmark,
        resolve_benchmarks(benchmarks),
        jobs=jobs,
        runs=tuple(runs),
        config=config if config is not None else ALLCACHE_SIM,
        pinpoints_kwargs=dict(pinpoints_kwargs),
    )


def _run_item(worker: Callable, bound: dict, item):
    """``worker(item, **bound)`` through the ``item`` memo (a pool task).

    Keyed on the worker's qualified name, the item and every bound
    keyword.
    """
    params = {
        "worker": f"{worker.__module__}.{worker.__qualname__}",
        "item": item,
        "bound": bound,
    }
    return memo("item", params, lambda: worker(item, **bound))


def map_items(
    worker: Callable, items: Sequence, jobs: Optional[int] = None, **bound
) -> List:
    """``[worker(item, **bound) for item in items]`` across the pool.

    The one fan-out of the experiment drivers (variance sweeps, cost
    models, Sniper runs, :func:`map_benchmarks`, ...).  ``worker`` must
    be a module-level callable (pool tasks are pickled even under fork)
    and takes every parameter but the item from ``bound``, since the
    ``item`` memo keys exactly those.  Each item runs through that memo
    inside its worker, so a finished item is stored as soon as it
    completes and any later run with the same worker, item and bound
    keywords reuses it.  Results merge in submission order, so output
    is byte-identical for any ``jobs`` value; the first failed item
    fails the map with its own exception.  A lambda or local function
    has no stable name to key its items by and raises
    :class:`ConfigError`.
    """
    if "<" in worker.__qualname__:
        raise ConfigError(
            f"map_items needs a module-level worker, not "
            f"{worker.__qualname__!r}: its items are keyed by its name"
        )
    unit = functools.partial(_run_item, worker, bound)
    return parallel_map(unit, list(items), jobs=jobs)
