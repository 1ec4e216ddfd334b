"""Shared measurement plumbing for the experiment drivers.

Every expensive intermediate -- a benchmark's PinPoints pipeline, the
metrics of each measured run, and each fan-out item's result -- goes
through one memo (:func:`recall` and :func:`keep`, which :func:`memo`
composes): a per-process dict in front of
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

A driver asks for every run it measures on one benchmark (Whole,
Regional, Reduced, Warmup Regional, or any set of weighted pinballs) in
one :func:`measure_runs` call, which replays the runs the memo misses
in one program-order pass.

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
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro import __version__
from repro.config import ALLCACHE_SIM, CacheHierarchyConfig
from repro.errors import ConfigError, StoreError
from repro.experiments.serialize import from_payload, to_payload
from repro.parallel import ArtifactStore, artifact_key, parallel_map
from repro.pin.tools.allcache import AllCache
from repro.pin.tools.ldstmix import LdStMix
from repro.pinball.pinball import RegionalPinball
from repro.pinball.replayer import ReplayJob
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

#: What :func:`recall` returns when neither tier holds the value.
MISSING = object()


@dataclass(frozen=True)
class MemoKey:
    """Where a memo value lives: its kind, params and content address.

    ``digest`` is the store's content address of ``params`` under this
    package's version; it keys the memory tier, and the store reuses it
    instead of canonicalizing ``params`` again.
    """

    kind: str
    params: dict
    digest: str


def memo_key(kind: str, params: dict) -> Optional[MemoKey]:
    """The memo address of ``params``, or None when they have no stable
    key (live objects the canonicalizer rejects)."""
    try:
        digest = artifact_key(kind, params, version=__version__)
    except StoreError:
        return None
    return MemoKey(kind, params, digest)


def _stored_at(store: ArtifactStore, key: MemoKey) -> Optional[str]:
    """``key``'s address in ``store``: its digest, unless the store keys
    another package version (then the store derives its own)."""
    return key.digest if store.version == __version__ else None


def recall(key: MemoKey, result_type: Optional[type] = None):
    """The value remembered under ``key``, or :data:`MISSING`.

    Memory answers first, backfilling a store configured since the value
    was kept; then the store, whose value memory then keeps.  A stored
    value that no longer decodes is a miss (and :func:`keep` overwrites
    it), and a failing store behaves as no store.  Values of
    ``result_type`` are stored as JSON through the result codec, other
    values pickled.
    """
    kind = key.kind
    store = _STORE
    if key.digest in _MEMO:
        telemetry_count("memtier.hit", kind=kind)
        value = _MEMO[key.digest]
        fmt = "pickle" if result_type is None else "json"
        if store is not None and not store.has(
            kind, key.params, fmt, digest=_stored_at(store, key)
        ):
            _put(store, key, value, result_type)
        return value
    if store is not None:
        value = None
        digest = _stored_at(store, key)
        try:
            if result_type is None:
                value = store.get_pickle(kind, key.params, digest=digest)
            else:
                payload = store.get_json(kind, key.params, digest=digest)
                if payload is not None:
                    value = from_payload(result_type, payload)
        except (StoreError, KeyError, TypeError, ValueError):
            pass  # unreadable, or no longer fits: a miss
        if value is not None:
            _MEMO[key.digest] = value
            return value
    telemetry_count("memtier.miss", kind=kind)
    return MISSING


def keep(key: MemoKey, value, result_type: Optional[type] = None):
    """Remember ``value`` under ``key`` in both tiers, and return it."""
    _MEMO[key.digest] = value
    if _STORE is not None:
        _put(_STORE, key, value, result_type)
    return value


def _put(store: ArtifactStore, key: MemoKey, value, result_type) -> None:
    digest = _stored_at(store, key)
    try:
        if result_type is None:
            store.put_pickle(key.kind, key.params, value, digest=digest)
        else:
            store.put_json(
                key.kind, key.params, to_payload(value), digest=digest
            )
    except StoreError:
        pass


def memo(
    kind: str,
    params: dict,
    compute: Callable[[], object],
    result_type: Optional[type] = None,
):
    """``compute()``, remembered in this process and in the artifact store.

    ``recall(key)``, or else ``keep(key, compute())``: ``params`` holds
    every input the value depends on, and its content address
    (:func:`memo_key`, derived once per call) keys both tiers.  Params
    the canonicalizer rejects (live objects) compute uncached.
    """
    key = memo_key(kind, params)
    if key is None:
        return compute()
    value = recall(key, result_type)
    if value is MISSING:
        value = keep(key, compute(), result_type)
    return value


def _replay_params(
    out: PinPointsOutput, config: Optional[CacheHierarchyConfig], run: "Run"
) -> dict:
    """The metrics memo's params: everything a replay of ``out`` reads.

    The program's content fingerprint, not its name: two programs of one
    benchmark and shape (a custom ``mean_run_length``, say) replay
    different slices.  The hierarchy is the resolved one, so the default
    and an explicit :data:`~repro.config.ALLCACHE_SIM` share entries.
    A run of points adds each pinball (region, warmup and weight) and
    its warmup flag.
    """
    params = dict(
        benchmark=out.benchmark,
        program=out.program._trace_key,
        hierarchy=config or ALLCACHE_SIM,
    )
    if run.pinballs is None:
        params.update(run="whole")
    else:
        params.update(
            run="points", pinballs=list(run.pinballs),
            with_warmup=run.with_warmup,
        )
    return params


@dataclass(frozen=True)
class Run:
    """A run to measure over a pipeline's program.

    ``pinballs=None`` is the Whole Run: the whole pinball, continuously
    warm caches.  Otherwise each pinball is replayed in isolation from
    fresh caches, after its warmup prefix with statistics frozen when
    ``with_warmup`` (the Warmup Regional Run), and the per-pinball
    metrics are combined by SimPoint weight (:func:`combine_points`).
    """

    pinballs: Optional[Tuple[RegionalPinball, ...]] = None
    with_warmup: bool = False


#: The Whole Run.
WHOLE = Run()


def measure_runs(
    out: PinPointsOutput,
    runs: Dict[Hashable, Run],
    config: Optional[CacheHierarchyConfig] = None,
) -> Dict[Hashable, RunMetrics]:
    """Measure every run of ``runs`` over ``out``'s program, by name.

    Each run is memoized under its own ``metrics`` key (:func:`memo`),
    keyed on the program, the resolved hierarchy and the run.  The runs
    no tier remembers are computed together in one replay pass
    (:meth:`~repro.pinball.replayer.Replayer.replay_all`), under one
    ``cache.replay`` span: every distinct (pinball window, warmup) pair
    is replayed once, and every run that holds it reuses that
    measurement, so a benchmark's four run types draw each slice once.
    """
    keys = {
        name: memo_key("metrics", _replay_params(out, config, run))
        for name, run in runs.items()
    }
    measured = {
        name: MISSING if key is None else recall(key, RunMetrics)
        for name, key in keys.items()
    }
    missing = {
        name: run for name, run in runs.items() if measured[name] is MISSING
    }
    if missing:
        for name, metrics in _replay(out, missing, config).items():
            key = keys[name]
            measured[name] = (
                metrics if key is None else keep(key, metrics, RunMetrics)
            )
    return measured


def _replay(
    out: PinPointsOutput,
    runs: Dict[Hashable, Run],
    config: Optional[CacheHierarchyConfig],
) -> Dict[Hashable, RunMetrics]:
    """Compute ``runs`` in one pass, each distinct replay once."""
    def tools():
        return AllCache(config), LdStMix()

    jobs: List[ReplayJob] = []
    slots: Dict[Tuple[int, int, int], int] = {}
    plans: Dict[Hashable, List[int]] = {}
    for name, run in runs.items():
        plan = plans[name] = []
        for pinball in (out.whole,) if run.pinballs is None else run.pinballs:
            job = ReplayJob(pinball, tools, run.with_warmup)
            if job.window not in slots:
                slots[job.window] = len(jobs)
                jobs.append(job)
            plan.append(slots[job.window])
    points: Dict[int, RunMetrics] = {}
    with span(
        "cache.replay", benchmark=out.benchmark, runs=len(runs),
        replays=len(jobs),
    ):
        for index, (cache, mix) in out.replayer().replay_all(jobs):
            points[index] = replay_metrics(cache, mix)
    return {
        name: points[plans[name][0]] if run.pinballs is None
        else combine_points(
            [points[index] for index in plans[name]],
            [pinball.weight for pinball in run.pinballs],
        )
        for name, run in runs.items()
    }


def replay_metrics(cache: AllCache, mix: LdStMix) -> RunMetrics:
    """One replay's metrics, read off its ended tools."""
    stats = cache.stats()
    return RunMetrics(
        instructions=mix.total_instructions,
        mix=mix.fractions(),
        miss_rates={lv: stats[lv].miss_rate for lv in LEVELS},
        l3_accesses=stats["L3"].accesses,
    )


def combine_points(
    points: Sequence[RunMetrics], weights: Sequence[float]
) -> RunMetrics:
    """Weight-combine per-pinball metrics (in the order given).

    Mixes and miss rates are weight-averaged (weights renormalized);
    instruction and L3-access counts add up.
    """
    return RunMetrics(
        instructions=sum(point.instructions for point in points),
        mix=weighted_mix([point.mix for point in points], weights),
        miss_rates={
            lv: weighted_average(
                [point.miss_rates[lv] for point in points], weights
            )
            for lv in LEVELS
        },
        l3_accesses=sum(point.l3_accesses for point in points),
    )


def measure_whole(
    out: PinPointsOutput, config: Optional[CacheHierarchyConfig] = None
) -> RunMetrics:
    """Profile the Whole Run (full execution, continuously warm caches).

    The one-run case of :func:`measure_runs`.
    """
    return measure_runs(out, {"whole": WHOLE}, config)["whole"]


def measure_points(
    out: PinPointsOutput,
    pinballs: Sequence[RegionalPinball],
    with_warmup: bool = False,
    config: Optional[CacheHierarchyConfig] = None,
) -> RunMetrics:
    """Profile a set of regional pinballs and weight-combine the results.

    Each pinball is replayed in isolation (fresh caches), matching the
    paper's methodology; ``with_warmup`` replays the warmup prefix with
    statistics frozen first (the Warmup Regional Run).  The one-run case
    of :func:`measure_runs`.
    """
    run = Run(tuple(pinballs), with_warmup)
    return measure_runs(out, {"points": run}, config)["points"]


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

    Runs (or loads) the PinPoints pipeline, measures the requested run
    types in one :func:`measure_runs` call, and returns a lightweight
    result dict — benchmark id, point counts, and one
    :class:`RunMetrics` per entry of ``runs`` — instead of shipping
    whole :class:`PinPointsOutput` bundles back through the pool.
    ``runs`` entries come from :data:`RUN_TYPES`; the Reduced Run's
    pinballs are regional ones, so its replays are the Regional Run's.
    """
    for run in runs:
        if run not in RUN_TYPES:
            raise ConfigError(
                f"unknown run type {run!r}; expected one of {RUN_TYPES}"
            )
    with span("measure.benchmark", benchmark=benchmark, runs=len(runs)):
        out = pinpoints_for(benchmark, **(pinpoints_kwargs or {}))
        regional = tuple(out.regional)
        types = {
            "whole": WHOLE,
            "regional": Run(regional),
            "reduced": Run(tuple(out.reduced)),
            "warmup": Run(regional, with_warmup=True),
        }
        result: Dict[str, object] = {
            "benchmark": out.benchmark,
            "num_points": out.num_points,
            "num_points_90": len(out.reduced),
        }
        result.update(
            measure_runs(out, {run: types[run] for run in runs}, config)
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
