"""Deterministic process-pool fan-out with one failure policy.

The suite's per-benchmark axis is embarrassingly parallel: every
pipeline run and replay is a pure, seeded function of its parameters.
:func:`parallel_map` fans such work across a ``ProcessPoolExecutor``
and merges results **in submission order**, so rendered output is
bit-identical to a serial run no matter which worker finishes first
(the hazard repro-lint REP011 guards against).

Failures: every item runs once, and the first failed item in submission
order fails the map with its own exception, whichever worker finished
first.  The items after it never start (serially) or are cancelled (in
a pool).  A worker process that dies mid-task breaks the pool, which
raises :class:`~repro.errors.ResilienceError`.  Nothing is retried,
timed out or skipped, so no result is ever computed from a subset of
its items.  Nothing here skips finished work either: the experiment
drivers' units store each item's result as it completes
(:func:`repro.experiments.common.map_items`), so a rerun reads those
back from the artifact store.

Fork safety: workers are forked where the platform supports it (cheap,
inherits the configured artifact store and loaded registries); on
spawn-only platforms the default start method is used, which requires
the submitted callable and arguments to be picklable — module-level
functions and ``functools.partial`` over them, never closures.

``jobs`` semantics everywhere in this package: ``None``/``0`` means
auto-detect (one worker per CPU core), ``1`` means run serially
in-process (no pool, no pickling), ``N > 1`` means a pool of N workers
(clamped to the item count; a clamp is reported on the
``parallel.jobs_clamped`` gauge, never an error).

Telemetry: with a recorder active, each pooled worker call runs under a
fresh :class:`~repro.telemetry.recorder.TraceRecorder` whose snapshot
ships back alongside the result and is merged into the parent recorder
**in submission order** (worker events get ``tid = 1 + item index``),
so traces and aggregated metrics are deterministic regardless of worker
completion interleaving.  The parent counts ``parallel.tasks`` once per
map and ``parallel.completed`` once per item as it merges, which is
what a campaign job's item counts and live progress read.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

from repro.errors import ConfigError, ResilienceError
from repro.resilience.faults import FaultPlan, get_plan, inject_worker_fault
from repro.telemetry.recorder import (
    TraceRecorder,
    get_recorder,
    set_recorder,
    span,
)

__all__ = ["parallel_map", "resolve_jobs"]

_ItemT = TypeVar("_ItemT")
_ResultT = TypeVar("_ResultT")


def resolve_jobs(jobs: Optional[int] = None, items: Optional[int] = None) -> int:
    """Normalize a ``--jobs`` value to a concrete worker count.

    ``None`` and ``0`` auto-detect (``os.cpu_count()``); anything else
    must be a positive integer.  With ``items`` given, a request for
    more workers than there is work clamps to the item count (spinning
    up idle processes is pure waste) and reports the requested value on
    the ``parallel.jobs_clamped`` gauge.
    """
    if jobs is None or jobs == 0:
        workers = os.cpu_count() or 1
    elif isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
        raise ConfigError(
            f"jobs must be a positive integer or 0/None for auto, got {jobs!r}"
        )
    else:
        workers = jobs
    if items is not None and workers > max(items, 1):
        recorder = get_recorder()
        if recorder is not None:
            recorder.gauge("parallel.jobs_clamped", workers)
        workers = max(items, 1)
    return workers


def _mp_context():
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


@dataclass
class _TracedResult:
    """A worker's return value plus its telemetry snapshot."""

    result: object
    telemetry: dict


def _traced_call(
    fn: Callable, item, index: int, plan: Optional[FaultPlan]
) -> _TracedResult:
    """Run one item in a pool worker (module-level, so it pickles).

    Installs the shipped fault plan and a private worker recorder; the
    previous recorder — on fork, the parent's inherited copy — is
    restored afterwards because pool workers are reused across tasks and
    each task must capture only its own events.
    """
    from repro.resilience.faults import set_plan

    worker_recorder = TraceRecorder()
    previous = set_recorder(worker_recorder)
    previous_plan = set_plan(plan)
    try:
        inject_worker_fault(index)
        result = fn(item)
    finally:
        set_plan(previous_plan)
        set_recorder(previous)
    return _TracedResult(result=result, telemetry=worker_recorder.snapshot())


def _run_serial(fn: Callable, work: Sequence, finish: Callable) -> None:
    for index, item in enumerate(work):
        inject_worker_fault(index)
        finish(index, fn(item))


def _run_pool(
    fn: Callable, work: Sequence, finish: Callable, workers: int, recorder
) -> None:
    plan = get_plan()
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=_mp_context()
    ) as pool:
        futures = [
            pool.submit(_traced_call, fn, item, index, plan)
            for index, item in enumerate(work)
        ]
        try:
            for index, future in enumerate(futures):
                try:
                    shipped = future.result()
                except BrokenProcessPool as exc:
                    raise ResilienceError(
                        f"worker pool broke with {len(work) - index} of "
                        f"{len(work)} item(s) unfinished (a worker "
                        "process died)"
                    ) from exc
                if recorder is not None:
                    recorder.merge(shipped.telemetry, tid=index + 1)
                finish(index, shipped.result)
        except BaseException:
            for future in futures:
                future.cancel()
            raise


def parallel_map(
    fn: Callable[[_ItemT], _ResultT],
    items: Iterable[_ItemT],
    jobs: Optional[int] = None,
) -> List[_ResultT]:
    """Apply ``fn`` to every item, results in input order.

    With one worker (or one item) this is a plain serial loop in the
    current process — no pool, no pickling — which is also the
    bit-identical reference behaviour the parallel path must match.
    The first failed item in submission order raises its own exception,
    regardless of completion interleaving; a pool broken by a dying
    worker raises :class:`~repro.errors.ResilienceError`.
    """
    work = list(items)
    recorder = get_recorder()
    workers = resolve_jobs(jobs, items=len(work))
    results: List = [None] * len(work)

    def finish(index: int, value) -> None:
        results[index] = value
        if recorder is not None:
            recorder.count("parallel.completed")

    with span("parallel.map", items=len(work)):
        if recorder is not None:
            recorder.count("parallel.tasks", len(work))
        if workers <= 1:
            # Serial reference path: events flow straight into the
            # active recorder (no wrapping), which is also what the
            # merged parallel trace must aggregate to.
            if recorder is not None:
                recorder.gauge("parallel.workers", 1)
            _run_serial(fn, work, finish)
        else:
            if recorder is not None:
                recorder.gauge("parallel.workers", workers)
            _run_pool(fn, work, finish, workers, recorder)
    return results
