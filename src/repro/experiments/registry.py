"""Declarative experiment registry: one spec per table/figure.

Every experiment driver registers itself with the :func:`experiment`
decorator (runner side) and the :func:`renders` decorator (renderer
side).  The resulting :class:`ExperimentSpec` carries everything the
rest of the system needs to know about an experiment declaratively:

* how to run it (``runner``) and render it (``renderer``);
* which CLI axes it supports (``supports_benchmarks``/``supports_jobs``
  for suite-wide drivers, ``benchmark_option`` for single-benchmark
  sweeps);
* which benchmark names it accepts (``benchmark_universe``, so e.g. the
  projected-suite experiment can admit future-work names);
* its result dataclass (``result_type``, whose fields and type hints
  the codec of :mod:`repro.experiments.serialize` turns into JSON);
* which paper artifact it reproduces (``paper_ref``).

The CLI builds its subparsers (plain subcommands *and* their ``trace``
twins), the ``report`` subcommand, and JSON export entirely from this
registry — adding an experiment means writing one module with one
``@experiment`` runner and one ``@renders`` renderer, nothing else.
:func:`write_result` is the one writer of result files (``--json-out``,
``report``, ``campaign result``).

:func:`execute` is the single entry point for running a registered
experiment: it consults the artifact store for a previously serialized
result payload (keyed by experiment name + determinism-relevant kwargs,
``jobs`` excluded since output is order-stable), deserializes on a hit,
and persists the payload after a miss — so a re-run with an unchanged
key is a cache hit end to end, never re-measuring anything.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ConfigError, StoreError
from repro.experiments.serialize import from_payload, to_payload
from repro.telemetry.recorder import count as telemetry_count
from repro.telemetry.recorder import span

__all__ = [
    "RESULT_SCHEMA",
    "ExperimentSpec",
    "all_specs",
    "execute",
    "experiment",
    "get_spec",
    "renders",
    "result_from_payload",
    "result_payload",
    "write_result",
]

#: Envelope schema tag for serialized experiment results; bumped whenever
#: the payload layout changes so stale JSON is never deserialized.
RESULT_SCHEMA = "repro-result-v1"


def _default_universe() -> List[str]:
    from repro.workloads.spec2017 import benchmark_names

    return benchmark_names()


@dataclass
class ExperimentSpec:
    """Everything the system knows about one registered experiment.

    Attributes:
        name: CLI subcommand / registry key (e.g. ``fig8``).
        runner: ``run_*`` callable returning ``result_type``.
        result_type: Result dataclass; its fields' type hints must be
            ones the :mod:`~repro.experiments.serialize` codec supports.
        paper_ref: Which paper artifact (or extension) this reproduces.
        supports_benchmarks: Whether the runner takes a suite subset via
            a ``benchmarks`` keyword (CLI ``--benchmarks``).
        supports_jobs: Whether the runner fans per-benchmark work across
            worker processes via a ``jobs`` keyword (CLI ``--jobs``).
        supports_sampler: Whether the runner forwards ``sampler`` /
            ``sampler_params`` keywords to the PinPoints pipeline (CLI
            ``--sampler NAME[:k=v,...]``, validated against the sampler
            registry before any work runs).  Both keywords fold into the
            result-cache key, so cached results never alias across
            samplers.
        benchmark_option: For single-benchmark sweeps, the default value
            of the ``benchmark`` keyword (CLI ``--benchmark``).
        benchmark_universe: Callable producing the benchmark names this
            experiment accepts (default: the Table II registry).
        renderer: ``render_*`` callable; attached by :func:`renders`.
    """

    name: str
    runner: Callable
    result_type: type
    paper_ref: str
    supports_benchmarks: bool = False
    supports_jobs: bool = False
    supports_sampler: bool = False
    benchmark_option: Optional[str] = None
    benchmark_universe: Callable[[], Sequence[str]] = field(
        default=_default_universe
    )
    renderer: Optional[Callable] = None

    def valid_benchmarks(self) -> List[str]:
        """The benchmark names this experiment accepts."""
        return list(self.benchmark_universe())

    def unknown_benchmarks(self, names: Sequence[str]) -> List[str]:
        """The subset of ``names`` this experiment does not accept."""
        valid = set(self.valid_benchmarks())
        return [name for name in names if name not in valid]


_REGISTRY: Dict[str, ExperimentSpec] = {}


def experiment(
    name: str,
    *,
    result: type,
    paper_ref: str,
    supports_benchmarks: bool = False,
    supports_jobs: bool = False,
    supports_sampler: bool = False,
    benchmark_option: Optional[str] = None,
    benchmark_universe: Optional[Callable[[], Sequence[str]]] = None,
) -> Callable:
    """Register the decorated ``run_*`` function as an experiment runner."""

    def decorate(runner: Callable) -> Callable:
        if name in _REGISTRY:
            raise ConfigError(f"experiment {name!r} is already registered")
        _REGISTRY[name] = ExperimentSpec(
            name=name,
            runner=runner,
            result_type=result,
            paper_ref=paper_ref,
            supports_benchmarks=supports_benchmarks,
            supports_jobs=supports_jobs,
            supports_sampler=supports_sampler,
            benchmark_option=benchmark_option,
            benchmark_universe=benchmark_universe or _default_universe,
        )
        return runner

    return decorate


def renders(name: str) -> Callable:
    """Attach the decorated ``render_*`` function to a registered spec.

    Stacks, so one renderer can serve several experiments (Fig 3's two
    sweeps share one table layout).
    """

    def decorate(renderer: Callable) -> Callable:
        spec = _REGISTRY.get(name)
        if spec is None:
            raise ConfigError(
                f"cannot attach renderer: experiment {name!r} is not "
                "registered (apply @experiment to the runner first)"
            )
        if spec.renderer is not None:
            raise ConfigError(f"experiment {name!r} already has a renderer")
        spec.renderer = renderer
        return renderer

    return decorate


def _populate() -> None:
    # The drivers register on import; the package __init__ imports all
    # of them, so one import fills the registry.
    import repro.experiments  # noqa: F401


def all_specs() -> List[ExperimentSpec]:
    """Every registered experiment, in registration (paper) order."""
    _populate()
    incomplete = [s.name for s in _REGISTRY.values() if s.renderer is None]
    if incomplete:
        raise ConfigError(
            f"experiments without a renderer: {', '.join(incomplete)}"
        )
    return list(_REGISTRY.values())


def get_spec(name: str) -> ExperimentSpec:
    """The spec registered under ``name``."""
    _populate()
    spec = _REGISTRY.get(name)
    if spec is None:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigError(f"unknown experiment {name!r}; known: {known}")
    return spec


# -- result serialization envelope ------------------------------------


def result_payload(spec: ExperimentSpec, result) -> dict:
    """Wrap a result's payload in the self-describing JSON envelope."""
    from repro import __version__

    return {
        "schema": RESULT_SCHEMA,
        "experiment": spec.name,
        "paper_ref": spec.paper_ref,
        "result_type": spec.result_type.__name__,
        "version": __version__,
        "data": to_payload(result),
    }


def write_result(path, spec: ExperimentSpec, result) -> None:
    """Write ``result``'s envelope to ``path``: indented JSON plus newline."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result_payload(spec, result), handle, indent=2)
        handle.write("\n")


def result_from_payload(spec: ExperimentSpec, payload: dict):
    """Reconstruct a result from an envelope written by :func:`result_payload`.

    Raises :class:`ConfigError` when the envelope does not describe this
    experiment (wrong schema, name, or result type), and ``TypeError``,
    ``KeyError`` or ``ValueError`` when its data does not fit the result
    dataclass.
    """
    if not isinstance(payload, dict):
        raise ConfigError("result payload must be a JSON object")
    for key, expected in (
        ("schema", RESULT_SCHEMA),
        ("experiment", spec.name),
        ("result_type", spec.result_type.__name__),
    ):
        if payload.get(key) != expected:
            raise ConfigError(
                f"result payload {key} mismatch: expected {expected!r}, "
                f"got {payload.get(key)!r}"
            )
    return from_payload(spec.result_type, payload["data"])


# -- execution with result-level persistence --------------------------


def _result_key_params(spec: ExperimentSpec, kwargs: dict) -> dict:
    # ``jobs`` only changes how work is scheduled, never what is
    # produced (submission-order merges keep output byte-identical), so
    # it must not fragment the cache key.
    return {
        "experiment": spec.name,
        "kwargs": {k: v for k, v in kwargs.items() if k != "jobs"},
    }


def execute(spec: ExperimentSpec, kwargs: Optional[dict] = None):
    """Run an experiment through the result-level artifact cache.

    With a disk store configured (see
    :func:`repro.experiments.common.configure_cache`), a previously
    serialized result with the same key is deserialized instead of
    re-running the experiment; on a miss the runner executes and its
    payload is persisted.  Unkeyable kwargs (live objects) simply bypass
    the cache.

    With an active :class:`~repro.resilience.context.Campaign` and a
    store, the campaign's journal attaches under the same content
    address before the runner starts, so per-item outcomes persist as
    they complete and an interrupted run resumes (``--resume``) without
    recomputing journaled items.  A degraded result (items skipped under
    the campaign's policy) is *never* written to the result cache — a
    later full run must not be poisoned by a survivor subset.
    """
    from repro.experiments.common import get_store
    from repro.resilience.context import get_campaign

    kwargs = dict(kwargs or {})
    store = get_store()
    campaign = get_campaign()
    params = None
    if store is not None:
        try:
            params = _result_key_params(spec, kwargs)
            stored = store.get_json("result", params)
        except StoreError:
            params, stored = None, None
        if stored is not None:
            try:
                result = result_from_payload(spec, stored)
            except (ConfigError, KeyError, TypeError, ValueError):
                stored = None
            else:
                telemetry_count("result.hit", experiment=spec.name)
                if campaign is not None:
                    campaign.finish()
                return result
    if campaign is not None and store is not None and params is not None:
        campaign.attach_journal(store.root, store.key("campaign", params))
    telemetry_count("result.miss", experiment=spec.name)
    with span("experiment.run", experiment=spec.name):
        result = spec.runner(**kwargs)
    degraded = campaign is not None and campaign.degraded
    if degraded:
        telemetry_count("result.degraded", experiment=spec.name)
    if store is not None and params is not None and not degraded:
        try:
            store.put_json("result", params, result_payload(spec, result))
        except StoreError:
            pass
    if campaign is not None:
        campaign.finish(complete=not degraded)
    return result
