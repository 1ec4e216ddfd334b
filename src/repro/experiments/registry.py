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
    "result_key_params",
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

    def check_kwargs(self, kwargs: Optional[dict]) -> dict:
        """The one request check: runner kwargs, validated and normalized.

        Every front end calls it before any work runs (the experiment
        subcommands and their ``trace`` twins, and the campaign server
        for each submission), so all of them refuse the same input with
        the same message.  Raises :class:`ConfigError` for a keyword the
        runner does not take, a benchmark outside the experiment's
        universe, a ``jobs`` that is not a non-negative integer, or a
        sampler or sampler parameter the sampler registry refuses, and
        for ``kwargs`` that are no mapping at all.  Returns a copy with
        ``benchmarks`` as a list and ``sampler_params`` coerced to their
        declared types.
        """
        if kwargs is not None and not isinstance(kwargs, dict):
            raise ConfigError(
                f"kwargs must be a mapping of runner keywords, got {kwargs!r}"
            )
        kwargs = dict(kwargs or {})
        allowed = {"jobs"} if self.supports_jobs else set()
        if self.supports_benchmarks:
            allowed.add("benchmarks")
        if self.benchmark_option is not None:
            allowed.add("benchmark")
        if self.supports_sampler:
            allowed.update(("sampler", "sampler_params"))
        unknown = sorted(set(kwargs) - allowed)
        if unknown:
            raise ConfigError(
                f"experiment {self.name!r} does not take keyword(s) "
                f"{', '.join(unknown)}; allowed: "
                f"{', '.join(sorted(allowed)) or 'none'}"
            )
        benchmarks = kwargs.get("benchmarks")
        if benchmarks is not None:
            if not isinstance(benchmarks, (list, tuple)) or not all(
                isinstance(name, str) for name in benchmarks
            ):
                raise ConfigError(
                    "benchmarks must be a list of benchmark names"
                )
            bad = self.unknown_benchmarks(benchmarks)
            if bad:
                raise ConfigError(f"unknown benchmarks: {', '.join(bad)}")
            kwargs["benchmarks"] = list(benchmarks)
        benchmark = kwargs.get("benchmark")
        if benchmark is not None:
            if not isinstance(benchmark, str):
                raise ConfigError("benchmark must be a string")
            if self.unknown_benchmarks([benchmark]):
                raise ConfigError(f"unknown benchmark: {benchmark}")
        jobs = kwargs.get("jobs")
        if jobs is not None and (
            isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 0
        ):
            raise ConfigError(
                f"jobs must be a non-negative integer, got {jobs!r}"
            )
        sampler_name = kwargs.get("sampler")
        sampler_params = kwargs.get("sampler_params")
        if sampler_name is not None or sampler_params is not None:
            from repro.sampling.registry import get_sampler

            if not isinstance(sampler_name, str):
                raise ConfigError("sampler must be a registered sampler name")
            if sampler_params is not None and not isinstance(
                sampler_params, dict
            ):
                raise ConfigError(
                    "sampler_params must be a mapping of declared parameters"
                )
            coerced = get_sampler(sampler_name).coerce_params(sampler_params)
            if sampler_params is not None:
                kwargs["sampler_params"] = coerced
        return kwargs


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


def result_key_params(experiment: str, kwargs: dict) -> dict:
    """The result cache's parameter document for one experiment run.

    The campaign service keys its dedup on the same document.  ``jobs``
    only changes how work is scheduled, never what is produced
    (submission-order merges keep output byte-identical), so it must not
    fragment the key.
    """
    return {
        "experiment": experiment,
        "kwargs": {k: v for k, v in kwargs.items() if k != "jobs"},
    }


def execute(spec: ExperimentSpec, kwargs: Optional[dict] = None):
    """Run an experiment through the result-level artifact cache.

    With a disk store configured (see
    :func:`repro.experiments.common.configure_cache`), a previously
    serialized result with the same key is deserialized instead of
    re-running the experiment; on a miss the runner executes and its
    payload is persisted.  Unkeyable kwargs (live objects) simply bypass
    the cache.  A runner that raises stores no result; the items its
    fan-outs finished before the failure stay stored, so a rerun
    computes only the rest.
    """
    from repro.experiments.common import get_store

    kwargs = dict(kwargs or {})
    store = get_store()
    params = None
    if store is not None:
        try:
            params = result_key_params(spec.name, kwargs)
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
                return result
    telemetry_count("result.miss", experiment=spec.name)
    with span("experiment.run", experiment=spec.name):
        result = spec.runner(**kwargs)
    if store is not None and params is not None:
        try:
            store.put_json("result", params, result_payload(spec, result))
        except StoreError:
            pass
    return result
