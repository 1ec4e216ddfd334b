"""Declarative sampler registry: one spec per sampling methodology.

Mirrors :mod:`repro.experiments.registry`: every sampling methodology
registers itself with the :func:`sampler` decorator and the resulting
:class:`SamplerSpec` carries everything the rest of the system needs to
know declaratively —

* how to run it (``func``),
* its tunable parameters (``params``: typed, defaulted, validated at the
  CLI boundary, folded into result-cache keys),
* which feature families it consumes (``requires``: the feature bundle
  is collected to order, so BBV-only samplers never pay for memory
  profiling),
* which paper introduced it (``paper_ref``).

Every sampler is one function ``(features, budget, ctx, **params) ->
SamplerResult`` where ``features`` is a
:class:`~repro.sampling.features.SliceFeatures` bundle, ``budget`` is
the maximum number of simulation points, and ``ctx`` is the
:class:`SamplerContext` carrying the *only* legal randomness source (a
seeded :class:`numpy.random.Generator`; lint rule REP019 rejects global
RNG reads inside ``@sampler`` bodies).

:func:`run_sampler` is the single dispatch point: it builds the context,
wraps the call in a ``sampler.run`` telemetry span with
``sampler.points``/``sampler.budget`` counters, and enforces the
registry-wide output contract (weights sum to 1, indices unique,
in-range, and ascending) before any pinball machinery sees the points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError, SimPointError
from repro.sampling.features import FEATURE_BBV, KNOWN_FEATURES, SliceFeatures
from repro.simpoint.simpoints import SimPointResult, SimulationPoint
from repro.telemetry.recorder import count as telemetry_count
from repro.telemetry.recorder import span

__all__ = [
    "SamplerContext",
    "SamplerParam",
    "SamplerResult",
    "SamplerSpec",
    "all_samplers",
    "get_sampler",
    "parse_sampler_arg",
    "run_sampler",
    "sampler",
    "sampler_kwargs",
    "sampler_names",
]


@dataclass(frozen=True)
class SamplerParam:
    """One tunable parameter of a sampler.

    Attributes:
        name: Keyword name (also the CLI ``--sampler name:key=value`` key).
        type: Value type; CLI strings are coerced through it.
        default: Default value when the parameter is not given.
        help: One-line description for ``--help`` and docs.
    """

    name: str
    type: type
    default: object
    help: str = ""


@dataclass(frozen=True)
class SamplerContext:
    """Per-run context handed to every sampler invocation.

    Attributes:
        seed: The workload's determinism seed.
        rng: A generator freshly seeded from ``seed`` — the only
            randomness source a sampler may use (REP019).
    """

    seed: int
    rng: np.random.Generator


@dataclass
class SamplerResult:
    """What every sampler returns through the registry.

    Attributes:
        sampler: Registry name of the method that produced the points.
        points: Selected points in ascending ``slice_index`` order (the
            registry contract; :func:`run_sampler` enforces it).
        analysis: The full :class:`SimPointResult` when the method is
            clustering-based (SimPoint, MAV); carries labels, BIC trace
            and per-cluster variances for the analysis experiments.
    """

    sampler: str
    points: List[SimulationPoint]
    analysis: Optional[SimPointResult] = None

    @property
    def num_points(self) -> int:
        """Number of selected simulation points."""
        return len(self.points)

    def replay_points(self) -> List[SimulationPoint]:
        """Points in replay order.

        Clustering-based results replay in cluster order — the ordering
        the pre-registry pipeline used — so regional pinball sets,
        measurement cache keys, and weighted float reductions stay
        byte-identical for the migrated SimPoint path.  Everything else
        replays in slice order.
        """
        if self.analysis is not None:
            return list(self.analysis.points)
        return list(self.points)

    def weights(self) -> np.ndarray:
        """Point weights in point order (sum to 1)."""
        return np.asarray([p.weight for p in self.points])


@dataclass(frozen=True)
class SamplerSpec:
    """Everything the system knows about one registered sampler."""

    name: str
    func: Callable = field(repr=False)
    params: Tuple[SamplerParam, ...] = ()
    requires: Tuple[str, ...] = (FEATURE_BBV,)
    paper_ref: str = ""
    summary: str = ""

    def param(self, name: str) -> SamplerParam:
        """The parameter named ``name``."""
        for param in self.params:
            if param.name == name:
                return param
        known = ", ".join(p.name for p in self.params) or "none"
        raise ConfigError(
            f"sampler {self.name!r} has no parameter {name!r}; "
            f"known: {known}"
        )

    def coerce_params(self, raw: Optional[Dict]) -> Dict:
        """Validate and type-coerce a raw parameter mapping.

        Unknown names and values that do not parse raise
        :class:`ConfigError` (the CLI surfaces these before any work
        runs).  Returns a plain dict of only the explicitly-given
        parameters, so default-valued runs share cache keys with runs
        that never mentioned the parameter.
        """
        coerced: Dict = {}
        for name, value in (raw or {}).items():
            param = self.param(name)
            try:
                coerced[name] = param.type(value)
            except (TypeError, ValueError):
                raise ConfigError(
                    f"sampler {self.name!r} parameter {name!r} expects "
                    f"{param.type.__name__}, got {value!r}"
                ) from None
        return coerced


_REGISTRY: Dict[str, SamplerSpec] = {}


def sampler(
    name: str,
    *,
    params: Tuple[SamplerParam, ...] = (),
    requires: Tuple[str, ...] = (FEATURE_BBV,),
    paper_ref: str = "",
    summary: str = "",
) -> Callable:
    """Register the decorated function as a sampling methodology."""
    unknown = sorted(set(requires) - set(KNOWN_FEATURES))
    if unknown:
        raise ConfigError(
            f"sampler {name!r} requires unknown feature(s): "
            f"{', '.join(unknown)}"
        )

    def decorate(func: Callable) -> Callable:
        if name in _REGISTRY:
            raise ConfigError(f"sampler {name!r} is already registered")
        _REGISTRY[name] = SamplerSpec(
            name=name, func=func, params=tuple(params),
            requires=tuple(requires), paper_ref=paper_ref, summary=summary,
        )
        return func

    return decorate


def _populate() -> None:
    # The methods register on import; the package __init__ imports the
    # module, so one import fills the registry.
    import repro.sampling.methods  # noqa: F401


def all_samplers() -> List[SamplerSpec]:
    """Every registered sampler, sorted by name."""
    _populate()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def sampler_names() -> List[str]:
    """Registered sampler names, sorted."""
    _populate()
    return sorted(_REGISTRY)


def get_sampler(name: str) -> SamplerSpec:
    """The spec registered under ``name``."""
    _populate()
    spec = _REGISTRY.get(name)
    if spec is None:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigError(f"unknown sampler {name!r}; known: {known}")
    return spec


def parse_sampler_arg(arg: str) -> Tuple[str, Dict]:
    """Parse and validate a ``NAME[:k=v,...]`` CLI argument.

    Returns ``(name, coerced_params)``; raises :class:`ConfigError` for
    an unknown sampler, an unknown parameter, or an uncoercible value —
    all before any pipeline work starts.
    """
    name, _, tail = arg.partition(":")
    spec = get_sampler(name)
    raw: Dict[str, str] = {}
    if tail:
        for item in tail.split(","):
            key, sep, value = item.partition("=")
            if not sep or not key:
                raise ConfigError(
                    f"malformed sampler parameter {item!r}; "
                    "expected NAME:key=value[,key=value...]"
                )
            raw[key] = value
    return name, spec.coerce_params(raw)


def sampler_kwargs(arg: str) -> Dict:
    """Runner kwargs for a ``--sampler NAME[:k=v,...]`` option.

    The one ``--sampler`` parse of both CLIs: ``{"sampler": name}``,
    plus the coerced ``sampler_params`` when any parameter is given (a
    run that gives none keys like one that never mentions them).
    Raises :class:`ConfigError` ("invalid sampler: ...").
    """
    try:
        name, params = parse_sampler_arg(arg)
    except ConfigError as exc:
        raise ConfigError(f"invalid sampler: {exc}") from exc
    kwargs: Dict = {"sampler": name}
    if params:
        kwargs["sampler_params"] = params
    return kwargs


def _check_contract(
    spec: SamplerSpec, result: SamplerResult, features: SliceFeatures
) -> None:
    """Enforce the registry-wide output contract on one result."""
    points = result.points
    if not points:
        raise SimPointError(f"sampler {spec.name!r} selected no points")
    indices = [p.slice_index for p in points]
    if any(not 0 <= i < features.num_slices for i in indices):
        raise SimPointError(
            f"sampler {spec.name!r} selected out-of-range slices"
        )
    if any(b <= a for a, b in zip(indices, indices[1:])):
        raise SimPointError(
            f"sampler {spec.name!r} returned unsorted or duplicate "
            "slice indices"
        )
    total = float(sum(p.weight for p in points))
    if abs(total - 1.0) > 1e-9:
        raise SimPointError(
            f"sampler {spec.name!r} weights sum to {total}, expected 1.0"
        )


def run_sampler(
    spec_or_name,
    features: SliceFeatures,
    budget: int,
    params: Optional[Dict] = None,
    **extra,
) -> SamplerResult:
    """Run one registered sampler over a feature bundle.

    Args:
        spec_or_name: A :class:`SamplerSpec` or registry name.
        features: The collected :class:`SliceFeatures`.
        budget: Maximum number of simulation points; clamped to the
            slice count (mirroring SimPoint's MaxK-vs-n cap).
        params: Declared-parameter overrides (already coerced, e.g. by
            :func:`parse_sampler_arg`).
        **extra: Undeclared keyword passthrough for live objects (the
            pipeline hands the SimPoint sampler a pre-configured
            analysis object this way); never CLI-reachable.

    Returns:
        The validated :class:`SamplerResult`.
    """
    spec = (
        spec_or_name if isinstance(spec_or_name, SamplerSpec)
        else get_sampler(spec_or_name)
    )
    if budget < 1:
        raise SimPointError("sampler budget must be at least 1")
    budget = min(int(budget), features.num_slices)
    kwargs = dict(spec.coerce_params(params))
    kwargs.update(extra)
    ctx = SamplerContext(
        seed=features.seed, rng=np.random.default_rng(features.seed)
    )
    with span(
        "sampler.run", sampler=spec.name, benchmark=features.benchmark
    ):
        result = spec.func(features, budget, ctx, **kwargs)
    _check_contract(spec, result, features)
    telemetry_count("sampler.budget", budget, sampler=spec.name)
    telemetry_count("sampler.points", result.num_points, sampler=spec.name)
    return result
