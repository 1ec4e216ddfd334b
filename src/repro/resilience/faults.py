"""Deterministic fault injection for testing every recovery path.

A :class:`FaultPlan` is parsed from a small spec grammar and injected
into the worker dispatch and artifact-store write paths.  Which item or
write gets hit is a pure function of the plan (seed, item index, write
ordinal), never of host entropy, so a failing recovery path reproduces
exactly under ``pytest -m resilience`` and in the CI ``faults`` job.

Spec grammar (clauses joined by ``;``, options by ``:``)::

    kind[:option=value]...

    crash:items=2             # raise in the worker for item 2
    crash:every=3             # ... for every third item (2, 5, 8, ...)
    crash:p=0.2:seed=7        # ... for a seeded 20% of items
    poolcrash:items=0         # os._exit in the worker: BrokenProcessPool
    truncate:every=7          # write half of every 7th store artifact
    garbage:every=11          # write checksum-garbage bytes instead
    enospc:every=13           # raise OSError(ENOSPC) on the write
    truncate:kinds=metrics    # only hit this artifact kind

Worker faults (``crash``/``poolcrash``) trigger by item index; store
faults (``truncate``/``garbage``/``enospc``) trigger by a
per-artifact-kind write ordinal, with ``every=N`` hitting ordinals
N-1, 2N-1, ... so the first writes of a run stay clean.

Service-level faults (the campaign chaos harness)::

    workerkill:items=4        # SIGKILL the campaign worker child
    workerhang:items=1:gen=0  # SIGSTOP it (beats stop; watchdog fires)
    connreset:every=2         # drop every 2nd watch stream mid-events
    ledgertear:every=3        # write a torn decoy line into the journal
    diskfull:every=1          # free-disk probe reports zero bytes free

``workerkill``/``workerhang`` ride the worker dispatch hook but only
ever fire inside a process marked as a *service worker*
(:func:`set_service_context`, called by the campaign child) — a plain
CLI run with the same plan in its environment is never killed.  The
``gen=N`` option matches the job's kill count, so a clause can wedge a
job's first run (``gen=0``) and let the requeued run through — the
deterministic kill→requeue→complete cycle the chaos smoke asserts.
``connreset``/``ledgertear``/``diskfull`` trigger by a per-point
ordinal via :func:`inject_service_fault`, like store faults.

The active plan lives in a module-level slot like the telemetry
recorder: explicit :func:`set_plan`/:func:`using_plan`, or lazily from
the ``REPRO_INJECT_FAULTS`` environment variable (the CI ``faults`` job
sets it to the ``ci-default`` preset; the CLI parses it once at start-up
and refuses a malformed one).  ``None`` means no injection and costs one
global load per hook.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import os
import signal
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigError
from repro.telemetry.recorder import count as telemetry_count

__all__ = [
    "FaultClause",
    "FaultPlan",
    "InjectedFaultError",
    "PRESETS",
    "SERVICE_FAULT_KINDS",
    "STORE_FAULT_KINDS",
    "WORKER_FAULT_KINDS",
    "get_plan",
    "inject_service_fault",
    "inject_store_fault",
    "inject_worker_fault",
    "parse_spec",
    "reset_plan",
    "service_generation",
    "set_plan",
    "set_service_context",
    "using_plan",
]

#: Faults raised inside (or instead of) the worker callable.
#: ``workerkill``/``workerhang`` only ever fire in a process marked as
#: a campaign service worker (see :func:`set_service_context`).
WORKER_FAULT_KINDS = ("crash", "poolcrash", "workerkill", "workerhang")

#: Faults applied to artifact-store writes.
STORE_FAULT_KINDS = ("truncate", "garbage", "enospc")

#: Faults applied at campaign-service hook points, by per-point ordinal.
SERVICE_FAULT_KINDS = ("connreset", "ledgertear", "diskfull")

_ALL_KINDS = WORKER_FAULT_KINDS + STORE_FAULT_KINDS + SERVICE_FAULT_KINDS

#: Named plans; ``ci-default`` corrupts only the self-healing artifact
#: kinds (metrics, pinpoints and item recompute transparently on a
#: corrupt read), sparsely enough that small unit-test write sequences
#: stay clean.
#: ``ci-chaos`` is the campaign chaos-smoke plan: wedge every job's
#: first run at item 1 (the watchdog must kill + requeue it), SIGKILL
#: any run that reaches item 4 (only jobs wide enough to get there —
#: the designated poison job — so they exhaust the kill budget), tear a
#: decoy ledger line every 3rd append, and drop every 2nd watch stream.
PRESETS = {
    "ci-default": (
        "truncate:every=7:kinds=metrics,pinpoints,item;"
        "garbage:every=11:kinds=metrics,pinpoints,item;"
        "enospc:every=13:kinds=metrics,pinpoints,item"
    ),
    "ci-chaos": (
        "workerhang:items=1:gen=0;"
        "workerkill:items=4;"
        "ledgertear:every=3;"
        "connreset:every=2"
    ),
}


class InjectedFaultError(RuntimeError):
    """An artificial worker failure raised by a ``crash`` clause.

    Deliberately *not* a :class:`~repro.errors.ReproError`: injected
    faults simulate unexpected crashes, so nothing in the library may
    catch them as an anticipated error class.
    """


@dataclass(frozen=True)
class FaultClause:
    """One parsed clause of a fault spec (see module docstring)."""

    kind: str
    items: Optional[Tuple[int, ...]] = None
    every: Optional[int] = None
    probability: Optional[float] = None
    seed: int = 0
    kinds: Optional[Tuple[str, ...]] = None
    generation: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in _ALL_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; expected one of: "
                + ", ".join(_ALL_KINDS)
            )
        if self.every is not None and self.every < 1:
            raise ConfigError(f"fault every= must be >= 1, got {self.every!r}")
        if self.probability is not None and not 0 <= self.probability <= 1:
            raise ConfigError(
                f"fault p= must be within [0, 1], got {self.probability!r}"
            )
        if self.items is not None and any(i < 0 for i in self.items):
            raise ConfigError("fault items= indices must be >= 0")
        if self.generation is not None and self.generation < 0:
            raise ConfigError(
                f"fault gen= must be >= 0, got {self.generation!r}"
            )

    def triggers(self, index: int) -> bool:
        """Whether this clause fires for item/write ``index``."""
        if self.items is not None:
            return index in self.items
        if self.every is not None:
            return index % self.every == self.every - 1
        if self.probability is not None:
            token = f"{self.seed}:{self.kind}:{index}".encode("ascii")
            digest = hashlib.sha256(token).hexdigest()
            unit = int(digest[:16], 16) / float(1 << 64)
            return unit < self.probability
        return True


class FaultPlan:
    """A parsed fault-injection plan: an ordered set of clauses.

    Instances pickle with the plan's clauses *and* the originating
    process id, so a ``poolcrash`` clause can tell a forked worker
    (``os._exit`` → ``BrokenProcessPool``) apart from the driving
    process, which it must never kill.

    Store-fault triggering keeps one write ordinal per artifact kind in
    this process; :func:`reset_plan` in the test harness gives every
    test a fresh counter sequence.
    """

    def __init__(self, clauses, spec: str = "") -> None:
        self.clauses: Tuple[FaultClause, ...] = tuple(clauses)
        self.spec = spec
        self.origin_pid = os.getpid()
        self._write_ordinals: Dict[str, int] = {}
        self._service_ordinals: Dict[str, int] = {}

    def worker_clause(self, index: int) -> Optional[FaultClause]:
        """The first worker-fault clause firing for this item, if any."""
        for clause in self.clauses:
            if clause.kind not in WORKER_FAULT_KINDS:
                continue
            if (
                clause.generation is not None
                and clause.generation != _SERVICE["generation"]
            ):
                continue
            if clause.triggers(index):
                return clause
        return None

    def service_clause(self, point: str) -> Optional[FaultClause]:
        """The first service-fault clause firing at this hook point.

        Advances the per-point ordinal whether or not a clause fires,
        so trigger positions depend only on how many times this process
        hit the point (``connreset:every=2`` drops the 2nd, 4th, ...
        watch stream deterministically).
        """
        ordinal = self._service_ordinals.get(point, 0)
        self._service_ordinals[point] = ordinal + 1
        for clause in self.clauses:
            if clause.kind != point:
                continue
            if clause.triggers(ordinal):
                return clause
        return None

    def store_clause(self, artifact_kind: str) -> Optional[FaultClause]:
        """The first store-fault clause firing for this write, if any.

        Advances the per-kind write ordinal whether or not a clause
        fires, so trigger positions depend only on how many artifacts of
        that kind this process wrote.
        """
        ordinal = self._write_ordinals.get(artifact_kind, 0)
        self._write_ordinals[artifact_kind] = ordinal + 1
        for clause in self.clauses:
            if clause.kind not in STORE_FAULT_KINDS:
                continue
            if clause.kinds is not None and artifact_kind not in clause.kinds:
                continue
            if clause.triggers(ordinal):
                return clause
        return None


def _parse_clause(raw: str) -> FaultClause:
    parts = [part.strip() for part in raw.split(":")]
    kind = parts[0]
    options: Dict[str, object] = {}
    converters = {
        "items": lambda v: tuple(int(x) for x in v.split(",")),
        "every": int,
        "p": float,
        "seed": int,
        "kinds": lambda v: tuple(x.strip() for x in v.split(",")),
        "gen": int,
    }
    renames = {"p": "probability", "gen": "generation"}
    for part in parts[1:]:
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep or key not in converters:
            known = ", ".join(sorted(converters))
            raise ConfigError(
                f"bad fault option {part!r} in clause {raw!r}; "
                f"expected key=value with key in: {known}"
            )
        try:
            options[renames.get(key, key)] = converters[key](value.strip())
        except ValueError as exc:
            raise ConfigError(
                f"bad fault option value in {part!r}: {exc}"
            ) from exc
    return FaultClause(kind=kind, **options)


def parse_spec(spec: str) -> FaultPlan:
    """Parse a fault spec (or the name of a preset) into a plan."""
    text = PRESETS.get(spec.strip(), spec).strip()
    clauses: List[FaultClause] = []
    for raw in text.split(";"):
        raw = raw.strip()
        if raw:
            clauses.append(_parse_clause(raw))
    if not clauses:
        raise ConfigError("empty fault-injection spec")
    return FaultPlan(clauses, spec=text)


# -- service-worker context --------------------------------------------

#: Whether this process is a campaign service worker, and which run
#: generation of its job it is (the job's kill count at fork time).
#: ``workerkill``/``workerhang`` clauses consult both — they simulate a
#: dying *service* worker and must never touch a user's CLI process.
_SERVICE = {"worker": False, "generation": 0}


def set_service_context(worker: bool, generation: int = 0) -> None:
    """Mark this process as a campaign service worker (or unmark it).

    Called by the campaign child right after the fork; ``generation``
    is the job's kill count, matched by ``gen=N`` clause options.
    """
    _SERVICE["worker"] = bool(worker)
    _SERVICE["generation"] = int(generation)


def service_generation() -> int:
    """The current service-worker run generation (0 outside workers)."""
    return int(_SERVICE["generation"])


# -- the active-plan slot ----------------------------------------------

_UNSET = object()
_PLAN = _UNSET


def get_plan() -> Optional[FaultPlan]:
    """The active plan: explicitly set, or from ``REPRO_INJECT_FAULTS``."""
    global _PLAN
    if _PLAN is _UNSET:
        spec = os.environ.get("REPRO_INJECT_FAULTS", "").strip()
        _PLAN = parse_spec(spec) if spec else None
    return _PLAN


def set_plan(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install (or clear, with None) the plan; returns the previous one."""
    global _PLAN
    previous = None if _PLAN is _UNSET else _PLAN
    _PLAN = plan
    return previous


def reset_plan() -> None:
    """Forget any plan *and* re-arm the environment lookup (tests)."""
    global _PLAN
    _PLAN = _UNSET


@contextlib.contextmanager
def using_plan(plan: Optional[FaultPlan]) -> Iterator[Optional[FaultPlan]]:
    """Scoped :func:`set_plan`; restores the previous plan on exit."""
    previous = set_plan(plan)
    try:
        yield plan
    finally:
        set_plan(previous)


def inject_worker_fault(index: int) -> None:
    """Dispatch-path hook: fire any worker fault due for this item.

    Called by the parallel runner right before the worker callable, in
    whichever process runs the item (pool worker or, serially, the
    driver).  ``poolcrash`` kills only forked workers — in the driving
    process it is a no-op, so it breaks a pool but never takes down
    the CLI or test process that drives it.
    """
    plan = get_plan()
    if plan is None:
        return
    clause = plan.worker_clause(index)
    if clause is None:
        return
    telemetry_count("fault.injected", kind=clause.kind)
    if clause.kind == "poolcrash":
        if os.getpid() != plan.origin_pid:
            os._exit(3)
        return
    if clause.kind == "workerkill":
        if _SERVICE["worker"]:
            os.kill(os.getpid(), signal.SIGKILL)
        return
    if clause.kind == "workerhang":
        # SIGSTOP freezes every thread of the child, heartbeat pump
        # included — exactly the wedge the server watchdog must detect.
        if _SERVICE["worker"]:
            os.kill(os.getpid(), signal.SIGSTOP)
        return
    raise InjectedFaultError(f"injected crash at item {index}")


def inject_service_fault(point: str) -> bool:
    """Service-path hook: whether the fault at this hook point is due.

    ``point`` is one of :data:`SERVICE_FAULT_KINDS`; the caller owns the
    fault's semantics (the server drops the connection, the journal
    writes a torn decoy line, the disk probe reports zero free bytes) —
    this hook only answers "fire now?" deterministically and counts it.
    """
    plan = get_plan()
    if plan is None:
        return False
    clause = plan.service_clause(point)
    if clause is None:
        return False
    telemetry_count("fault.injected", kind=clause.kind)
    return True


def inject_store_fault(artifact_kind: str, data: bytes) -> bytes:
    """Write-path hook: corrupt or reject this artifact write if due.

    Returns the (possibly corrupted) bytes to write, or raises the
    injected ``OSError`` for ``enospc`` clauses.  Only called by stores
    that opted in (the experiment disk tier), never by raw
    :class:`~repro.parallel.store.ArtifactStore` instances.
    """
    plan = get_plan()
    if plan is None:
        return data
    clause = plan.store_clause(artifact_kind)
    if clause is None:
        return data
    telemetry_count("fault.injected", kind=clause.kind)
    if clause.kind == "enospc":
        raise OSError(
            errno.ENOSPC,
            f"injected ENOSPC writing {artifact_kind} artifact",
        )
    if clause.kind == "truncate":
        return data[: len(data) // 2]
    digest = hashlib.sha256(
        f"{clause.seed}:{artifact_kind}".encode("ascii")
    ).digest()
    repeats = len(data) // len(digest) + 1
    return (digest * repeats)[: len(data)]
