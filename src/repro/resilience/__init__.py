"""Failing loudly, and testing that every failure path recovers.

The source paper reports Table II over the 29 SPEC CPU2017 workloads
whose checkpointing completed.  Here those 29 are the registered suite,
so a run needs no policy that drops, retries or times out items: every
fan-out (:func:`repro.parallel.parallel_map`) runs each item once and
fails on its first failed item.  Losing nothing already computed when a
long run dies is the artifact store's job: every finished fan-out item
is stored as it completes (:func:`repro.experiments.common.map_items`),
so a rerun computes only what never finished.  What this package adds:

* :mod:`repro.resilience.faults` — a deterministic fault-injection
  harness (:class:`FaultPlan`, ``REPRO_INJECT_FAULTS``) so every
  recovery path is testable in CI without real crashes;
* :mod:`repro.resilience.policy` — the one retry backoff, a fixed
  doubling schedule (:data:`BACKOFF_SCHEDULE_S`) that
  :func:`backoff_sleep` waits out; the campaign client's ``watch``
  reconnect sleeps on it.

The campaign server's crash-safe ledger is
:mod:`repro.campaign.ledger`.
"""

from repro.resilience.faults import (
    FaultClause,
    FaultPlan,
    InjectedFaultError,
    get_plan,
    inject_service_fault,
    parse_spec,
    reset_plan,
    set_plan,
    set_service_context,
    using_plan,
)
from repro.resilience.policy import BACKOFF_SCHEDULE_S, backoff_sleep

__all__ = [
    "BACKOFF_SCHEDULE_S",
    "FaultClause",
    "FaultPlan",
    "InjectedFaultError",
    "backoff_sleep",
    "get_plan",
    "inject_service_fault",
    "parse_spec",
    "reset_plan",
    "set_plan",
    "set_service_context",
    "using_plan",
]
