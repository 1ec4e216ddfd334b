"""Failing loudly, resuming cheaply, and testing both.

The source paper reports Table II over the 29 SPEC CPU2017 workloads
whose checkpointing completed.  Here those 29 are the registered suite,
so a run needs no policy that drops, retries or times out items: every
fan-out (:func:`repro.parallel.parallel_map`) runs each item once and
fails on its first failed item.  What a long campaign does need is to
lose nothing it already computed when it dies, and a way to rehearse
every failure path deterministically:

* :mod:`repro.resilience.journal` — an append-only, fsync'd JSONL
  journal of completed items under the artifact store root, so an
  interrupted campaign resumes (``--resume``) without recomputing
  anything already journaled;
* :mod:`repro.resilience.context` — the active :class:`Campaign`
  (journal + item counts), installed in a module-level slot like the
  telemetry recorder;
* :mod:`repro.resilience.faults` — a deterministic fault-injection
  harness (:class:`FaultPlan`, ``REPRO_INJECT_FAULTS``) so every
  recovery path is testable in CI without real crashes;
* :mod:`repro.resilience.policy` — :class:`Retry` and
  :func:`backoff_sleep`, the seeded backoff the campaign client's
  ``watch`` reconnect sleeps on.
"""

from repro.resilience.context import (
    Campaign,
    get_campaign,
    set_campaign,
    using_campaign,
)
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
from repro.resilience.journal import JOURNAL_SCHEMA, CampaignJournal
from repro.resilience.policy import Retry, backoff_sleep

__all__ = [
    "Campaign",
    "CampaignJournal",
    "FaultClause",
    "FaultPlan",
    "InjectedFaultError",
    "JOURNAL_SCHEMA",
    "Retry",
    "backoff_sleep",
    "get_campaign",
    "get_plan",
    "inject_service_fault",
    "parse_spec",
    "reset_plan",
    "set_campaign",
    "set_plan",
    "set_service_context",
    "using_campaign",
    "using_plan",
]
