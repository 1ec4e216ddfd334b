"""The experiment-campaign service: a daemonized scheduler for the CLI.

``repro-spec2017 serve`` turns the one-shot CLI into a long-lived
service: clients submit registry experiments over a unix socket, a FIFO
scheduler fans them onto a bounded pool of forked worker processes,
identical submissions dedup against live jobs and the artifact store
(the one record of finished work: a job is ``done`` only when its
result is stored), ``watch`` streams live per-item progress, and an
fsync'd ledger plus the store's per-item artifacts make the whole thing
survive SIGKILL: reboot with ``--resume`` and in-flight jobs re-adopt
without recomputing their stored items.

Module map — :mod:`protocol` (the ``repro-campaign-v1`` wire frames),
:mod:`jobs` (validation, states, dedup keys), :mod:`ledger` (crash-safe
job log), :mod:`worker` (the forked child + progress streaming +
heartbeat pump), :mod:`supervision` (hang detection, kill budgets,
admission control), :mod:`server` (the asyncio event loop, its queue
and the dedup rule), :mod:`client` (the sync client the ``campaign``
subcommand drives), :mod:`cli` (argparse wiring).
"""

from __future__ import annotations

from repro.campaign.client import CampaignClient, default_socket_path
from repro.campaign.jobs import Job, job_key, validate_submission
from repro.campaign.protocol import PROTOCOL
from repro.campaign.server import CampaignServer
from repro.campaign.supervision import JobSupervisor, SupervisionPolicy

__all__ = [
    "CampaignClient",
    "CampaignServer",
    "Job",
    "JobSupervisor",
    "PROTOCOL",
    "SupervisionPolicy",
    "default_socket_path",
    "job_key",
    "validate_submission",
]
