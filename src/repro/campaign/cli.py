"""CLI surface of the campaign service: ``serve`` and ``campaign ...``.

``repro-spec2017 serve`` boots the daemon in the foreground (daemonize
with your init system or ``&``); ``repro-spec2017 campaign submit|
status|watch|cancel|ls|result|shutdown`` is the thin client.  Both
default to the unix socket beside the artifact store, so a client on
the same ``--cache-dir`` finds its server with no configuration.

The ``campaign result`` verb reconstructs the result object from the
stored payload and re-renders/re-serializes it exactly the way a direct
``repro-spec2017 <experiment>`` run would — so a byte comparison of the
two ``--json-out`` files is a meaningful end-to-end integrity check
(CI's service-smoke job does exactly that).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Optional

from repro.errors import (
    CampaignRejectedError,
    CampaignServiceError,
    ConfigError,
    JournalLockedError,
    ProtocolError,
    ReproError,
)

#: Client exit codes beyond the generic 2: distinct so scripts can
#: branch on *why* (retry-later vs give-up-and-investigate).
EXIT_FAILED = 3
EXIT_REJECTED = 4
EXIT_POISONED = 5

__all__ = ["add_campaign_parser", "add_serve_parser", "run_campaign", "run_serve"]


def _add_socket_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--socket", metavar="PATH", default=None,
        help="unix socket of the campaign server (default: "
             "<cache dir>/campaign.sock)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="artifact store directory (default: REPRO_CACHE_DIR or "
             "~/.cache/repro-spec2017)",
    )


def add_serve_parser(sub) -> None:
    serve = sub.add_parser(
        "serve",
        help="run the experiment-campaign service (unix socket)",
    )
    _add_socket_option(serve)
    serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="max concurrently running jobs, one forked process each "
             "(default: 2)",
    )
    serve.add_argument(
        "--resume", action="store_true",
        help="re-adopt in-flight jobs from the server ledger; their "
             "finished items come back from the artifact store",
    )
    serve.add_argument(
        "--heartbeat", type=float, default=1.0, metavar="SECONDS",
        dest="heartbeat_s",
        help="worker liveness beat cadence (default: 1.0)",
    )
    serve.add_argument(
        "--stall-timeout", type=float, default=300.0, metavar="SECONDS",
        dest="stall_timeout_s",
        help="SIGKILL a worker with no heartbeat for this long; "
             "0 disables hang detection (default: 300)",
    )
    serve.add_argument(
        "--max-kills", type=int, default=3, metavar="N",
        dest="max_kills",
        help="dead workers (crash or watchdog kill) before a job is "
             "quarantined as poisoned (default: 3)",
    )
    serve.add_argument(
        "--max-queued", type=int, default=None, metavar="N",
        dest="max_queued",
        help="bound the queue: further submissions get a structured "
             "'rejected' answer (default: unbounded)",
    )
    serve.add_argument(
        "--ready-file", metavar="FILE", default=None,
        help="write {socket, pid} as JSON once listening "
             "(for scripts that must wait for boot)",
    )
    serve.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="write the server's telemetry summary manifest on exit",
    )


def add_campaign_parser(sub) -> None:
    campaign = sub.add_parser(
        "campaign",
        help="client for a running campaign server "
             "(submit/status/watch/cancel/ls/result/shutdown)",
    )
    verbs = campaign.add_subparsers(dest="campaign_command", required=True)

    submit = verbs.add_parser("submit", help="submit an experiment run")
    _add_socket_option(submit)
    submit.add_argument("experiment", help="registered experiment name")
    submit.add_argument(
        "--benchmarks", nargs="+", metavar="NAME", default=None,
        help="subset of benchmarks (suite-wide experiments)",
    )
    submit.add_argument(
        "--benchmark", default=None,
        help="benchmark to sweep (single-benchmark experiments)",
    )
    submit.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes inside the job's own fan-out",
    )
    submit.add_argument(
        "--sampler", metavar="NAME[:k=v,...]", default=None,
        help="sampling methodology for experiments that support one "
             "(validated server-side against the sampler registry)",
    )
    submit.add_argument(
        "--id-only", action="store_true",
        help="print only the job id (for scripting)",
    )

    status = verbs.add_parser(
        "status", help="one job's status, or the server's without a job"
    )
    _add_socket_option(status)
    status.add_argument("job", nargs="?", default=None, help="job id")
    status.add_argument(
        "--wait", action="store_true",
        help="block until the job reaches a terminal state",
    )
    status.add_argument(
        "--wait-timeout", type=float, default=None, metavar="SECONDS",
        help="give up waiting after this long",
    )
    status.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the raw status document as JSON",
    )

    watch = verbs.add_parser(
        "watch", help="stream a job's live progress events"
    )
    _add_socket_option(watch)
    watch.add_argument("job", help="job id")

    cancel = verbs.add_parser("cancel", help="cancel a queued/running job")
    _add_socket_option(cancel)
    cancel.add_argument("job", help="job id")

    ls = verbs.add_parser("ls", help="list all jobs the server knows")
    _add_socket_option(ls)

    result = verbs.add_parser(
        "result", help="render a done job's stored result"
    )
    _add_socket_option(result)
    result.add_argument("job", help="job id")
    result.add_argument(
        "--json-out", metavar="FILE", default=None,
        help="also write the result payload as JSON (byte-identical to "
             "a direct run's --json-out)",
    )

    shutdown = verbs.add_parser(
        "shutdown", help="ask the server to drain and exit"
    )
    _add_socket_option(shutdown)


def _socket_path(args):
    from repro.campaign.client import default_socket_path

    return args.socket if args.socket else default_socket_path(args.cache_dir)


def run_serve(args) -> int:
    from repro.campaign.server import CampaignServer
    from repro.campaign.supervision import SupervisionPolicy
    from repro.experiments.common import configure_cache, get_store, set_store

    try:
        supervision = SupervisionPolicy(
            heartbeat_s=args.heartbeat_s,
            stall_timeout_s=args.stall_timeout_s,
            max_kills=args.max_kills,
            max_queued=args.max_queued,
        )
    except ConfigError as exc:
        print(f"invalid serve options: {exc}", file=sys.stderr)
        return 2
    previous = configure_cache(args.cache_dir)
    try:
        server = CampaignServer(
            get_store(),
            _socket_path(args),
            workers=args.workers,
            resume=args.resume,
            metrics_out=args.metrics_out,
            supervision=supervision,
        )
        try:
            server.boot()
        except JournalLockedError as exc:
            print(
                f"another campaign server owns this store: {exc}",
                file=sys.stderr,
            )
            return 2
        adopted = server._adopted
        if adopted:
            print(
                f"re-adopted {adopted} in-flight job(s) from the ledger",
                file=sys.stderr,
            )
        print(
            f"campaign server listening on {server.socket_path}",
            file=sys.stderr,
        )
        return asyncio.run(server.run(ready_file=args.ready_file))
    except ReproError as exc:
        print(f"serve failed: {exc}", file=sys.stderr)
        return 2
    finally:
        set_store(previous)


def _print_job(job: dict, as_json: bool = False) -> None:
    if as_json:
        print(json.dumps(job, indent=2, sort_keys=True))
        return
    line = f"{job['id']}  {job['experiment']}  {job['state']}"
    if job.get("cached"):
        line += "  (from store)"
    print(line)
    if job.get("total_items"):
        print(
            f"  items: {job.get('completed_items', 0)} of "
            f"{job['total_items']} completed"
        )
    if job.get("reused_items"):
        print(f"  reused: {job['reused_items']} stored item(s)")
    if job.get("error"):
        print(f"  error: {job['error']}", file=sys.stderr)


def _run_submit(client, args) -> int:
    kwargs = {}
    if args.benchmarks is not None:
        kwargs["benchmarks"] = args.benchmarks
    if args.benchmark is not None:
        kwargs["benchmark"] = args.benchmark
    if args.jobs is not None:
        kwargs["jobs"] = args.jobs
    if args.sampler:
        from repro.sampling.registry import sampler_kwargs

        kwargs.update(sampler_kwargs(args.sampler))
    outcome = client.submit(args.experiment, kwargs)
    job = outcome["job"]
    if args.id_only:
        print(job["id"])
        return 0
    if outcome.get("deduped"):
        print(
            f"deduplicated: identical submission is {job['id']} "
            f"({job['state']})"
        )
    else:
        print(f"submitted {job['id']} ({job['experiment']})")
    return 0


def _run_status(client, args) -> int:
    if args.job is None:
        server = client.status()
        print(json.dumps(server, indent=2, sort_keys=True))
        return 0
    if args.wait:
        job = client.wait(args.job, timeout_s=args.wait_timeout)
    else:
        job = client.status(args.job)
    _print_job(job, as_json=args.as_json)
    if job["state"] == "failed":
        return EXIT_FAILED
    if job["state"] == "poisoned":
        return EXIT_POISONED
    return 0


def _run_watch(client, args) -> int:
    final_state = None
    for event in client.watch(args.job):
        kind = event.get("event")
        if kind == "state":
            job = event.get("job", {})
            print(f"{args.job}: {job.get('state')}")
        elif kind == "progress":
            tags = event.get("tags") or {}
            detail = "".join(
                f" {k}={v}" for k, v in sorted(tags.items())
            )
            print(f"{args.job}: {event.get('counter')}{detail}")
        elif kind == "reconnect":
            print(
                f"{args.job}: stream dropped; reconnected "
                f"(attempt {event.get('attempt')})",
                file=sys.stderr,
            )
        elif kind == "end":
            final_state = event.get("state")
            print(f"{args.job}: finished ({final_state})")
    if final_state == "failed":
        return EXIT_FAILED
    if final_state == "poisoned":
        return EXIT_POISONED
    return 0


def _run_result(client, args) -> int:
    from repro.experiments.registry import (
        get_spec,
        result_from_payload,
        write_result,
    )

    job = client.status(args.job)
    payload = client.result(args.job)
    spec = get_spec(job["experiment"])
    result = result_from_payload(spec, payload)
    print(spec.renderer(result))
    if args.json_out:
        write_result(args.json_out, spec, result)
        print(f"result payload written to {args.json_out}", file=sys.stderr)
    return 0


def run_campaign(args) -> int:
    from repro.campaign.client import CampaignClient

    client = CampaignClient(_socket_path(args))
    try:
        if args.campaign_command == "submit":
            return _run_submit(client, args)
        if args.campaign_command == "status":
            return _run_status(client, args)
        if args.campaign_command == "watch":
            return _run_watch(client, args)
        if args.campaign_command == "cancel":
            job = client.cancel(args.job)
            print(f"{job['id']}: {job['state']}")
            return 0
        if args.campaign_command == "ls":
            jobs = client.ls()
            if not jobs:
                print("no jobs")
                return 0
            for job in jobs:
                flag = " (from store)" if job.get("cached") else ""
                print(
                    f"{job['id']}  {job['state']:9s}  "
                    f"{job['experiment']}{flag}"
                )
            return 0
        if args.campaign_command == "result":
            return _run_result(client, args)
        if args.campaign_command == "shutdown":
            client.shutdown()
            print("server draining", file=sys.stderr)
            return 0
        raise ConfigError(
            f"unknown campaign command {args.campaign_command!r}"
        )
    except CampaignRejectedError as exc:
        # Load shed, not an error in the request: distinct exit code so
        # submit loops can back off and retry instead of aborting.
        print(f"campaign {args.campaign_command} rejected: {exc}",
              file=sys.stderr)
        return EXIT_REJECTED
    except (CampaignServiceError, ProtocolError, ConfigError) as exc:
        print(f"campaign {args.campaign_command} failed: {exc}",
              file=sys.stderr)
        return 2
