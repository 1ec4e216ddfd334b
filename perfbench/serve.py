"""Start ``repro serve``, optionally timing the server's layers from outside.

Usage, from the checkout root::

    python3 perfbench/serve.py [--trace-dir DIR] -- <repro serve arguments>

Without ``--trace-dir`` this is ``python -m repro serve``.  With it, the
server process wraps the layers of ``layers.TIMED_LAYERS`` and
``layers.SERVER_LAYERS`` and, when it exits, writes its layer totals to
``DIR/server.json`` and the inclusive time of every ``submit`` call,
keyed by the id of the job it answered with, to ``DIR/submits.json``, so
the client can split each hit's latency into server and client time.
Every job process the server forks (and every pool child those fork)
restarts from an empty tracer and writes ``DIR/job-<pid>.json`` when it
exits, so the compute layers of the cold jobs are measured too.
"""

from __future__ import annotations

import argparse
import functools
import json
import multiprocessing.util
import os
import sys
import time
from pathlib import Path

from layers import SERVER_LAYERS, LayerTracer, Patches, install_layers


def _submit_timer(submits: dict):
    """Wrap ``CampaignServer.submit`` to keep each call's inclusive
    milliseconds under the id of the job it answered with."""
    def make(fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.perf_counter_ns()
            outcome = fn(*args, **kwargs)
            elapsed_ms = (time.perf_counter_ns() - start) / 1e6
            submits[outcome["job"]["id"]] = elapsed_ms
            return outcome

        return timed

    return make


def _trace(trace_dir: Path) -> tuple:
    tracer = LayerTracer()
    patches = Patches()
    install_layers(tracer, patches, SERVER_LAYERS)
    submits: dict = {}
    patches.replace("repro.campaign.server", "CampaignServer.submit",
                    _submit_timer(submits))

    def in_forked_child(tracer: LayerTracer) -> None:
        tracer.reset()
        multiprocessing.util.Finalize(
            None, tracer.dump, args=(trace_dir / f"job-{os.getpid()}.json",),
            exitpriority=0)

    multiprocessing.util.register_after_fork(tracer, in_forked_child)
    return tracer, submits


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace-dir", type=Path)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] \
        else args.serve_args
    from repro.cli import main as repro_main

    if args.trace_dir is None:
        return repro_main(["serve", *serve_args])
    args.trace_dir.mkdir(parents=True, exist_ok=True)
    tracer, submits = _trace(args.trace_dir)
    try:
        return repro_main(["serve", *serve_args])
    finally:
        tracer.dump(args.trace_dir / "server.json")
        (args.trace_dir / "submits.json").write_text(
            json.dumps(submits), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
