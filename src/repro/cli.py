"""Command-line interface: regenerate any paper table or figure.

Every experiment subcommand (and its ``trace`` twin) is generated from
the declarative registry in :mod:`repro.experiments.registry` — the CLI
holds no per-experiment tables of its own.

Examples::

    repro-spec2017 list
    repro-spec2017 table2
    repro-spec2017 fig8 --benchmarks 623.xalancbmk_s 505.mcf_r
    repro-spec2017 fig8 --jobs 4          # per-benchmark process fan-out
    repro-spec2017 fig8 --json-out fig8.json
    repro-spec2017 report --out-dir results
    repro-spec2017 cache info             # on-disk artifact store status
    repro-spec2017 cache doctor --prune   # verify checksums, drop quarantine
    REPRO_INJECT_FAULTS=crash:items=1 repro-spec2017 fig8   # test recovery
    repro-spec2017 fig8                   # rerun: finished items are reused
    repro-spec2017 trace fig7 --jobs 2 --trace-out run.trace.json
    repro-spec2017 trace view run.trace.json
    python -m repro fig12
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import List, Optional

from repro import experiments
from repro.experiments.registry import ExperimentSpec, write_result
from repro.workloads.spec2017 import SPEC_CPU2017


def _add_experiment_options(
    exp: argparse.ArgumentParser, spec: ExperimentSpec
) -> None:
    """Wire the options an experiment runner understands onto a parser.

    Shared between the plain per-experiment subcommands and their
    ``trace <experiment>`` twins, so the two never drift apart.
    """
    if spec.supports_benchmarks:
        exp.add_argument(
            "--benchmarks", nargs="+", metavar="NAME",
            help="subset of benchmarks (default: full Table II suite)",
        )
    if spec.supports_jobs:
        exp.add_argument(
            "--jobs", type=int, default=0, metavar="N",
            help="worker processes for the per-benchmark fan-out "
                 "(1 = serial, 0 = one per CPU core; output is "
                 "identical either way)",
        )
    if spec.supports_sampler:
        exp.add_argument(
            "--sampler", metavar="NAME[:k=v,...]", default=None,
            help="sampling methodology from the sampler registry "
                 "(default: simpoint), with optional parameters, e.g. "
                 "'ranked:set_size=7'; see 'samplers' for the registry",
        )
    exp.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="artifact store directory (default: REPRO_CACHE_DIR or "
             "~/.cache/repro-spec2017)",
    )
    exp.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk artifact store for this run",
    )
    if spec.benchmark_option is not None:
        exp.add_argument(
            "--benchmark", default=spec.benchmark_option,
            help=f"benchmark to sweep (paper: {spec.benchmark_option})",
        )
    exp.add_argument(
        "--json-out", metavar="FILE", default=None,
        help="also write the structured result payload as JSON",
    )


def _experiment_kwargs(spec: ExperimentSpec, args) -> Optional[dict]:
    """Translate parsed experiment options into runner kwargs.

    Returns None (after printing to stderr) when a benchmark name does
    not validate against the experiment's universe.
    """
    kwargs = {}
    if spec.supports_benchmarks and args.benchmarks:
        unknown = spec.unknown_benchmarks(args.benchmarks)
        if unknown:
            print(f"unknown benchmarks: {', '.join(unknown)}", file=sys.stderr)
            return None
        kwargs["benchmarks"] = args.benchmarks
    if spec.supports_jobs:
        kwargs["jobs"] = args.jobs
    if spec.supports_sampler and getattr(args, "sampler", None):
        from repro.errors import ConfigError
        from repro.sampling.registry import parse_sampler_arg

        try:
            name, params = parse_sampler_arg(args.sampler)
        except ConfigError as exc:
            print(f"invalid sampler: {exc}", file=sys.stderr)
            return None
        kwargs["sampler"] = name
        if params:
            kwargs["sampler_params"] = params
    if spec.benchmark_option is not None:
        kwargs["benchmark"] = args.benchmark
    return kwargs


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-spec2017",
        description=(
            "Reproduce tables and figures from 'Efficacy of Statistical "
            "Sampling on Contemporary Workloads: The Case of SPEC CPU2017' "
            "(IISWC 2019)."
        ),
    )
    from repro import __version__

    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {__version__}",
    )
    specs = experiments.all_specs()
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list the registered benchmarks")
    sub.add_parser("samplers", help="list the registered samplers")
    checkpoint = sub.add_parser(
        "checkpoint",
        help="run PinPoints and save a pinball archive to a directory",
    )
    checkpoint.add_argument("benchmark", help="benchmark to checkpoint")
    checkpoint.add_argument("--out", required=True, metavar="DIR",
                            help="archive output directory")
    replay = sub.add_parser(
        "replay-archive",
        help="replay an archived pinball set and report its statistics",
    )
    replay.add_argument("directory", help="archive directory to replay")
    cache = sub.add_parser(
        "cache",
        help="inspect or clear the on-disk artifact store",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    for cache_cmd, cache_help in (
        ("info", "show store location, schema, and artifact counts"),
        ("clear", "delete every stored artifact"),
        ("doctor", "verify artifact checksums; quarantine what fails"),
    ):
        cache_cmd_parser = cache_sub.add_parser(cache_cmd, help=cache_help)
        cache_cmd_parser.add_argument(
            "--cache-dir", metavar="DIR", default=None,
            help="store directory (default: REPRO_CACHE_DIR or "
                 "~/.cache/repro-spec2017)",
        )
        if cache_cmd == "doctor":
            cache_cmd_parser.add_argument(
                "--prune", action="store_true",
                help="delete quarantined files after the scan",
            )
    report = sub.add_parser(
        "report",
        help="regenerate rendered tables and JSON payloads for every "
             "experiment",
    )
    report.add_argument(
        "--out-dir", metavar="DIR", default="results",
        help="directory for <experiment>.txt / <experiment>.json "
             "(default: results)",
    )
    report.add_argument(
        "--experiments", nargs="+", metavar="NAME", default=None,
        help="subset of experiments (default: all registered)",
    )
    report.add_argument(
        "--jobs", type=int, default=0, metavar="N",
        help="worker processes for suite-wide experiments (1 = serial, "
             "0 = one per CPU core)",
    )
    report.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="artifact store directory (default: REPRO_CACHE_DIR or "
             "~/.cache/repro-spec2017)",
    )
    report.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk artifact store for this run",
    )
    from repro.campaign.cli import add_campaign_parser, add_serve_parser

    add_serve_parser(sub)
    add_campaign_parser(sub)
    trace = sub.add_parser(
        "trace",
        help="run an experiment with telemetry enabled, or summarize a "
             "trace file",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    view = trace_sub.add_parser(
        "view", help="summarize a trace / summary JSON file"
    )
    view.add_argument("file", help="Chrome trace or summary manifest JSON")
    for spec in specs:
        traced = trace_sub.add_parser(
            spec.name, help=f"regenerate {spec.name} under tracing"
        )
        _add_experiment_options(traced, spec)
        traced.add_argument(
            "--trace-out", metavar="FILE", default=None,
            help="write a Chrome trace-event file (chrome://tracing)",
        )
        traced.add_argument(
            "--events-out", metavar="FILE", default=None,
            help="write the raw span/metric event log as JSONL",
        )
        traced.add_argument(
            "--summary-out", metavar="FILE", default=None,
            help="write the per-run summary manifest as JSON",
        )
    for spec in specs:
        exp = sub.add_parser(spec.name, help=f"regenerate {spec.name}")
        _add_experiment_options(exp, spec)
    return parser


def _run_checkpoint(benchmark: str, out_dir: str) -> int:
    from repro.errors import ReproError
    from repro.pinball.archive import PinballArchive
    from repro.pinpoints import run_pinpoints

    try:
        output = run_pinpoints(benchmark)
    except ReproError as exc:
        print(f"checkpoint failed: {exc}", file=sys.stderr)
        return 2
    archive = PinballArchive.from_pipeline(output)
    path = archive.save(out_dir)
    print(f"archived {output.benchmark}: whole pinball + "
          f"{len(archive.regional)} regional pinballs -> {path}")
    return 0


def _run_replay_archive(directory: str) -> int:
    from repro.errors import ReproError
    from repro.pin import AllCache, LdStMix
    from repro.pinball.archive import PinballArchive
    from repro.pinball.replayer import Replayer
    from repro.stats import weighted_average, weighted_mix

    try:
        archive = PinballArchive.load(directory)
    except ReproError as exc:
        print(f"replay failed: {exc}", file=sys.stderr)
        return 2
    replayer = Replayer(archive.whole.recipe.materialize())
    mixes, weights, rates = [], [], []
    for pinball in archive.regional:
        tools = replayer.replay(pinball, [LdStMix(), AllCache()])
        mixes.append(tools[0].fractions())
        rates.append(tools[1].miss_rate("L3"))
        weights.append(pinball.weight)
    mix = weighted_mix(mixes, weights)
    l3 = weighted_average(rates, weights)
    print(f"replayed {archive.benchmark}: {len(archive.regional)} regional "
          f"pinballs (total weight {archive.total_weight:.3f})")
    print(f"  instruction mix: NO_MEM {mix[0] * 100:.1f}%  MEM_R "
          f"{mix[1] * 100:.1f}%  MEM_W {mix[2] * 100:.1f}%  MEM_RW "
          f"{mix[3] * 100:.1f}%")
    print(f"  weighted L3 miss rate (cold replay): {l3 * 100:.1f}%")
    return 0


def _run_trace_view(path: str) -> int:
    import json

    from repro.errors import ReproError
    from repro.telemetry import render_summary, summarize_payload

    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"cannot read trace file {path}: {exc}", file=sys.stderr)
        return 2
    try:
        manifest = summarize_payload(payload)
    except ReproError as exc:
        print(f"trace view failed: {exc}", file=sys.stderr)
        return 2
    print(render_summary(manifest))
    return 0


def _run_trace(args) -> int:
    if args.trace_command == "view":
        return _run_trace_view(args.file)

    from repro import telemetry

    return _run_experiment(
        args, args.trace_command, recorder=telemetry.TraceRecorder()
    )


def _write_trace(args, recorder) -> None:
    """Print the telemetry summary of a traced run and write its exports."""
    from repro import telemetry

    manifest = telemetry.summarize(
        recorder, wall_time_s=telemetry.wall_time_s()
    )
    print()
    print(telemetry.render_summary(manifest))
    if args.trace_out:
        path = telemetry.write_chrome_trace(
            args.trace_out, recorder, summary=manifest
        )
        print(f"chrome trace written to {path}")
    if args.events_out:
        path = telemetry.write_jsonl(args.events_out, recorder)
        print(f"event log written to {path}")
    if args.summary_out:
        path = telemetry.write_summary(args.summary_out, manifest)
        print(f"summary manifest written to {path}")


def _run_cache(args) -> int:
    from repro.errors import StoreError
    from repro.parallel import ArtifactStore, default_cache_dir

    store = ArtifactStore(args.cache_dir or default_cache_dir())
    if args.cache_command == "info":
        print(store.info().render())
        return 0
    if args.cache_command == "doctor":
        report = store.doctor(prune=args.prune)
        print(report.render())
        return 0 if report.quarantined_now == 0 else 1
    try:
        removed = store.clear()
    except StoreError as exc:
        print(f"cache clear failed: {exc}", file=sys.stderr)
        return 2
    print(f"removed {removed} artifacts from {store.root}")
    return 0


def _run_report(args) -> int:
    import os

    from repro.experiments.common import configure_cache, set_store

    specs = experiments.all_specs()
    if args.experiments is not None:
        known = {spec.name: spec for spec in specs}
        unknown = [name for name in args.experiments if name not in known]
        if unknown:
            print(f"unknown experiments: {', '.join(unknown)}",
                  file=sys.stderr)
            return 2
        specs = [known[name] for name in args.experiments]
    os.makedirs(args.out_dir, exist_ok=True)
    previous = configure_cache(args.cache_dir, enabled=not args.no_cache)
    try:
        for spec in specs:
            kwargs = {"jobs": args.jobs} if spec.supports_jobs else {}
            result = experiments.execute(spec, kwargs)
            txt_path = os.path.join(args.out_dir, f"{spec.name}.txt")
            with open(txt_path, "w", encoding="utf-8") as handle:
                handle.write(spec.renderer(result))
                handle.write("\n")
            json_path = os.path.join(args.out_dir, f"{spec.name}.json")
            write_result(json_path, spec, result)
            print(f"wrote {txt_path} and {json_path}")
    finally:
        set_store(previous)
    return 0


def _run_experiment(args, name: str, recorder=None) -> int:
    """Run experiment ``name`` as the CLI does; traced under ``recorder``."""
    from repro import telemetry
    from repro.experiments.common import configure_cache, set_store

    spec = experiments.get_spec(name)
    kwargs = _experiment_kwargs(spec, args)
    if kwargs is None:
        return 2
    previous = configure_cache(args.cache_dir, enabled=not args.no_cache)
    try:
        trace_scope = (
            telemetry.using_recorder(recorder)
            if recorder is not None else contextlib.nullcontext()
        )
        with trace_scope:
            with telemetry.span("experiment", experiment=spec.name):
                result = experiments.execute(spec, kwargs)
        print(spec.renderer(result))
        if args.json_out:
            write_result(args.json_out, spec, result)
            print(f"result payload written to {args.json_out}",
                  file=sys.stderr)
    finally:
        set_store(previous)
    if recorder is not None:
        _write_trace(args, recorder)
    return 0


def _run_samplers() -> str:
    from repro.sampling.registry import all_samplers

    lines = ["Registered samplers (--sampler NAME[:key=value,...]):"]
    for spec in all_samplers():
        lines.append(f"  {spec.name:12s} {spec.summary}")
        lines.append(f"  {'':12s}   ref: {spec.paper_ref}; "
                     f"features: {', '.join(spec.requires)}")
        for param in spec.params:
            lines.append(
                f"  {'':12s}   {param.name}={param.default!r} "
                f"({param.type.__name__}) — {param.help}"
            )
    return "\n".join(lines)


def _run_list() -> str:
    lines = ["Registered SPEC CPU2017 benchmarks:"]
    for spec_id, d in SPEC_CPU2017.items():
        lines.append(
            f"  {spec_id:18s} {d.suite:3s} {d.variant:5s} "
            f"points={d.num_phases:2d} 90pct={d.num_90pct:2d} "
            f"class={d.memory_class}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    from repro.errors import ConfigError
    from repro.resilience.faults import get_plan

    try:
        get_plan()
    except ConfigError as exc:
        print(f"invalid REPRO_INJECT_FAULTS: {exc}", file=sys.stderr)
        return 2
    if args.command == "list":
        print(_run_list())
        return 0
    if args.command == "samplers":
        print(_run_samplers())
        return 0
    if args.command == "checkpoint":
        return _run_checkpoint(args.benchmark, args.out)
    if args.command == "replay-archive":
        return _run_replay_archive(args.directory)
    if args.command == "cache":
        return _run_cache(args)
    if args.command == "report":
        return _run_report(args)
    if args.command == "trace":
        return _run_trace(args)
    if args.command == "serve":
        from repro.campaign.cli import run_serve

        return run_serve(args)
    if args.command == "campaign":
        from repro.campaign.cli import run_campaign

        return run_campaign(args)
    return _run_experiment(args, args.command)


if __name__ == "__main__":
    sys.exit(main())
