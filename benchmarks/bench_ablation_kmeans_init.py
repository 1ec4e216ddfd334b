"""Ablation: k-means seeding strategy.

Skew-weighted benchmarks have tiny phases (one or two slices) next to
dominant ones; D^2-sampling (k-means++) and plain random seeding can
leave the tiny phases unseeded, splitting a dominant cluster instead.
Farthest-first (maximin) seeding provably seeds every well-separated
cluster, which is why it is the pipeline default.
"""

from conftest import run_once

from repro.experiments.report import format_table
from repro.pin import BBVProfiler, Engine
from repro.simpoint import SimPointAnalysis
from repro.workloads.spec2017 import build_program, get_descriptor

BENCHMARKS = ["503.bwaves_r", "507.cactuBSSN_r", "519.lbm_r", "602.gcc_s",
              "541.leela_r"]
INITS = ("maximin", "k-means++", "random")


def sweep():
    matrices = {}
    for name in BENCHMARKS:
        program = build_program(name)
        profiler = BBVProfiler(program.block_sizes)
        Engine([profiler]).run(program.iter_headers())
        matrices[name] = (profiler.matrix(), profiler.slice_indices())

    errors = {}
    for init in INITS:
        per_benchmark = []
        for name in BENCHMARKS:
            descriptor = get_descriptor(name)
            matrix, indices = matrices[name]
            analysis = SimPointAnalysis(
                seed=descriptor.seed, kmeans_init=init
            )
            result = analysis.analyze(matrix, indices)
            per_benchmark.append(abs(result.k - descriptor.num_phases))
        errors[init] = per_benchmark
    return errors


def test_ablation_kmeans_init(benchmark):
    errors = run_once(benchmark, sweep)
    rows = [
        (init, *errs, f"{sum(errs) / len(errs):.2f}")
        for init, errs in errors.items()
    ]
    print()
    print(format_table(
        ["init", *[b.split(".")[1] for b in BENCHMARKS], "mean |k err|"],
        rows,
        title="Ablation -- k-means seeding vs phase-count error",
    ))
    mean = {init: sum(e) / len(e) for init, e in errors.items()}
    assert mean["maximin"] == 0.0
    assert mean["maximin"] <= mean["k-means++"]
    assert mean["maximin"] <= mean["random"]
