"""Ablation: random-projection dimensionality.

SimPoint 3.0 projects BBVs to 15 dimensions.  Too few dimensions collapse
distinct phases together (Johnson-Lindenstrauss distortion grows), while
more dimensions buy little once the phase structure is separable.
"""

from conftest import run_once

from repro.experiments.report import format_table
from repro.pin import BBVProfiler, Engine
from repro.simpoint import SimPointAnalysis
from repro.workloads.spec2017 import build_program, get_descriptor

BENCHMARKS = ["502.gcc_r", "605.mcf_s", "623.xalancbmk_s", "508.namd_r"]
DIMS = (2, 4, 15, 64)


def sweep():
    matrices = {}
    for name in BENCHMARKS:
        program = build_program(name)
        profiler = BBVProfiler(program.block_sizes)
        Engine([profiler]).run(program.iter_headers())
        matrices[name] = (profiler.matrix(), profiler.slice_indices())

    errors = {}
    for dim in DIMS:
        per_benchmark = []
        for name in BENCHMARKS:
            descriptor = get_descriptor(name)
            matrix, indices = matrices[name]
            analysis = SimPointAnalysis(
                seed=descriptor.seed, projection_dim=dim
            )
            result = analysis.analyze(matrix, indices)
            per_benchmark.append(abs(result.k - descriptor.num_phases))
        errors[dim] = per_benchmark
    return errors


def test_ablation_projection_dim(benchmark):
    errors = run_once(benchmark, sweep)
    rows = [
        (dim, *errs, f"{sum(errs) / len(errs):.2f}")
        for dim, errs in errors.items()
    ]
    print()
    print(format_table(
        ["dim", *[b.split(".")[1] for b in BENCHMARKS], "mean |k err|"],
        rows,
        title="Ablation -- projection dimensionality vs phase-count error",
    ))
    mean = {d: sum(e) / len(e) for d, e in errors.items()}
    # 2 dimensions cannot hold 15-28 separated phases; 15 is enough.
    assert mean[2] > mean[15]
    assert mean[15] == 0.0
    # Going beyond 15 dims does not unlock further accuracy.
    assert mean[64] <= mean[2]
