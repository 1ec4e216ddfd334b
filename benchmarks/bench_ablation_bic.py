"""Ablation: BIC complexity-penalty weight.

The spherical-Gaussian BIC overfits k on program BBVs when its
complexity penalty is weakened — splitting any large cluster buys more
likelihood than the penalty costs — which is why the pipeline ships with
a calibrated weight of 2.  This sweep quantifies the effect on Table II
accuracy (with maximin seeding; see the k-means init ablation for the
interaction with seeding quality).
"""

from conftest import run_once

from repro.experiments.report import format_table
from repro.pin import BBVProfiler, Engine
from repro.simpoint import SimPointAnalysis
from repro.workloads.spec2017 import build_program, get_descriptor

BENCHMARKS = ["505.mcf_r", "541.leela_r", "623.xalancbmk_s", "503.bwaves_r",
              "507.cactuBSSN_r", "631.deepsjeng_s"]
WEIGHTS = (0.1, 0.25, 1.0, 2.0)


def sweep():
    matrices = {}
    for name in BENCHMARKS:
        program = build_program(name)
        profiler = BBVProfiler(program.block_sizes)
        Engine([profiler]).run(program.iter_headers())
        matrices[name] = (profiler.matrix(), profiler.slice_indices())

    rows = {}
    for weight in WEIGHTS:
        errors = []
        for name in BENCHMARKS:
            descriptor = get_descriptor(name)
            matrix, indices = matrices[name]
            analysis = SimPointAnalysis(
                seed=descriptor.seed, bic_penalty_weight=weight
            )
            result = analysis.analyze(matrix, indices)
            errors.append(abs(result.k - descriptor.num_phases))
        rows[weight] = errors
    return rows


def test_ablation_bic_penalty(benchmark):
    rows = run_once(benchmark, sweep)
    table = [
        (f"{w:g}", *errs, f"{sum(errs) / len(errs):.2f}")
        for w, errs in rows.items()
    ]
    print()
    print(format_table(
        ["penalty", *[b.split(".")[1] for b in BENCHMARKS], "mean |k err|"],
        table,
        title="Ablation -- BIC penalty weight vs phase-count error",
    ))
    mean_error = {w: sum(e) / len(e) for w, e in rows.items()}
    # Weak penalties overfit k (large clusters get split); the calibrated
    # weight recovers the published counts exactly.
    assert mean_error[0.1] > 0.0
    assert mean_error[2.0] <= mean_error[1.0]
    assert mean_error[2.0] == 0.0
