"""Bring your own workload: SimPoint analysis of a custom program.

The library is not limited to the SPEC CPU2017 registry — any
phase-structured program can be analyzed.  This example builds a custom
"database-like" workload with four hand-designed phases (scan, probe,
sort, commit), runs SimPoint on it, checks the discovered phases against
the ground truth we constructed, and estimates the workload's CPI on the
Table III machine from just the simulation points.

Run with::

    python examples/custom_workload.py
"""

from repro import (
    BBVProfiler,
    Engine,
    NativeMachine,
    PinPlayLogger,
    SimPointAnalysis,
    SniperSimulator,
    SyntheticProgram,
)
from repro.experiments.report import format_table
from repro.stats import weighted_average
from repro.workloads import PhaseSchedule, PhaseSpec

PHASES = [
    # A streaming table scan: memory-hungry, predictable branches.
    PhaseSpec(
        phase_id=0, weight=0.40,
        mix=(0.42, 0.42, 0.14, 0.02),
        mem_fractions=(0.84, 0.08, 0.04, 0.02, 0.02),
        ws_lines=(10, 48, 1200, 3000),
        branch_fraction=0.10, branch_entropy=0.05,
        num_blocks=12, code_lines=40,
    ),
    # Hash-join probes: pointer chasing over a large hot set.
    PhaseSpec(
        phase_id=1, weight=0.30,
        mix=(0.40, 0.45, 0.13, 0.02),
        mem_fractions=(0.80, 0.09, 0.07, 0.03, 0.01),
        ws_lines=(8, 60, 1800, 4000),
        branch_fraction=0.14, branch_entropy=0.45,
        num_blocks=14, code_lines=48,
    ),
    # In-memory sort: compute-heavy, branchy.
    PhaseSpec(
        phase_id=2, weight=0.20,
        mix=(0.58, 0.28, 0.12, 0.02),
        mem_fractions=(0.95, 0.03, 0.01, 0.005, 0.005),
        ws_lines=(12, 40, 1000, 2200),
        branch_fraction=0.20, branch_entropy=0.30,
        num_blocks=10, code_lines=36,
    ),
    # Commit/log flush: bursty writes, streaming.
    PhaseSpec(
        phase_id=3, weight=0.10,
        mix=(0.45, 0.25, 0.27, 0.03),
        mem_fractions=(0.86, 0.05, 0.02, 0.02, 0.05),
        ws_lines=(8, 36, 900, 2000),
        branch_fraction=0.08, branch_entropy=0.10,
        num_blocks=8, code_lines=28,
    ),
]

PHASE_NAMES = {0: "table scan", 1: "hash probe", 2: "sort", 3: "commit"}


def main() -> None:
    total_slices = 300
    counts = [int(p.weight * total_slices) for p in PHASES]
    counts[0] += total_slices - sum(counts)
    schedule = PhaseSchedule.from_counts(counts, seed=99, mean_run_length=20)
    program = SyntheticProgram(
        "dbworkload", PHASES, schedule, slice_size=30_000, seed=2024
    )
    print(f"Built custom workload: {program.num_slices} slices, "
          f"{program.num_phases} latent phases, "
          f"{program.num_blocks} static blocks")

    # Profile BBVs and run SimPoint.
    profiler = BBVProfiler(program.block_sizes)
    Engine([profiler]).run(program.iter_headers())
    analysis = SimPointAnalysis(max_k=10, seed=7)
    result = analysis.analyze(profiler.matrix(), profiler.slice_indices())

    print(f"\nSimPoint found {result.num_points} phases "
          f"(ground truth: {program.num_phases}):")
    rows = []
    for point in result.sorted_by_weight():
        truth = PHASE_NAMES[program.phase_of_slice(point.slice_index)]
        rows.append(
            (point.slice_index, f"{point.weight * 100:.1f}%", truth)
        )
    print(format_table(["representative slice", "weight", "latent phase"],
                       rows))

    # Checkpoint the points and estimate CPI from them alone.
    logger = PinPlayLogger("custom", program)
    simulator = SniperSimulator()
    cpis, weights = [], []
    for point in result.points:
        timing = simulator.run_region(
            program.iter_slices(point.slice_index, 1),
            warmup=program.iter_slices(max(0, point.slice_index - 17),
                                       min(17, point.slice_index)),
        )
        cpis.append(timing.cpi)
        weights.append(point.weight)
    sampled_cpi = weighted_average(cpis, weights)

    native = NativeMachine().run(program)
    error = abs(sampled_cpi - native.cpi) / native.cpi * 100
    print(f"\nCPI from simulation points : {sampled_cpi:.3f}")
    print(f"CPI from full native run   : {native.cpi:.3f}")
    print(f"Error                      : {error:.2f}%  "
          f"(simulating {result.num_points}/{program.num_slices} slices)")
    assert error < 10.0


if __name__ == "__main__":
    main()
