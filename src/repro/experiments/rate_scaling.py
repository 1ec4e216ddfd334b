"""Extension experiment: SPECrate throughput scaling under LLC contention.

SPEC CPU2017's rate suites run N concurrent copies (paper Section II-A);
the interesting microarchitecture is the shared LLC.  This experiment
scales copies on a contended machine and reports per-copy CPI, shared-L3
miss rate, and SPECrate-style relative throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import (
    SNIPER_SIM,
    CacheHierarchyConfig,
    SystemConfig,
)
from repro.experiments.common import map_items
from repro.experiments.registry import experiment, renders
from repro.experiments.report import format_table
from repro.rate.runner import RateResult, SPECrateRunner
from repro.workloads.spec2017 import build_program

#: Copy counts swept.
COPY_COUNTS = (1, 2, 4, 8)

#: Default benchmarks: memory-bound (contends) vs compute-bound (scales).
DEFAULT_BENCHMARKS = ("505.mcf_r", "541.leela_r")


def _contended_system(l3_kb: int = 512) -> SystemConfig:
    """The scaled machine with an LLC small enough for copies to fight."""
    caches = SNIPER_SIM.caches
    return SystemConfig(
        core=SNIPER_SIM.core,
        caches=CacheHierarchyConfig(
            l1i=caches.l1i,
            l1d=caches.l1d,
            l2=caches.l2,
            # Keep the preset L3's line size / ways / latency; only the
            # capacity is swept to create contention.
            l3=replace(caches.l3, size_bytes=l3_kb * 1024),
        ),
        memory_latency_cycles=SNIPER_SIM.memory_latency_cycles,
        memory_level_parallelism=SNIPER_SIM.memory_level_parallelism,
    )


@dataclass
class RateScalingRow:
    """One benchmark's scaling curve."""

    benchmark: str
    results: Dict[int, RateResult]

    def throughput(self, copies: int) -> float:
        """Relative throughput vs the single-copy run."""
        return self.results[copies].throughput_vs(self.results[1])

    def efficiency(self, copies: int) -> float:
        """Throughput divided by the ideal linear scaling."""
        return self.throughput(copies) / copies


@dataclass
class RateScalingResult:
    """The full scaling sweep.

    ``copy_counts`` comes first because field order is the payload's key
    order, and ``results/rate.json`` lists the sweep before its rows.
    """

    copy_counts: List[int]
    rows: List[RateScalingRow]


def _benchmark_scaling(
    name: str,
    copy_counts: Tuple[int, ...],
    num_slices: int,
    slice_size: int,
    total_slices: int,
) -> RateScalingRow:
    """One benchmark's copy-count sweep (process-pool worker unit).

    The runner is built inside the worker so the task payload stays
    picklable and each process gets its own contended machine.
    """
    runner = SPECrateRunner(system=_contended_system())
    program = build_program(
        name, slice_size=slice_size, total_slices=total_slices
    )
    results = {
        int(n): runner.run(program, int(n), num_slices=num_slices)
        for n in copy_counts
    }
    return RateScalingRow(benchmark=name, results=results)


@experiment(
    "rate",
    result=RateScalingResult,
    paper_ref="Extension — SPECrate scaling under shared-LLC contention",
    supports_benchmarks=True,
    supports_jobs=True,
)
def run_rate_scaling(
    benchmarks: Optional[Sequence[str]] = None,
    copy_counts: Sequence[int] = COPY_COUNTS,
    num_slices: int = 40,
    slice_size: int = 30_000,
    total_slices: int = 120,
    jobs: Optional[int] = None,
) -> RateScalingResult:
    """Sweep concurrent copy counts per benchmark.

    ``jobs`` fans the per-benchmark work across worker processes (1 =
    serial, 0/None = one per core); output is order-stable.
    """
    names = list(benchmarks) if benchmarks is not None else \
        list(DEFAULT_BENCHMARKS)
    rows = map_items(
        _benchmark_scaling,
        names,
        jobs=jobs,
        copy_counts=tuple(int(n) for n in copy_counts),
        num_slices=num_slices,
        slice_size=slice_size,
        total_slices=total_slices,
    )
    return RateScalingResult(
        rows=rows, copy_counts=[int(n) for n in copy_counts]
    )


@renders("rate")
def render_rate_scaling(result: RateScalingResult) -> str:
    """Render CPI, shared-LLC miss rate, and throughput per copy count."""
    rows = []
    for row in result.rows:
        for copies in result.copy_counts:
            rate = row.results[copies]
            rows.append(
                (
                    row.benchmark if copies == result.copy_counts[0] else "",
                    copies,
                    f"{rate.average_cpi:.3f}",
                    f"{rate.shared_l3_miss_rate * 100:.1f}%",
                    f"{row.throughput(copies):.2f}x",
                    f"{row.efficiency(copies) * 100:.0f}%",
                )
            )
    return format_table(
        ["Benchmark", "copies", "per-copy CPI", "shared L3 miss",
         "throughput", "efficiency"],
        rows,
        title="Extension -- SPECrate scaling under shared-LLC contention",
    )
