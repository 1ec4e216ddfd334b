"""Multi-copy (SPECrate) execution on a shared-LLC machine.

SPEC CPU2017's rate suites measure chip throughput by running N
concurrent copies of the same benchmark (Section II-A of the paper).
The microarchitectural story is LLC contention: each copy has private
L1/L2 caches, but all copies share the L3, so per-copy CPI degrades as
copies multiply.  This runner models exactly that: per-copy private
hierarchies in front of one shared L3, round-robin slice interleaving,
and the interval timing model per copy.  Each copy is a
:class:`~repro.cache.fused.FusedHierarchy` whose ``l3`` is the first
copy's level, so every copy runs on the same engine as the ``allcache``
replay and Sniper.

Each copy executes the same program; copies are distinguished by an
address-space offset (separate processes do not share data pages), so
they *compete* for L3 capacity rather than sharing lines.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from repro.cache.fused import FusedHierarchy
from repro.config import SNIPER_SIM, SystemConfig
from repro.errors import SimulationError
from repro.sniper.core import SNIPER_TIMING, TimingParams
from repro.workloads.program import SyntheticProgram

#: Address offset between copies, in cache lines (far above any arena).
#: The stride carries an odd jitter so copies do not alias onto the same
#: direct-mapped/indexed cache sets (a power-of-two stride would make
#: every copy's working set collide perfectly).
_COPY_STRIDE = (1 << 52) + 0x9E3779B1


@dataclass
class CopyStats:
    """One copy's outcome.

    Attributes:
        copy_id: Copy index.
        instructions: Instructions the copy executed.
        cycles: Modelled cycles for the copy's own stream.
        l2_misses: Private-hierarchy misses that reached the shared L3.
        l3_misses: Shared-L3 misses attributed to this copy.
    """

    copy_id: int
    instructions: int
    cycles: float
    l2_misses: int
    l3_misses: int

    @property
    def cpi(self) -> float:
        """The copy's cycles per instruction."""
        if self.instructions == 0:
            raise SimulationError("copy executed no instructions")
        return self.cycles / self.instructions


@dataclass
class RateResult:
    """Outcome of an N-copy rate run.

    Attributes:
        copies: Per-copy statistics.
        shared_l3_accesses / shared_l3_misses: Shared-LLC totals.
    """

    copies: List[CopyStats]
    shared_l3_accesses: int
    shared_l3_misses: int

    @property
    def num_copies(self) -> int:
        """Number of concurrent copies."""
        return len(self.copies)

    @property
    def average_cpi(self) -> float:
        """Mean per-copy CPI."""
        return float(np.mean([c.cpi for c in self.copies]))

    @property
    def shared_l3_miss_rate(self) -> float:
        """Miss rate of the shared LLC."""
        if self.shared_l3_accesses == 0:
            return 0.0
        return self.shared_l3_misses / self.shared_l3_accesses

    def throughput_vs(self, single: "RateResult") -> float:
        """SPECrate-style relative throughput against a 1-copy run.

        N copies at the single-copy CPI would scale throughput by N;
        contention-degraded CPI discounts that.
        """
        return self.num_copies * single.average_cpi / self.average_cpi


class SPECrateRunner:
    """Runs N interleaved copies of a program on a shared-LLC machine.

    Args:
        system: Machine geometry (scaled Table III by default).
        params: Interval-model timing knobs.
    """

    def __init__(
        self,
        system: Optional[SystemConfig] = None,
        params: Optional[TimingParams] = None,
    ) -> None:
        self.system = system if system is not None else SNIPER_SIM
        self.params = params if params is not None else SNIPER_TIMING

    def run(
        self,
        program: SyntheticProgram,
        num_copies: int,
        num_slices: Optional[int] = None,
    ) -> RateResult:
        """Execute ``num_copies`` concurrent copies of ``program``.

        Args:
            program: The workload each copy runs.
            num_copies: Concurrent copies (>= 1).
            num_slices: Slices per copy (defaults to the whole program).

        Returns:
            A :class:`RateResult` with per-copy and shared-LLC outcomes.
        """
        if num_copies < 1:
            raise SimulationError("need at least one copy")
        if num_slices is None:
            num_slices = program.num_slices
        if not 1 <= num_slices <= program.num_slices:
            raise SimulationError(
                f"num_slices must be in [1, {program.num_slices}]"
            )

        caches = self.system.caches
        hierarchies = [FusedHierarchy(caches) for _ in range(num_copies)]
        shared_l3 = hierarchies[0].l3
        for hierarchy in hierarchies[1:]:
            hierarchy.l3 = shared_l3
        core = self.system.core

        instructions = [0] * num_copies
        issue = [0.0] * num_copies
        dependency = [0.0] * num_copies
        branch = [0.0] * num_copies
        l3_misses = [0] * num_copies

        for slice_index in range(num_slices):
            trace = program.generate_slice(slice_index)
            for copy, hierarchy in enumerate(hierarchies):
                offset = copy * _COPY_STRIDE
                # Each copy's slice drains before the next copy's, so
                # the shared L3 sees the copies interleaved slice by
                # slice, and the change in its miss count is this copy's.
                before = shared_l3.stats.misses
                hierarchy.submit_slice(replace(
                    trace,
                    ifetch_lines=trace.ifetch_lines + offset,
                    mem_lines=trace.mem_lines + offset,
                ))
                hierarchy.drain()
                l3_misses[copy] += shared_l3.stats.misses - before

                instructions[copy] += trace.instruction_count
                issue[copy] += trace.instruction_count / core.commit_width
                mem_instructions = int(trace.class_counts[1:].sum())
                dependency[copy] += mem_instructions * \
                    self.params.dependency_cpi
                rate = min(
                    0.5,
                    self.params.mispredict_base
                    + self.params.mispredict_slope * trace.branch_entropy,
                )
                branch[copy] += rate * trace.branch_count * \
                    core.branch_misprediction_penalty

        copies = []
        for copy, hierarchy in enumerate(hierarchies):
            l2_misses = hierarchy.l2.stats.misses
            mem_stalls = (
                hierarchy.l1d.stats.misses * caches.l2.latency_cycles
                + l2_misses * caches.l3.latency_cycles
                + l3_misses[copy]
                * self.system.memory_latency_cycles
                / self.system.memory_level_parallelism
            ) * self.params.stall_overlap
            cycles = issue[copy] + dependency[copy] + branch[copy] + mem_stalls
            copies.append(
                CopyStats(
                    copy_id=copy,
                    instructions=instructions[copy],
                    cycles=float(cycles),
                    l2_misses=l2_misses,
                    l3_misses=l3_misses[copy],
                )
            )
        return RateResult(
            copies=copies,
            shared_l3_accesses=shared_l3.stats.accesses,
            shared_l3_misses=shared_l3.stats.misses,
        )
