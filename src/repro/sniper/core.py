"""Interval-model timing simulation.

The model follows the interval-analysis decomposition Sniper itself is
built on: in the absence of miss events a balanced out-of-order core
sustains its commit width; miss events (branch mispredictions, cache
misses) insert penalty intervals.  Cache behaviour comes from an actual
functional simulation of the configured hierarchy, so timing inherits all
cold-start/warmup effects of regional replay.

Each region builds a :class:`~repro.cache.fused.FusedHierarchy` and
feeds it whole slices, so the warmup and the measured slices run
through the one compiled walk when the kernel loads, and through the
numpy sweep otherwise; which path runs never changes a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.cache.fused import FusedHierarchy
from repro.config import SNIPER_SIM, SystemConfig
from repro.errors import SimulationError
from repro.isa.trace import SliceTrace
from repro.telemetry.recorder import get_recorder, span


@dataclass(frozen=True)
class TimingParams:
    """Knobs of the interval model (separate from machine geometry).

    Attributes:
        dependency_cpi: Extra cycles per memory-referencing instruction
            from dependence chains that the OoO window cannot hide.
        mispredict_base: Branch misprediction rate at zero entropy.
        mispredict_slope: Additional misprediction rate per unit entropy.
        stall_overlap: Fraction of memory stall cycles actually exposed
            (the rest overlaps with useful work); divided further by the
            machine's MLP for misses to memory.
    """

    dependency_cpi: float = 0.12
    mispredict_base: float = 0.01
    mispredict_slope: float = 0.16
    stall_overlap: float = 0.55


#: Parameters Sniper was configured with for the Fig 12 study.
SNIPER_TIMING = TimingParams()


class IntervalCycles:
    """One core's interval-model cycles, summed slice by slice.

    Sniper's regions and each SPECrate copy feed their measured slices
    through :meth:`add`, then :meth:`cycles` adds the memory stalls of
    the misses the caller attributes to this core.  Each term keeps its
    own running sum, added in the same order for both, so both callers
    model a slice to the same bits.
    """

    __slots__ = (
        "system", "params", "instructions", "mispredicts", "issue",
        "dependency", "branch",
    )

    def __init__(self, system: SystemConfig, params: TimingParams) -> None:
        self.system = system
        self.params = params
        self.instructions = 0
        self.mispredicts = 0.0
        self.issue = 0.0
        self.dependency = 0.0
        self.branch = 0.0

    def add(self, trace: SliceTrace) -> None:
        """Add one slice's issue, dependence and mispredict cycles."""
        params = self.params
        core = self.system.core
        self.instructions += trace.instruction_count
        rate = min(
            0.5,
            params.mispredict_base
            + params.mispredict_slope * trace.branch_entropy,
        )
        mispredicts = rate * trace.branch_count
        self.mispredicts += mispredicts
        self.branch += mispredicts * core.branch_misprediction_penalty
        self.issue += trace.instruction_count / core.commit_width
        mem_instructions = int(trace.class_counts[1:].sum())
        self.dependency += mem_instructions * params.dependency_cpi

    def cycles(self, l1d_misses: int, l2_misses: int, l3_misses: int) -> float:
        """The summed slice cycles plus the memory stall cycles.

        Each miss at level N pays level N+1's latency (or memory latency
        past L3); exposure is moderated by overlap and, for memory
        accesses, by the machine's MLP.
        """
        system = self.system
        caches = system.caches
        mem_stalls = (
            l1d_misses * caches.l2.latency_cycles
            + l2_misses * caches.l3.latency_cycles
            + l3_misses
            * system.memory_latency_cycles
            / system.memory_level_parallelism
        ) * self.params.stall_overlap
        return self.issue + self.dependency + self.branch + mem_stalls


@dataclass
class RegionTiming:
    """Timing outcome for one simulated region.

    Attributes:
        instructions: Instructions executed (measured region only).
        cycles: Modelled core cycles.
        branch_mispredicts: Modelled mispredicted branches.
        l1d_misses / l2_misses / l3_misses: Data-side miss counts.
        l3_accesses: Number of accesses reaching the L3.
    """

    instructions: int
    cycles: float
    branch_mispredicts: float
    l1d_misses: int
    l2_misses: int
    l3_misses: int
    l3_accesses: int

    @property
    def cpi(self) -> float:
        """Cycles per instruction."""
        if self.instructions == 0:
            raise SimulationError("no instructions were simulated")
        return self.cycles / self.instructions


class SniperSimulator:
    """Timing simulation of slice streams on a configured machine.

    Args:
        system: Machine geometry (defaults to the scaled Table III model).
        params: Interval-model knobs (defaults to Sniper's calibration).
    """

    def __init__(
        self,
        system: Optional[SystemConfig] = None,
        params: Optional[TimingParams] = None,
    ) -> None:
        self.system = system if system is not None else SNIPER_SIM
        self.params = params if params is not None else SNIPER_TIMING

    def run_region(
        self,
        slices: Iterable[SliceTrace],
        warmup: Iterable[SliceTrace] = (),
    ) -> RegionTiming:
        """Simulate a region, optionally warming caches first.

        Args:
            slices: Measured slices, in program order.
            warmup: Slices run beforehand to warm the hierarchy only.

        Returns:
            Aggregated :class:`RegionTiming` for the measured slices.
        """
        with span("sniper.region"):
            timing = self._run_region(slices, warmup)
        recorder = get_recorder()
        if recorder is not None:
            recorder.count("sniper.instructions", timing.instructions)
            recorder.count("sniper.regions", 1)
        return timing

    def _run_region(
        self,
        slices: Iterable[SliceTrace],
        warmup: Iterable[SliceTrace],
    ) -> RegionTiming:
        hierarchy = FusedHierarchy(self.system.caches)

        hierarchy.set_recording(False)
        for trace in warmup:
            hierarchy.process_trace(trace)
        hierarchy.set_recording(True)

        interval = IntervalCycles(self.system, self.params)
        for trace in slices:
            hierarchy.process_trace(trace)
            interval.add(trace)

        if interval.instructions == 0:
            raise SimulationError("timing region contained no instructions")

        stats = hierarchy.snapshot().levels
        l1d = stats["L1D"]
        l2 = stats["L2"]
        l3 = stats["L3"]
        cycles = interval.cycles(l1d.misses, l2.misses, l3.misses)
        return RegionTiming(
            instructions=interval.instructions,
            cycles=float(cycles),
            branch_mispredicts=float(interval.mispredicts),
            l1d_misses=l1d.misses,
            l2_misses=l2.misses,
            l3_misses=l3.misses,
            l3_accesses=l3.accesses,
        )
