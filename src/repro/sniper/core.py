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

import numpy as np

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

        instructions = 0
        mispredicts = 0.0
        branch_cycles = 0.0
        issue_cycles = 0.0
        dependency_cycles = 0.0
        for trace in slices:
            hierarchy.process_trace(trace)
            instructions += trace.instruction_count
            rate = min(
                0.5,
                self.params.mispredict_base
                + self.params.mispredict_slope * trace.branch_entropy,
            )
            slice_mispredicts = rate * trace.branch_count
            mispredicts += slice_mispredicts
            branch_cycles += (
                slice_mispredicts * self.system.core.branch_misprediction_penalty
            )
            issue_cycles += trace.instruction_count / self.system.core.commit_width
            mem_instructions = int(trace.class_counts[1:].sum())
            dependency_cycles += mem_instructions * self.params.dependency_cpi

        if instructions == 0:
            raise SimulationError("timing region contained no instructions")

        stats = hierarchy.snapshot().levels
        caches = self.system.caches
        l1d = stats["L1D"]
        l2 = stats["L2"]
        l3 = stats["L3"]
        # Stall cycles: each miss at level N pays level N+1's latency (or
        # memory latency past L3); exposure is moderated by overlap and,
        # for memory accesses, by the machine's MLP.
        mem_stalls = (
            l1d.misses * caches.l2.latency_cycles
            + l2.misses * caches.l3.latency_cycles
            + l3.misses
            * self.system.memory_latency_cycles
            / self.system.memory_level_parallelism
        ) * self.params.stall_overlap

        cycles = issue_cycles + dependency_cycles + branch_cycles + mem_stalls
        return RegionTiming(
            instructions=instructions,
            cycles=float(cycles),
            branch_mispredicts=float(mispredicts),
            l1d_misses=l1d.misses,
            l2_misses=l2.misses,
            l3_misses=l3.misses,
            l3_accesses=l3.accesses,
        )
