"""Time-varying behaviour: metric timelines and phase-transition detection.

Sherwood & Calder's original observation — programs move through long
repetitive phases — is visible in per-slice metric timelines.  This
module extracts those timelines and detects phase transitions as spikes
in the BBV distance between consecutive slices (the technique behind the
time-varying plots of Wu et al.'s CPU2017 study).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from repro.errors import SimulationError
from repro.isa.trace import SliceTrace
from repro.workloads.program import SyntheticProgram


def bbv_transition_series(program: SyntheticProgram) -> np.ndarray:
    """Manhattan distance between consecutive slices' BBVs.

    Returns:
        ``(num_slices - 1,)`` distances in [0, 2]; near-zero within a
        phase, large at phase boundaries.
    """
    if program.num_slices < 2:
        raise SimulationError("need at least two slices for transitions")
    distances = np.empty(program.num_slices - 1)
    previous = None
    for header in program.iter_headers():
        current = header.bbv(program.block_sizes)
        if previous is not None:
            distances[header.index - 1] = float(
                np.abs(current - previous).sum()
            )
        previous = current
    return distances


def detect_phase_transitions(
    distances: np.ndarray, threshold: float = 0.5
) -> np.ndarray:
    """Slice indices where a new phase begins.

    A transition is declared between slices ``i`` and ``i+1`` when their
    BBV distance exceeds ``threshold``; the returned indices are the
    first slices of new phases.
    """
    distances = np.asarray(distances, dtype=np.float64)
    if distances.size == 0:
        raise SimulationError("empty distance series")
    if not 0.0 < threshold < 2.0:
        raise SimulationError("threshold must be within (0, 2)")
    return np.flatnonzero(distances > threshold) + 1


@dataclass
class PhaseTimeline:
    """A per-slice metric timeline plus detected phase structure.

    Attributes:
        values: Metric value per slice.
        transitions: First slices of detected phases.
        true_transitions: Ground-truth phase boundaries (from the
            schedule), for validation.
    """

    values: np.ndarray
    transitions: np.ndarray
    true_transitions: np.ndarray

    @property
    def num_detected_phases(self) -> int:
        """Number of detected contiguous phase episodes."""
        return int(self.transitions.size) + 1

    def detection_recall(self, tolerance: int = 0) -> float:
        """Fraction of true boundaries matched by a detection.

        Args:
            tolerance: Allowed slack in slices between a true boundary
                and the nearest detection.
        """
        if self.true_transitions.size == 0:
            return 1.0
        hits = 0
        for boundary in self.true_transitions:
            if self.transitions.size and \
                    np.abs(self.transitions - boundary).min() <= tolerance:
                hits += 1
        return hits / self.true_transitions.size


def metric_timeline(
    program: SyntheticProgram,
    metric: Callable[[SliceTrace], float],
    threshold: float = 0.5,
) -> PhaseTimeline:
    """Extract a metric timeline with detected and true phase boundaries.

    Args:
        program: The workload to trace.
        metric: Per-slice scalar, e.g.
            ``lambda t: t.memory_reference_count / t.instruction_count``.
        threshold: BBV-distance threshold for transition detection.
    """
    values = np.asarray(
        [metric(trace) for trace in program.iter_slices()], dtype=np.float64
    )
    distances = bbv_transition_series(program)
    transitions = detect_phase_transitions(distances, threshold)
    assignment = program.schedule.assignment
    true_transitions = np.flatnonzero(np.diff(assignment)) + 1
    return PhaseTimeline(
        values=values,
        transitions=transitions,
        true_transitions=true_transitions,
    )
