"""PinPlay logger: creates whole and regional pinballs.

The real logger replays a binary under Pin at a 100-200x slowdown and
captures architectural state; here, capturing means recording the program
recipe and region bounds (the synthetic programs are deterministic, see
``repro.pinball``).  The logging *cost* still matters for the paper's
time accounting and is modelled in ``repro.timemodel``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import PinballError
from repro.pinball.pinball import ProgramRecipe, RegionalPinball, WholePinball
from repro.simpoint.simpoints import SimulationPoint
from repro.workloads.program import SyntheticProgram
from repro.workloads.scaling import ScaleModel


class PinPlayLogger:
    """Creates pinballs from synthetic programs.

    Args:
        benchmark: Registered benchmark name the program was built from
            (pinballs must be rebuildable without the live object).
        program: The live program being checkpointed.
        mean_run_length: Schedule parameter used when building ``program``
            (needed to reproduce it exactly).
    """

    def __init__(
        self,
        benchmark: str,
        program: SyntheticProgram,
        mean_run_length: int = 25,
    ) -> None:
        self.program = program
        self.recipe = ProgramRecipe(
            benchmark=benchmark,
            slice_size=program.slice_size,
            total_slices=program.num_slices,
            mean_run_length=mean_run_length,
        )

    def log_whole(self) -> WholePinball:
        """Checkpoint the complete execution."""
        return WholePinball(recipe=self.recipe)

    def log_regions(
        self,
        points: Sequence[SimulationPoint],
        warmup_slices: Optional[int] = None,
    ) -> List[RegionalPinball]:
        """Checkpoint each simulation point as a one-slice regional pinball.

        One slice stands for the paper's 30 M-instruction region.

        Args:
            points: Selected simulation points (slice index + weight).
            warmup_slices: Warmup prefix length; defaults to the paper's
                500 M instructions expressed in slices.

        Raises:
            PinballError: If a point lies outside the execution.
        """
        if not points:
            raise PinballError("no simulation points to checkpoint")
        if warmup_slices is None:
            warmup_slices = ScaleModel(
                slice_instructions=self.program.slice_size
            ).warmup_slices
        pinballs = []
        for point in points:
            pinballs.append(
                RegionalPinball(
                    recipe=self.recipe,
                    region_start=point.slice_index,
                    region_length=1,
                    weight=point.weight,
                    warmup_slices=warmup_slices,
                )
            )
        return pinballs
