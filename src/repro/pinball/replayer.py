"""PinPlay replayer: runs pinballs under pintools.

Mirrors the paper's methodology (Section IV-D): each regional pinball is
replayed individually under the profiling tools, with or without executing
its warmup prefix first, and per-region statistics are combined by the
experiment drivers using the SimPoint weights.

Replays of one execution share its slices, so :meth:`Replayer.replay_all`
replays many pinballs in one program-order pass: each slice is drawn
once and handed to every replay whose window covers it, each replay
observing it through its own tools exactly as an isolated replay would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from repro.errors import PinballError
from repro.pin.engine import Engine
from repro.pin.pintool import Pintool
from repro.pinball.pinball import Pinball, RegionalPinball
from repro.workloads.program import SyntheticProgram


@dataclass(frozen=True)
class ReplayJob:
    """One replay of a pass.

    Attributes:
        pinball: Whole or regional pinball to replay.
        tools: Builds the pintools that observe this replay; called when
            the replay's first slice comes up.
        with_warmup: For regional pinballs, run the warmup prefix first
            with statistics frozen (the paper's Warmup Regional Run).
            Ignored for whole pinballs.
    """

    pinball: Pinball
    tools: Callable[[], Sequence[Pintool]]
    with_warmup: bool = False

    @property
    def window(self) -> Tuple[int, int, int]:
        """``(first slice, first measured slice, end)`` of the replay."""
        pinball = self.pinball
        start = pinball.region_start
        first = start
        if self.with_warmup and isinstance(pinball, RegionalPinball):
            first = pinball.warmup_start
        return first, start, start + pinball.region_length


class Replayer:
    """Replays pinballs through an instrumentation engine.

    Args:
        program: Optional pre-materialized program shared across replays
            of pinballs from the same execution (a performance shortcut;
            correctness is identical because replay is deterministic).
    """

    def __init__(self, program: SyntheticProgram = None) -> None:
        self._program = program

    def _resolve(self, pinball: Pinball) -> SyntheticProgram:
        if self._program is not None:
            if self._program.num_slices != pinball.recipe.total_slices:
                raise PinballError(
                    "shared program does not match the pinball's recipe"
                )
            return self._program
        return pinball.recipe.materialize()

    def replay(
        self,
        pinball: Pinball,
        tools: Sequence[Pintool],
        with_warmup: bool = False,
    ) -> Sequence[Pintool]:
        """Replay one pinball under ``tools`` and return the tools.

        The one-job case of :meth:`replay_all`.

        Args:
            pinball: Whole or regional pinball.
            tools: Pintools that observe the replay (their state
                accumulates across calls; pass fresh tools for isolated
                statistics).
            with_warmup: For regional pinballs, execute the warmup prefix
                first with statistics frozen (the paper's Warmup Regional
                Run).  Ignored for whole pinballs.
        """
        for _ in self.replay_all([ReplayJob(pinball, lambda: tools, with_warmup)]):
            pass
        return tools

    def replay_all(
        self, jobs: Sequence[ReplayJob]
    ) -> Iterator[Tuple[int, Sequence[Pintool]]]:
        """Replay every job in one program-order pass over their slices.

        The pass walks the union of the jobs' windows in program order
        and draws each slice once, through
        :meth:`~repro.workloads.program.SyntheticProgram.generate_slice`
        with ``keep=False``: a slice the memo holds is used, and
        otherwise nothing is kept.  Every job whose window covers the
        slice sees it through its own :class:`Engine`, as a warmup
        slice before its region and a measured one inside it, so each
        job's tools end exactly as an isolated replay leaves them.  A
        job's tools are built when its window opens and handed back,
        ended, when it closes: the pass yields ``(job index, tools)``
        in the order the windows close (ties by index) and keeps no
        reference to them.

        Raises:
            PinballError: If the jobs replay different programs.
        """
        jobs = list(jobs)
        if not jobs:
            return
        program = self._program_of(jobs)
        opening: Dict[int, List[int]] = {}
        closing: Dict[int, List[int]] = {}
        for index, job in enumerate(jobs):
            first, _, end = job.window
            opening.setdefault(first, []).append(index)
            closing.setdefault(end - 1, []).append(index)
        active: Dict[int, Tuple[Engine, int]] = {}
        for slice_index in _union(job.window for job in jobs):
            for index in opening.get(slice_index, ()):
                engine = Engine(jobs[index].tools())
                engine.begin()
                active[index] = (engine, jobs[index].window[1])
            trace = program.generate_slice(slice_index, keep=False)
            for engine, measured in active.values():
                if slice_index < measured:
                    engine.warm(trace)
                else:
                    engine.observe(trace)
            for index in closing.get(slice_index, ()):
                engine, _ = active.pop(index)
                engine.end()
                yield index, engine.tools

    def _program_of(self, jobs: Sequence[ReplayJob]) -> SyntheticProgram:
        """The one program every job replays."""
        if self._program is None:
            if len({job.pinball.recipe for job in jobs}) > 1:
                raise PinballError(
                    "a replay pass needs pinballs of one program"
                )
            return jobs[0].pinball.recipe.materialize()
        for job in jobs:
            self._resolve(job.pinball)
        return self._program


def _union(windows) -> Iterator[int]:
    """Every slice index some window covers, in program order."""
    stop = -1
    for first, _, end in sorted(windows):
        for slice_index in range(max(first, stop), end):
            yield slice_index
        stop = max(stop, end)
