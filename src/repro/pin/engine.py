"""The instrumentation engine: drives slice streams through pintools."""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import SimulationError
from repro.isa.trace import SliceTrace
from repro.pin.pintool import Pintool


class Engine:
    """Runs an execution (a stream of slice traces) under instrumentation.

    A run is four steps: :meth:`begin`, then :meth:`warm` for each slice
    of the warmup prefix, :meth:`observe` for each measured slice, and
    :meth:`end`.  :meth:`run` takes them in order over two streams; a
    replay pass over many pinballs
    (:meth:`~repro.pinball.replayer.Replayer.replay_all`) takes them one
    slice at a time, so both share these semantics.

    Args:
        tools: The pintools to attach.  Order is preserved; every tool
            observes every slice.
    """

    def __init__(self, tools: Sequence[Pintool]) -> None:
        if not tools:
            raise SimulationError("engine needs at least one pintool")
        self.tools = list(tools)
        self._stateful = [tool for tool in self.tools if tool.stateful]

    def begin(self) -> None:
        """Start a run: every tool's ``begin``."""
        for tool in self.tools:
            tool.begin()

    def warm(self, trace: SliceTrace) -> None:
        """One warmup slice: only *stateful* tools see it, statistics frozen."""
        for tool in self._stateful:
            tool.warmup = True
            tool.process_slice(trace)
            tool.warmup = False

    def observe(self, trace: SliceTrace) -> None:
        """One measured slice: every tool sees it, statistics recording."""
        for tool in self.tools:
            tool.process_slice(trace)

    def end(self) -> None:
        """Finish a run: every tool's ``end``."""
        for tool in self.tools:
            tool.end()

    def run(self, slices: Iterable[SliceTrace], warmup: Iterable[SliceTrace] = ()) -> None:
        """Execute a region, optionally preceded by a warmup prefix.

        During the warmup prefix, only *stateful* tools (caches, branch
        predictors) observe the stream, with their statistics frozen; the
        measured region is then observed by every tool with statistics
        recording enabled.  This mirrors the paper's "Warmup Regional Run"
        (Section IV-D).

        Args:
            slices: The measured region, in program order.
            warmup: Slices to run beforehand for state warming only.
        """
        self.begin()
        for trace in warmup:
            self.warm(trace)
        for trace in slices:
            self.observe(trace)
        self.end()
