"""One replay pass for many runs: bit-identical to isolated replays.

``measure_runs`` replays every run of a set in one program-order pass
(``Replayer.replay_all``) that draws each slice once and keeps none.
These tests hold it to the per-run oracle in ``replay_oracle.py`` bit
for bit, and count what a pass draws.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import telemetry
from repro.config import ALLCACHE_SIM
from repro.errors import PinballError
from repro.experiments.common import (
    RUN_TYPES,
    WHOLE,
    Run,
    measure_benchmark,
    measure_runs,
    pinpoints_for,
)
from repro.experiments.serialize import to_payload
from repro.pin.pintool import Pintool
from repro.pinball.logger import PinPlayLogger
from repro.pinball.pinball import RegionalPinball
from repro.pinball.replayer import Replayer, ReplayJob
from repro.workloads import slicecache
from repro.workloads.spec2017 import build_program

from conftest import QUICK
from replay_oracle import reference_points, reference_run, reference_whole

#: ALLCACHE_SIM with associative L1D and L2, so the pass runs the
#: associative walk as well as the direct-mapped one.
ASSOCIATIVE = dataclasses.replace(
    ALLCACHE_SIM,
    l1d=dataclasses.replace(ALLCACHE_SIM.l1d, associativity=4),
    l2=dataclasses.replace(ALLCACHE_SIM.l2, associativity=8),
)


@pytest.fixture(params=[None, "0"], ids=["memo", "no-memo"])
def slice_memo(request, monkeypatch, empty_memo):
    """Empty memos, with the slice memo at its default or disabled."""
    if request.param is not None:
        monkeypatch.setenv("REPRO_SLICE_CACHE_MB", request.param)
    else:
        monkeypatch.delenv("REPRO_SLICE_CACHE_MB", raising=False)
    return request.param


def _bodies(recorder) -> int:
    return sum(
        value for name, value in recorder.metrics.counters.items()
        if name.startswith("slice.body")
    )


class TestAgainstTheOracle:
    @pytest.mark.parametrize(
        "config", [None, ASSOCIATIVE], ids=["default", "associative"]
    )
    def test_every_run_matches_isolated_replays(self, slice_memo, config):
        out = pinpoints_for("505.mcf_r", **QUICK)
        recipe = out.whole.recipe
        warmup = out.regional[0].warmup_slices
        truncated = RegionalPinball(  # only 3 of its warmup slices exist
            recipe=recipe, region_start=3, region_length=1, weight=0.25,
            warmup_slices=warmup,
        )
        double = RegionalPinball(
            recipe=recipe, region_start=60, region_length=2, weight=0.5,
            warmup_slices=warmup,
        )
        custom = (truncated, double, truncated, out.regional[-1])
        runs = {
            "whole": WHOLE,
            "regional": Run(tuple(out.regional)),
            "reduced": Run(tuple(out.reduced)),
            "warmup": Run(tuple(out.regional), with_warmup=True),
            "custom": Run(custom),
            "custom-warmup": Run(custom, with_warmup=True),
        }
        assert warmup > 3
        measured = measure_runs(out, runs, config)
        expected = {
            name: reference_whole(out, config) if run.pinballs is None
            else reference_points(out, run.pinballs, run.with_warmup, config)
            for name, run in runs.items()
        }
        assert list(measured) == list(runs)
        for name in runs:
            assert to_payload(measured[name]) == to_payload(expected[name]), (
                name
            )


class _Log(Pintool):
    """Records what it sees: (begin|end) and (slice index, warmup)."""

    def __init__(self, stateful: bool) -> None:
        super().__init__()
        self.stateful = stateful
        self.seen = []

    def begin(self) -> None:
        self.seen.append("begin")

    def process_slice(self, trace) -> None:
        self.seen.append((trace.index, self.warmup))

    def end(self) -> None:
        self.seen.append("end")


class TestReplayAll:
    def _pinballs(self, program):
        logger = PinPlayLogger("505.mcf_r", program)
        recipe = logger.recipe
        return [
            logger.log_whole(),
            RegionalPinball(recipe=recipe, region_start=2, region_length=2,
                            weight=0.5, warmup_slices=5),
            RegionalPinball(recipe=recipe, region_start=30, region_length=1,
                            weight=0.5, warmup_slices=4),
            RegionalPinball(recipe=recipe, region_start=31, region_length=3,
                            weight=0.5, warmup_slices=10),
        ]

    def test_each_job_sees_what_an_isolated_run_shows(self):
        program = build_program("505.mcf_r", **QUICK)
        pinballs = self._pinballs(program)
        jobs, expected = [], []
        for pinball in pinballs:
            for with_warmup in (False, True):
                for stateful in (False, True):
                    jobs.append(ReplayJob(
                        pinball, lambda s=stateful: [_Log(s)], with_warmup,
                    ))
                    alone = _Log(stateful)
                    warmup = ()
                    if with_warmup and isinstance(pinball, RegionalPinball):
                        warmup = pinball.warmup_traces(program)
                    reference_run(
                        [alone], pinball.replay_slices(program), warmup
                    )
                    expected.append(alone.seen)
        seen = {}
        for index, (tool,) in Replayer(program).replay_all(jobs):
            seen[index] = tool.seen
        assert [seen[index] for index in range(len(jobs))] == expected

    def test_tools_are_built_at_the_window_and_yielded_in_closing_order(self):
        program = build_program("505.mcf_r", **QUICK)
        whole, early, late, later = self._pinballs(program)
        built = []

        def tools(name):
            def build():
                built.append(name)
                return [_Log(True)]
            return build

        jobs = [
            ReplayJob(late, tools("late"), with_warmup=True),  # [26, 31)
            ReplayJob(early, tools("early")),  # [2, 4)
            ReplayJob(later, tools("later"), with_warmup=True),  # [21, 34)
        ]
        order = []
        for index, _ in Replayer(program).replay_all(jobs):
            order.append(index)
            if index == 1:
                assert built == ["early"]
        assert built == ["early", "later", "late"]
        assert order == [1, 0, 2]

    def test_each_slice_is_drawn_once(self, slice_memo):
        program = build_program("505.mcf_r", **QUICK)
        jobs = [
            ReplayJob(pinball, lambda: [_Log(True)], with_warmup=True)
            for pinball in self._pinballs(program)[1:]
        ]
        recorder = telemetry.TraceRecorder()
        with telemetry.using_recorder(recorder):
            list(Replayer(program).replay_all(jobs))
        # The union of [0, 4) and [21, 34).
        assert _bodies(recorder) == 4 + 13
        assert recorder.metrics.counters.get("slice.cache.hit", 0) == 0

    def test_jobs_of_two_programs_are_rejected(self):
        program = build_program("505.mcf_r", **QUICK)
        other = build_program("557.xz_r", **QUICK)
        jobs = [
            ReplayJob(PinPlayLogger("505.mcf_r", program).log_whole(),
                      lambda: [_Log(True)]),
            ReplayJob(PinPlayLogger("557.xz_r", other).log_whole(),
                      lambda: [_Log(True)]),
        ]
        with pytest.raises(PinballError, match="one program"):
            list(Replayer().replay_all(jobs))

    def test_no_jobs_replay_nothing(self):
        assert list(Replayer().replay_all([])) == []


class TestDrawCounts:
    """What a pass draws, counted from empty memos."""

    def test_cold_benchmark_draws_each_slice_once_and_keeps_none(
        self, empty_memo
    ):
        recorder = telemetry.TraceRecorder()
        with telemetry.using_recorder(recorder):
            measure_benchmark(
                "505.mcf_r", runs=RUN_TYPES, pinpoints_kwargs=QUICK
            )
        out = pinpoints_for("505.mcf_r", **QUICK)
        num_slices = out.program.num_slices
        assert _bodies(recorder) == num_slices
        assert recorder.metrics.counters.get("slice.cache.hit", 0) == 0
        memo = slicecache.get_slice_cache()
        key = out.program._trace_key
        assert all(memo.get((key, i)) is None for i in range(num_slices))

    def test_a_missing_run_draws_only_its_own_windows(self, empty_memo):
        measure_benchmark(
            "505.mcf_r", runs=("whole", "regional", "reduced"),
            pinpoints_kwargs=QUICK,
        )
        out = pinpoints_for("505.mcf_r", **QUICK)
        union = set()
        for pinball in out.regional:
            union.update(range(
                pinball.warmup_start,
                pinball.region_start + pinball.region_length,
            ))
        assert len(union) < out.program.num_slices
        recorder = telemetry.TraceRecorder()
        with telemetry.using_recorder(recorder):
            measure_benchmark(
                "505.mcf_r", runs=("warmup",), pinpoints_kwargs=QUICK
            )
        counters = recorder.metrics.counters
        assert counters["memtier.miss{kind=metrics}"] == 1
        assert "memtier.miss{kind=pinpoints}" not in counters
        assert _bodies(recorder) == len(union)
