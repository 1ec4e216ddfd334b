"""Instrumentation engine and pintools."""

import numpy as np
import pytest

from repro.config import ALLCACHE_SIM
from repro.errors import SimulationError
from repro.isa.trace import SliceTrace
from repro.pin import (
    AllCache,
    BBVProfiler,
    Engine,
    InsCount,
    LdStMix,
)
from repro.pin.pintool import Pintool


def trace(index=0, instr=100, classes=(50, 30, 15, 5), lines=(1, 2, 3),
          branches=10, entropy=0.2):
    classes = np.asarray(classes, dtype=np.int64)
    lines = np.asarray(lines, dtype=np.int64)
    return SliceTrace(
        index=index,
        phase_id=0,
        instruction_count=instr,
        block_counts=np.array([3, 1], dtype=np.int64),
        class_counts=classes,
        mem_lines=lines,
        mem_is_write=np.zeros(lines.size, dtype=bool),
        ifetch_lines=np.array([9], dtype=np.int64),
        branch_count=branches,
        branch_entropy=entropy,
    )


class RecordingTool(Pintool):
    """Test helper: records every event it sees."""

    def __init__(self, stateful=False):
        super().__init__()
        self.stateful = stateful
        self.events = []

    def begin(self):
        self.events.append("begin")

    def process_slice(self, t):
        self.events.append(("slice", t.index, self.warmup))

    def end(self):
        self.events.append("end")

    def reset(self):
        self.events = []


class TestEngine:
    def test_lifecycle_order(self):
        tool = RecordingTool()
        Engine([tool]).run([trace(0), trace(1)])
        assert tool.events == [
            "begin", ("slice", 0, False), ("slice", 1, False), "end",
        ]

    def test_warmup_only_reaches_stateful_tools(self):
        plain = RecordingTool(stateful=False)
        stateful = RecordingTool(stateful=True)
        Engine([plain, stateful]).run([trace(5)], warmup=[trace(3), trace(4)])
        assert ("slice", 3, True) not in plain.events
        assert ("slice", 3, True) in stateful.events
        assert ("slice", 4, True) in stateful.events
        # Measured region observed by both, warmup flag cleared.
        assert ("slice", 5, False) in plain.events
        assert ("slice", 5, False) in stateful.events

    def test_rejects_no_tools(self):
        with pytest.raises(SimulationError):
            Engine([])


class TestInsCount:
    def test_counts(self):
        tool = InsCount()
        Engine([tool]).run([trace(instr=100), trace(instr=250)])
        assert tool.instructions == 350
        assert tool.slices == 2

    def test_reset(self):
        tool = InsCount()
        tool.process_slice(trace())
        tool.reset()
        assert tool.instructions == 0


class TestLdStMix:
    def test_fractions(self):
        tool = LdStMix()
        Engine([tool]).run([trace(classes=(50, 30, 15, 5))])
        assert tool.fractions()[0] == pytest.approx(0.5)
        assert tool.total_instructions == 100

    def test_accumulates(self):
        tool = LdStMix()
        tool.process_slice(trace(classes=(10, 0, 0, 0)))
        tool.process_slice(trace(classes=(0, 10, 0, 0)))
        assert tool.fractions()[0] == pytest.approx(0.5)
        assert tool.fractions()[1] == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            LdStMix().fractions()

    def test_reset(self):
        tool = LdStMix()
        tool.process_slice(trace())
        tool.reset()
        assert tool.class_counts.sum() == 0


class TestBBVProfiler:
    def test_matrix_shape_and_normalization(self):
        tool = BBVProfiler()
        Engine([tool]).run([trace(0), trace(1)])
        matrix = tool.matrix()
        assert matrix.shape == (2, 2)
        assert np.allclose(matrix.sum(axis=1), 1.0)

    def test_slice_indices(self):
        tool = BBVProfiler()
        Engine([tool]).run([trace(4), trace(9)])
        assert tool.slice_indices().tolist() == [4, 9]

    def test_size_weighting(self):
        unweighted = BBVProfiler()
        weighted = BBVProfiler(block_sizes=np.array([1.0, 100.0]))
        t = trace()
        unweighted.process_slice(t)
        weighted.process_slice(t)
        assert weighted.matrix()[0, 1] > unweighted.matrix()[0, 1]

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            BBVProfiler().matrix()


class TestAllCache:
    def test_uses_scaled_table1_by_default(self):
        tool = AllCache()
        assert tool.config is ALLCACHE_SIM

    def test_stats_all_levels(self):
        tool = AllCache()
        Engine([tool]).run([trace()])
        stats = tool.stats()
        assert set(stats) == {"L1I", "L1D", "L2", "L3"}
        assert stats["L1D"].accesses == 3

    def test_warmup_does_not_record(self):
        tool = AllCache()
        Engine([tool]).run([trace(1)], warmup=[trace(0)])
        assert tool.stats()["L1D"].accesses == 3

    def test_warmup_warms(self):
        cold = AllCache()
        Engine([cold]).run([trace()])
        warm = AllCache()
        Engine([warm]).run([trace()], warmup=[trace()])
        assert warm.stats()["L1D"].misses < cold.stats()["L1D"].misses

    def test_miss_rate_helper(self):
        tool = AllCache()
        Engine([tool]).run([trace()])
        assert tool.miss_rate("L1D") == pytest.approx(
            tool.stats()["L1D"].miss_rate
        )

    def test_reset(self):
        tool = AllCache()
        tool.process_slice(trace())
        tool.reset()
        assert tool.stats()["L1D"].accesses == 0
