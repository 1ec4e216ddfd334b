"""Instruction classes and slice traces."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.isa import (
    INSTRUCTION_CLASS_NAMES,
    NUM_INSTRUCTION_CLASSES,
    InstructionClass,
    SliceTrace,
)


class TestInstructionClass:
    def test_four_classes_in_paper_order(self):
        assert NUM_INSTRUCTION_CLASSES == 4
        assert INSTRUCTION_CLASS_NAMES == ("NO_MEM", "MEM_R", "MEM_W", "MEM_RW")

    def test_memory_read_semantics(self):
        assert InstructionClass.MEM_R.reads_memory
        assert InstructionClass.MEM_RW.reads_memory
        assert not InstructionClass.MEM_W.reads_memory
        assert not InstructionClass.NO_MEM.reads_memory

    def test_memory_write_semantics(self):
        assert InstructionClass.MEM_W.writes_memory
        assert InstructionClass.MEM_RW.writes_memory
        assert not InstructionClass.MEM_R.writes_memory

    def test_references_memory(self):
        assert not InstructionClass.NO_MEM.references_memory
        assert all(
            c.references_memory
            for c in InstructionClass if c is not InstructionClass.NO_MEM
        )

    def test_values_are_dense(self):
        assert [c.value for c in InstructionClass] == [0, 1, 2, 3]


def _trace(**overrides):
    params = dict(
        index=0,
        phase_id=0,
        instruction_count=100,
        block_counts=np.array([5, 3, 0], dtype=np.int64),
        class_counts=np.array([50, 30, 15, 5], dtype=np.int64),
        mem_lines=np.array([1, 2, 3], dtype=np.int64),
        mem_is_write=np.array([False, True, False]),
        ifetch_lines=np.array([10, 11], dtype=np.int64),
        branch_count=12,
        branch_entropy=0.3,
    )
    params.update(overrides)
    return SliceTrace(**params)


class TestSliceTrace:
    def test_reference_counts(self):
        trace = _trace()
        assert trace.memory_reference_count == 3
        assert trace.read_count == 2
        assert trace.write_count == 1

    def test_bbv_normalized(self):
        bbv = _trace().bbv()
        assert bbv.sum() == pytest.approx(1.0)
        assert bbv[2] == 0.0

    def test_bbv_size_weighting(self):
        trace = _trace()
        weighted = trace.bbv(weight_by_size=np.array([1.0, 10.0, 1.0]))
        unweighted = trace.bbv()
        assert weighted[1] > unweighted[1]

    def test_bbv_empty_rejected(self):
        trace = _trace(block_counts=np.zeros(3, dtype=np.int64))
        with pytest.raises(WorkloadError):
            trace.bbv()

    def test_rejects_zero_instructions(self):
        with pytest.raises(WorkloadError):
            _trace(instruction_count=0)

    def test_rejects_misaligned_memory_arrays(self):
        with pytest.raises(WorkloadError):
            _trace(mem_is_write=np.array([True]))

    def test_rejects_bad_entropy(self):
        with pytest.raises(WorkloadError):
            _trace(branch_entropy=1.5)

    def test_rejects_negative_branches(self):
        with pytest.raises(WorkloadError):
            _trace(branch_count=-1)
