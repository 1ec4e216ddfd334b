"""Instruction-set abstractions: instruction classes, basic blocks, traces.

The paper's analysis is ISA-independent (SimPoint operates on basic-block
execution frequencies), so this package models exactly the properties the
pipeline observes: instruction class (memory behaviour), basic-block
identity, memory reference streams, and branch behaviour.
"""

from repro.isa.instruction import (
    INSTRUCTION_CLASS_NAMES,
    NUM_INSTRUCTION_CLASSES,
    InstructionClass,
)
from repro.isa.basicblock import BasicBlock, CodeRegion
from repro.isa.trace import SliceHeader, SliceTrace

__all__ = [
    "InstructionClass",
    "INSTRUCTION_CLASS_NAMES",
    "NUM_INSTRUCTION_CLASSES",
    "BasicBlock",
    "CodeRegion",
    "SliceHeader",
    "SliceTrace",
]
