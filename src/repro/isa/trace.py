"""Dynamic execution traces at slice granularity.

The unit of work throughout the pipeline is the *slice*: a fixed-length
window of the dynamic instruction stream (30 M instructions in the paper;
scaled down here, see ``repro.workloads.scaling``).  A :class:`SliceTrace`
carries everything a pintool can observe about one slice:

* per-basic-block execution counts (the raw Basic Block Vector),
* per-class instruction counts (``ldstmix`` input),
* the ordered data-reference stream as cache-line addresses (``allcache``
  and Sniper input),
* the instruction-fetch line stream,
* branch count and branch-entropy summary (branch-predictor input).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError


@dataclass
class SliceTrace:
    """Observable events of one execution slice.

    Attributes:
        index: Global slice number within the whole execution.
        phase_id: Latent phase that generated the slice (ground truth; the
            analysis pipeline never reads this, it exists for validation).
        instruction_count: Simulated instructions in the slice.
        block_counts: ``(n_blocks,)`` int64 — executions of each static
            basic block during the slice.
        class_counts: ``(4,)`` int64 — instructions per
            :class:`~repro.isa.instruction.InstructionClass`.
        mem_lines: ``(n_mem,)`` int64 — data cache-line addresses in
            program order.
        mem_is_write: ``(n_mem,)`` bool — whether each data reference is a
            write (other dtypes are coerced to bool on construction).
        ifetch_lines: ``(n_ifetch,)`` int64 — instruction cache-line
            addresses (sampled fetch stream).
        branch_count: Number of conditional branches executed.
        branch_entropy: Mean outcome entropy per branch in bits (0 =
            perfectly predictable, 1 = coin flip).
    """

    index: int
    phase_id: int
    instruction_count: int
    block_counts: np.ndarray
    class_counts: np.ndarray
    mem_lines: np.ndarray
    mem_is_write: np.ndarray
    ifetch_lines: np.ndarray
    branch_count: int
    branch_entropy: float

    def __post_init__(self) -> None:
        # Cache kernels read the flags as one byte per reference; a bool
        # array passes through without a copy.
        self.mem_is_write = np.asarray(self.mem_is_write, dtype=bool)
        if self.instruction_count <= 0:
            raise WorkloadError("slice must contain at least one instruction")
        if len(self.class_counts) != 4:
            raise WorkloadError("class_counts must have 4 entries")
        if len(self.mem_lines) != len(self.mem_is_write):
            raise WorkloadError("mem_lines and mem_is_write must align")
        if self.branch_count < 0:
            raise WorkloadError("branch_count cannot be negative")
        if not 0.0 <= self.branch_entropy <= 1.0:
            raise WorkloadError("branch_entropy must be within [0, 1]")

    @property
    def memory_reference_count(self) -> int:
        """Number of data memory references in the slice."""
        return int(len(self.mem_lines))

    @property
    def read_count(self) -> int:
        """Number of data reads in the slice."""
        return int((~self.mem_is_write).sum())

    @property
    def write_count(self) -> int:
        """Number of data writes in the slice."""
        return int(self.mem_is_write.sum())

    def bbv(self, weight_by_size: np.ndarray = None) -> np.ndarray:
        """Return the slice's Basic Block Vector.

        Args:
            weight_by_size: Optional per-block instruction sizes.  When
                given, counts are weighted by block size as in the original
                SimPoint formulation (frequency x instructions).

        Returns:
            Float64 vector, L1-normalized to sum to 1.
        """
        vec = self.block_counts.astype(np.float64)
        if weight_by_size is not None:
            vec = vec * np.asarray(weight_by_size, dtype=np.float64)
        total = vec.sum()
        if total <= 0:
            raise WorkloadError(f"slice {self.index} has an empty BBV")
        return vec / total
