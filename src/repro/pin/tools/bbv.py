"""Basic Block Vector profiler (the front half of SimPoint).

Collects one BBV per slice: the execution count of every static basic
block, weighted by block size and L1-normalized.  The stacked matrix is
the input to :class:`~repro.simpoint.simpoints.SimPointAnalysis`.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.isa.trace import SliceHeader
from repro.pin.pintool import Pintool


class BBVProfiler(Pintool):
    """Accumulates per-slice Basic Block Vectors.

    Args:
        block_sizes: Per-block instruction counts used to weight BBVs
            (SimPoint weights block frequency by block size).  When
            omitted, raw frequencies are used.
    """

    def __init__(self, block_sizes: Optional[np.ndarray] = None) -> None:
        super().__init__()
        self.block_sizes = (
            None if block_sizes is None
            else np.asarray(block_sizes, dtype=np.float64)
        )
        self._vectors: List[np.ndarray] = []
        self._slice_indices: List[int] = []

    def process_slice(self, trace: SliceHeader) -> None:
        self._vectors.append(trace.bbv(self.block_sizes))
        self._slice_indices.append(trace.index)

    @property
    def num_slices(self) -> int:
        """Slices profiled so far."""
        return len(self._vectors)

    def matrix(self) -> np.ndarray:
        """``(n_slices, n_blocks)`` matrix of normalized BBVs.

        Raises:
            SimulationError: If no slices were profiled.
        """
        if not self._vectors:
            raise SimulationError("BBV profiler observed no slices")
        return np.vstack(self._vectors)

    def slice_indices(self) -> np.ndarray:
        """Global slice indices, aligned with the matrix rows."""
        return np.asarray(self._slice_indices, dtype=np.int64)

    def reset(self) -> None:
        self._vectors = []
        self._slice_indices = []
