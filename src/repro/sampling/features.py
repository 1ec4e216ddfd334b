"""The common per-slice feature bundle every registered sampler consumes.

A sampler never touches programs, pinballs, or the pin engine directly:
it sees one :class:`SliceFeatures` — the BBV matrix SimPoint has always
used, plus (when the sampler's spec requires it) the memory access
vectors of :mod:`repro.pin.tools.mav` — and returns weighted
:class:`~repro.simpoint.simpoints.SimulationPoint` lists.  That single
seam is what lets every methodology run through the same pinball/replay
machinery downstream.

:func:`collect_features` fills the bundle in one instrumentation pass
over the whole pinball.  A BBV needs only each slice's block counts, so
unless the sampler requires memory features the pass reads slice
*headers* (:meth:`~repro.workloads.program.SyntheticProgram.iter_headers`),
which skip the reference streams — about 5 % of a full slice's cost —
and leave each slice's generator paused in the memo for a later replay
to continue.  With ``"mav"`` required, the MAV profiler rides the same
engine run over the full slices instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import SimPointError

#: Feature names a sampler may declare in ``SamplerSpec.requires``.
FEATURE_BBV = "bbv"
FEATURE_MAV = "mav"
KNOWN_FEATURES = (FEATURE_BBV, FEATURE_MAV)


@dataclass
class SliceFeatures:
    """Everything a sampler may observe about one execution.

    Attributes:
        benchmark: Full SPEC id the features were profiled from.
        slice_size: Simulated instructions per slice.
        seed: The benchmark's determinism seed (samplers derive their
            own :class:`numpy.random.Generator` from it via the sampler
            context — never from global RNG state).
        bbv: ``(n_slices, n_blocks)`` L1-normalized Basic Block Vectors.
        slice_indices: Global slice index per row.
        mav: Optional ``(n_slices, MAV_DIM)`` memory access vectors,
            present only when the selected sampler requires them.
    """

    benchmark: str
    slice_size: int
    seed: int
    bbv: np.ndarray
    slice_indices: np.ndarray
    mav: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.bbv = np.asarray(self.bbv, dtype=np.float64)
        if self.bbv.ndim != 2 or self.bbv.shape[0] == 0:
            raise SimPointError("BBV matrix must be non-empty and 2-D")
        self.slice_indices = np.asarray(self.slice_indices, dtype=np.int64)
        if self.slice_indices.size != self.bbv.shape[0]:
            raise SimPointError("slice_indices must align with BBV rows")
        if self.mav is not None:
            self.mav = np.asarray(self.mav, dtype=np.float64)
            if self.mav.shape[0] != self.bbv.shape[0]:
                raise SimPointError("MAV matrix must align with BBV rows")

    @property
    def num_slices(self) -> int:
        """Number of profiled slices (rows of every matrix)."""
        return int(self.bbv.shape[0])

    def require_mav(self) -> np.ndarray:
        """The MAV matrix, or a clear error naming the missing feature."""
        if self.mav is None:
            raise SimPointError(
                "sampler requires memory access vectors, but the feature "
                "bundle was collected without them (requires=('bbv','mav') "
                "drives collection — check the sampler's spec)"
            )
        return self.mav

    def augmented(self, mav_weight: float = 1.0) -> np.ndarray:
        """BBVs augmented with weighted memory access vectors.

        The MAV methodology clusters on ``[BBV | w * MAV]``; with both
        halves built from [0, 1]-bounded fractions, ``mav_weight``
        directly sets the relative pull of memory behaviour on the
        cluster geometry.
        """
        if mav_weight < 0:
            raise SimPointError("mav_weight cannot be negative")
        return np.hstack([self.bbv, mav_weight * self.require_mav()])


def collect_features(
    program,
    whole,
    *,
    benchmark: str,
    seed: int,
    requires: Tuple[str, ...] = (FEATURE_BBV,),
) -> SliceFeatures:
    """Profile the whole execution into a :class:`SliceFeatures` bundle.

    One engine pass collects every requested feature family; the BBV
    profiler always runs (every sampler may read BBVs), the MAV profiler
    joins the same pass when ``requires`` names it.  Without MAV the pass
    runs over slice headers; with it, over the full slices.
    """
    from repro.pin.engine import Engine
    from repro.pin.tools.bbv import BBVProfiler
    from repro.pin.tools.mav import MAVProfiler

    unknown = sorted(set(requires) - set(KNOWN_FEATURES))
    if unknown:
        raise SimPointError(
            f"unknown feature requirement(s): {', '.join(unknown)}; "
            f"known: {', '.join(KNOWN_FEATURES)}"
        )
    bbv = BBVProfiler(program.block_sizes)
    tools = [bbv]
    mav = None
    if FEATURE_MAV in requires:
        mav = MAVProfiler()
        tools.append(mav)
        slices = whole.replay_slices(program)
    else:
        slices = program.iter_headers(whole.region_start, whole.region_length)
    Engine(tools).run(slices)
    return SliceFeatures(
        benchmark=benchmark,
        slice_size=program.slice_size,
        seed=seed,
        bbv=bbv.matrix(),
        slice_indices=bbv.slice_indices(),
        mav=None if mav is None else mav.matrix(),
    )
