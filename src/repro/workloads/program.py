"""The synthetic program: deterministic slice-trace generation.

A :class:`SyntheticProgram` turns phase specifications plus a schedule into
a stream of :class:`~repro.isa.trace.SliceTrace` objects.  The critical
property is *per-slice determinism*: slice ``i`` is generated from an RNG
seeded by ``(program_seed, i)`` and from offsets that are pure functions of
``i``, so the trace of slice ``i`` is bit-identical whether it is produced
during a whole-program run or replayed in isolation from a regional
pinball.  This is the synthetic equivalent of PinPlay's deterministic
checkpoint replay — and it means any whole-vs-regional statistical
difference is *purely* a cache/sampling effect, never generation noise.

Generation runs in two stages over that one per-slice generator.  The
header stage draws the block and instruction-class counts
(:meth:`SyntheticProgram.slice_header`, a
:class:`~repro.isa.trace.SliceHeader`), which is all a BBV profile
reads and about 5 % of a slice's cost.  The body stage continues the
same generator into the data and fetch streams.  ``generate_slice`` is
the two stages in sequence, whether the header was drawn just now or
earlier (the memo then keeps the paused generator), so a slice's bytes
cannot depend on which stage ran first.
"""

from __future__ import annotations

import hashlib
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.cache import _native
from repro.errors import WorkloadError
from repro.isa.basicblock import BasicBlock, CodeRegion
from repro.isa.trace import SliceHeader, SliceTrace
from repro.workloads import slicecache
from repro.workloads.phases import PhaseSpec
from repro.workloads.schedule import PhaseSchedule

# Address-space layout (in units of cache lines).  Each phase owns a large
# private arena; regions inside the arena are spaced far apart so working
# sets, streams, and code can never overlap.  Every region base is further
# jittered by a random sub-offset: power-of-two-aligned bases would alias
# all phases' working sets onto the same low cache sets of a direct-mapped
# cache (base mod num_sets == 0 for every phase), which is not how real
# allocators lay out heaps.
_ARENA_SHIFT = 38
_WS2_OFFSET = 1 << 30
_WS3HOT_OFFSET = 1 << 31
_WS3COLD_OFFSET = 1 << 32
_STREAM_OFFSET = 1 << 34
_CODE_OFFSET = 1 << 35
_BASE_JITTER_LINES = 1 << 24
#: Maximum streaming references one slice may emit (address window size).
STREAM_WINDOW_LINES = 1 << 13


class _RuntimePhase:
    """Precomputed per-phase generation state."""

    def __init__(
        self,
        spec: PhaseSpec,
        block_offset: int,
        shared_ids: np.ndarray,
        shared_sizes: np.ndarray,
        shared_fraction: float,
        rng: np.random.Generator,
    ) -> None:
        self.spec = spec
        self.block_ids = np.arange(
            block_offset, block_offset + spec.num_blocks, dtype=np.int64
        )
        self.block_sizes = rng.integers(3, 9, size=spec.num_blocks).astype(np.int64)
        own_freqs = rng.dirichlet(np.full(spec.num_blocks, 0.8))
        # Every phase also exercises the shared "library" blocks a little,
        # like real programs share libc; this keeps BBVs realistic without
        # collapsing cluster separation.
        if shared_ids.size and shared_fraction > 0:
            shared_freqs = np.full(shared_ids.size, shared_fraction / shared_ids.size)
            self.entry_ids = np.concatenate([shared_ids, self.block_ids])
            self.entry_sizes = np.concatenate([shared_sizes, self.block_sizes])
            self.entry_freqs = np.concatenate(
                [shared_freqs, own_freqs * (1.0 - shared_fraction)]
            )
        else:
            self.entry_ids = self.block_ids
            self.entry_sizes = self.block_sizes
            self.entry_freqs = own_freqs
        self.entry_freqs = self.entry_freqs / self.entry_freqs.sum()
        self.instructions_per_entry = float(
            np.dot(self.entry_sizes, self.entry_freqs)
        )

        arena = (spec.phase_id + 1) << _ARENA_SHIFT

        def place(offset: int) -> int:
            return arena + offset + int(rng.integers(0, _BASE_JITTER_LINES))

        ws_bases = [
            place(0),
            place(_WS2_OFFSET),
            place(_WS3HOT_OFFSET),
            place(_WS3COLD_OFFSET),
        ]
        self.stream_base = place(_STREAM_OFFSET)
        code_base = place(_CODE_OFFSET)
        # A body draws lines uniformly from five regions: the four
        # working sets, then the code.
        self.body_sizes = np.array(
            [*spec.ws_lines, spec.code_lines], dtype=np.int64
        )
        self.body_bases = np.array([*ws_bases, code_base], dtype=np.int64)
        self.native_body = int(self.body_sizes.max()) <= _native.BODY_MAX_RANGE
        self.mix = np.asarray(spec.mix, dtype=np.float64)
        self.mem_fractions = np.asarray(spec.mem_fractions, dtype=np.float64)

    def code_region(self) -> CodeRegion:
        """Static code view of this phase (for inspection and tests)."""
        blocks = [
            BasicBlock(
                block_id=int(bid),
                size=int(size),
                mix=tuple(self.mix),
                code_lines=max(1, int(size) // 4),
            )
            for bid, size in zip(self.block_ids, self.block_sizes)
        ]
        own = self.entry_freqs[-len(blocks):]
        return CodeRegion(self.spec.phase_id, blocks, frequencies=own)


def _numpy_body(
    rng: np.random.Generator,
    counts: np.ndarray,
    sizes: np.ndarray,
    bases: np.ndarray,
    stream_start: int,
    stream_count: int,
    write_prob: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What :meth:`~repro.cache._native.NativeKernel.body` draws, on
    numpy's own calls: the fallback when no kernel loads."""
    parts = []
    for region in range(4):
        if counts[region] > 0:
            lines = rng.integers(0, sizes[region], size=counts[region])
            lines += bases[region]
            parts.append(lines)
    if stream_count > 0:
        stop = stream_start + stream_count
        parts.append(np.arange(stream_start, stop, dtype=np.int64))
    mem_lines = np.concatenate(parts) if parts else np.empty(0, np.int64)
    # In place: permutation(n) shuffles arange(n) with these same
    # Fisher-Yates draws, so the bytes and the generator state
    # afterwards match gathering through it, without the copy.
    rng.shuffle(mem_lines)
    mem_is_write = rng.random(mem_lines.size) < write_prob
    ifetch_lines = rng.integers(0, sizes[4], size=counts[4])
    ifetch_lines += bases[4]
    return mem_lines, mem_is_write, ifetch_lines


class SyntheticProgram:
    """A deterministic, phase-structured synthetic workload.

    Args:
        name: Benchmark name (display only).
        phases: One :class:`PhaseSpec` per latent phase, ids ``0..n-1``.
        schedule: Slice-to-phase mapping.
        slice_size: Target instructions per slice.
        seed: Master seed; all generation derives from it.
        shared_blocks: Number of library blocks shared by all phases.
        shared_fraction: Fraction of block entries hitting shared blocks.
    """

    def __init__(
        self,
        name: str,
        phases: Sequence[PhaseSpec],
        schedule: PhaseSchedule,
        slice_size: int,
        seed: int,
        shared_blocks: int = 6,
        shared_fraction: float = 0.05,
    ) -> None:
        if slice_size < 100:
            raise WorkloadError("slice_size must be at least 100 instructions")
        if schedule.num_phases != len(phases):
            raise WorkloadError(
                f"schedule has {schedule.num_phases} phases, specs have {len(phases)}"
            )
        ids = [p.phase_id for p in phases]
        if ids != list(range(len(phases))):
            raise WorkloadError("phase ids must be dense and ordered 0..n-1")

        self.name = name
        self.phases = list(phases)
        self.schedule = schedule
        self.slice_size = int(slice_size)
        self.seed = int(seed)

        build_rng = np.random.default_rng([self.seed, 0xB10C])
        shared_ids = np.arange(shared_blocks, dtype=np.int64)
        shared_sizes = build_rng.integers(3, 9, size=shared_blocks).astype(np.int64)
        self._runtime: List[_RuntimePhase] = []
        offset = shared_blocks
        for spec in self.phases:
            phase = _RuntimePhase(
                spec, offset, shared_ids, shared_sizes, shared_fraction, build_rng
            )
            self._runtime.append(phase)
            offset += spec.num_blocks
        self.num_blocks = offset
        self.block_sizes = np.empty(offset, dtype=np.int64)
        self.block_sizes[:shared_blocks] = shared_sizes
        for phase in self._runtime:
            self.block_sizes[phase.block_ids[0] : phase.block_ids[-1] + 1] = (
                phase.block_sizes
            )

        # Content fingerprint for the slice-trace memo: two programs with
        # equal fingerprints generate bit-identical slices (the name is
        # display-only and deliberately excluded).
        digest = hashlib.sha256()
        digest.update(
            repr(
                (
                    self.seed,
                    self.slice_size,
                    int(shared_blocks),
                    float(shared_fraction),
                )
            ).encode()
        )
        for spec in self.phases:
            digest.update(repr(spec).encode())
        digest.update(self.schedule.assignment.tobytes())
        self._trace_key = digest.hexdigest()

    @property
    def num_slices(self) -> int:
        """Total slices in the whole execution."""
        return len(self.schedule)

    @property
    def num_phases(self) -> int:
        """Number of latent phases (ground truth, hidden from analysis)."""
        return len(self.phases)

    def phase_of_slice(self, slice_index: int) -> int:
        """Ground-truth phase id of a slice (for validation only)."""
        return self.schedule[slice_index]

    def code_regions(self) -> List[CodeRegion]:
        """Static code regions, one per phase."""
        return [phase.code_region() for phase in self._runtime]

    def slice_header(self, slice_index: int) -> SliceHeader:
        """The header of slice ``slice_index``: its block and class counts.

        Draws only the first of the slice's generator draws (what a BBV
        profile reads); the memo keeps the generator paused after them,
        so a later :meth:`generate_slice` of the same slice draws just
        the body.

        Raises:
            WorkloadError: If the index is out of range.
        """
        self._check_index(slice_index)
        key = (self._trace_key, slice_index)
        header = slicecache.lookup_header(key)
        if header is None:
            header, rng = self._draw_header(slice_index)
            slicecache.store_header(key, header, rng)
        return header

    def generate_slice(self, slice_index: int) -> SliceTrace:
        """Generate the trace of slice ``slice_index`` deterministically.

        The header stage and the body stage continue one per-slice
        generator, so the bytes do not depend on whether the header was
        drawn earlier (and memoized with its generator) or just now.

        Raises:
            WorkloadError: If the index is out of range.
        """
        self._check_index(slice_index)
        key = (self._trace_key, slice_index)
        cached = slicecache.lookup(key)
        if cached is not None:
            return cached
        staged = slicecache.take_header(key)
        if staged is None:
            staged = self._draw_header(slice_index)
        trace = self._draw_body(*staged)
        slicecache.store(key, trace)
        return trace

    def _draw_header(
        self, slice_index: int
    ) -> Tuple[SliceHeader, np.random.Generator]:
        """The header stage: a fresh slice generator's first draws."""
        phase_id = self.schedule[slice_index]
        phase = self._runtime[phase_id]
        rng = np.random.default_rng([self.seed, 1 + slice_index])

        entries = max(1, int(round(self.slice_size / phase.instructions_per_entry)))
        entry_counts = rng.multinomial(entries, phase.entry_freqs)
        block_counts = np.zeros(self.num_blocks, dtype=np.int64)
        block_counts[phase.entry_ids] = entry_counts
        instruction_count = int(np.dot(entry_counts, phase.entry_sizes))
        if instruction_count == 0:
            # Degenerate multinomial draw (impossible: block sizes are
            # 3-8, drawn with integers(3, 9); keep a hard floor anyway).
            instruction_count = self.slice_size

        class_counts = rng.multinomial(instruction_count, phase.mix)
        header = SliceHeader(
            index=slice_index,
            phase_id=phase_id,
            instruction_count=instruction_count,
            block_counts=block_counts,
            class_counts=class_counts.astype(np.int64, copy=False),
        )
        return header, rng

    def _draw_body(
        self, header: SliceHeader, rng: np.random.Generator
    ) -> SliceTrace:
        """The body stage: the reference streams, continuing ``rng``.

        After numpy's region split, one call to the native body kernel
        when it loads and every range and the stream fit its 32-bit
        draws, numpy's own calls otherwise.  Both draw the same sequence,
        so the bytes and the generator state afterwards do not depend on
        which ran; ``slice.body{path=native|numpy}`` records which did.
        """
        slice_index = header.index
        phase = self._runtime[header.phase_id]
        class_counts = header.class_counts
        num_refs = int(class_counts[1] + class_counts[2] + 2 * class_counts[3])
        if num_refs > 0:
            counts = rng.multinomial(num_refs, phase.mem_fractions)
            stream_count = min(int(counts[4]), STREAM_WINDOW_LINES)
            write_prob = float((class_counts[2] + class_counts[3]) / num_refs)
        else:
            counts = np.zeros(5, dtype=np.int64)
            stream_count = 0
            write_prob = 0.0
        instruction_count = header.instruction_count
        # The split's last entry was the stream; region 4 is the code.
        counts[4] = min(max(instruction_count // 40, 32), 512)
        args = (
            counts, phase.body_sizes, phase.body_bases,
            phase.stream_base + slice_index * STREAM_WINDOW_LINES,
            stream_count, write_prob,
        )
        kernel = _native.load_kernel()
        if (
            kernel is not None
            and phase.native_body
            and num_refs <= _native.BODY_MAX_RANGE
        ):
            mem_lines, mem_is_write, ifetch_lines = kernel.body(rng, *args)
            path = "native"
        else:
            mem_lines, mem_is_write, ifetch_lines = _numpy_body(rng, *args)
            path = "numpy"
        telemetry.count("slice.body", path=path)
        return SliceTrace(
            index=slice_index,
            phase_id=header.phase_id,
            instruction_count=instruction_count,
            block_counts=header.block_counts,
            class_counts=class_counts,
            mem_lines=mem_lines,
            mem_is_write=mem_is_write,
            ifetch_lines=ifetch_lines,
            branch_count=int(instruction_count * phase.spec.branch_fraction),
            branch_entropy=phase.spec.branch_entropy,
        )

    def iter_slices(
        self, start: int = 0, count: Optional[int] = None
    ) -> Iterator[SliceTrace]:
        """Yield slice traces ``start .. start+count`` in program order."""
        if count is None:
            count = self.num_slices - start
        self._check_range(start, count)
        for index in range(start, start + count):
            yield self.generate_slice(index)

    def iter_headers(
        self, start: int = 0, count: Optional[int] = None
    ) -> Iterator[SliceHeader]:
        """Yield slice headers ``start .. start+count`` in program order."""
        if count is None:
            count = self.num_slices - start
        self._check_range(start, count)
        for index in range(start, start + count):
            yield self.slice_header(index)

    def _check_index(self, slice_index: int) -> None:
        if not 0 <= slice_index < self.num_slices:
            raise WorkloadError(
                f"slice {slice_index} out of range [0, {self.num_slices})"
            )

    def _check_range(self, start: int, count: int) -> None:
        if start < 0 or count < 0 or start + count > self.num_slices:
            raise WorkloadError(
                f"range [{start}, {start + count}) outside execution "
                f"of {self.num_slices} slices"
            )
