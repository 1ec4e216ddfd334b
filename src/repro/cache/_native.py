"""Native compiled kernels: the cache walks and the slice body.

Compiles a small C source with the host C compiler at first use and
loads it through :mod:`ctypes`.  It holds three cache kernels, all
sequential per-access loops with exactly the semantics of the oracle
loops in :mod:`repro.cache.cache`:

* ``repro_walk`` walks an L1I/L1D -> L2 -> L3 hierarchy of any
  associativity over one fused chunk
  (:class:`~repro.cache.fused.FusedHierarchy`), read straight from each
  slice's own arrays;
* ``repro_dm_level`` runs one batch through one direct-mapped level,
  on its ``_resident``/``_dirty`` arrays;
* ``repro_lru_level`` runs one batch through one set-associative LRU
  level, on the packed ``_way_state`` array the wave path keeps.

Each level kind has one ``static inline`` step (``dm_step`` and
``lru_step``) that both the walk and that kind's level kernel call, so
direct-mapped and LRU semantics are each written once.  Every cache
kernel works in place on the state :class:`~repro.cache.cache.CacheLevel`
keeps, so native and numpy passes interleave on one level.

A fourth kernel, ``repro_body``, draws a slice body -- working-set and
stream lines, their shuffle, write flags and fetch lines -- with numpy's
``Generator.integers``, ``shuffle`` and ``random`` draws, draw for draw,
on the generator's own ``bitgen_t``;
:class:`~repro.workloads.program.SyntheticProgram` draws every slice body
with it.

The build is content-addressed (the object file name embeds a hash of
the source and compiler), so it compiles once per machine and is reused
by every process, including parallel workers racing to create it
(writes go to a temporary file followed by an atomic rename).

Everything degrades gracefully: no compiler, a failed build, or a
failed load all surface as :func:`load_kernel` returning ``None``, and
the caller falls back to the numpy strategies (and to numpy's own
draws for a slice body).  The kernels are pure functions of their inputs
and state — determinism is unaffected by which backend runs.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

_SOURCE = r"""
#include <stddef.h>
#include <stdint.h>

/* One access to a direct-mapped level: write-allocate, write-back.
 * `res` holds one tag per set (-1 = empty) and `dir` one dirty flag per
 * set -- the state CacheLevel keeps.  Returns 1 on a miss; a miss that
 * evicts a dirty line adds one to *writebacks.  Dirty and write flags
 * must be 0 or 1: the update and the eviction count are branch-free. */
static inline int dm_step(
    int64_t *restrict res, uint8_t *restrict dir, int64_t mask,
    int64_t shift, int64_t line, uint8_t w, int64_t *restrict writebacks)
{
    int64_t s = line & mask, tag = line >> shift;
    if (res[s] == tag) { dir[s] |= w; return 0; }
    *writebacks += (res[s] >= 0) & dir[s];
    res[s] = tag; dir[s] = w;
    return 1;
}

/* One access to a set-associative LRU level.  `ways` is the packed
 * (sets x assoc) row-major state the wave path keeps: way 0 = MRU, each
 * entry tag << 1 | dirty, -1 = empty, valid entries a prefix of the
 * row.  A hit promotes its way to MRU and ORs in the write; a miss
 * fills the first empty way or evicts the LRU one.  Same result and
 * write-back count as dm_step. */
static inline int lru_step(
    int64_t *restrict ways, int64_t assoc, int64_t mask, int64_t shift,
    int64_t line, uint8_t w, int64_t *restrict writebacks)
{
    int64_t *row = ways + (line & mask) * assoc;
    int64_t tag = line >> shift, entry;
    int64_t way = 0;
    int miss;
    while (way < assoc && row[way] >= 0 && (row[way] >> 1) != tag)
        way++;
    if (way < assoc && row[way] >= 0) {
        entry = row[way] | w;
        miss = 0;
    } else {
        if (way == assoc) {
            way = assoc - 1;
            *writebacks += row[way] & 1;
        }
        entry = tag << 1 | w;
        miss = 1;
    }
    for (; way > 0; way--)
        row[way] = row[way - 1];
    row[0] = entry;
    return miss;
}

#if defined(__GNUC__)
#define LIKELY(x) __builtin_expect(!!(x), 1)
#else
#define LIKELY(x) (x)
#endif

/* One access to a level of either kind: associativity 1 steps dm_step
 * on per-set tags (`state`) and dirty flags (`dir`), any other
 * associativity steps lru_step on the packed ways (`state`; `dir` is
 * unused).  Laying the direct-mapped step out as the fall-through path
 * keeps an all-direct-mapped walk as fast as one without the dispatch;
 * associative levels lose nothing measurable. */
static inline int level_step(
    int64_t *restrict state, uint8_t *restrict dir, int64_t assoc,
    int64_t mask, int64_t shift, int64_t line, uint8_t w,
    int64_t *restrict writebacks)
{
    if (LIKELY(assoc == 1))
        return dm_step(state, dir, mask, shift, line, w, writebacks);
    return lru_step(state, assoc, mask, shift, line, w, writebacks);
}

#define LEVEL(x) \
    int64_t *restrict st_##x, uint8_t *restrict dir_##x, int64_t assoc_##x, \
    int64_t mask_##x, int64_t shift_##x
#define STEP(x, line, w) \
    level_step(st_##x, dir_##x, assoc_##x, mask_##x, shift_##x, line, w, \
               &wb_##x)

/* An L1 miss continues to L2, and an L2 miss to L3. */
#define BELOW_L1(line, w) do { \
        acc_2++; \
        if (STEP(2, line, w)) { \
            miss_2++; \
            acc_3++; \
            miss_3 += STEP(3, line, w); \
        } \
    } while (0)

/* One pass over a chunk of slice streams through an L1I/L1D -> L2 -> L3
 * hierarchy with miss filtering.  The chunk is `nseg` segments in
 * program order; segment k is `seg_len[k]` trace line addresses at
 * `seg_lines[k]` with write flags at `seg_writes[k]` (a data stream, to
 * L1D) or NULL (an ifetch stream, to L1I).  Each address is shifted
 * down by `gshift` to the levels' line size.  Each level passes its
 * state as for level_step.  `counts` is a 4x3 row-major table: rows
 * L1I,L1D,L2,L3; columns accesses,misses,writebacks.  The walk counts
 * in locals and adds them to `counts` once, at the end.  The four
 * levels' state arrays must not overlap one another. */
void repro_walk(
    const int64_t *const *seg_lines, const uint8_t *const *seg_writes,
    const int64_t *seg_len, int64_t nseg, int64_t gshift,
    LEVEL(i), LEVEL(d), LEVEL(2), LEVEL(3), int64_t *restrict counts)
{
    int64_t acc_i = 0, miss_i = 0, wb_i = 0;
    int64_t acc_d = 0, miss_d = 0, wb_d = 0;
    int64_t acc_2 = 0, miss_2 = 0, wb_2 = 0;
    int64_t acc_3 = 0, miss_3 = 0, wb_3 = 0;
    for (int64_t k = 0; k < nseg; k++) {
        const int64_t *restrict lines = seg_lines[k];
        const uint8_t *restrict writes = seg_writes[k];
        int64_t n = seg_len[k];
        if (writes == NULL) {
            acc_i += n;
            for (int64_t i = 0; i < n; i++) {
                int64_t line = lines[i] >> gshift;
                if (!STEP(i, line, 0))
                    continue;
                miss_i++;
                BELOW_L1(line, 0);
            }
        } else {
            acc_d += n;
            for (int64_t i = 0; i < n; i++) {
                int64_t line = lines[i] >> gshift;
                uint8_t w = writes[i];
                if (!STEP(d, line, w))
                    continue;
                miss_d++;
                BELOW_L1(line, w);
            }
        }
    }
    counts[0] += acc_i; counts[1] += miss_i; counts[2] += wb_i;
    counts[3] += acc_d; counts[4] += miss_d; counts[5] += wb_d;
    counts[6] += acc_2; counts[7] += miss_2; counts[8] += wb_2;
    counts[9] += acc_3; counts[10] += miss_3; counts[11] += wb_3;
}

/* A batch through one direct-mapped level.  Sets miss[i] to 1 where
 * lines[i] missed; returns the batch's dirty evictions. */
int64_t repro_dm_level(
    const int64_t *restrict lines, const uint8_t *restrict writes,
    int64_t n, int64_t *restrict res, uint8_t *restrict dir, int64_t mask,
    int64_t shift, uint8_t *restrict miss)
{
    int64_t writebacks = 0;
    for (int64_t i = 0; i < n; i++)
        miss[i] = dm_step(res, dir, mask, shift, lines[i], writes[i],
                          &writebacks);
    return writebacks;
}

/* A batch through one set-associative LRU level, on the packed ways
 * lru_step reads.  Same outputs as repro_dm_level. */
int64_t repro_lru_level(
    const int64_t *restrict lines, const uint8_t *restrict writes,
    int64_t n, int64_t *restrict ways, int64_t assoc, int64_t mask,
    int64_t shift, uint8_t *restrict miss)
{
    int64_t writebacks = 0;
    for (int64_t i = 0; i < n; i++)
        miss[i] = lru_step(ways, assoc, mask, shift, lines[i], writes[i],
                           &writebacks);
    return writebacks;
}

/* numpy's bitgen_t (numpy/random/bitgen.h): a BitGenerator's state and
 * its draw functions.  Only next_uint32 and next_double are called. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *state);
    uint32_t (*next_uint32)(void *state);
    double (*next_double)(void *state);
    uint64_t (*next_raw)(void *state);
} bitgen_t;

/* The smallest all-ones mask >= v, for v > 0. */
static inline uint32_t mask32(uint32_t v)
{
#if defined(__GNUC__)
    return UINT32_MAX >> __builtin_clz(v);
#else
    v |= v >> 1; v |= v >> 2; v |= v >> 4; v |= v >> 8; v |= v >> 16;
    return v;
#endif
}

/* base + Generator.integers(0, size, n) for 1 <= size <= 2^32, draw for
 * draw.  numpy's random_bounded_uint64_fill fills a 1-line range without
 * drawing and otherwise runs Lemire's method on next_uint32: x * size,
 * redrawn while its low half is below (2^32 - size) % size.  numpy takes
 * a 2^32-line range as plain next_uint32 outputs; with the product in 64
 * bits the same loop gives exactly that (the threshold is 0).  numpy
 * computes the threshold only for a low half below size; the threshold
 * is itself below size, so computing it once takes the same draws. */
static inline void bounded_fill(
    bitgen_t *bitgen, uint64_t size, int64_t base, int64_t *restrict out,
    int64_t n)
{
    void *state = bitgen->state;
    uint32_t (*next_uint32)(void *) = bitgen->next_uint32;
    if (size == 1) {
        for (int64_t i = 0; i < n; i++)
            out[i] = base;
        return;
    }
    uint32_t threshold = (uint32_t)((((uint64_t)1 << 32) - size) % size);
    for (int64_t i = 0; i < n; i++) {
        uint64_t m = (uint64_t)next_uint32(state) * size;
        while ((uint32_t)m < threshold)
            m = (uint64_t)next_uint32(state) * size;
        out[i] = (int64_t)((uint64_t)base + (m >> 32));
    }
}

/* numpy's 1-D Generator.shuffle of n <= 2^32 int64 values, draw for
 * draw: Fisher-Yates from i = n-1 down to 1, j from random_interval's
 * masked rejection on next_uint32 (numpy switches to next_uint64 past
 * 2^32 values).  numpy redraws a rejected j in an inner loop whose exit
 * branch mispredicts on a good share of draws; here a rejection retries
 * the same i through a select instead -- j = i swaps nothing and i
 * stays -- so the loop has no data-dependent branch. */
static inline void shuffle(
    bitgen_t *bitgen, int64_t *restrict values, int64_t n)
{
    void *state = bitgen->state;
    uint32_t (*next_uint32)(void *) = bitgen->next_uint32;
    for (int64_t i = n - 1; i > 0;) {
        uint32_t c = next_uint32(state) & mask32((uint32_t)i);
        int ok = c <= (uint64_t)i;
        int64_t j = ok ? (int64_t)c : i;
        int64_t t = values[i];
        values[i] = values[j];
        values[j] = t;
        i -= ok;
    }
}

/* One slice body, in SyntheticProgram._draw_body's numpy order, straight
 * into the trace's arrays.  Regions 0-3 are the working sets and region 4
 * the code: region k spans sizes[k] lines (1..2^32) from bases[k].
 * `lines` gets counts[k] draws from each working-set region, then the
 * stream run stream_start, stream_start + 1, ..., stream_count long;
 * then the whole stream is shuffled, and `writes` gets one flag per line,
 * Generator.random's next_double() compared with write_prob.  Last,
 * `fetch` gets counts[4] draws from the code region. */
void repro_body(
    bitgen_t *bitgen, const int64_t *restrict counts,
    const int64_t *restrict sizes, const int64_t *restrict bases,
    int64_t stream_start, int64_t stream_count, double write_prob,
    int64_t *restrict lines, uint8_t *restrict writes,
    int64_t *restrict fetch)
{
    int64_t n = 0;
    for (int k = 0; k < 4; k++) {
        bounded_fill(bitgen, (uint64_t)sizes[k], bases[k], lines + n,
                     counts[k]);
        n += counts[k];
    }
    for (int64_t i = 0; i < stream_count; i++)
        lines[n + i] = stream_start + i;
    n += stream_count;
    shuffle(bitgen, lines, n);
    void *state = bitgen->state;
    double (*next_double)(void *) = bitgen->next_double;
    for (int64_t i = 0; i < n; i++)
        writes[i] = next_double(state) < write_prob;
    bounded_fill(bitgen, (uint64_t)sizes[4], bases[4], fetch, counts[4]);
}
"""

_CACHE_ENV = "REPRO_NATIVE_CACHE"
_FLAGS = ["-O2", "-shared", "-fPIC"]

#: Memoized load result: unset, or (kernel-or-None).
_LOADED: list = []


def _compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _build_dir() -> Path:
    override = os.environ.get(_CACHE_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-spec2017" / "native"


def _build(compiler: str) -> Optional[Path]:
    digest = hashlib.sha256(
        (_SOURCE + "\0" + compiler + "\0" + " ".join(_FLAGS)).encode()
    ).hexdigest()[:16]
    out_dir = _build_dir()
    lib_path = out_dir / f"reprocache-{digest}.so"
    if lib_path.exists():
        return lib_path
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
            src = Path(tmp) / "kernel.c"
            src.write_text(_SOURCE)
            obj = Path(tmp) / "kernel.so"
            proc = subprocess.run(
                [compiler, *_FLAGS, str(src), "-o", str(obj)],
                capture_output=True,
                timeout=120,
            )
            if proc.returncode != 0:
                return None
            # Atomic publish: concurrent workers race benignly.
            os.replace(obj, lib_path)
    except OSError:
        return None
    return lib_path


def _bind(lib_path: Path) -> "NativeKernel":
    lib = ctypes.CDLL(str(lib_path))
    ptr = ctypes.c_void_p
    i64 = ctypes.c_int64
    walk = lib.repro_walk
    walk.restype = None
    level = [ptr, ptr, i64, i64, i64]
    walk.argtypes = [ptr, ptr, ptr, i64, i64] + level * 4 + [ptr]
    dm_level = lib.repro_dm_level
    dm_level.restype = i64
    dm_level.argtypes = [ptr, ptr, i64, ptr, ptr, i64, i64, ptr]
    lru_level = lib.repro_lru_level
    lru_level.restype = i64
    lru_level.argtypes = [ptr, ptr, i64, ptr, i64, i64, i64, ptr]
    body = lib.repro_body
    body.restype = None
    body.argtypes = [ptr, ptr, ptr, ptr, i64, i64, ctypes.c_double,
                     ptr, ptr, ptr]
    return NativeKernel(walk, dm_level, lru_level, body)


#: Most lines a range, and most values a data stream, may hold for
#: :meth:`NativeKernel.body`: past 2^32, numpy's ``integers`` and
#: ``shuffle`` draw 64-bit values, which the kernel does not reproduce.
BODY_MAX_RANGE = 1 << 32

#: ``PyCapsule_GetPointer`` as a private function object (setting types
#: on ``ctypes.pythonapi``'s own attribute would change them process-wide).
_capsule_pointer = ctypes.PYFUNCTYPE(
    ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p
)(("PyCapsule_GetPointer", ctypes.pythonapi))


class NativeKernel:
    """ctypes bindings of the compiled cache and slice-body kernels.

    Arrays cross the boundary as raw data pointers, so every array
    handed to C is C-contiguous with the dtype the kernel reads: the
    level-state arrays are by construction, the per-batch inputs are
    made so here, and :meth:`body` hands its inputs over as ``bytes``
    and allocates its outputs.
    """

    def __init__(self, walk, dm_level, lru_level, body) -> None:
        self._walk = walk
        self._dm_level = dm_level
        self._lru_level = lru_level
        self._body = body

    def walk(self, segments, shift: int, level_state) -> np.ndarray:
        """Run one chunk of slice streams through the hierarchy walk.

        Args:
            segments: ``(lines, writes)`` pairs in program order: a C
                contiguous int64 array of trace line addresses and its C
                contiguous bool write flags (a data stream), or ``None``
                (an ifetch stream).
            shift: Granularity shift from trace lines to level lines.
            level_state: Four ``(state, dirty, associativity, set_mask,
                set_shift)`` tuples in L1I, L1D, L2, L3 order: a
                direct-mapped level's ``_resident`` and ``_dirty``, or an
                associative level's packed ``_way_state`` and ``None``.
                No two levels share an array.

        Returns:
            int64 ``(4, 3)`` array of accesses, misses and writebacks per
            level.
        """
        seg_lines = np.array(
            [lines.ctypes.data for lines, _ in segments], dtype=np.uintp
        )
        seg_writes = np.array(
            [0 if writes is None else writes.ctypes.data
             for _, writes in segments],
            dtype=np.uintp,
        )
        seg_len = np.array(
            [lines.size for lines, _ in segments], dtype=np.int64
        )
        counts = np.zeros((4, 3), dtype=np.int64)
        args = [
            seg_lines.ctypes.data, seg_writes.ctypes.data,
            seg_len.ctypes.data, len(segments), shift,
        ]
        for state, dirty, assoc, set_mask, set_shift in level_state:
            args += [
                state.ctypes.data,
                None if dirty is None else dirty.ctypes.data,
                assoc, set_mask, set_shift,
            ]
        args.append(counts.ctypes.data)
        self._walk(*args)
        return counts

    def dm_level(self, lines, writes, resident, dirty, set_mask, set_shift):
        """One batch through a direct-mapped level, state updated in place.

        Args:
            lines: Granularity-shifted line addresses, program order.
            writes: Boolean write flags aligned with ``lines``.
            resident: The level's per-set tags (-1 empty).
            dirty: The level's per-set boolean dirty flags.
            set_mask: ``num_sets - 1``.
            set_shift: Bits to shift a line address down to its tag.

        Returns:
            ``(miss, writebacks)``: program-order boolean miss array and
            the batch's dirty-eviction count.
        """
        lines, writes, miss = _batch(lines, writes)
        writebacks = self._dm_level(
            lines.ctypes.data, writes.ctypes.data, lines.size,
            resident.ctypes.data, dirty.ctypes.data, set_mask, set_shift,
            miss.ctypes.data,
        )
        return miss, writebacks

    def lru_level(self, lines, writes, ways, set_mask, set_shift):
        """One batch through a set-associative LRU level, in place.

        ``ways`` is the level's packed ``(num_sets, assoc)`` int64 LRU
        state (way 0 = MRU, ``tag << 1 | dirty``, -1 empty); the other
        arguments and the result are as for :meth:`dm_level`.
        """
        lines, writes, miss = _batch(lines, writes)
        writebacks = self._lru_level(
            lines.ctypes.data, writes.ctypes.data, lines.size,
            ways.ctypes.data, ways.shape[1], set_mask, set_shift,
            miss.ctypes.data,
        )
        return miss, writebacks

    def body(
        self,
        rng: np.random.Generator,
        counts: np.ndarray,
        sizes: np.ndarray,
        bases: np.ndarray,
        stream_start: int,
        stream_count: int,
        write_prob: float,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw one slice body from ``rng``, numpy's draws exactly.

        Regions 0-3 are the working sets and region 4 the code.  The
        kernel draws through ``rng``'s own bit generator, under its lock,
        in this order: ``bases[k] + rng.integers(0, sizes[k],
        counts[k])`` for each working-set region (none when
        ``counts[k]`` is 0), the stream run ``stream_start ..
        stream_start + stream_count - 1``, ``rng.shuffle`` of all of
        them, ``rng.random(n) < write_prob`` and ``bases[4] +
        rng.integers(0, sizes[4], counts[4])``.  The arrays and the
        generator state afterwards equal what those numpy calls give.

        Args:
            rng: The slice's generator, continued in place.
            counts: Five int64 draw counts, one per region.
            sizes: Five int64 region sizes in lines.
            bases: Five int64 region bases.
            stream_start: First line of the stream run.
            stream_count: Length of the stream run.
            write_prob: Probability that a data reference writes.

        Returns:
            ``(mem_lines, mem_is_write, ifetch_lines)``: the shuffled int64
            data lines, their bool write flags and the int64 fetch lines.

        Raises:
            ValueError: If an array is not five int64 values, a count is
                negative, a size is outside 1..:data:`BODY_MAX_RANGE` or
                the data stream is longer than that.
        """
        counts = np.asarray(counts, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        bases = np.asarray(bases, dtype=np.int64)
        if not counts.shape == sizes.shape == bases.shape == (5,):
            raise ValueError("a body takes five counts, sizes and bases")
        counted, ranges = counts.tolist(), sizes.tolist()
        if min(counted) < 0 or stream_count < 0:
            raise ValueError("body draw counts must not be negative")
        if min(ranges) < 1 or max(ranges) > BODY_MAX_RANGE:
            raise ValueError(
                f"body ranges must hold 1..{BODY_MAX_RANGE} lines"
            )
        num_lines = sum(counted[:4]) + stream_count
        if num_lines > BODY_MAX_RANGE:
            raise ValueError(
                f"a body stream holds at most {BODY_MAX_RANGE} values"
            )
        lines = np.empty(num_lines, dtype=np.int64)
        writes = np.empty(num_lines, dtype=bool)
        fetch = np.empty(counted[4], dtype=np.int64)
        bit_generator = rng.bit_generator
        with bit_generator.lock:
            self._body(
                _capsule_pointer(bit_generator.capsule, b"BitGenerator"),
                counts.tobytes(), sizes.tobytes(), bases.tobytes(),
                stream_start, stream_count, write_prob,
                _out_pointer(lines), _out_pointer(writes),
                _out_pointer(fetch),
            )
        return lines, writes, fetch


def _out_pointer(array: np.ndarray) -> Optional[int]:
    """A fresh output array's data pointer, ``None`` (NULL) when empty.

    A ctypes view of the buffer costs about a third of ``.ctypes.data``,
    which :meth:`NativeKernel.body` would otherwise pay six times a body;
    its inputs cross as ``bytes``, which ctypes passes as pointers.
    """
    if not array.size:
        return None
    return ctypes.addressof(ctypes.c_char.from_buffer(array))


def _batch(lines: np.ndarray, writes: np.ndarray):
    """A level kernel's inputs as C arrays, plus its miss output."""
    lines = np.ascontiguousarray(lines, dtype=np.int64)
    writes = np.ascontiguousarray(writes, dtype=bool)
    if writes.shape != lines.shape:
        raise ValueError("write flags must align with lines")
    return lines, writes, np.empty(lines.size, dtype=bool)


def load_kernel() -> Optional[NativeKernel]:
    """Compile (once) and load the native kernel, or ``None``."""
    if _LOADED:
        return _LOADED[0]
    kernel = None
    compiler = _compiler()
    if compiler is not None:
        lib_path = _build(compiler)
        if lib_path is not None:
            try:
                kernel = _bind(lib_path)
            except OSError:
                kernel = None
    _LOADED.append(kernel)
    return kernel
