"""Native compiled kernels: the cache walk, the slice body and k-means steps.

Compiles a small C source with the host C compiler at first use and
loads it through :mod:`ctypes`.  Its cache kernel, ``repro_walk``, walks
an L1I/L1D -> L2 -> L3 hierarchy of any associativity over one fused
chunk (:class:`~repro.cache.fused.FusedHierarchy`), read straight from
each slice's own arrays, as a sequential per-access loop with exactly
the semantics of the oracle loops in :mod:`repro.cache.cache`.  Each
level kind has one ``static inline`` step: ``dm_step`` on a
direct-mapped level's ``_resident``/``_dirty`` arrays and ``lru_step``
on an associative level's packed ``_way_state``, the state
:class:`~repro.cache.cache.CacheLevel` keeps, updated in place.

A second kernel, ``repro_body``, draws a slice body -- working-set and
stream lines, their shuffle, write flags and fetch lines -- with numpy's
``Generator.integers``, ``shuffle`` and ``random`` draws, draw for draw,
on the generator's own ``bitgen_t``;
:class:`~repro.workloads.program.SyntheticProgram` draws every slice body
with it.

Two more, ``repro_lloyd_step`` and ``repro_farthest_step``, run one Lloyd
iteration and one farthest-first seeding step of
:mod:`repro.clustering.kmeans` after numpy's products and norms, in the
numpy path's order and to its bits (:class:`LloydSteps`,
:class:`FarthestSteps`).  The source builds with ``-ffp-contract=off`` so
that no compiler fuses their multiplies and adds.

The build is content-addressed (the object file name embeds a hash of
the source and compiler), so it compiles once per machine and is reused
by every process, including parallel workers racing to create it
(writes go to a temporary file followed by an atomic rename).

Everything degrades gracefully: no compiler, a failed build, or a
failed load all surface as :func:`load_kernel` returning ``None``, and
each caller takes its numpy path instead: the fused engine's numpy
sweep, numpy's own draws for a slice body, numpy's k-means steps.  The
kernels are pure functions of their inputs and state — no result
depends on whether a compiler exists.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import weakref
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

_SOURCE = r"""
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

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

/* A squared distance the way repro.clustering.kmeans writes it:
 * (|x|^2 + |c|^2) - 2 x.c, clamped at 0 as np.maximum does (a NaN stays
 * NaN).  The source builds with -ffp-contract=off, so the product and the
 * subtraction round separately, as in numpy. */
static inline double sq_dist(double data_sq, double center_sq, double cross)
{
    double v = (data_sq + center_sq) - 2.0 * cross;
    return v < 0.0 ? 0.0 : v;
}

#if defined(__GNUC__)
typedef double v2d __attribute__((vector_size(16)));
typedef int64_t v2i __attribute__((vector_size(16)));
#endif

/* row[j] = sq_dist(data_sq, center_sq[j], cross[j]) for j < k, two at a
 * time where the compiler has vector types: the same operations on each
 * lane, so the same bits. */
static inline void sq_dist_row(
    double data_sq, const double *restrict center_sq,
    const double *restrict cross, int64_t k, double *restrict row)
{
    int64_t j = 0;
#if defined(__GNUC__)
    const v2d x2 = {data_sq, data_sq}, two = {2.0, 2.0}, zero = {0.0, 0.0};
    for (; j + 2 <= k; j += 2) {
        v2d c2, p2, v;
        memcpy(&c2, center_sq + j, sizeof c2);
        memcpy(&p2, cross + j, sizeof p2);
        v = (x2 + c2) - two * p2;
        v = (v2d)((v2i)v & ~(v2i)(v < zero));
        memcpy(row + j, &v, sizeof v);
    }
#endif
    for (; j < k; j++)
        row[j] = sq_dist(data_sq, center_sq[j], cross[j]);
}

/* sum[j] += x[j] for j < d, two at a time where the compiler has vector
 * types; each element still adds in the caller's order. */
static inline void add_row(
    double *restrict sum, const double *restrict x, int64_t d)
{
    int64_t j = 0;
#if defined(__GNUC__)
    for (; j + 2 <= d; j += 2) {
        v2d s2, x2;
        memcpy(&s2, sum + j, sizeof s2);
        memcpy(&x2, x + j, sizeof x2);
        s2 += x2;
        memcpy(sum + j, &s2, sizeof s2);
    }
#endif
    for (; j < d; j++)
        sum[j] += x[j];
}

/* numpy's argmax of v[0..n), n >= 1: the first NaN, else the first
 * maximum. */
static int64_t first_max(const double *restrict v, int64_t n)
{
    double best = v[0];
    int64_t arg = 0;
    if (best != best)
        return 0;
    for (int64_t i = 1; i < n; i++) {
        if (v[i] > best) {
            best = v[i];
            arg = i;
        } else if (v[i] != v[i]) {
            return i;
        }
    }
    return arg;
}

/* numpy's argmin of squared distances v[0..k), k >= 1: the first NaN,
 * else the first minimum.  Distances lie in [0, +inf] or are NaN, so
 * their sum is NaN exactly when one is, and the minimum, which does not
 * depend on the order it is taken in, comes from four running minima
 * before a scan finds its first occurrence. */
static inline int64_t first_min(const double *restrict v, int64_t k)
{
    double m0 = v[0], m1 = v[0], m2 = v[0], m3 = v[0];
    double s0 = 0.0, s1 = 0.0;
    int64_t j = 0;
    for (; j + 4 <= k; j += 4) {
        m0 = v[j] < m0 ? v[j] : m0;
        m1 = v[j + 1] < m1 ? v[j + 1] : m1;
        m2 = v[j + 2] < m2 ? v[j + 2] : m2;
        m3 = v[j + 3] < m3 ? v[j + 3] : m3;
        s0 += v[j] + v[j + 1];
        s1 += v[j + 2] + v[j + 3];
    }
    for (; j < k; j++) {
        m0 = v[j] < m0 ? v[j] : m0;
        s0 += v[j];
    }
    if ((s0 + s1) != (s0 + s1)) {
        for (j = 0; v[j] == v[j]; j++)
            ;
        return j;
    }
    m0 = m1 < m0 ? m1 : m0;
    m2 = m3 < m2 ? m3 : m2;
    m0 = m2 < m0 ? m2 : m0;
    for (j = 0; v[j] != m0; j++)
        ;
    return j;
}

/* One Lloyd iteration of kmeans._lloyd after its numpy reductions:
 * `cross` is data @ centers.T (n x k, row-major) and `center_sq` the k
 * squared center norms; `row` is room for k values and `spare` for n.
 * Each point gets the label of its nearest center (np.argmin's: the
 * first NaN, else the first minimum) and that squared distance as its
 * cost.  With new_centers NULL that is all, and 0 is returned.
 * Otherwise each cluster's members are summed in index order from 0.0
 * (np.bincount's order) and divided by the count; each empty cluster, in
 * cluster order, is reseeded at the costliest point (np.argmax's), whose
 * cost then counts as 0 -- in `spare`, so `costs` keeps every point's
 * distance; and the largest coordinate move |new - old| is returned (NaN
 * if any move is NaN, as np.max).  A move of 0 leaves labels and costs
 * exactly what new_centers would give. */
double repro_lloyd_step(
    const double *restrict data, const double *restrict data_sq,
    int64_t n, int64_t d, const double *restrict cross,
    const double *restrict center_sq, int64_t k,
    const double *restrict centers, double *restrict new_centers,
    int64_t *restrict labels, double *restrict costs,
    int64_t *restrict counts, double *restrict row,
    double *restrict spare)
{
    for (int64_t i = 0; i < n; i++) {
        sq_dist_row(data_sq[i], center_sq, cross + i * k, k, row);
        int64_t label = first_min(row, k);
        labels[i] = label;
        costs[i] = row[label];
    }
    if (new_centers == NULL)
        return 0.0;
    for (int64_t c = 0; c < k; c++)
        counts[c] = 0;
    for (int64_t m = 0; m < k * d; m++)
        new_centers[m] = 0.0;
    for (int64_t i = 0; i < n; i++) {
        counts[labels[i]]++;
        add_row(new_centers + labels[i] * d, data + i * d, d);
    }
    int reseeded = 0;
    for (int64_t c = 0; c < k; c++) {
        double *center = new_centers + c * d;
        if (counts[c] > 0) {
            double count = (double)counts[c];
            for (int64_t j = 0; j < d; j++)
                center[j] /= count;
            continue;
        }
        if (!reseeded) {
            memcpy(spare, costs, (size_t)n * sizeof(double));
            reseeded = 1;
        }
        int64_t worst = first_max(spare, n);
        memcpy(center, data + worst * d, (size_t)d * sizeof(double));
        spare[worst] = 0.0;
    }
    double shift = fabs(new_centers[0] - centers[0]);
    for (int64_t m = 1; m < k * d && shift == shift; m++) {
        double move = fabs(new_centers[m] - centers[m]);
        if (move > shift || move != move)
            shift = move;
    }
    return shift;
}

/* One farthest-first step of kmeans._maximin_init after its numpy
 * product: the new center is data row `center`, `cross` is data @ that
 * row (n values), and its squared norm is data_sq[center].  Lowers each
 * point's closest squared distance to the new center's, np.minimum's way
 * (a NaN on either side wins), and returns np.argmax of the result: the
 * row of the next center. */
int64_t repro_farthest_step(
    const double *restrict data_sq, const double *restrict cross,
    int64_t center, int64_t n, double *restrict closest)
{
    double center_sq = data_sq[center];
    for (int64_t i = 0; i < n; i++) {
        double v = sq_dist(data_sq[i], center_sq, cross[i]);
        double c = closest[i];
        closest[i] = (c != c || c < v) ? c : v;
    }
    return first_max(closest, n);
}
"""

_CACHE_ENV = "REPRO_NATIVE_CACHE"
#: -ffp-contract=off keeps the k-means steps' arithmetic numpy's: no
#: multiply-add is fused, whatever the target.
_FLAGS = ["-O2", "-ffp-contract=off", "-shared", "-fPIC"]

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
    body = lib.repro_body
    body.restype = None
    body.argtypes = [ptr, ptr, ptr, ptr, i64, i64, ctypes.c_double,
                     ptr, ptr, ptr]
    lloyd_step = lib.repro_lloyd_step
    lloyd_step.restype = ctypes.c_double
    lloyd_step.argtypes = [ptr, ptr, i64, i64, ptr, ptr, i64, ptr, ptr,
                           ptr, ptr, ptr, ptr, ptr]
    farthest_step = lib.repro_farthest_step
    farthest_step.restype = i64
    farthest_step.argtypes = [ptr, ptr, i64, i64, ptr]
    return NativeKernel(walk, body, lloyd_step, farthest_step)


#: Most lines a range, and most values a data stream, may hold for
#: :meth:`NativeKernel.body`: past 2^32, numpy's ``integers`` and
#: ``shuffle`` draw 64-bit values, which the kernel does not reproduce.
BODY_MAX_RANGE = 1 << 32

#: ``PyCapsule_GetPointer`` as a private function object (setting types
#: on ``ctypes.pythonapi``'s own attribute would change them process-wide).
_capsule_pointer = ctypes.PYFUNCTYPE(
    ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p
)(("PyCapsule_GetPointer", ctypes.pythonapi))


class _Address(weakref.ref):
    """A weak reference to an array, with its id and data address."""

    __slots__ = ("key", "address")


class NativeKernel:
    """ctypes bindings of the compiled cache, slice-body and k-means kernels.

    Arrays cross the boundary as raw data pointers, so every array
    handed to C is C-contiguous with the dtype the kernel reads: the
    level-state arrays are by construction, the fused engine's submit
    makes each stream so, :meth:`body` hands its inputs over as
    ``bytes`` and allocates its outputs, and the k-means steps check
    theirs once.
    """

    def __init__(self, walk, body, lloyd_step, farthest_step) -> None:
        self._walk = walk
        self._body = body
        self._lloyd_step = lloyd_step
        self._farthest_step = farthest_step
        #: id -> weak reference carrying the data address, of each
        #: read-only array a walk has read and each stream a body has
        #: drawn, for as long as the array lives.
        addresses: Dict[int, _Address] = {}
        self._addresses = addresses
        # Runs as an array is freed, before its id can be reused.
        self._forget = lambda ref: addresses.pop(ref.key, None)

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
        address = self._address
        nseg = len(segments)
        # Both pointer tables in one array: every lines pointer, then
        # every write-flags pointer (0, NULL, for an ifetch stream).
        pointers = np.array(
            [address(lines) for lines, _ in segments]
            + [0 if writes is None else address(writes)
               for _, writes in segments],
            dtype=np.uintp,
        )
        seg_len = np.array(
            [lines.size for lines, _ in segments], dtype=np.int64
        )
        counts = np.zeros((4, 3), dtype=np.int64)
        tables = _pointer(pointers)
        args = [
            tables, tables + nseg * pointers.itemsize, _pointer(seg_len),
            nseg, shift,
        ]
        for state, dirty, assoc, set_mask, set_shift in level_state:
            args += [
                address(state),
                None if dirty is None else address(dirty),
                assoc, set_mask, set_shift,
            ]
        args.append(_pointer(counts))
        # `segments` and `level_state` hold every array the tables and
        # arguments point into until the call returns.
        self._walk(*args)
        return counts

    def _address(self, array: np.ndarray) -> int:
        """``array``'s data address, taken once while a read-only array lives.

        A writable array's address comes from a ctypes buffer view.  The
        slice memo freezes its arrays and replays them, and a buffer view
        needs a writable array, so a frozen array's address is kept,
        against a weak reference, until the array is freed: a body's
        streams from when :meth:`body` draws them, any other array from
        its first walk (one ``.ctypes.data`` read, about 2 µs).  Only an
        in-place ``ndarray.resize`` moves a live array's data, and
        nothing here resizes a trace or level array.
        """
        if array.flags.writeable:
            return ctypes.addressof(ctypes.c_char.from_buffer(array))
        known = self._addresses.get(id(array))  # repro-lint: disable=REP003 -- a live array's identity, kept in this process only
        if known is not None and known() is array:
            return known.address
        return self._remember(array, array.ctypes.data)

    def _remember(self, array: np.ndarray, address: int) -> int:
        """Keep ``address`` as ``array``'s until the array is freed."""
        ref = _Address(array, self._forget)
        ref.key = id(array)  # repro-lint: disable=REP003 -- a live array's identity, kept in this process only
        ref.address = address
        self._addresses[ref.key] = ref
        return address

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
        outputs = (
            np.empty(num_lines, dtype=np.int64),
            np.empty(num_lines, dtype=bool),
            np.empty(counted[4], dtype=np.int64),
        )
        pointers = [_pointer(array) for array in outputs]
        bit_generator = rng.bit_generator
        with bit_generator.lock:
            self._body(
                _capsule_pointer(bit_generator.capsule, b"BitGenerator"),
                counts.tobytes(), sizes.tobytes(), bases.tobytes(),
                stream_start, stream_count, write_prob, *pointers,
            )
        # A walk reads these streams again, often after the slice memo
        # has frozen them: it finds their addresses here.
        for array, address in zip(outputs, pointers):
            if address is not None:
                self._remember(array, address)
        return outputs

    def lloyd(
        self, data: np.ndarray, data_sq: np.ndarray, centers: np.ndarray
    ) -> "LloydSteps":
        """Native Lloyd iterations over ``data`` from ``centers``.

        ``data`` is C-contiguous float64 ``(n, d)``, ``data_sq`` its
        ``(n,)`` squared row norms alike and ``centers`` ``(k, d)``; see
        :class:`LloydSteps`.
        """
        return LloydSteps(self._lloyd_step, data, data_sq, centers)

    def farthest(self, data_sq: np.ndarray) -> "FarthestSteps":
        """Native farthest-first steps over points of norms ``data_sq``.

        ``data_sq`` is a C-contiguous float64 ``(n,)`` vector; see
        :class:`FarthestSteps`.
        """
        return FarthestSteps(self._farthest_step, data_sq)


def _checked(array: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """``array`` if it is C-contiguous float64 of ``shape``, else ValueError.

    The k-means steps hand raw pointers to C, which reads exactly that
    layout.
    """
    if (
        not isinstance(array, np.ndarray)
        or array.dtype != np.float64
        or array.shape != shape
        or not array.flags.c_contiguous
    ):
        raise ValueError(
            f"expected a C-contiguous float64 array of shape {shape}, got "
            f"{getattr(array, 'dtype', type(array).__name__)} "
            f"{getattr(array, 'shape', '')}"
        )
    return array


def _shape(array: np.ndarray, ndim: int) -> Tuple[int, ...]:
    """A non-empty array's shape, after checking it has ``ndim`` axes."""
    if not isinstance(array, np.ndarray) or array.ndim != ndim or (
        not array.size
    ):
        raise ValueError(f"expected a non-empty {ndim}-D array")
    return array.shape


class LloydSteps:
    """The C side of one ``kmeans._lloyd`` call: ``repro_lloyd_step``.

    Checks ``data`` and ``data_sq`` once and owns every other array the
    C code reads or writes: :attr:`cross` and :attr:`center_sq`, which
    numpy fills before each step (``data @ centers.T`` and the centers'
    squared norms, the reductions whose order BLAS and einsum choose);
    labels, costs and scratch; and two center buffers the steps
    alternate between, the first a copy of ``centers``.  So every
    pointer is taken once (one ``.ctypes.data`` read costs about 2 µs),
    and a step is one call with no array to check.

    Raises:
        ValueError: If ``data`` is not non-empty C-contiguous float64
            ``(n, d)``, ``data_sq`` not ``(n,)`` alike, or ``centers`` not
            a non-empty ``(k, d)`` array.
    """

    def __init__(self, step, data, data_sq, centers) -> None:
        n, d = _shape(data, 2)
        k, columns = _shape(centers, 2)
        if columns != d:
            raise ValueError(f"centers have {columns} columns, data {d}")
        self._step = step
        self._inputs = (_checked(data, (n, d)), _checked(data_sq, (n,)))
        self._cross = np.empty((n, k), dtype=np.float64)
        self._center_sq = np.empty(k, dtype=np.float64)
        self._buffers = (
            np.array(centers, dtype=np.float64, order="C"),
            np.empty((k, d), dtype=np.float64),
        )
        self._current = 0
        self._labels = np.empty(n, dtype=np.int64)
        self._costs = np.empty(n, dtype=np.float64)
        self._scratch = (
            np.empty(k, dtype=np.int64),  # counts
            np.empty(k, dtype=np.float64),  # one point's distances
            np.empty(n, dtype=np.float64),  # costs the reseeds take
        )
        inputs = (
            _pointer(data), _pointer(data_sq), n, d, _pointer(self._cross),
            _pointer(self._center_sq), k,
        )
        outputs = tuple(
            _pointer(array)
            for array in (self._labels, self._costs, *self._scratch)
        )
        first, second = (_pointer(buffer) for buffer in self._buffers)
        self._calls = (
            (*inputs, first, second, *outputs),
            (*inputs, second, first, *outputs),
        )
        self._assign = (*inputs, None, None, *outputs)

    @property
    def cross(self) -> np.ndarray:
        """``(n, k)``: fill with ``data @ centers.T`` before a call."""
        return self._cross

    @property
    def center_sq(self) -> np.ndarray:
        """``(k,)``: fill with the squared norms of :attr:`centers`."""
        return self._center_sq

    @property
    def centers(self) -> np.ndarray:
        """The current centers: the first ones, then each step's."""
        return self._buffers[self._current]

    @property
    def labels(self) -> np.ndarray:
        """``(n,)`` int64 label of every point, from the last call."""
        return self._labels

    @property
    def costs(self) -> np.ndarray:
        """``(n,)`` squared distance of every point to its center."""
        return self._costs

    def step(self) -> float:
        """One Lloyd iteration from :attr:`centers` to new ones.

        Labels every point with its nearest center and costs it at that
        squared distance; sums each cluster's members in index order from
        0.0 and divides by the count; reseeds each empty cluster, in
        order, at the costliest point not yet taken.  The new centers
        become :attr:`centers`.

        Returns:
            The largest coordinate move.  At 0, :attr:`labels` and
            :attr:`costs` are already those of the new centers.
        """
        shift = self._step(*self._calls[self._current])
        self._current = 1 - self._current
        return shift

    def assign(self) -> None:
        """Set :attr:`labels` and :attr:`costs` for :attr:`centers`."""
        self._step(*self._assign)


class FarthestSteps:
    """The C side of one ``kmeans._maximin_init`` call.

    Keeps every point's squared distance to its closest chosen center
    (+inf before the first) and owns :attr:`cross`, which numpy fills
    with each new center's product, so every pointer is taken once.  A
    center is a data row, so its squared norm is its ``data_sq`` entry:
    einsum reduces each row of a matrix as it reduces that row alone.

    Raises:
        ValueError: If ``data_sq`` is not a non-empty C-contiguous float64
            vector, or a step's center not one of its rows.
    """

    def __init__(self, step, data_sq) -> None:
        (n,) = _shape(data_sq, 1)
        self._step = step
        self._data_sq = _checked(data_sq, (n,))
        self._cross = np.empty((n, 1), dtype=np.float64)
        self._closest = np.full(n, np.inf)
        self._n = n
        self._pointers = (
            _pointer(data_sq), _pointer(self._cross), _pointer(self._closest)
        )

    @property
    def cross(self) -> np.ndarray:
        """``(n, 1)``: fill with ``data @ row.T`` of the new center."""
        return self._cross

    def step(self, center: int) -> int:
        """Take data row ``center``, whose product fills :attr:`cross`.

        Lowers each point's closest squared distance to the new center's
        and returns the row farthest from its closest center (the first,
        on a tie): the next center to take.
        """
        n = self._n
        if not 0 <= center < n:
            raise ValueError(f"center {center} is not a row of {n}")
        data_sq, cross, closest = self._pointers
        return self._step(data_sq, cross, center, n, closest)


def _pointer(array: np.ndarray) -> Optional[int]:
    """An array's data pointer, ``None`` (NULL) when it is empty.

    For a writable array a ctypes view of the buffer costs about a third
    of ``.ctypes.data``, which a read-only array needs.  Small inputs
    that are not arrays (a body's counts, sizes and bases) cross as
    ``bytes``, which ctypes passes as pointers.
    """
    if not array.size:
        return None
    if array.flags.writeable:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    return array.ctypes.data


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
