"""Native compiled cache kernels.

Compiles a small C source with the host C compiler at first use and
loads it through :mod:`ctypes`.  It holds three kernels, all sequential
per-access loops with exactly the semantics of the oracle loops in
:mod:`repro.cache.cache`:

* ``repro_dm_hierarchy`` walks a direct-mapped L1I/L1D -> L2 -> L3
  hierarchy over one fused chunk (:class:`~repro.cache.fused.FusedHierarchy`);
* ``repro_dm_level`` runs one batch through one direct-mapped level,
  on its ``_resident``/``_dirty`` arrays;
* ``repro_lru_level`` runs one batch through one set-associative LRU
  level, on the packed ``_way_state`` array the wave path keeps.

The two direct-mapped kernels share one ``static inline`` step, so
direct-mapped semantics are written once.  Every kernel works in place
on the state :class:`~repro.cache.cache.CacheLevel` keeps, so native and
numpy passes interleave on one level.

The build is content-addressed (the object file name embeds a hash of
the source and compiler), so it compiles once per machine and is reused
by every process, including parallel workers racing to create it
(writes go to a temporary file followed by an atomic rename).

Everything degrades gracefully: no compiler, a failed build, or a
failed load all surface as :func:`load_kernel` returning ``None``, and
the caller falls back to the numpy strategies.  The kernels are pure
functions of their inputs and state — determinism is unaffected by
which backend runs.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

_SOURCE = r"""
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

/* One pass over an interleaved ifetch+data reference stream through a
 * direct-mapped L1I/L1D -> L2 -> L3 hierarchy with miss filtering.
 * `counts` is a 4x3 row-major table: rows L1I,L1D,L2,L3; columns
 * accesses,misses,writebacks.  The walk counts in locals and adds them
 * to `counts` once, at the end.  The four levels' state arrays must not
 * overlap one another. */
void repro_dm_hierarchy(
    const int64_t *restrict lines, const uint8_t *restrict writes,
    const uint8_t *restrict is_data, int64_t n,
    int64_t *restrict res_l1i, uint8_t *restrict dir_l1i,
    int64_t mask_l1i, int64_t shift_l1i,
    int64_t *restrict res_l1d, uint8_t *restrict dir_l1d,
    int64_t mask_l1d, int64_t shift_l1d,
    int64_t *restrict res_l2, uint8_t *restrict dir_l2,
    int64_t mask_l2, int64_t shift_l2,
    int64_t *restrict res_l3, uint8_t *restrict dir_l3,
    int64_t mask_l3, int64_t shift_l3,
    int64_t *restrict counts)
{
    int64_t acc_i = 0, miss_i = 0, wb_i = 0;
    int64_t acc_d = 0, miss_d = 0, wb_d = 0;
    int64_t acc_2 = 0, miss_2 = 0, wb_2 = 0;
    int64_t acc_3 = 0, miss_3 = 0, wb_3 = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t line = lines[i];
        uint8_t w = 0;
        if (is_data[i]) {
            w = writes[i];
            acc_d++;
            if (!dm_step(res_l1d, dir_l1d, mask_l1d, shift_l1d, line, w,
                         &wb_d))
                continue;
            miss_d++;
        } else {
            acc_i++;
            if (!dm_step(res_l1i, dir_l1i, mask_l1i, shift_l1i, line, 0,
                         &wb_i))
                continue;
            miss_i++;
        }
        acc_2++;
        if (!dm_step(res_l2, dir_l2, mask_l2, shift_l2, line, w, &wb_2))
            continue;
        miss_2++;
        acc_3++;
        miss_3 += dm_step(res_l3, dir_l3, mask_l3, shift_l3, line, w, &wb_3);
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

/* A batch through one set-associative LRU level.  `ways` is the packed
 * (sets x assoc) row-major state the wave path keeps: way 0 = MRU, each
 * entry tag << 1 | dirty, -1 = empty, valid entries a prefix of the
 * row.  A hit promotes its way to MRU and ORs in the write; a miss
 * fills the first empty way or evicts the LRU one.  Same outputs as
 * repro_dm_level. */
int64_t repro_lru_level(
    const int64_t *lines, const uint8_t *writes, int64_t n,
    int64_t *ways, int64_t assoc, int64_t mask, int64_t shift, uint8_t *miss)
{
    int64_t writebacks = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t *row = ways + (lines[i] & mask) * assoc;
        int64_t tag = lines[i] >> shift, entry;
        int64_t way = 0;
        while (way < assoc && row[way] >= 0 && (row[way] >> 1) != tag)
            way++;
        if (way < assoc && row[way] >= 0) {
            entry = row[way] | writes[i];
            miss[i] = 0;
        } else {
            if (way == assoc) {
                way = assoc - 1;
                writebacks += row[way] & 1;
            }
            entry = tag << 1 | writes[i];
            miss[i] = 1;
        }
        for (; way > 0; way--)
            row[way] = row[way - 1];
        row[0] = entry;
    }
    return writebacks;
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
    walk = lib.repro_dm_hierarchy
    walk.restype = None
    walk.argtypes = [ptr, ptr, ptr, i64] + [ptr, ptr, i64, i64] * 4 + [ptr]
    dm_level = lib.repro_dm_level
    dm_level.restype = i64
    dm_level.argtypes = [ptr, ptr, i64, ptr, ptr, i64, i64, ptr]
    lru_level = lib.repro_lru_level
    lru_level.restype = i64
    lru_level.argtypes = [ptr, ptr, i64, ptr, i64, i64, i64, ptr]
    return NativeKernel(walk, dm_level, lru_level)


class NativeKernel:
    """ctypes bindings of the compiled hierarchy walk and level steps.

    Arrays cross the boundary as raw data pointers, so every array
    handed to C is C-contiguous with the dtype the kernel reads: the
    level-state arrays are by construction, and the per-batch inputs
    are made so here.
    """

    def __init__(self, walk, dm_level, lru_level) -> None:
        self._walk = walk
        self._dm_level = dm_level
        self._lru_level = lru_level

    def __call__(
        self,
        lines: np.ndarray,
        writes: np.ndarray,
        is_data: np.ndarray,
        level_state,
        counts: np.ndarray,
    ) -> None:
        """Run one chunk of the direct-mapped hierarchy walk.

        Args:
            lines: Granularity-shifted int64 line addresses, program order.
            writes: uint8 write flags, each 0 or 1, aligned with ``lines``.
            is_data: uint8 flags, 1 = data reference, 0 = ifetch.
            level_state: Four ``(resident, dirty, set_mask, set_shift)``
                tuples in L1I, L1D, L2, L3 order; no two levels share an
                array.
            counts: int64 ``(4, 3)`` array accumulating accesses, misses
                and writebacks per level.
        """
        args = [
            lines.ctypes.data, writes.ctypes.data, is_data.ctypes.data,
            lines.size,
        ]
        for resident, dirty, set_mask, set_shift in level_state:
            args += [resident.ctypes.data, dirty.ctypes.data, set_mask,
                     set_shift]
        args.append(counts.ctypes.data)
        self._walk(*args)

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
