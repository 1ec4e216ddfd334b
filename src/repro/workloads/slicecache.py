"""A bounded in-process memo for deterministic slice traces and headers.

Slice generation is a pure function of ``(program content, slice
index)`` — that per-slice determinism is the repository's synthetic
stand-in for PinPlay checkpoint replay.  Some flows read the same slices
more than once, and this module memoizes them behind one LRU byte
budget, so each repeat is a dictionary hit instead of a fresh
multinomial + shuffle draw:

* the BBV profiling pass reads only headers, and leaves each slice's
  generator paused after them for whoever draws the body next;
* the cache replays of the experiment drivers read each slice once, in
  one pass over every run
  (:meth:`~repro.pinball.replayer.Replayer.replay_all`), which uses a
  full entry it finds but keeps none;
* Sniper's flows re-read what they keep: Fig 12's native run draws the
  whole execution and its regional replays re-read their slices, and
  the warmup prefixes of nearby points overlap.

The memo holds one program.  Every reader replays one program at a time
and never returns to one it finished (Fig 12, the sampler frontier, the
SPECrate copy sweep and the benchmark's ``sniper-regional`` round each go
benchmark by benchmark), so inserting an entry under another program
fingerprint first drops every entry of the program held, whether or not
the new entry fits the budget.  A lookup of another program is a plain
miss and drops nothing.  Within the program the byte budget evicts the
least recently used entry first.  Measured at the default scale, a
whole run's full slices take 63.0 MB (519.lbm_r) to 107.7 MB
(600.perlbench_s), and one benchmark's Sniper regional and reduced
replays keep 8.8 MB (620.omnetpp_s) to 56.1 MB (605.mcf_s), so the
budget binds only above the default scale.

An entry is one of two kinds, keyed alike by ``(program fingerprint,
slice index)``:

* a **full** entry holds a finished :class:`SliceTrace`;
* a **header** entry holds a :class:`SliceHeader` (block and class
  counts, what a BBV profile reads) together with the slice's generator,
  paused right after the header's draws.

A header request is answered by either kind.  A full request is answered
only by a full entry; finding a header entry instead, it takes the entry
out with its generator and draws just the body, so the header's draws are
never repeated and no generator is continued twice.  The finished trace
then takes the header entry's place, unless the request keeps nothing
(a replay pass: ``generate_slice(i, keep=False)``).

Memoization cannot change results: a hit returns a trace that is
bit-identical to what generation would produce (it *is* that trace), and
every consumer treats traces as read-only — the memo enforces this by
marking cached arrays non-writeable, so an accidental in-place mutation
raises instead of silently corrupting later replays.

The budget is ``REPRO_SLICE_CACHE_MB`` megabytes (default
:data:`DEFAULT_BUDGET_MB`); ``0`` disables the memo entirely.  The memo
is per-process: parallel workers each keep their own, which preserves
the repo's partition-independent determinism story.  Full lookups count
``slice.cache.{hit,miss}`` and header lookups ``slice.header.{hit,miss}``;
``slice.cache.evict`` counts each dropped entry, tagged
``reason=program`` or ``reason=budget``.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.isa.trace import SliceHeader, SliceTrace
from repro.telemetry.recorder import get_recorder

#: Default memo budget in megabytes.  The memo holds one program, and a
#: default-scale whole run of full slices takes 63.0-107.7 MB, so the
#: budget binds only above the default scale.  The cache replays keep
#: none; what fills it is Sniper's flows, whose native run keeps the
#: whole execution for the regional replays that follow.
DEFAULT_BUDGET_MB = 192

#: Bytes a header entry is charged for its paused generator (a PCG64
#: generator with its seed sequence measures about 1.3 KB).
GENERATOR_BYTES = 2048

_BUDGET_ENV = "REPRO_SLICE_CACHE_MB"

Key = Tuple[str, int]


class _Entry(NamedTuple):
    value: SliceHeader  # a SliceTrace for a full entry
    size: int
    rng: Optional[np.random.Generator]  # set only on header entries


class SliceTraceCache:
    """LRU map from ``(program fingerprint, slice index)`` to memo entries.

    Every entry is of one program: inserting another program's entry
    drops them all first.

    Args:
        budget_bytes: Maximum total size of the cached arrays (plus
            :data:`GENERATOR_BYTES` per header entry); the
            least-recently-used entries of either kind are evicted past it.
    """

    def __init__(self, budget_bytes: int) -> None:
        if budget_bytes < 1:
            raise ConfigError("slice cache budget must be positive")
        self.budget_bytes = int(budget_bytes)
        self._entries: "OrderedDict[Key, _Entry]" = OrderedDict()
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def used_bytes(self) -> int:
        """Total bytes charged for the cached entries."""
        return self._bytes

    def get(self, key: Key) -> Optional[SliceTrace]:
        """The full trace, or ``None`` (a header entry does not answer)."""
        entry = self._entries.get(key)
        if entry is None or entry.rng is not None:
            return None
        self._entries.move_to_end(key)
        return entry.value

    def get_header(self, key: Key) -> Optional[SliceHeader]:
        """The header, from an entry of either kind, or ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return entry.value

    def take_header(
        self, key: Key
    ) -> Optional[Tuple[SliceHeader, np.random.Generator]]:
        """Remove a header entry and hand over its header and generator."""
        entry = self._entries.get(key)
        if entry is None or entry.rng is None:
            return None
        del self._entries[key]
        self._bytes -= entry.size
        return entry.value, entry.rng

    def put(self, key: Key, trace: SliceTrace) -> None:
        """Insert a full trace (its header entry was taken before)."""
        self._insert(key, trace, None, _TRACE_ARRAYS)

    def put_header(
        self, key: Key, header: SliceHeader, rng: np.random.Generator
    ) -> None:
        """Insert a header with the generator paused after its draws."""
        self._insert(key, header, rng, _HEADER_ARRAYS)

    def _insert(self, key: Key, value, rng, arrays) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        # One program at a time: every reader is done with the program
        # it read before, so its entries go before the first of another.
        if self._entries and next(iter(self._entries))[0] != key[0]:
            _count_evicted("program", len(self._entries))
            self.clear()
        size = _nbytes(value, arrays) + (0 if rng is None else GENERATOR_BYTES)
        if size > self.budget_bytes:
            return
        for name in arrays:
            getattr(value, name).flags.writeable = False
        self._entries[key] = _Entry(value, size, rng)
        self._bytes += size
        evicted = 0
        while self._bytes > self.budget_bytes:
            _, oldest = self._entries.popitem(last=False)
            self._bytes -= oldest.size
            evicted += 1
        if evicted:
            _count_evicted("budget", evicted)

    def clear(self) -> None:
        self._entries.clear()
        self._bytes = 0


_HEADER_ARRAYS = ("block_counts", "class_counts")
_TRACE_ARRAYS = _HEADER_ARRAYS + ("mem_lines", "mem_is_write", "ifetch_lines")


def _nbytes(value: SliceHeader, arrays) -> int:
    return sum(getattr(value, name).nbytes for name in arrays)


#: Module slot: unset list, or [SliceTraceCache-or-None].
_CACHE: list = []


def get_slice_cache() -> Optional[SliceTraceCache]:
    """The process-wide memo, or ``None`` when disabled."""
    if not _CACHE:
        raw = os.environ.get(_BUDGET_ENV)
        if raw is None:
            budget_mb = DEFAULT_BUDGET_MB
        else:
            try:
                budget_mb = int(raw)
            except ValueError:
                raise ConfigError(
                    f"{_BUDGET_ENV} must be an integer, got {raw!r}"
                )
            if budget_mb < 0:
                raise ConfigError(
                    f"{_BUDGET_ENV} must be >= 0, got {budget_mb}"
                )
        if budget_mb == 0:
            _CACHE.append(None)
        else:
            _CACHE.append(SliceTraceCache(budget_mb * (1 << 20)))
    return _CACHE[0]


def reset_slice_cache() -> None:
    """Drop the memo and re-read the budget (for tests)."""
    _CACHE.clear()


def _count(name: str, found: bool) -> None:
    recorder = get_recorder()
    if recorder is not None:
        recorder.count(f"{name}.{'hit' if found else 'miss'}", 1)


def _count_evicted(reason: str, n: int) -> None:
    recorder = get_recorder()
    if recorder is not None:
        recorder.count("slice.cache.evict", n, reason=reason)


def lookup(key: Key) -> Optional[SliceTrace]:
    """Full-trace lookup with ``slice.cache`` hit/miss telemetry."""
    cache = get_slice_cache()
    if cache is None:
        return None
    trace = cache.get(key)
    _count("slice.cache", trace is not None)
    return trace


def lookup_header(key: Key) -> Optional[SliceHeader]:
    """Header lookup with ``slice.header`` hit/miss telemetry."""
    cache = get_slice_cache()
    if cache is None:
        return None
    header = cache.get_header(key)
    _count("slice.header", header is not None)
    return header


def take_header(
    key: Key,
) -> Optional[Tuple[SliceHeader, np.random.Generator]]:
    """Hand over a memoized header and its paused generator, if any."""
    cache = get_slice_cache()
    return None if cache is None else cache.take_header(key)


def store(key: Key, trace: SliceTrace) -> None:
    """Insert a freshly generated trace (no-op when disabled)."""
    cache = get_slice_cache()
    if cache is not None:
        cache.put(key, trace)


def store_header(
    key: Key, header: SliceHeader, rng: np.random.Generator
) -> None:
    """Insert a freshly drawn header and its generator (no-op when disabled)."""
    cache = get_slice_cache()
    if cache is not None:
        cache.put_header(key, header, rng)
