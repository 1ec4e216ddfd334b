"""Seeded, stratified benchmark subsets.

Strata are the memory archetypes (compute / balanced / memory).  Each
stratum gets a share of the subset proportional to its size (largest
remainder, ties broken by name); inside a stratum the benchmarks are
ordered by their Table II point count and cut into as many contiguous
bands as the stratum's share, and the seed picks one benchmark per band.
Every subset therefore spans the archetypes and the point-count range in
the suite's proportions, and the same seed always gives the same subset.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

#: (benchmark id, Table II point count, memory archetype)
Row = Tuple[str, int, str]


def allocate(sizes: Dict[str, int], n: int) -> Dict[str, int]:
    """Largest-remainder proportional allocation of ``n`` picks to strata."""
    total = sum(sizes.values())
    if not 0 < n <= total:
        raise ValueError(f"subset size {n} outside 1..{total}")
    quotas = {k: n * size / total for k, size in sizes.items()}
    shares = {k: int(q) for k, q in quotas.items()}
    leftover = n - sum(shares.values())
    for k in sorted(quotas, key=lambda k: (shares[k] - quotas[k], k))[:leftover]:
        shares[k] += 1
    return shares


def stratified_subset(table: Sequence[Row], n: int, seed: int) -> List[str]:
    """``n`` benchmarks, one per (archetype, point-count band), picked by ``seed``.

    The result is ordered by archetype, then point count, so
    :func:`partition` can deal it into similar parts.
    """
    strata: Dict[str, List[Row]] = {}
    for row in table:
        strata.setdefault(row[2], []).append(row)
    rng = np.random.default_rng(seed)
    picked: List[str] = []
    shares = allocate({k: len(v) for k, v in strata.items()}, n)
    for archetype in sorted(strata):
        members = sorted(strata[archetype], key=lambda r: (r[1], r[0]))
        share = shares[archetype]
        edges = np.linspace(0, len(members), share + 1)
        for band in range(share):
            lo, hi = int(round(edges[band])), int(round(edges[band + 1]))
            picked.append(members[lo + int(rng.integers(hi - lo))][0])
    return picked


def partition(names: Sequence[str], parts: int) -> List[List[str]]:
    """Deal ``names`` round-robin into ``parts`` lists of near-equal mix."""
    if parts < 1:
        raise ValueError("parts must be positive")
    return [list(names[i::parts]) for i in range(parts)]
