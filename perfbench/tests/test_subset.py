from collections import Counter

import pytest

from subset import allocate, partition, stratified_subset

# 12 compute, 9 balanced, 8 memory benchmarks, like Table II.
TABLE = (
    [(f"c{i:02d}", 10 + i, "compute") for i in range(12)]
    + [(f"b{i:02d}", 5 + 2 * i, "balanced") for i in range(9)]
    + [(f"m{i:02d}", 3 + 3 * i, "memory") for i in range(8)]
)
ROWS = {name: (points, kind) for name, points, kind in TABLE}


def test_same_seed_same_subset_and_other_seeds_differ():
    first = stratified_subset(TABLE, 18, seed=7)
    assert first == stratified_subset(TABLE, 18, seed=7)
    others = {tuple(stratified_subset(TABLE, 18, seed=s)) for s in range(10)}
    assert len(others) > 1


def test_archetype_shares_are_proportional():
    for n in (3, 9, 15, 18, 29):
        kinds = Counter(ROWS[name][1] for name in stratified_subset(TABLE, n, 1))
        for kind, size in Counter(k for _, _, k in TABLE).items():
            assert abs(kinds[kind] - n * size / len(TABLE)) < 1


def test_one_pick_per_point_count_band():
    picked = stratified_subset(TABLE, 6, seed=3)
    compute = sorted(ROWS[n][0] for n in picked if ROWS[n][1] == "compute")
    # 12 compute benchmarks, 2 picks: one from each half of the point range.
    assert len(compute) == 2
    assert compute[0] < 16 <= compute[1]
    assert len(set(picked)) == len(picked)


def test_allocate_rejects_impossible_sizes():
    with pytest.raises(ValueError):
        allocate({"a": 2}, 3)
    # Largest remainder; the tie between a and b goes to the first name.
    assert allocate({"a": 1, "b": 1, "c": 2}, 2) == {"a": 1, "b": 0, "c": 1}


def test_partition_deals_round_robin():
    assert partition(list("abcdefg"), 3) == [["a", "d", "g"], ["b", "e"],
                                             ["c", "f"]]
