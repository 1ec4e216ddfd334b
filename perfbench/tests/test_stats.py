import pytest

from stats import median, nearest_rank, percentile


def test_nearest_rank_counts_samples_beyond():
    samples = list(range(1, 101))
    assert nearest_rank(samples, 50) == (50, 50)
    assert nearest_rank(samples, 99) == (99, 1)
    assert median([3.0, 1.0, 2.0]) == 2.0
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0)


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(list(range(1000)), 99) == (
        989, "p99 of 1000 samples, 10 beyond")
    value, note = percentile(list(range(999)), 99)
    assert value == 0.0 and "not reported: 999 samples, 9 beyond" in note
    # The median is always reported, with its count.
    assert percentile([5.0, 1.0, 3.0], 50) == (3.0, "p50 of 3 samples, 1 beyond")
    assert percentile([], 50) == (0.0, "no samples")
