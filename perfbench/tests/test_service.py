from service_mixed import cold_keys, hit_keys

BENCHMARKS = ["a", "b", "c", "d", "e"]


def test_every_hit_key_is_distinct_and_never_a_cold_job():
    hits = hit_keys(BENCHMARKS)
    cold = cold_keys(BENCHMARKS)
    assert len(set(hits)) == len(hits) == 2 * (5 + 20 + 60 + 120) - 40
    assert len(set(cold)) == len(cold) == 40
    assert not set(hits) & set(cold)
    # Cold jobs span several benchmarks, so each one fans out to a pool.
    assert all(len(names) in (2, 3) for _, names in cold)
