import itertools

import pytest

from calibrate import ELASTICITY, MIN_GAP_S, REFERENCE_PROBE_MS, ScaledTimer, scale

REF = REFERENCE_PROBE_MS


def test_scale_reports_at_reference_speed():
    # A host at reference speed: the probe takes the reference time and
    # the raw seconds are reported unchanged.
    assert scale(4.0, REF, REF) == pytest.approx(4.0)
    # The bracketing probes are averaged.
    assert scale(3.0, REF / 2, REF * 1.5) == pytest.approx(3.0)
    # A host twice as slow: the program slows more than the probe, so the
    # correction is the probe ratio to the power ELASTICITY.
    assert scale(4.0, 2 * REF, 2 * REF) == pytest.approx(
        4.0 * 0.5 ** ELASTICITY)
    with pytest.raises(ValueError):
        scale(1.0, 0.0, REF)


def _fake_timer(probes, durations):
    ticks = itertools.accumulate([0.0] + [d for d in durations for d in (d, 0.0)])
    clock = iter(list(ticks)).__next__
    return ScaledTimer(probe=iter(probes).__next__, clock=clock)


def test_each_long_call_is_scaled_by_its_own_probes():
    long_call = 2 * MIN_GAP_S
    timer = _fake_timer([REF, 2 * REF, REF / 2], [long_call, long_call])
    timer.run(lambda: None, op=True)
    timer.run(lambda: None, op=True)
    timer.finish()
    assert timer.probes == [REF, 2 * REF, REF / 2]
    assert timer.raw_s == pytest.approx(2 * long_call)
    # Probe means: 1.5 x REF around the first call, 1.25 x REF around the
    # second.
    expected = [long_call * (1 / 1.5) ** ELASTICITY,
                long_call * (1 / 1.25) ** ELASTICITY]
    assert timer.ops_s == pytest.approx(expected)
    assert timer.scaled_s == pytest.approx(sum(expected))


def test_short_calls_share_a_segment():
    short_call = 0.4 * MIN_GAP_S  # three of them close one segment
    timer = _fake_timer([REF, REF * 4 / 3], [short_call] * 3)
    for _ in range(3):
        timer.run(lambda: None, op=True)
    timer.finish()
    assert len(timer.probes) == 2
    assert timer.ops_s == pytest.approx(
        [short_call * (6 / 7) ** ELASTICITY] * 3)
