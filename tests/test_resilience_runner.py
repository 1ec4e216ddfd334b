"""The parallel runner under faults: the first failed item fails the run.

Every fault here is injected deterministically through a
:class:`~repro.resilience.faults.FaultPlan`, so each failure path runs
the same way on every machine.  The central contract: a fan-out either
returns every item's result in submission order, or raises the first
failed item's own exception (a worker death breaking the pool raises
:class:`~repro.errors.ResilienceError`), serially and in a pool alike.
"""

from __future__ import annotations

import time

import pytest

from repro.errors import ConfigError, ResilienceError
from repro.parallel import parallel_map, resolve_jobs
from repro.telemetry.recorder import TraceRecorder, using_recorder

pytestmark = pytest.mark.resilience

ITEMS = list(range(6))


def _tenfold(x):
    return x * 10


def _two_slow_four_fast(x):
    # In a pool, item 4 fails while item 2 is still running; item 2 is
    # still the first failure in submission order.
    if x == 2:
        time.sleep(0.5)
        raise ValueError("item two exploded")
    if x == 4:
        raise KeyError("item four exploded")
    return x * 10


class TestStrictPolicy:
    def test_clean_run_reports_every_item_ok(self):
        assert parallel_map(_tenfold, ITEMS, jobs=2) == [x * 10 for x in ITEMS]

    def test_injected_crash_reraises_the_injected_error(self, inject_faults):
        from repro.resilience import InjectedFaultError

        inject_faults("crash:items=2")
        with pytest.raises(InjectedFaultError, match="item 2"):
            parallel_map(_tenfold, ITEMS, jobs=2)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_first_failure_in_submission_order_reraises(self, jobs):
        # The item's own exception, not a wrapper, and never item 4's
        # although a pool sees item 4 fail first.
        with pytest.raises(ValueError, match="item two exploded"):
            parallel_map(_two_slow_four_fast, ITEMS, jobs=jobs)

    def test_serial_run_stops_at_the_first_failure(self, inject_faults):
        from repro.resilience import InjectedFaultError

        inject_faults("crash:items=2")
        rec = TraceRecorder()
        with using_recorder(rec), pytest.raises(InjectedFaultError):
            parallel_map(_tenfold, ITEMS, jobs=1)
        # Items after the failure never start, so no fault fires there.
        assert rec.metrics.counters["fault.injected{kind=crash}"] == 1


class TestBrokenPool:
    """A worker dying mid-task (``os._exit``) collapses the whole pool."""

    def test_strict_policy_reports_the_collapse(self, inject_faults):
        inject_faults("poolcrash:items=1")
        with pytest.raises(ResilienceError, match="worker pool broke") as info:
            parallel_map(_tenfold, ITEMS, jobs=2)
        message = str(info.value)
        for gone in ("--on-failure", "serial-fallback", "--retries",
                     "--timeout", "skip"):
            assert gone not in message

    def test_poolcrash_spares_the_driving_process(self, inject_faults):
        # Serially the item runs in the driver, which poolcrash must
        # never kill.
        inject_faults("poolcrash:items=1")
        assert parallel_map(_tenfold, ITEMS, jobs=1) == [x * 10 for x in ITEMS]


class TestJobsClamp:
    def test_more_workers_than_items_clamps(self):
        rec = TraceRecorder()
        with using_recorder(rec):
            assert resolve_jobs(8, items=3) == 3
        assert rec.metrics.gauges["parallel.jobs_clamped"] == 8.0

    def test_empty_input_clamps_to_one(self):
        assert resolve_jobs(8, items=0) == 1

    def test_no_gauge_without_a_clamp(self):
        rec = TraceRecorder()
        with using_recorder(rec):
            assert resolve_jobs(2, items=3) == 2
        assert "parallel.jobs_clamped" not in rec.metrics.gauges

    def test_validation_still_applies(self):
        with pytest.raises(ConfigError):
            resolve_jobs(-1, items=3)


class TestItemCounters:
    """What a campaign job's item counts and live progress read."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_merged_item_is_counted(self, jobs):
        rec = TraceRecorder()
        with using_recorder(rec):
            parallel_map(_tenfold, ITEMS, jobs=jobs)
        assert rec.metrics.counters["parallel.tasks"] == len(ITEMS)
        assert rec.metrics.counters["parallel.completed"] == len(ITEMS)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_count_stops_at_the_first_failed_item(self, inject_faults, jobs):
        from repro.resilience import InjectedFaultError

        inject_faults("crash:items=2")
        rec = TraceRecorder()
        with using_recorder(rec), pytest.raises(InjectedFaultError):
            parallel_map(_tenfold, ITEMS, jobs=jobs)
        assert rec.metrics.counters["parallel.completed"] == 2
