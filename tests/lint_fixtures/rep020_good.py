"""REP020 no-fire fixtures: sanctioned or unrelated sleeps."""

import time

from repro.resilience.policy import backoff_sleep
from repro.telemetry.clock import sleep_s


def retry_through_the_shared_helper(fetch):
    for attempt in range(1, 6):
        try:
            return fetch()
        except OSError:
            backoff_sleep(attempt)


def polling_loop_without_retries(ready):
    # A plain wait loop: no exception handling, so not a retry shape.
    while not ready():
        sleep_s(0.2)


def retry_loop_without_sleeping(fetch):
    for _ in range(3):
        try:
            return fetch()
        except OSError:
            continue


def sleep_in_nested_worker_is_not_this_loop(pool, items):
    # The nested function runs elsewhere; the loop itself never sleeps.
    for item in items:
        def work():
            time.sleep(0.1)
            return item

        try:
            pool.submit(work)
        except RuntimeError:
            continue
