"""Retry backoff and the fault-spec grammar."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.resilience import (
    BACKOFF_SCHEDULE_S,
    FaultClause,
    InjectedFaultError,
    backoff_sleep,
    parse_spec,
)
from repro.resilience.faults import PRESETS, STORE_FAULT_KINDS

pytestmark = pytest.mark.resilience


class TestRetry:
    def test_backoff_is_exponential(self):
        assert BACKOFF_SCHEDULE_S == (0.1, 0.2, 0.4, 0.8, 1.6)
        for before, after in zip(BACKOFF_SCHEDULE_S, BACKOFF_SCHEDULE_S[1:]):
            assert after == 2 * before

    def test_backoff_sleep_sleeps_the_attempts_delay(self, monkeypatch):
        from repro.resilience import policy

        slept = []
        monkeypatch.setattr(policy, "sleep_s", slept.append)
        delays = [backoff_sleep(attempt) for attempt in range(1, 6)]
        assert delays == slept == list(BACKOFF_SCHEDULE_S)


class TestSpecGrammar:
    def test_single_clause_options(self):
        plan = parse_spec("crash:items=2,5:seed=3")
        (clause,) = plan.clauses
        assert clause.kind == "crash"
        assert clause.items == (2, 5)
        assert clause.seed == 3

    def test_multiple_clauses_and_renamed_options(self):
        plan = parse_spec(
            "workerhang:items=1:gen=2; crash:p=0.5; "
            "truncate:every=7:kinds=metrics"
        )
        hang, crash, truncate = plan.clauses
        assert hang.generation == 2
        assert crash.probability == 0.5
        assert truncate.every == 7
        assert truncate.kinds == ("metrics",)

    def test_preset_resolves(self):
        plan = parse_spec("ci-default")
        assert plan.spec == PRESETS["ci-default"]
        assert {c.kind for c in plan.clauses} == set(STORE_FAULT_KINDS)
        # The CI preset corrupts only the kinds a run recomputes on a
        # corrupt read, never the "result" kind an execute serves as is.
        assert all(
            c.kinds == ("metrics", "pinpoints", "item") for c in plan.clauses
        )

    @pytest.mark.parametrize(
        "bad",
        ["", "  ;  ", "meteor:items=1", "crash:items", "crash:every=0",
         "crash:p=1.5", "hang:hang=0", "crash:items=x", "crash:wat=1",
         "hang:items=1", "crash:items=1:attempt=2", "crash:items=1:hang=1"],
    )
    def test_rejected_specs(self, bad):
        with pytest.raises(ConfigError):
            parse_spec(bad)


class TestTriggers:
    def test_items_trigger_exactly(self):
        clause = FaultClause(kind="crash", items=(1, 3))
        assert [i for i in range(5) if clause.triggers(i)] == [1, 3]

    def test_every_skips_the_first_writes(self):
        clause = FaultClause(kind="truncate", every=3)
        assert [i for i in range(9) if clause.triggers(i)] == [2, 5, 8]

    def test_probability_is_seed_deterministic(self):
        clause = FaultClause(kind="crash", probability=0.5, seed=3)
        hits = [i for i in range(64) if clause.triggers(i)]
        assert hits == [i for i in range(64) if clause.triggers(i)]
        assert 0 < len(hits) < 64
        reseeded = FaultClause(kind="crash", probability=0.5, seed=4)
        assert hits != [i for i in range(64) if reseeded.triggers(i)]

    def test_worker_clause_selection(self):
        plan = parse_spec("truncate:every=2;crash:items=1")
        assert plan.worker_clause(0) is None
        assert plan.worker_clause(1).kind == "crash"

    def test_store_clause_advances_per_kind_ordinals(self):
        plan = parse_spec("truncate:every=2:kinds=metrics")
        # metrics writes 0,1,2,3 -> ordinals 0..3; every=2 hits 1 and 3.
        fired = [plan.store_clause("metrics") is not None for _ in range(4)]
        assert fired == [False, True, False, True]
        # A different kind keeps its own ordinal and never matches the
        # kinds= filter.
        assert plan.store_clause("pinpoints") is None

    def test_injected_fault_error_is_not_a_repro_error(self):
        from repro.errors import ReproError

        assert not issubclass(InjectedFaultError, ReproError)
