import copy
from pathlib import Path

import pytest

from checks import (RUN_TYPES, Committed, fig8_problems, fig12_problems,
                    result_problems)
from context import Outcome

RESULTS = Path(__file__).resolve().parents[2] / "results"
BENCHMARK = "505.mcf_r"


@pytest.fixture(scope="module")
def committed():
    return Committed(RESULTS)


def _fig8_args(committed):
    row = committed.row("fig8", BENCHMARK)
    table2 = committed.row("table2", BENCHMARK)
    runs = {run: copy.deepcopy(row[run]) for run in RUN_TYPES}
    return runs, table2["points"], table2["points_90"]


def test_committed_rows_pass(committed):
    runs, k, k90 = _fig8_args(committed)
    assert fig8_problems(committed, BENCHMARK, runs, k, k90) == []
    fig12 = committed.row("fig12", BENCHMARK)
    assert fig12_problems(committed, BENCHMARK, fig12["regional_cpi"],
                          fig12["reduced_cpi"]) == []


def test_perturbed_row_is_a_failed_operation(committed):
    runs, k, k90 = _fig8_args(committed)
    runs["warmup"]["miss_rates"]["L3"] = \
        runs["warmup"]["miss_rates"]["L3"] * (1 + 1e-15)
    outcome = Outcome()
    outcome.check(fig8_problems(committed, BENCHMARK, runs, k, k90))
    outcome.check(fig8_problems(committed, BENCHMARK,
                                _fig8_args(committed)[0], k + 1, k90))
    outcome.check(fig8_problems(committed, BENCHMARK,
                                _fig8_args(committed)[0], k, k90))
    assert (outcome.attempted, outcome.failed) == (3, 2)
    assert "warmup" in outcome.problems[0]


def test_perturbed_cpi_and_served_rows_fail(committed):
    fig12 = committed.row("fig12", BENCHMARK)
    assert fig12_problems(committed, BENCHMARK,
                          fig12["regional_cpi"] + 1e-12,
                          fig12["reduced_cpi"])
    payload = {"data": {"rows": [copy.deepcopy(
        committed.row("fig6", BENCHMARK))]}}
    assert result_problems(committed, "fig6", [BENCHMARK], payload) == []
    payload["data"]["rows"][0]["cut"] += 1
    assert result_problems(committed, "fig6", [BENCHMARK], payload)
    assert result_problems(committed, "fig6", ["557.xz_r"], payload)
