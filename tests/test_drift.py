"""Drift gate: cold pipeline outputs equal the committed ``results/`` rows.

One benchmark per memory archetype -- 505.mcf_r, 525.x264_r and
500.perlbench_r, the programs whose slice bytes ``TestPinnedBytes`` pins --
runs from empty memos through the Fig 8 flow, Table II's point counts,
Fig 6's weights, Fig 4's variance curve and Sniper's regional and reduced
CPI (Fig 12).  Every number must equal the committed one bit for bit, so
no refactor can drift a figure without turning this test red.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.common import (
    RUN_TYPES,
    clear_pinpoints_cache,
    measure_benchmark,
    pinpoints_for,
)
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig6 import run_fig6
from repro.experiments.serialize import to_payload
from repro.sniper.core import SniperSimulator
from repro.stats.compare import weighted_average
from repro.workloads import slicecache

RESULTS = Path(__file__).resolve().parent.parent / "results"


def committed(experiment: str) -> dict:
    path = RESULTS / f"{experiment}.json"
    return json.loads(path.read_text(encoding="utf-8"))["data"]


def committed_row(experiment: str, benchmark: str) -> dict:
    rows = committed(experiment)["rows"]
    return next(row for row in rows if row["benchmark"] == benchmark)


def sniper_cpi(out, pinballs) -> float:
    """Fig 12's weighted CPI of a point set, each with its warmup."""
    simulator = SniperSimulator()
    cpis = [
        simulator.run_region(
            pb.replay_slices(out.program),
            warmup=pb.warmup_traces(out.program),
        ).cpi
        for pb in pinballs
    ]
    return weighted_average(cpis, [pb.weight for pb in pinballs])


@pytest.mark.parametrize(
    "name", ["505.mcf_r", "525.x264_r", "500.perlbench_r"]
)
def test_cold_outputs_match_committed_results(name):
    clear_pinpoints_cache()
    slicecache.reset_slice_cache()

    measured = measure_benchmark(name, runs=RUN_TYPES)
    fig8 = committed_row("fig8", name)
    for run in RUN_TYPES:
        assert to_payload(measured[run]) == fig8[run], run
    table2 = committed_row("table2", name)
    assert measured["num_points"] == table2["points"]
    assert measured["num_points_90"] == table2["points_90"]

    fig6 = to_payload(run_fig6([name], jobs=1))["rows"]
    assert fig6 == [committed_row("fig6", name)]
    fig4 = to_payload(run_fig4([name], jobs=1))["curves"]
    assert fig4 == {name: committed("fig4")["curves"][name]}

    out = pinpoints_for(name)
    fig12 = committed_row("fig12", name)
    assert sniper_cpi(out, out.regional) == fig12["regional_cpi"]
    assert sniper_cpi(out, out.reduced) == fig12["reduced_cpi"]
