"""Correctness: every output is compared with the committed ``results/*.json``.

Each comparison returns a list of human-readable problems; an empty list
means the output matches bit for bit.  A workload counts one failed
operation for every operation with at least one problem, and never
retries it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Mapping, Sequence

RUN_TYPES = ("whole", "regional", "reduced", "warmup")


class Committed:
    """The committed result rows, keyed by experiment then benchmark."""

    def __init__(self, results_dir) -> None:
        self.rows: Dict[str, Dict[str, dict]] = {}
        for experiment in ("fig6", "fig8", "fig12", "table2"):
            path = Path(results_dir) / f"{experiment}.json"
            payload = json.loads(path.read_text(encoding="utf-8"))
            self.rows[experiment] = {
                row["benchmark"]: row for row in payload["data"]["rows"]
            }

    def row(self, experiment: str, benchmark: str) -> dict:
        return self.rows[experiment][benchmark]


def _diff(label: str, measured, committed) -> List[str]:
    if measured == committed:
        return []
    return [f"{label}: measured {measured!r}, committed {committed!r}"]


def fig8_problems(committed: Committed, benchmark: str,
                  runs: Mapping[str, dict], num_points: int,
                  num_points_90: int) -> List[str]:
    """A cold Fig 8 row (four RunMetrics payloads) against fig8 + table2."""
    row = committed.row("fig8", benchmark)
    table2 = committed.row("table2", benchmark)
    problems: List[str] = []
    for run in RUN_TYPES:
        problems += _diff(f"{benchmark} {run}", runs[run], row[run])
    problems += _diff(f"{benchmark} k", num_points, table2["points"])
    problems += _diff(f"{benchmark} 90% points", num_points_90,
                      table2["points_90"])
    return problems


def fig12_problems(committed: Committed, benchmark: str,
                   regional_cpi: float, reduced_cpi: float) -> List[str]:
    """Sniper regional/reduced CPI against fig12, bit for bit."""
    row = committed.row("fig12", benchmark)
    return (
        _diff(f"{benchmark} regional CPI", regional_cpi, row["regional_cpi"])
        + _diff(f"{benchmark} reduced CPI", reduced_cpi, row["reduced_cpi"])
    )


def result_problems(committed: Committed, experiment: str,
                    benchmarks: Sequence[str], payload: dict) -> List[str]:
    """A served table2/fig6 result payload against the committed rows."""
    rows = payload.get("data", payload).get("rows")
    if not isinstance(rows, list):
        return [f"{experiment}: result payload has no rows"]
    got = [row.get("benchmark") for row in rows]
    if got != list(benchmarks):
        return [f"{experiment}: rows for {got}, asked for {list(benchmarks)}"]
    problems: List[str] = []
    for row in rows:
        problems += _diff(f"{experiment} {row['benchmark']}", row,
                          committed.row(experiment, row["benchmark"]))
    return problems
