"""Figure 7: instruction distribution, Whole vs Regional vs Reduced.

The paper's claim: the per-category distributions of both sampled runs
match the Whole Run to within 1 %, and the suite-average Whole Run mix is
~49.1 % NO_MEM / 36.7 % MEM_R / 12.9 % MEM_W.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.experiments.common import map_benchmarks, require_rows
from repro.experiments.registry import experiment, renders
from repro.experiments.report import format_table, pct
from repro.stats.compare import max_abs_percentage_points


@dataclass
class Fig7Row:
    """Instruction mixes of the three run types for one benchmark."""

    benchmark: str
    whole: np.ndarray
    regional: np.ndarray
    reduced: np.ndarray

    @property
    def regional_error_pp(self) -> float:
        """Max per-category |Regional - Whole| in percentage points."""
        return max_abs_percentage_points(self.regional, self.whole)

    @property
    def reduced_error_pp(self) -> float:
        """Max per-category |Reduced - Whole| in percentage points."""
        return max_abs_percentage_points(self.reduced, self.whole)


@dataclass
class Fig7Result:
    """Suite-wide instruction-distribution comparison."""

    rows: List[Fig7Row]

    @property
    def average_whole_mix(self) -> np.ndarray:
        """Suite-average Whole Run mix (paper: 49.1/36.7/12.9 %)."""
        rows = require_rows(self.rows, "Figure 7 suite-average mix")
        return np.mean([r.whole for r in rows], axis=0)

    @property
    def max_regional_error_pp(self) -> float:
        """Worst Regional mix error across the suite."""
        rows = require_rows(self.rows, "Figure 7 worst regional error")
        return max(r.regional_error_pp for r in rows)

    @property
    def max_reduced_error_pp(self) -> float:
        """Worst Reduced mix error across the suite."""
        rows = require_rows(self.rows, "Figure 7 worst reduced error")
        return max(r.reduced_error_pp for r in rows)


@experiment(
    "fig7",
    result=Fig7Result,
    paper_ref="Figure 7 — instruction distribution across run types",
    supports_benchmarks=True,
    supports_jobs=True,
    supports_sampler=True,
)
def run_fig7(
    benchmarks: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
    **pinpoints_kwargs,
) -> Fig7Result:
    """Profile instruction mixes for all three run types.

    ``jobs`` fans the per-benchmark work across worker processes (1 =
    serial, 0/None = one per core); output is order-stable.
    """
    measured = map_benchmarks(
        benchmarks, runs=("whole", "regional", "reduced"), jobs=jobs,
        **pinpoints_kwargs,
    )
    rows = [
        Fig7Row(
            benchmark=m["benchmark"],
            whole=m["whole"].mix,
            regional=m["regional"].mix,
            reduced=m["reduced"].mix,
        )
        for m in measured
    ]
    return Fig7Result(rows=rows)


@renders("fig7")
def render_fig7(result: Fig7Result) -> str:
    """Render per-benchmark mixes and the paper's headline checks."""
    rows = []
    for r in result.rows:
        rows.append(
            (r.benchmark,)
            + tuple(pct(v, 1) for v in r.whole)
            + (f"{r.regional_error_pp:.3f}", f"{r.reduced_error_pp:.3f}")
        )
    avg = result.average_whole_mix
    table = format_table(
        ["Benchmark", "NO_MEM", "MEM_R", "MEM_W", "MEM_RW",
         "regional err(pp)", "reduced err(pp)"],
        rows,
        title="Figure 7 -- instruction distribution (whole-run mix shown)",
    )
    summary = (
        f"\nSuite-average whole mix: NO_MEM {pct(avg[0], 1)},"
        f" MEM_R {pct(avg[1], 1)}, MEM_W {pct(avg[2], 1)},"
        f" MEM_RW {pct(avg[3], 1)}"
        f"  (paper: 49.1% / 36.7% / 12.9%)"
        f"\nWorst errors: regional {result.max_regional_error_pp:.3f} pp,"
        f" reduced {result.max_reduced_error_pp:.3f} pp (paper: < 1%)"
    )
    return table + summary
