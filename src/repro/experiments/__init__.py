"""Experiment drivers: one module per table/figure of the evaluation.

Every driver registers itself with the declarative registry
(:mod:`repro.experiments.registry`): ``run_*`` carries ``@experiment``
and returns a plain result dataclass, which the one codec of
:mod:`repro.experiments.serialize` turns into JSON and back from its
fields' type hints, and ``render_*`` carries ``@renders`` and produces
the ASCII table/series the paper reports.  The CLI (``python -m repro``) builds every subcommand from the
registry; the benchmark harness calls the runners directly.
"""

from repro.experiments.table2 import run_table2, render_table2
from repro.experiments.fig3 import run_fig3_maxk, run_fig3_slice_size, render_fig3
from repro.experiments.fig4 import run_fig4, render_fig4
from repro.experiments.fig5 import run_fig5, render_fig5
from repro.experiments.fig6 import run_fig6, render_fig6
from repro.experiments.fig7 import run_fig7, render_fig7
from repro.experiments.fig8 import run_fig8, render_fig8
from repro.experiments.fig9 import run_fig9, render_fig9
from repro.experiments.fig10 import run_fig10, render_fig10
from repro.experiments.fig12 import run_fig12, render_fig12
from repro.experiments.baselines import run_baselines, render_baselines
from repro.experiments.frontier import run_frontier, render_frontier
from repro.experiments.rate_scaling import (
    render_rate_scaling,
    run_rate_scaling,
)
from repro.experiments.turnaround import render_turnaround, run_turnaround
from repro.experiments.future_suite import (
    render_future_suite,
    run_future_suite,
)
from repro.experiments.registry import (
    ExperimentSpec,
    all_specs,
    execute,
    get_spec,
    result_from_payload,
    result_payload,
)

__all__ = [
    "ExperimentSpec", "all_specs", "execute", "get_spec",
    "result_from_payload", "result_payload",
    "run_baselines", "render_baselines",
    "run_frontier", "render_frontier",
    "run_rate_scaling", "render_rate_scaling",
    "run_turnaround", "render_turnaround",
    "run_future_suite", "render_future_suite",
    "run_table2", "render_table2",
    "run_fig3_maxk", "run_fig3_slice_size", "render_fig3",
    "run_fig4", "render_fig4",
    "run_fig5", "render_fig5",
    "run_fig6", "render_fig6",
    "run_fig7", "render_fig7",
    "run_fig8", "render_fig8",
    "run_fig9", "render_fig9",
    "run_fig10", "render_fig10",
    "run_fig12", "render_fig12",
]
