"""repro: reproduction of "Efficacy of Statistical Sampling on
Contemporary Workloads: The Case of SPEC CPU2017" (IISWC 2019).

The package rebuilds the paper's entire experimental apparatus in Python:
synthetic SPEC CPU2017 stand-in workloads, a Pin-like instrumentation
engine with the paper's pintools, PinPlay-style checkpointing (pinballs),
SimPoint phase analysis, the PinPoints end-to-end flow, cache and interval
timing simulators, and one experiment driver per table/figure of the
evaluation.

Quickstart::

    from repro import run_pinpoints
    out = run_pinpoints("623.xalancbmk_s")
    for point in out.simpoints.sorted_by_weight():
        print(point.slice_index, point.weight)

See README.md for the full tour and EXPERIMENTS.md for paper-vs-measured
results.
"""

from repro.config import (
    ALLCACHE_SIM,
    ALLCACHE_TABLE_I,
    SNIPER_SIM,
    SNIPER_TABLE_III,
    CacheConfig,
    CacheHierarchyConfig,
    CoreConfig,
    SystemConfig,
)
from repro.errors import (
    ClusteringError,
    ConfigError,
    LintError,
    PinballError,
    ReproError,
    SimPointError,
    SimulationError,
    UnknownBenchmarkError,
    WorkloadError,
)
from repro.isa import InstructionClass, SliceTrace
from repro.pin import AllCache, BBVProfiler, BranchProfiler, Engine, InsCount, LdStMix
from repro.pinball import PinPlayLogger, RegionalPinball, Replayer, WholePinball
from repro.pinpoints import PinPointsOutput, run_pinpoints
from repro.perf import NativeMachine, PerfCounters
from repro.simpoint import (
    SimPointAnalysis,
    SimPointResult,
    SimulationPoint,
    reduce_to_percentile,
    variance_sweep,
)
from repro.sniper import RegionTiming, SniperSimulator, TimingParams
from repro.telemetry import TraceRecorder, span, using_recorder
from repro.workloads import (
    BenchmarkDescriptor,
    SyntheticProgram,
    benchmark_names,
    build_program,
    get_descriptor,
)

#: The one place the version is written: pyproject.toml reads it from
#: here (``[tool.setuptools.dynamic]``), and every result envelope and
#: ``--version`` print it.
__version__ = "1.2.0"

__all__ = [
    "__version__",
    # config
    "CacheConfig", "CacheHierarchyConfig", "CoreConfig", "SystemConfig",
    "ALLCACHE_TABLE_I", "ALLCACHE_SIM", "SNIPER_TABLE_III", "SNIPER_SIM",
    # errors
    "ReproError", "ConfigError", "WorkloadError", "UnknownBenchmarkError",
    "ClusteringError", "SimPointError", "PinballError", "SimulationError",
    "LintError",
    # isa
    "InstructionClass", "SliceTrace",
    # workloads
    "BenchmarkDescriptor", "SyntheticProgram", "benchmark_names",
    "build_program", "get_descriptor",
    # pin
    "Engine", "InsCount", "LdStMix", "AllCache", "BBVProfiler",
    "BranchProfiler",
    # pinball
    "WholePinball", "RegionalPinball", "PinPlayLogger", "Replayer",
    # simpoint
    "SimPointAnalysis", "SimPointResult", "SimulationPoint",
    "reduce_to_percentile", "variance_sweep",
    # pinpoints
    "PinPointsOutput", "run_pinpoints",
    # timing
    "SniperSimulator", "TimingParams", "RegionTiming",
    "NativeMachine", "PerfCounters",
    # telemetry
    "TraceRecorder", "span", "using_recorder",
]
