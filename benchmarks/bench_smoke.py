"""Fast cache-engine smoke check for CI (`bench-smoke` job).

This file is the sub-minute cache gate that runs on every pull request.
It replays a few dozen slices of one calibrated benchmark through the
per-batch reference hierarchy and through the fused engine without and
(when it loads) with the compiled kernel, and asserts the invariant the
fused engine is built on: **the paths differ only in speed, never in
results** — identical per-level access, miss, and writeback counts.

A generous absolute wall budget guards against order-of-magnitude
regressions (an accidentally quadratic kernel, an engine silently
falling back to per-access simulation).  The budget gates only when
``REPRO_BENCH_ENFORCE`` is set (the CI job sets it), so loaded laptops
can still run the file informatively.
"""

from __future__ import annotations

import json
import os

from repro.cache import _native
from repro.cache.fused import FusedHierarchy, resolve_backend
from repro.cache.hierarchy import CacheHierarchy
from repro.config import ALLCACHE_SIM
from repro.pin.engine import Engine
from repro.pin.tools.allcache import AllCache
from repro.telemetry.clock import monotonic_ns
from repro.workloads.spec2017 import build_program

#: Slices replayed per path (with a warmup prefix, like a region).
_NUM_SLICES = 24
_WARMUP_SLICES = 6

#: Absolute wall budget for one path's replay, in seconds.  The slowest
#: path (the per-batch reference) does this in well under a second on
#: 2020s hardware; 20s catches only catastrophic regressions.
_WALL_BUDGET_S = 20.0

_ENFORCE_ENV = "REPRO_BENCH_ENFORCE"


def _enforcing() -> bool:
    return os.environ.get(_ENFORCE_ENV, "").lower() not in ("", "0", "false")


def _hierarchy(engine: str, monkeypatch):
    """The per-batch reference, or the fused engine on the path named
    as :func:`resolve_backend` names it."""
    if engine == "per-batch":
        return CacheHierarchy(ALLCACHE_SIM)
    with monkeypatch.context() as patch:
        if engine == "fused":
            patch.setattr(_native, "load_kernel", lambda: None)
        return FusedHierarchy(ALLCACHE_SIM)


def _replay(engine: str, monkeypatch) -> dict:
    program = build_program("505.mcf_r")
    tool = AllCache()
    tool.hierarchy = _hierarchy(engine, monkeypatch)
    assert getattr(tool.hierarchy, "backend", engine) == engine
    start = monotonic_ns()
    Engine([tool]).run(
        program.iter_slices(_WARMUP_SLICES, _NUM_SLICES - _WARMUP_SLICES),
        warmup=program.iter_slices(0, _WARMUP_SLICES),
    )
    wall_s = (monotonic_ns() - start) / 1e9
    stats = {
        name: (s.accesses, s.misses, s.writebacks)
        for name, s in tool.stats().items()
    }
    return {"engine": engine, "wall_s": round(wall_s, 3), "stats": stats}


def test_engine_paths_agree_and_fit_budget(monkeypatch):
    engines = ["per-batch", "fused"]
    if resolve_backend() == "native":
        engines.append("native")
    runs = [_replay(engine, monkeypatch) for engine in engines]

    reference = runs[0]["stats"]
    for run in runs[1:]:
        assert run["stats"] == reference, (
            f"engine {run['engine']!r} diverged from "
            f"{runs[0]['engine']!r}: {run['stats']} != {reference}"
        )
    # The replay actually exercised the hierarchy end to end.
    assert reference["L1D"][0] > 0
    assert reference["L3"][0] > 0

    report = {
        "bench": "cache-engine smoke",
        "slices": _NUM_SLICES,
        "warmup_slices": _WARMUP_SLICES,
        "default_backend": resolve_backend(),
        "runs": [
            {k: v for k, v in run.items() if k != "stats"} for run in runs
        ],
        "wall_budget_s": _WALL_BUDGET_S,
        "enforced": _enforcing(),
    }
    print()
    print(json.dumps(report, indent=2))

    if _enforcing():
        for run in runs:
            assert run["wall_s"] <= _WALL_BUDGET_S, (
                f"engine {run['engine']!r} took {run['wall_s']}s, "
                f"budget {_WALL_BUDGET_S}s"
            )
