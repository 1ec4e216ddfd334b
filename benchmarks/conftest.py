"""Benchmark-harness configuration.

Each ``bench_*`` file regenerates one table or figure of the paper at the
full calibrated configuration, prints the rendered result, and asserts
the headline shape claims.  Expensive intermediates (pipelines, whole-run
replays) are shared through ``repro.experiments.common``'s caches, so the
files cooperate when run together (``pytest benchmarks/ --benchmark-only``).
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--cache-backend", action="store", default=None,
        help="cache-simulation backend for the bench run "
             "(numpy | fused | native | auto)",
    )


@pytest.fixture(scope="session", autouse=True)
def _cache_backend(request):
    """Validate/pin the backend before any bench collects timings.

    Same early-failure contract as the CLI: a typo'd --cache-backend or
    REPRO_CACHE_BACKEND value aborts the session at startup instead of
    surfacing minutes into the first sweep.
    """
    from repro.cache.fused import apply_backend
    from repro.errors import ConfigError

    try:
        apply_backend(request.config.getoption("--cache-backend"))
    except ConfigError as exc:
        pytest.exit(f"invalid cache backend: {exc}", returncode=4)
    yield


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    The experiments are deterministic whole-suite sweeps taking seconds to
    minutes; statistical repetition would only re-measure caching.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture(scope="session", autouse=True)
def _report_header():
    print("\n=== SPEC CPU2017 sampling-efficacy reproduction: benchmark "
          "harness ===")
    yield


@pytest.fixture(scope="session", autouse=True)
def _artifact_store():
    """Persist expensive intermediates in the on-disk artifact store.

    First run of the harness populates it (REPRO_CACHE_DIR or
    ``~/.cache/repro-spec2017``); repeated local runs then skip pipeline
    and replay recomputation entirely.
    """
    from repro.experiments.common import configure_cache, set_store

    previous = configure_cache()
    yield
    set_store(previous)
