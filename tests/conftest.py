"""Shared fixtures: small, fast workload/pipeline instances."""

from __future__ import annotations

import numpy as np
import pytest

from repro.pinpoints.pipeline import run_pinpoints
from repro.workloads.phases import PhaseSpec
from repro.workloads.program import SyntheticProgram
from repro.workloads.schedule import PhaseSchedule
from repro.workloads.spec2017 import build_program

#: Tiny-but-representative pipeline configuration used by most tests.
QUICK = dict(slice_size=3000, total_slices=120)


@pytest.fixture(autouse=True)
def _hermetic_store(tmp_path, monkeypatch):
    """Keep the disk tier away from the user's real cache directory.

    Any code path that resolves the default store location (the CLI, the
    bench harness) lands in a per-test temporary directory, and a store
    configured by one test never leaks into the next.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "artifact-store"))
    from repro.experiments.common import get_store, set_store
    from repro.resilience import faults
    from repro.telemetry.recorder import set_recorder

    previous = get_store()
    previous_recorder = set_recorder(None)
    # Re-arm the fault-plan slot: each test sees fresh write ordinals
    # (deterministic trigger positions) and picks up REPRO_INJECT_FAULTS
    # lazily, so the CI faults job injects into every test independently.
    faults.reset_plan()
    yield
    set_store(previous)
    set_recorder(previous_recorder)
    faults.reset_plan()


@pytest.fixture()
def empty_memo(monkeypatch):
    """An empty in-process memo and slice memo for this test.

    ``common._MEMO`` and the slice memo are per process, so a test that
    counts computes, slice draws or stored artifacts would otherwise
    depend on which tests ran before it.  Both come back afterwards,
    warm pipelines included, for the tests that follow.
    """
    from repro.experiments import common
    from repro.workloads import slicecache

    monkeypatch.setattr(common, "_MEMO", {})
    monkeypatch.setattr(slicecache, "_CACHE", [])


@pytest.fixture()
def inject_faults():
    """Install a deterministic fault plan for this test; auto-restored.

    Usage::

        def test_recovery(inject_faults):
            inject_faults("crash:items=2")
            ...
    """
    from repro.resilience import faults

    def _install(spec: str):
        plan = faults.parse_spec(spec)
        faults.set_plan(plan)
        return plan

    yield _install
    faults.reset_plan()


def make_phase(phase_id: int, weight: float = 0.5, **overrides) -> PhaseSpec:
    """A valid PhaseSpec with sensible small defaults."""
    params = dict(
        phase_id=phase_id,
        weight=weight,
        mix=(0.5, 0.35, 0.13, 0.02),
        mem_fractions=(0.92, 0.05, 0.015, 0.008, 0.007),
        ws_lines=(8, 40, 1000, 2500),
        branch_fraction=0.15,
        branch_entropy=0.2,
        num_blocks=10,
        code_lines=32,
    )
    params.update(overrides)
    return PhaseSpec(**params)


@pytest.fixture(scope="session")
def small_program() -> SyntheticProgram:
    """A 3-phase custom program, 60 slices of 2 000 instructions."""
    phases = [
        make_phase(0, weight=0.5, mix=(0.6, 0.3, 0.08, 0.02)),
        make_phase(1, weight=0.3, mix=(0.4, 0.4, 0.17, 0.03)),
        make_phase(2, weight=0.2, mix=(0.5, 0.3, 0.15, 0.05)),
    ]
    schedule = PhaseSchedule.from_counts([30, 18, 12], seed=7, mean_run_length=6)
    return SyntheticProgram(
        "test.prog", phases, schedule, slice_size=2000, seed=42
    )


@pytest.fixture(scope="session")
def xz_program():
    """A quick-config build of a real registry benchmark."""
    return build_program("557.xz_r", **QUICK)


@pytest.fixture(scope="session")
def quick_pinpoints():
    """End-to-end PinPoints output for one benchmark, quick config."""
    return run_pinpoints("620.omnetpp_s", **QUICK)


@pytest.fixture()
def rng() -> np.random.Generator:
    """Deterministic RNG for ad-hoc test data."""
    return np.random.default_rng(1234)
