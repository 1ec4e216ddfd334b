"""Sniper interval timing model."""

import numpy as np
import pytest

from repro import telemetry
from repro.cache import _native, resolve_backend
from repro.cache.hierarchy import CacheHierarchy
from repro.config import SNIPER_SIM, SNIPER_TABLE_III
from repro.errors import SimulationError
from repro.perf.native import NativeMachine
from repro.sniper import SniperSimulator, TimingParams
from repro.workloads.phases import PhaseSpec
from repro.workloads.program import SyntheticProgram
from repro.workloads.schedule import PhaseSchedule

from conftest import make_phase


def program_with(mem_fractions, entropy=0.2, slices=12, seed=11):
    phases = [make_phase(0, weight=1.0, mem_fractions=mem_fractions,
                         branch_entropy=entropy)]
    schedule = PhaseSchedule.from_counts([slices], seed=1)
    return SyntheticProgram("t", phases, schedule, 3000, seed=seed)


COMPUTE = (0.97, 0.015, 0.006, 0.004, 0.005)
MEMORY = (0.70, 0.13, 0.08, 0.05, 0.04)


class TestSniper:
    def test_cpi_positive_and_sane(self):
        program = program_with(COMPUTE)
        timing = SniperSimulator().run_region(program.iter_slices())
        assert 0.2 < timing.cpi < 10.0
        assert timing.instructions > 0
        assert timing.cycles > 0

    def test_memory_bound_has_higher_cpi(self):
        light = SniperSimulator().run_region(
            program_with(COMPUTE).iter_slices()
        )
        heavy = SniperSimulator().run_region(
            program_with(MEMORY).iter_slices()
        )
        assert heavy.cpi > light.cpi

    def test_branch_entropy_raises_cpi(self):
        calm = SniperSimulator().run_region(
            program_with(COMPUTE, entropy=0.0).iter_slices()
        )
        noisy = SniperSimulator().run_region(
            program_with(COMPUTE, entropy=1.0).iter_slices()
        )
        assert noisy.cpi > calm.cpi
        assert noisy.branch_mispredicts > calm.branch_mispredicts

    def test_warmup_lowers_cpi(self):
        program = program_with(MEMORY, slices=20)
        cold = SniperSimulator().run_region(program.iter_slices(10, 4))
        warm = SniperSimulator().run_region(
            program.iter_slices(10, 4), warmup=program.iter_slices(0, 10)
        )
        assert warm.cycles < cold.cycles
        assert warm.instructions == cold.instructions

    def test_miss_counts_reported(self):
        program = program_with(MEMORY)
        timing = SniperSimulator().run_region(program.iter_slices())
        assert timing.l1d_misses >= timing.l2_misses >= timing.l3_misses
        assert timing.l3_accesses == timing.l2_misses

    def test_default_machine_is_scaled_table3(self):
        assert SniperSimulator().system is SNIPER_SIM

    def test_full_table3_machine_accepted(self):
        program = program_with(COMPUTE, slices=4)
        timing = SniperSimulator(system=SNIPER_TABLE_III).run_region(
            program.iter_slices()
        )
        assert timing.cpi > 0

    def test_custom_params_change_cpi(self):
        program = program_with(COMPUTE)
        base = SniperSimulator().run_region(program.iter_slices())
        slow = SniperSimulator(
            params=TimingParams(dependency_cpi=1.0)
        ).run_region(program.iter_slices())
        assert slow.cpi > base.cpi

    def test_empty_region_rejected(self):
        with pytest.raises(SimulationError):
            SniperSimulator().run_region([])

    def test_cpi_undefined_without_instructions(self):
        from repro.sniper.core import RegionTiming

        timing = RegionTiming(0, 0.0, 0.0, 0, 0, 0, 0)
        with pytest.raises(SimulationError):
            _ = timing.cpi

    def test_deterministic(self):
        program = program_with(MEMORY)
        a = SniperSimulator().run_region(program.iter_slices())
        b = SniperSimulator().run_region(program.iter_slices())
        assert a.cycles == b.cycles


class TestEngineIndependence:
    """Sniper's timing and the native machine's counters are the same
    on the per-batch hierarchy and on both paths of the fused engine,
    field for field."""

    @pytest.fixture(scope="class")
    def pipeline(self):
        from repro.pinpoints.pipeline import run_pinpoints

        return run_pinpoints("505.mcf_r", slice_size=3000, total_slices=120)

    def _measure(self, path, out, monkeypatch):
        with monkeypatch.context() as patch:
            if path == "numpy":
                patch.setattr("repro.sniper.core.FusedHierarchy",
                              CacheHierarchy)
            elif path == "fused":
                patch.setattr(_native, "load_kernel", lambda: None)
            recorder = telemetry.TraceRecorder()
            with telemetry.using_recorder(recorder):
                timings = [
                    SniperSimulator().run_region(
                        pinball.replay_slices(out.program),
                        warmup=pinball.warmup_traces(out.program),
                    )
                    for pinball in out.regional
                ]
                counters = NativeMachine().run(out.program)
        return timings, counters, recorder.metrics.counters

    def test_timing_identical_across_backends(self, pipeline, monkeypatch):
        assert any(pinball.effective_warmup for pinball in pipeline.regional)
        paths = ["numpy", "fused"]
        if resolve_backend() == "native":
            paths.append("native")
        runs = {
            path: self._measure(path, pipeline, monkeypatch)
            for path in paths
        }
        timings, counters, _ = runs["numpy"]
        assert len(timings) == len(pipeline.regional)
        for path, (other_timings, other_counters, _) in runs.items():
            assert other_timings == timings, path
            assert other_counters == counters, path
        # Each fused path ran its regions on the engine it names.
        for path in paths[1:]:
            metrics = runs[path][2]
            assert metrics[f"cache.fused.backend{{backend={path}}}"] > 0
        assert not any(
            key.startswith("cache.fused") for key in runs["numpy"][2]
        )
