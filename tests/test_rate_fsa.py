"""SPECrate multi-copy runs and campaign turnaround models."""

import numpy as np
import pytest

from repro.cache import _native
from repro.cache.cache import CacheLevel
from repro.errors import SimulationError
from repro.fsa import (
    SimulationSpeeds,
    detailed_full_cost,
    fsa_cost,
    parallel_replay_cost,
    serial_replay_cost,
)
from repro.pinball.pinball import ProgramRecipe, RegionalPinball
from repro.rate import SPECrateRunner
from repro.rate.runner import _COPY_STRIDE, CopyStats, RateResult
from repro.workloads.spec2017 import build_program

from conftest import QUICK


@pytest.fixture(scope="module")
def rate_program():
    # Full-size slices: LLC contention only shows once single-copy runs
    # actually enjoy L3 locality that extra copies can destroy.
    return build_program("505.mcf_r", slice_size=30_000, total_slices=120)


@pytest.fixture(scope="module")
def contended_runner():
    """A machine whose LLC fits one copy's working set but not four."""
    from repro.config import (
        SNIPER_SIM,
        CacheConfig,
        CacheHierarchyConfig,
        SystemConfig,
    )

    caches = SNIPER_SIM.caches
    system = SystemConfig(
        core=SNIPER_SIM.core,
        caches=CacheHierarchyConfig(
            l1i=caches.l1i,
            l1d=caches.l1d,
            l2=caches.l2,
            l3=CacheConfig("L3", size_bytes=512 * 1024, line_size=64,
                           associativity=16, latency_cycles=30),
        ),
        memory_latency_cycles=SNIPER_SIM.memory_latency_cycles,
        memory_level_parallelism=SNIPER_SIM.memory_level_parallelism,
    )
    return SPECrateRunner(system=system)


class TestSPECrate:
    def test_single_copy(self, rate_program):
        result = SPECrateRunner().run(rate_program, 1, num_slices=40)
        assert result.num_copies == 1
        assert result.average_cpi > 0
        assert result.copies[0].instructions > 0

    def test_copies_identical_streams(self, rate_program):
        result = SPECrateRunner().run(rate_program, 3, num_slices=30)
        counts = {c.instructions for c in result.copies}
        assert len(counts) == 1  # every copy runs the same program

    def test_contention_degrades_cpi(self, rate_program, contended_runner):
        single = contended_runner.run(rate_program, 1, num_slices=40)
        quad = contended_runner.run(rate_program, 4, num_slices=40)
        assert quad.average_cpi > single.average_cpi * 1.02
        assert quad.shared_l3_miss_rate > single.shared_l3_miss_rate

    def test_throughput_sublinear(self, rate_program, contended_runner):
        single = contended_runner.run(rate_program, 1, num_slices=40)
        quad = contended_runner.run(rate_program, 4, num_slices=40)
        speedup = quad.throughput_vs(single)
        assert 1.0 < speedup < 3.95

    def test_more_copies_more_l3_traffic(self, rate_program):
        runner = SPECrateRunner()
        two = runner.run(rate_program, 2, num_slices=30)
        four = runner.run(rate_program, 4, num_slices=30)
        assert four.shared_l3_accesses > two.shared_l3_accesses

    def test_validation(self, rate_program):
        runner = SPECrateRunner()
        with pytest.raises(SimulationError):
            runner.run(rate_program, 0)
        with pytest.raises(SimulationError):
            runner.run(rate_program, 2, num_slices=10 ** 9)


def hand_filtered_run(runner, program, num_copies, num_slices):
    """The SPECrate run with misses filtered level by level by hand, on
    sequential oracle levels: private L1I/L1D/L2 per copy, one shared
    L3, each copy's slice fed ifetch first, then data, copy by copy."""
    caches = runner.system.caches
    private = [
        [CacheLevel(config, reference=True)
         for config in (caches.l1i, caches.l1d, caches.l2)]
        for _ in range(num_copies)
    ]
    shared_l3 = CacheLevel(caches.l3, reference=True)
    core, params = runner.system.core, runner.params
    instructions = [0] * num_copies
    issue = [0.0] * num_copies
    dependency = [0.0] * num_copies
    branch = [0.0] * num_copies
    l1d_misses = [0] * num_copies
    l2_misses = [0] * num_copies
    l3_misses = [0] * num_copies
    for slice_index in range(num_slices):
        trace = program.generate_slice(slice_index)
        for copy, (l1i, l1d, l2) in enumerate(private):
            offset = copy * _COPY_STRIDE
            for l1, lines in ((l1i, trace.ifetch_lines + offset),
                              (l1d, trace.mem_lines + offset)):
                miss1 = l1.access_many(lines)
                if l1 is l1d:
                    l1d_misses[copy] += int(miss1.sum())
                idx1 = np.flatnonzero(miss1)
                if idx1.size:
                    miss2 = l2.access_many(lines[idx1])
                    l2_misses[copy] += int(miss2.sum())
                    if miss2.any():
                        l3_misses[copy] += int(
                            shared_l3.access_many(lines[idx1[miss2]]).sum()
                        )
            instructions[copy] += trace.instruction_count
            issue[copy] += trace.instruction_count / core.commit_width
            dependency[copy] += int(trace.class_counts[1:].sum()) * \
                params.dependency_cpi
            rate = min(0.5, params.mispredict_base
                       + params.mispredict_slope * trace.branch_entropy)
            branch[copy] += rate * trace.branch_count * \
                core.branch_misprediction_penalty
    copies = []
    for copy in range(num_copies):
        mem_stalls = (
            l1d_misses[copy] * caches.l2.latency_cycles
            + l2_misses[copy] * caches.l3.latency_cycles
            + l3_misses[copy] * runner.system.memory_latency_cycles
            / runner.system.memory_level_parallelism
        ) * params.stall_overlap
        cycles = issue[copy] + dependency[copy] + branch[copy] + mem_stalls
        copies.append(CopyStats(copy, instructions[copy], float(cycles),
                                l2_misses[copy], l3_misses[copy]))
    return RateResult(copies, shared_l3.stats.accesses,
                      shared_l3.stats.misses)


class TestSPECrateOracle:
    """The runner's per-copy engines with a shared L3 against the hand
    filter, on both paths of the engine."""

    @pytest.fixture(scope="class")
    def small_program(self):
        return build_program("505.mcf_r", **QUICK)

    @pytest.mark.parametrize("kernel", ["native", "fused"])
    @pytest.mark.parametrize("num_copies", [1, 2, 4])
    def test_matches_hand_filtered_run(
        self, small_program, contended_runner, num_copies, kernel,
        monkeypatch,
    ):
        if kernel == "native" and _native.load_kernel() is None:
            pytest.skip("no working C compiler")
        want = hand_filtered_run(contended_runner, small_program,
                                 num_copies, num_slices=16)
        if kernel == "fused":
            monkeypatch.setattr(_native, "load_kernel", lambda: None)
        got = contended_runner.run(small_program, num_copies,
                                   num_slices=16)
        assert got == want
        assert got.shared_l3_misses > 0
        assert all(copy.l3_misses > 0 for copy in got.copies)


def pinball(start=100, warmup=17, length=1, total=600):
    recipe = ProgramRecipe("620.omnetpp_s", 30000, total)
    return RegionalPinball(recipe=recipe, region_start=start,
                           region_length=length, weight=0.1,
                           warmup_slices=warmup)


class TestTurnaround:
    def test_detailed_full_is_slowest(self):
        pinballs = [pinball(100 + 30 * i) for i in range(10)]
        whole = 2_000e9  # 2 T instructions
        full = detailed_full_cost(whole)
        serial = serial_replay_cost(pinballs)
        fsa = fsa_cost(pinballs, whole)
        assert full.seconds > serial.seconds
        assert full.seconds > fsa.seconds

    def test_detailed_full_magnitude(self):
        # 2 T instructions at 200 KIPS ~ 115 days: the paper's motivation.
        cost = detailed_full_cost(2_000e9)
        assert 100 < cost.days < 130

    def test_parallel_scales_until_point_count(self):
        pinballs = [pinball(100 + 30 * i) for i in range(8)]
        serial = serial_replay_cost(pinballs)
        two = parallel_replay_cost(pinballs, hosts=2)
        eight = parallel_replay_cost(pinballs, hosts=8)
        many = parallel_replay_cost(pinballs, hosts=100)
        assert two.seconds < serial.seconds
        assert eight.seconds <= two.seconds
        # More hosts than pinballs cannot help further.
        assert many.seconds == pytest.approx(eight.seconds)

    def test_parallel_one_host_equals_serial(self):
        pinballs = [pinball(100 + 30 * i) for i in range(5)]
        assert parallel_replay_cost(pinballs, 1).seconds == pytest.approx(
            serial_replay_cost(pinballs).seconds
        )

    def test_fsa_trades_checkpointing_for_one_pass(self):
        pinballs = [pinball(100 + 30 * i) for i in range(10)]
        short_program = 50e9
        long_program = 20_000e9
        fsa_short = fsa_cost(pinballs, short_program)
        fsa_long = fsa_cost(pinballs, long_program)
        serial = serial_replay_cost(pinballs)
        # FSA wins on short programs (no warmup replay), loses when the
        # fast-forward distance dwarfs the regions.
        assert fsa_short.seconds < serial.seconds
        assert fsa_long.seconds > fsa_short.seconds

    def test_truncated_warmup_cheaper(self):
        early = serial_replay_cost([pinball(start=3)])
        late = serial_replay_cost([pinball(start=300)])
        assert early.seconds < late.seconds

    def test_speed_validation(self):
        with pytest.raises(SimulationError):
            SimulationSpeeds(detailed_ips=0)

    def test_cost_validation(self):
        with pytest.raises(SimulationError):
            detailed_full_cost(0)
        with pytest.raises(SimulationError):
            serial_replay_cost([])
        with pytest.raises(SimulationError):
            parallel_replay_cost([pinball()], hosts=0)
        with pytest.raises(SimulationError):
            fsa_cost([pinball(length=100)], 10)
