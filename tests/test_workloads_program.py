"""Synthetic program generation: determinism, structure, statistics."""

import hashlib

import numpy as np
import pytest

from repro import telemetry
from repro.cache import _native
from repro.errors import WorkloadError
from repro.workloads import slicecache
from repro.workloads.program import STREAM_WINDOW_LINES, SyntheticProgram
from repro.workloads.schedule import PhaseSchedule
from repro.workloads.spec2017 import build_program

from conftest import make_phase


class TestDeterminism:
    def test_slice_replay_is_bit_identical(self, small_program):
        a = small_program.generate_slice(17)
        b = small_program.generate_slice(17)
        assert np.array_equal(a.mem_lines, b.mem_lines)
        assert np.array_equal(a.block_counts, b.block_counts)
        assert np.array_equal(a.class_counts, b.class_counts)
        assert np.array_equal(a.ifetch_lines, b.ifetch_lines)
        assert a.instruction_count == b.instruction_count

    def test_isolated_equals_in_sequence(self, small_program):
        in_sequence = list(small_program.iter_slices(10, 3))
        isolated = [small_program.generate_slice(i) for i in (10, 11, 12)]
        for a, b in zip(in_sequence, isolated):
            assert np.array_equal(a.mem_lines, b.mem_lines)

    def test_rebuilt_program_identical(self):
        phases = [make_phase(0, weight=1.0)]
        schedule = PhaseSchedule.from_counts([10], seed=3)
        a = SyntheticProgram("p", phases, schedule, 2000, seed=5)
        b = SyntheticProgram("p", phases, schedule, 2000, seed=5)
        ta, tb = a.generate_slice(4), b.generate_slice(4)
        assert np.array_equal(ta.mem_lines, tb.mem_lines)

    def test_different_slices_differ(self, small_program):
        a = small_program.generate_slice(0)
        b = small_program.generate_slice(1)
        assert not np.array_equal(a.mem_lines, b.mem_lines)


class TestStructure:
    def test_slice_count_and_phases(self, small_program):
        assert small_program.num_slices == 60
        assert small_program.num_phases == 3

    def test_phase_of_slice_matches_trace(self, small_program):
        for i in (0, 13, 42):
            trace = small_program.generate_slice(i)
            assert trace.phase_id == small_program.phase_of_slice(i)

    def test_bbvs_of_different_phases_nearly_disjoint(self, small_program):
        by_phase = {}
        for trace in small_program.iter_slices():
            by_phase.setdefault(trace.phase_id, trace)
        bbvs = [t.bbv() for t in by_phase.values()]
        # Shared blocks contribute ~5%; own blocks are disjoint.
        overlap = float(np.minimum(bbvs[0], bbvs[1]).sum())
        assert overlap < 0.15

    def test_same_phase_slices_similar(self, small_program):
        slices = [
            t for t in small_program.iter_slices() if t.phase_id == 0
        ][:2]
        d = np.abs(slices[0].bbv() - slices[1].bbv()).sum()
        # Same-phase slices differ only by multinomial noise (~360
        # entries at this slice size), far less than the near-total
        # separation between different phases.
        assert d < 0.3

    def test_instruction_count_near_target(self, small_program):
        trace = small_program.generate_slice(0)
        assert 0.8 * 2000 < trace.instruction_count < 1.25 * 2000

    def test_class_counts_near_phase_mix(self, small_program):
        trace = small_program.generate_slice(0)
        phase = small_program.phases[trace.phase_id]
        fractions = trace.class_counts / trace.class_counts.sum()
        assert np.abs(fractions - np.asarray(phase.mix)).max() < 0.08

    def test_stream_lines_unique_across_slices(self, small_program):
        # Streaming addresses never repeat between slices (compulsory).
        t0 = small_program.generate_slice(0)
        t1 = small_program.generate_slice(1)
        assert not set(t0.mem_lines.tolist()) >= set(t1.mem_lines.tolist())

    def test_mem_lines_nonnegative(self, small_program):
        trace = small_program.generate_slice(5)
        assert trace.mem_lines.min() >= 0

    def test_block_sizes_exposed(self, small_program):
        assert small_program.block_sizes.shape == (small_program.num_blocks,)
        assert small_program.block_sizes.min() >= 1

    def test_stream_window_bounds_stream_refs(self):
        phases = [make_phase(0, weight=1.0,
                             mem_fractions=(0.1, 0.1, 0.1, 0.1, 0.6))]
        schedule = PhaseSchedule.from_counts([4], seed=0)
        program = SyntheticProgram("s", phases, schedule, 3000, seed=1)
        trace = program.generate_slice(0)
        assert trace.memory_reference_count <= 4 * trace.instruction_count
        assert trace.mem_lines.size > 0
        # Stream refs are clipped at the window size.
        assert trace.memory_reference_count >= 1
        assert STREAM_WINDOW_LINES == 8192


class TestValidation:
    def test_rejects_out_of_range_slice(self, small_program):
        with pytest.raises(WorkloadError):
            small_program.generate_slice(60)
        with pytest.raises(WorkloadError):
            small_program.generate_slice(-1)

    def test_rejects_bad_iter_range(self, small_program):
        with pytest.raises(WorkloadError):
            list(small_program.iter_slices(50, 20))

    def test_rejects_tiny_slice_size(self):
        phases = [make_phase(0, weight=1.0)]
        schedule = PhaseSchedule.from_counts([4], seed=0)
        with pytest.raises(WorkloadError):
            SyntheticProgram("p", phases, schedule, 50, seed=0)

    def test_rejects_phase_schedule_mismatch(self):
        phases = [make_phase(0, weight=1.0)]
        schedule = PhaseSchedule.from_counts([4, 4], seed=0)
        with pytest.raises(WorkloadError):
            SyntheticProgram("p", phases, schedule, 2000, seed=0)

    def test_rejects_non_dense_phase_ids(self):
        phases = [make_phase(1, weight=1.0)]
        schedule = PhaseSchedule.from_counts([4], seed=0)
        with pytest.raises(WorkloadError):
            SyntheticProgram("p", phases, schedule, 2000, seed=0)


#: The slice arrays whose bytes are pinned, in digest order.
PINNED_ARRAYS = (
    "block_counts", "class_counts", "mem_lines", "mem_is_write",
    "ifetch_lines",
)

#: sha256 prefixes of every pinned array of slices 0, 1, 299 and 599,
#: recorded before slice generation shuffled its references in place.
PINNED_DIGESTS = {
    "505.mcf_r": {
        0: ("565bbb91508b562b", "18f11a77bfa16f71",
            "27744b84b1af965d", "8fb87a7db4fd193d",
            "55d98ec07dd06f52"),
        1: ("f6feb6989412e68c", "8672bb323339cf4e",
            "e6595243ca0d3f7c", "921e6367b97c52dc",
            "65b1af8dccc0fd85"),
        299: ("4176e552dda024a2", "4d784d2a3ae88494",
            "c3afcbb98c44c43f", "05ee4e1031b9168b",
            "675ae18cf38e0757"),
        599: ("602a1a4a45565077", "394ad80864f33cc8",
            "40109fa8eb09706d", "8ba1547288b2ce63",
            "bb8d2810c516a8e5"),
    },
    "525.x264_r": {
        0: ("85718ccbce9927a2", "b3c9bf9daf2b641c",
            "9e4c25290448cf4f", "f708ea12db575a28",
            "4190fe76b9acc8fc"),
        1: ("70332da97baf7c87", "ecfa9728f506ebce",
            "edff579661d32132", "ac97d2572b096d36",
            "8e892183e76617df"),
        299: ("18e7a1370c707f23", "6561960f80687cbe",
            "8b290a74869038c5", "f75d4857676d0386",
            "864bd54ea032fc54"),
        599: ("9f2899aa69c5d19f", "87b0d5097f741139",
            "ca171fa5faf179b7", "fa552eae37fcf4e8",
            "34041c8ec049dbc7"),
    },
    "500.perlbench_r": {
        0: ("9f2cce8fd79db7b9", "687d7f8a56f805bb",
            "8cd15e4cf3b9ef89", "d79430123b5f18c2",
            "c38ef17833f2e2c2"),
        1: ("d221398b602385d5", "368b69095290da4c",
            "0ccc24b9f64f2743", "1c2c96e0b6c62330",
            "7c5fb2c544b28591"),
        299: ("9474cae61d0492fa", "26e8307b41a54937",
            "8819e68a6784ee66", "860dcd14c5076865",
            "9909a3acaab51313"),
        599: ("c62942c97645018a", "08ace619c5efb738",
            "204d2feaa90dc845", "5d3f362e9a5eddb4",
            "25e1555b4e8b6612"),
    },
    "505.mcf_r/3000": {
        0: ("e6825b481e20de9f", "fe296ffa305d680c",
            "3d549106fea0059c", "57779f0d78581502",
            "b7a886804f2d7993"),
        1: ("1cfd05dbc5f131cd", "0436ac9d32666eeb",
            "95c3d216dc3fcc59", "74e0664ecf0e010c",
            "e827fe972e696493"),
        299: ("95e732090d9ead5b", "d9b37a1c4a289d73",
            "e19726d1afb82d2b", "92725392f4fd0f4e",
            "35df438d8290ace7"),
        599: ("8a1bfae26ca486ce", "495c1058171c98b3",
            "547ce2848b6b7f0d", "67be923724cbf852",
            "a679edcf54524c51"),
    },
}


def pinned_program(label):
    name, _, variant = label.partition("/")
    if variant == "3000":
        return build_program(name, slice_size=3000)
    return build_program(name)


@pytest.fixture()
def fresh_memo():
    """An empty slice memo that re-reads its budget, before and after."""
    slicecache.reset_slice_cache()
    yield
    slicecache.reset_slice_cache()


class TestPinnedBytes:
    """Generated slices keep their exact bytes: one program per memory
    archetype (memory, compute, balanced) and a small slice size.  Every
    slice is drawn cold, and again after its header, with the slice memo
    on and with it off."""

    @pytest.mark.parametrize("label", list(PINNED_DIGESTS))
    def test_slice_arrays_match_recorded_digests(
        self, label, monkeypatch, fresh_memo
    ):
        for budget in (None, "0"):
            if budget is None:
                monkeypatch.delenv("REPRO_SLICE_CACHE_MB", raising=False)
            else:
                monkeypatch.setenv("REPRO_SLICE_CACHE_MB", budget)
            for header_first in (False, True):
                slicecache.reset_slice_cache()
                program = pinned_program(label)
                run = f"{label} memo={budget} header_first={header_first}"
                for index, expected in PINNED_DIGESTS[label].items():
                    header = program.slice_header(index) if header_first else None
                    trace = program.generate_slice(index)
                    assert trace.mem_lines.dtype == np.int64
                    assert trace.mem_is_write.dtype == bool
                    for name, digest in zip(PINNED_ARRAYS, expected):
                        data = getattr(trace, name).tobytes()
                        assert hashlib.sha256(data).hexdigest()[:16] == digest, (
                            f"{run} slice {index}: {name}"
                        )
                    if header is not None:
                        assert_header_of(header, trace)


def assert_header_of(header, trace):
    """Every header field equals the full slice's."""
    for name in ("index", "phase_id", "instruction_count"):
        assert getattr(header, name) == getattr(trace, name), name
    for name in ("block_counts", "class_counts"):
        np.testing.assert_array_equal(getattr(header, name), getattr(trace, name))


def body_counters(recorder):
    return {
        path: recorder.metrics.counters.get(f"slice.body{{path={path}}}", 0)
        for path in ("native", "numpy")
    }


class TestBodyPaths:
    """A slice body is one native kernel call when it loads and numpy's
    own calls otherwise, to the same bytes."""

    @pytest.mark.parametrize("label", list(PINNED_DIGESTS))
    def test_numpy_fallback_matches_recorded_digests(
        self, label, monkeypatch, fresh_memo
    ):
        monkeypatch.setattr(_native, "load_kernel", lambda: None)
        program = pinned_program(label)
        recorder = telemetry.TraceRecorder()
        with telemetry.using_recorder(recorder):
            for index, expected in PINNED_DIGESTS[label].items():
                trace = program.generate_slice(index)
                for name, digest in zip(PINNED_ARRAYS, expected):
                    data = getattr(trace, name).tobytes()
                    assert hashlib.sha256(data).hexdigest()[:16] == digest, (
                        f"{label} slice {index}: {name}"
                    )
        assert body_counters(recorder) == {
            "native": 0, "numpy": len(PINNED_DIGESTS[label]),
        }

    def test_counted_once_per_drawn_body(self, fresh_memo):
        program = pinned_program("505.mcf_r/3000")
        recorder = telemetry.TraceRecorder()
        with telemetry.using_recorder(recorder):
            for index in range(5):
                program.slice_header(index)
                program.generate_slice(index)
                program.generate_slice(index)
        path = "numpy" if _native.load_kernel() is None else "native"
        assert body_counters(recorder)[path] == 5
        assert sum(body_counters(recorder).values()) == 5

    def test_oversized_range_takes_numpy(self, monkeypatch, fresh_memo):
        """A region past 2^32 lines needs numpy's 64-bit draws, which the
        kernel does not make; a region of exactly 2^32 lines does not."""
        if _native.load_kernel() is None:
            pytest.skip("no working C compiler")
        schedule = PhaseSchedule.from_counts([2, 2], seed=3)
        phases = [
            make_phase(0, ws_lines=(8, 40, 1000, 2**32)),
            make_phase(1, ws_lines=(8, 40, 2**32 + 1, 2500)),
        ]
        program = SyntheticProgram("p", phases, schedule, 2000, seed=5)
        recorder = telemetry.TraceRecorder()
        with telemetry.using_recorder(recorder):
            drawn = [program.generate_slice(i) for i in range(4)]
        assert body_counters(recorder) == {"native": 2, "numpy": 2}
        slicecache.reset_slice_cache()
        monkeypatch.setattr(_native, "load_kernel", lambda: None)
        for index, trace in enumerate(drawn):
            expected = program.generate_slice(index)
            assert expected is not trace
            for name in PINNED_ARRAYS:
                np.testing.assert_array_equal(
                    getattr(trace, name), getattr(expected, name)
                )
