"""K-means, BIC k-selection, and random projection."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmeans_oracle import lloyd as reference_lloyd, reference_kmeans
from repro import telemetry
from repro.cache import _native
from repro.clustering import (
    bic_score,
    choose_k,
    kmeans,
    project,
    random_projection_matrix,
)
from repro.clustering.kmeans import _lloyd, _maximin_init, _sq_norms
from repro.errors import ClusteringError


def blobs(rng, k=4, per=40, dim=8, spread=0.02, sep=5.0):
    """Well-separated Gaussian blobs with ground-truth labels."""
    centers = rng.normal(0, sep, size=(k, dim))
    data = np.vstack([
        centers[i] + rng.normal(0, spread, size=(per, dim)) for i in range(k)
    ])
    labels = np.repeat(np.arange(k), per)
    return data, labels, centers


class TestKMeans:
    def test_recovers_clean_clusters(self, rng):
        data, truth, _ = blobs(rng, k=4)
        result = kmeans(data, 4, seed=0)
        # Partition must match ground truth up to relabeling.
        for cluster in range(4):
            members = truth[result.labels == cluster]
            assert len(set(members.tolist())) == 1

    def test_inertia_nonincreasing_in_k(self, rng):
        data, _, _ = blobs(rng, k=4)
        inertias = [kmeans(data, k, seed=1).inertia for k in (1, 2, 4, 8)]
        assert all(a >= b - 1e-9 for a, b in zip(inertias, inertias[1:]))

    def test_deterministic(self, rng):
        data, _, _ = blobs(rng)
        a = kmeans(data, 4, seed=3)
        b = kmeans(data, 4, seed=3)
        assert np.array_equal(a.labels, b.labels)
        assert a.inertia == b.inertia

    def test_labels_in_range_and_no_empty_clusters(self, rng):
        data = rng.normal(size=(50, 5))
        result = kmeans(data, 7, seed=0)
        sizes = result.cluster_sizes()
        assert result.labels.min() >= 0 and result.labels.max() < 7
        assert (sizes > 0).all()

    def test_k_equals_n(self, rng):
        data = rng.normal(size=(6, 3))
        result = kmeans(data, 6, seed=0)
        assert result.inertia == pytest.approx(0.0, abs=1e-12)

    def test_k_one(self, rng):
        data = rng.normal(size=(20, 3))
        result = kmeans(data, 1, seed=0)
        assert np.allclose(result.centers[0], data.mean(axis=0))

    def test_cluster_variances_shape(self, rng):
        data, _, _ = blobs(rng, k=3)
        result = kmeans(data, 3, seed=0)
        assert result.cluster_variances.shape == (3,)
        assert (result.cluster_variances >= 0).all()

    def test_average_cluster_variance_decreases_with_k(self, rng):
        data, _, _ = blobs(rng, k=6, spread=0.5)
        high = kmeans(data, 2, seed=0).average_cluster_variance()
        low = kmeans(data, 6, seed=0).average_cluster_variance()
        assert low < high

    @pytest.mark.parametrize("init", ["maximin", "k-means++", "random"])
    def test_all_inits_recover_clean_clusters(self, init, rng):
        data, truth, _ = blobs(rng, k=3, per=30)
        result = kmeans(data, 3, seed=0, n_init=5, init=init)
        for cluster in range(3):
            members = truth[result.labels == cluster]
            assert len(set(members.tolist())) == 1

    def test_maximin_seeds_tiny_cluster(self, rng):
        # One dominant blob (300 pts) + one 2-point blob far away.
        big = rng.normal(0, 0.05, size=(300, 6))
        tiny = rng.normal(8, 0.05, size=(2, 6))
        data = np.vstack([big, tiny])
        result = kmeans(data, 2, seed=0, init="maximin")
        sizes = sorted(result.cluster_sizes().tolist())
        assert sizes == [2, 300]

    def test_rejects_bad_k(self, rng):
        data = rng.normal(size=(5, 2))
        with pytest.raises(ClusteringError):
            kmeans(data, 0)
        with pytest.raises(ClusteringError):
            kmeans(data, 6)

    def test_rejects_empty_data(self):
        with pytest.raises(ClusteringError):
            kmeans(np.empty((0, 3)), 1)

    def test_rejects_data_without_columns(self):
        with pytest.raises(ClusteringError):
            kmeans(np.empty((5, 0)), 2)

    def test_rejects_unknown_init(self, rng):
        with pytest.raises(ClusteringError):
            kmeans(rng.normal(size=(10, 2)), 2, init="bogus")

    def test_rejects_bad_n_init(self, rng):
        with pytest.raises(ClusteringError):
            kmeans(rng.normal(size=(10, 2)), 2, n_init=0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("init", ["maximin", "k-means++", "random"])
    def test_rejects_non_finite_data_before_seeding(
        self, init, value, rng, monkeypatch
    ):
        # The package's ``kmeans`` attribute is the function.
        kmeans_module = importlib.import_module("repro.clustering.kmeans")

        def seeding(*_args, **_kwargs):
            raise AssertionError("seeded non-finite data")

        for name in ("_maximin_init", "_kmeans_pp_init", "_random_init"):
            monkeypatch.setattr(kmeans_module, name, seeding)
        data = rng.normal(size=(20, 3))
        data[7, 1] = value
        with pytest.raises(ClusteringError, match="finite"):
            kmeans(data, 3, seed=0, init=init)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(3, 40), k=st.integers(1, 5), seed=st.integers(0, 99))
    def test_property_partition_is_total(self, n, k, seed):
        k = min(k, n)
        data = np.random.default_rng(seed).normal(size=(n, 4))
        result = kmeans(data, k, seed=seed)
        assert result.labels.size == n
        assert result.cluster_sizes().sum() == n


def bits(values) -> np.ndarray:
    """Float64 values as their int64 bit patterns."""
    return np.asarray(values, dtype=np.float64).view(np.int64)


def assert_bit_identical(got, want):
    assert np.array_equal(got.labels, want.labels)
    assert got.iterations == want.iterations
    assert bits(got.inertia) == bits(want.inertia)
    assert np.array_equal(bits(got.centers), bits(want.centers))
    assert np.array_equal(
        bits(got.cluster_variances), bits(want.cluster_variances)
    )


def assert_lloyd_identical(data, centers):
    """Labels, centers, inertia, per-point costs and iterations."""
    got = _lloyd(data, centers, 100, 1e-7, _native.load_kernel())
    want = reference_lloyd(data, centers, 100, 1e-7)
    assert np.array_equal(got[0], want[0])
    for got_values, want_values in zip(got[1:4], want[1:4]):
        assert np.array_equal(bits(got_values), bits(want_values))
    assert got[4] == want[4]


def fuzz_points(rng, n, dim):
    """Noise, blobs, or duplicated points (which force empty clusters)."""
    kind = int(rng.integers(3))
    if kind == 0:
        return rng.normal(size=(n, dim))
    if kind == 1:
        return blobs(rng, k=3, per=n // 3 + 1, dim=dim, spread=0.3)[0][:n]
    pool = rng.normal(size=(max(1, n // 5), dim))
    return pool[rng.integers(len(pool), size=n)]


def real_bbvs(name):
    """The whole-run BBV matrix of a registered benchmark."""
    from repro.pin.engine import Engine
    from repro.pin.tools.bbv import BBVProfiler
    from repro.workloads.spec2017 import build_program

    program = build_program(name)
    profiler = BBVProfiler(program.block_sizes)
    Engine([profiler]).run(program.iter_slices())
    return profiler.matrix()


class TestLloydOracle:
    """The Lloyd update ``kmeans`` runs -- one C call per iteration
    wherever a C compiler works -- against the per-cluster oracle in
    ``kmeans_oracle.py``: bit for bit on two or more columns."""

    @pytest.mark.parametrize("dim", [2, 3, 15, 16, 64])
    @pytest.mark.parametrize("init", ["maximin", "k-means++", "random"])
    def test_kmeans_fuzz_is_bit_identical(self, init, dim):
        rng = np.random.default_rng(100 * dim + len(init))
        for case in range(12):
            n = int(rng.integers(1, 90))
            data = fuzz_points(rng, n, dim)
            k = n if case % 4 == 0 else int(rng.integers(1, n + 1))
            kwargs = dict(seed=int(rng.integers(1000)),
                          n_init=int(rng.integers(1, 4)), init=init)
            assert_bit_identical(
                kmeans(data, k, **kwargs), reference_kmeans(data, k, **kwargs)
            )
            # Seeds drawn with replacement: duplicates leave clusters empty.
            assert_lloyd_identical(data, data[rng.integers(n, size=k)])

    @pytest.mark.parametrize("dim", [2, 15, 64])
    def test_lloyd_reseeds_empty_clusters_identically(self, dim):
        rng = np.random.default_rng(dim)
        pool = rng.normal(size=(3, dim))
        data = pool[rng.integers(3, size=60)]
        # Eight seeds from three distinct points: duplicated seeds leave
        # clusters empty, so the reseed path runs.
        centers = data[:8].copy()
        assert len(np.unique(centers, axis=0)) < len(centers)
        assert_lloyd_identical(data, centers)

    @pytest.mark.parametrize("name", ["505.mcf_r", "623.xalancbmk_s"])
    def test_analyze_on_real_bbvs_is_bit_identical(self, name, monkeypatch):
        from repro.simpoint import simpoints

        bbvs = real_bbvs(name)
        got = simpoints.SimPointAnalysis(seed=3).analyze(bbvs)
        monkeypatch.setattr(simpoints, "kmeans", reference_kmeans)
        want = simpoints.SimPointAnalysis(seed=3).analyze(bbvs)
        assert got.k == want.k
        assert got.points == want.points
        assert np.array_equal(bits(got.bic_scores), bits(want.bic_scores))

    def test_one_column_centers_within_one_ulp(self, monkeypatch):
        # A one-column mean sums pairwise, the bincount sequentially, so
        # only here may a centroid move: by a few ulp in general, by at
        # most one on this input.
        from repro.simpoint import simpoints

        bbvs = real_bbvs("505.mcf_r")
        analysis = simpoints.SimPointAnalysis(seed=3, projection_dim=1)
        got = analysis.analyze(bbvs)
        got_centers = analysis.cluster_at_k(bbvs, got.k)
        monkeypatch.setattr(simpoints, "kmeans", reference_kmeans)
        want = analysis.analyze(bbvs)
        want_centers = analysis.cluster_at_k(bbvs, want.k)
        assert got.k == want.k
        assert np.array_equal(got.labels, want.labels)
        assert np.array_equal(got_centers.labels, want_centers.labels)
        np.testing.assert_array_max_ulp(
            got_centers.centers, want_centers.centers, maxulp=1
        )


class TestLloydOracleNumpy(TestLloydOracle):
    """The same oracle cases on the path without a compiler: every
    iteration in numpy, with one ``bincount`` for the centroid sums."""

    @pytest.fixture(autouse=True)
    def _numpy_path(self, monkeypatch):
        monkeypatch.setattr(_native, "load_kernel", lambda: None)


def edge_case(name):
    """Data the oracle cannot pin, with a k and seed centers for ``_lloyd``."""
    rng = np.random.default_rng(5)
    if name == "one-column":
        data = rng.normal(size=(70, 1))
        return data, 6, data[:6].copy()
    if name == "duplicate-centers":
        # Ties: every point is as near to a center as to its copy.
        data = rng.normal(size=(50, 3))
        return data, 5, data[[0, 0, 7, 7, 7]].copy()
    if name == "all-equal":
        # Every squared distance is 0 or rounds below it and clamps to 0
        # (on a 2-vCPU x86-64 host with OpenBLAS, -2.3e-13 unclamped).
        data = np.full((40, 19), 6.070291399914127)
        return data, 4, data[:4].copy()
    if name == "k=1":
        data = rng.normal(size=(30, 5))
        return data, 1, data[:1].copy()
    if name == "k=n":
        data = rng.normal(size=(12, 2))
        return data, 12, data[::-1].copy()
    raise ValueError(name)


EDGE_CASES = ["one-column", "duplicate-centers", "all-equal", "k=1", "k=n"]


@pytest.mark.skipif(
    _native.load_kernel() is None, reason="no working C compiler"
)
class TestNativeSteps:
    """The C Lloyd and farthest-first steps against numpy's, bit for bit,
    where the oracle cannot pin them."""

    @pytest.mark.parametrize("init", ["maximin", "k-means++", "random"])
    @pytest.mark.parametrize("name", EDGE_CASES)
    def test_kmeans_matches_numpy_path(self, name, init, monkeypatch):
        data, k, _ = edge_case(name)
        native = kmeans(data, k, seed=4, init=init)
        monkeypatch.setattr(_native, "load_kernel", lambda: None)
        assert_bit_identical(native, kmeans(data, k, seed=4, init=init))

    @pytest.mark.parametrize("name", EDGE_CASES)
    def test_lloyd_matches_numpy_path(self, name):
        data, _, centers = edge_case(name)
        native = _lloyd(data, centers, 100, 1e-7, _native.load_kernel())
        numpy_path = _lloyd(data, centers, 100, 1e-7, None)
        assert np.array_equal(native[0], numpy_path[0])
        for got, want in zip(native[1:4], numpy_path[1:4]):
            assert np.array_equal(bits(got), bits(want))
        assert native[4] == numpy_path[4]

    def test_duplicate_centers_tie_to_the_first(self):
        data, _, centers = edge_case("duplicate-centers")
        labels = _lloyd(data, centers, 0, 1e-7, _native.load_kernel())[0]
        assert set(labels.tolist()) <= {0, 2}

    def test_all_equal_points_cost_nothing(self):
        data, _, centers = edge_case("all-equal")
        costs = _lloyd(data, centers, 100, 1e-7, _native.load_kernel())[3]
        assert np.array_equal(bits(costs), bits(np.zeros(len(data))))

    @pytest.mark.parametrize("name", EDGE_CASES)
    def test_maximin_centers_and_generator_state(self, name):
        data, k, _ = edge_case(name)
        rngs = [np.random.default_rng(9), np.random.default_rng(9)]
        native = _maximin_init(data, k, rngs[0], _native.load_kernel())
        numpy_path = _maximin_init(data, k, rngs[1], None)
        assert np.array_equal(bits(native), bits(numpy_path))
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    @pytest.mark.parametrize("dim", [1, 2, 3, 15, 16, 64])
    def test_row_norms_are_the_matrix_norms(self, dim):
        # The farthest-first step takes a center's norm from data_sq.
        data = np.random.default_rng(dim).normal(size=(97, dim)) * 3.7
        data_sq = _sq_norms(data)
        for row in range(len(data)):
            alone = _sq_norms(data[row : row + 1])
            assert bits(alone[0]) == bits(data_sq[row])

    @pytest.mark.parametrize("kernel", [True, False], ids=["native", "numpy"])
    def test_one_step_counter_per_kmeans_call(self, kernel, monkeypatch):
        if not kernel:
            monkeypatch.setattr(_native, "load_kernel", lambda: None)
        data = np.random.default_rng(2).normal(size=(40, 3))
        recorder = telemetry.TraceRecorder()
        with telemetry.using_recorder(recorder):
            for k in (1, 3, 5):
                kmeans(data, k, n_init=2)
        path = "native" if kernel else "numpy"
        assert {
            name: value for name, value in recorder.metrics.counters.items()
            if name.startswith("clustering.step")
        } == {f"clustering.step{{path={path}}}": 3}


@pytest.mark.skipif(
    _native.load_kernel() is None, reason="no working C compiler"
)
class TestNativeStepInputs:
    """Every array is checked before its pointer crosses to C."""

    DATA = np.random.default_rng(0).normal(size=(20, 3))

    @pytest.mark.parametrize("data", [
        DATA[:, 0],  # one axis
        DATA[:0],  # no rows
        DATA.astype(np.float32),
        DATA[:, :2],  # columns of a wider matrix: not contiguous
        np.asfortranarray(DATA),
    ], ids=["1-d", "empty", "float32", "column-slice", "fortran"])
    def test_lloyd_rejects_bad_data(self, data):
        kernel = _native.load_kernel()
        with pytest.raises(ValueError):
            kernel.lloyd(data, np.zeros(len(data)), np.zeros((2, 3)))

    @pytest.mark.parametrize("data_sq", [
        np.zeros(19), np.zeros((20, 1)), np.zeros(20, dtype=np.float32),
        np.zeros(40)[::2],
    ], ids=["short", "2-d", "float32", "strided"])
    def test_lloyd_rejects_bad_norms(self, data_sq):
        with pytest.raises(ValueError):
            _native.load_kernel().lloyd(self.DATA, data_sq, self.DATA[:2])

    @pytest.mark.parametrize("centers", [
        np.zeros((2, 2)), np.zeros((0, 3)), np.zeros(3),
    ], ids=["columns", "no-rows", "1-d"])
    def test_lloyd_rejects_bad_centers(self, centers):
        with pytest.raises(ValueError):
            _native.load_kernel().lloyd(self.DATA, _sq_norms(self.DATA), centers)

    @pytest.mark.parametrize("data_sq", [
        np.zeros((20, 1)), np.zeros(0), np.zeros(20, dtype=np.float32),
        np.zeros(40)[::2],
    ], ids=["2-d", "empty", "float32", "strided"])
    def test_farthest_rejects_bad_norms(self, data_sq):
        with pytest.raises(ValueError):
            _native.load_kernel().farthest(data_sq)

    @pytest.mark.parametrize("center", [-1, 20])
    def test_farthest_rejects_a_center_outside_the_rows(self, center):
        farthest = _native.load_kernel().farthest(_sq_norms(self.DATA))
        with pytest.raises(ValueError):
            farthest.step(center)


class TestBic:
    def test_bic_prefers_true_k(self, rng):
        data, _, _ = blobs(rng, k=5, per=50)
        scores = [
            bic_score(data, kmeans(data, k, seed=k)) for k in (2, 5)
        ]
        assert scores[1] > scores[0]

    def test_choose_k_finds_true_k(self, rng):
        data, _, _ = blobs(rng, k=5, per=50)
        k, result, scores = choose_k(data, max_k=10, seed=0)
        assert k == 5
        assert result.k == 5
        assert len(scores) == 10

    def test_choose_k_respects_max_k(self, rng):
        data, _, _ = blobs(rng, k=6, per=30)
        k, _, _ = choose_k(data, max_k=3, seed=0)
        assert k <= 3

    def test_choose_k_single_cluster_data(self, rng):
        data = rng.normal(0, 0.1, size=(80, 4))
        k, _, _ = choose_k(data, max_k=8, seed=0)
        assert k <= 2

    def test_penalty_weight_shrinks_k(self, rng):
        data, _, _ = blobs(rng, k=4, per=60, spread=1.0, sep=2.5)
        k_soft, _, _ = choose_k(data, max_k=12, seed=0, penalty_weight=0.25)
        k_hard, _, _ = choose_k(data, max_k=12, seed=0, penalty_weight=8.0)
        assert k_hard <= k_soft

    def test_bic_rejects_too_few_points(self, rng):
        data = rng.normal(size=(3, 2))
        result = kmeans(data, 3, seed=0)
        with pytest.raises(ClusteringError):
            bic_score(data, result)

    def test_choose_k_rejects_bad_args(self, rng):
        data = rng.normal(size=(10, 2))
        with pytest.raises(ClusteringError):
            choose_k(data, max_k=0)
        with pytest.raises(ClusteringError):
            choose_k(data, max_k=3, coverage=0.0)

    def test_perfect_clustering_wins(self):
        # Duplicated points: some k gives zero inertia -> +inf BIC.
        data = np.repeat(np.eye(3), 5, axis=0)
        k, result, scores = choose_k(data, max_k=6, seed=0)
        assert k == 3
        assert result.inertia == pytest.approx(0.0, abs=1e-15)


class TestProjection:
    def test_shapes(self):
        matrix = random_projection_matrix(100, 15, seed=0)
        assert matrix.shape == (100, 15)
        out = project(np.ones((7, 100)), matrix)
        assert out.shape == (7, 15)

    def test_deterministic(self):
        a = random_projection_matrix(50, 15, seed=9)
        b = random_projection_matrix(50, 15, seed=9)
        assert np.array_equal(a, b)

    def test_seed_changes_matrix(self):
        a = random_projection_matrix(50, 15, seed=1)
        b = random_projection_matrix(50, 15, seed=2)
        assert not np.array_equal(a, b)

    def test_distance_preservation_on_average(self, rng):
        data = rng.normal(size=(30, 400))
        matrix = random_projection_matrix(400, 64, seed=0)
        projected = project(data, matrix)
        orig = np.linalg.norm(data[0] - data[1])
        proj = np.linalg.norm(projected[0] - projected[1])
        # 1/sqrt(dim) scaling keeps distances the same order of magnitude.
        assert 0.2 * orig < proj * np.sqrt(400 / 64) / 1.0 < 5.0 * orig

    def test_rejects_dimension_mismatch(self, rng):
        matrix = random_projection_matrix(10, 4)
        with pytest.raises(ClusteringError):
            project(rng.normal(size=(3, 11)), matrix)

    def test_rejects_bad_dims(self):
        with pytest.raises(ClusteringError):
            random_projection_matrix(0, 5)
        with pytest.raises(ClusteringError):
            random_projection_matrix(5, 0)

    def test_rejects_non_2d(self, rng):
        matrix = random_projection_matrix(4, 2)
        with pytest.raises(ClusteringError):
            project(rng.normal(size=4), matrix)
