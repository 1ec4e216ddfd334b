"""K-means clustering with k-means++ seeding and Lloyd iterations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ClusteringError
from repro.telemetry.recorder import get_recorder


@dataclass
class KMeansResult:
    """Outcome of one k-means run.

    Attributes:
        labels: ``(n,)`` cluster assignment per point.
        centers: ``(k, d)`` cluster centroids.
        inertia: Sum of squared distances of points to their centroids.
        iterations: Lloyd iterations executed before convergence.
        cluster_variances: ``(k,)`` mean squared distance to the centroid,
            per cluster (zero for empty clusters).
    """

    labels: np.ndarray
    centers: np.ndarray
    inertia: float
    iterations: int
    cluster_variances: np.ndarray

    @property
    def k(self) -> int:
        """Number of clusters."""
        return int(self.centers.shape[0])

    def cluster_sizes(self) -> np.ndarray:
        """Number of points assigned to each cluster."""
        return np.bincount(self.labels, minlength=self.k)

    def average_cluster_variance(self) -> float:
        """Mean of the per-cluster variances over non-empty clusters.

        This is the Figure 4 metric: how far, on average, phases within a
        cluster deviate from the cluster's representative behaviour.
        """
        sizes = self.cluster_sizes()
        nonempty = sizes > 0
        if not nonempty.any():
            return 0.0
        return float(self.cluster_variances[nonempty].mean())


def _sq_norms(points: np.ndarray) -> np.ndarray:
    """``(m,)`` squared Euclidean norm of each row."""
    return np.einsum("ij,ij->i", points, points)


def _pairwise_sq_dists(
    data: np.ndarray, data_sq: np.ndarray, centers: np.ndarray
) -> np.ndarray:
    """``(n, k)`` squared Euclidean distances via the expansion trick.

    ``data_sq`` is ``_sq_norms(data)``, computed once by the caller.  The
    association is ``(data_sq + center_sq) - 2 * cross``; doubling the
    cross term in place is exact.
    """
    cross = data @ centers.T
    cross *= 2.0
    dists = data_sq[:, None] + _sq_norms(centers)[None, :]
    dists -= cross
    np.maximum(dists, 0.0, out=dists)
    return dists


def _kmeans_pp_init(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """K-means++ seeding: spread initial centers proportionally to D^2."""
    n = data.shape[0]
    data_sq = _sq_norms(data)
    centers = np.empty((k, data.shape[1]), dtype=np.float64)
    centers[0] = data[int(rng.integers(n))]
    closest_sq = _pairwise_sq_dists(data, data_sq, centers[:1]).ravel()
    for i in range(1, k):
        total = closest_sq.sum()
        if total <= 0.0:
            # All remaining points coincide with a chosen center; pick any.
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest_sq / total))
        centers[i] = data[idx]
        np.minimum(
            closest_sq,
            _pairwise_sq_dists(data, data_sq, centers[i : i + 1]).ravel(),
            out=closest_sq,
        )
    return centers


def _random_init(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Plain random seeding (for the k-means init ablation)."""
    idx = rng.choice(data.shape[0], size=k, replace=False)
    return data[idx].astype(np.float64)


def _maximin_init(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Gonzalez farthest-first seeding.

    After a random first center, each subsequent center is the point
    farthest from its nearest chosen center.  On well-separated clustered
    data this deterministically seeds every cluster before ever placing a
    second seed inside one — exactly the property needed to recover tiny
    program phases next to dominant ones, where D^2-sampling (k-means++)
    can leave a two-slice phase unseeded.
    """
    n = data.shape[0]
    data_sq = _sq_norms(data)
    centers = np.empty((k, data.shape[1]), dtype=np.float64)
    centers[0] = data[int(rng.integers(n))]
    closest_sq = _pairwise_sq_dists(data, data_sq, centers[:1]).ravel()
    for i in range(1, k):
        idx = int(closest_sq.argmax())
        centers[i] = data[idx]
        np.minimum(
            closest_sq,
            _pairwise_sq_dists(data, data_sq, centers[i : i + 1]).ravel(),
            out=closest_sq,
        )
    return centers


def _lloyd(data: np.ndarray, centers: np.ndarray, max_iter: int, tol: float):
    """Lloyd iterations with farthest-point reseeding of empty clusters.

    Every centroid sum comes from one ``bincount`` over
    ``label * d + column``, weighted by the row-major flattened data, so
    each cluster's members are added in index order starting from 0.0.
    That is exactly how ``data[labels == c].mean(axis=0)`` reduces two or
    more columns, so the centroids match it bit for bit.  (On a single
    column ``mean`` sums pairwise instead, so a centroid may differ from
    it in its last few bits.)
    """
    n, d = data.shape
    k = centers.shape[0]
    data_sq = _sq_norms(data)
    flat = data.reshape(-1)
    columns = np.arange(d)
    rows = np.arange(n)
    iteration = 0
    for iteration in range(1, max_iter + 1):
        dists = _pairwise_sq_dists(data, data_sq, centers)
        labels = dists.argmin(axis=1)
        point_costs = dists[rows, labels]
        counts = np.bincount(labels, minlength=k)
        bins = (labels[:, None] * d + columns).reshape(-1)
        new_centers = np.bincount(
            bins, weights=flat, minlength=k * d
        ).reshape(k, d)
        np.divide(new_centers, counts[:, None], out=new_centers,
                  where=counts[:, None] > 0)
        for cluster in np.flatnonzero(counts == 0):
            # Reseed an empty cluster at the most expensive point.
            worst = int(point_costs.argmax())
            new_centers[cluster] = data[worst]
            point_costs[worst] = 0.0
        shift = float(np.abs(new_centers - centers).max())
        centers = new_centers
        if shift <= tol:
            break
    dists = _pairwise_sq_dists(data, data_sq, centers)
    labels = dists.argmin(axis=1)
    point_costs = dists[rows, labels]
    inertia = float(point_costs.sum())
    return labels, centers, inertia, point_costs, iteration


def kmeans(
    data: np.ndarray,
    k: int,
    seed: int = 0,
    n_init: int = 3,
    max_iter: int = 100,
    tol: float = 1e-7,
    init: str = "maximin",
) -> KMeansResult:
    """Cluster ``data`` into ``k`` groups, keeping the best of ``n_init`` runs.

    Args:
        data: ``(n, d)`` float matrix of points.
        k: Number of clusters, ``1 <= k <= n``.
        seed: Seed for all randomness (results are deterministic).
        n_init: Independent restarts; the lowest-inertia run wins.
        max_iter: Lloyd iteration cap per restart.
        tol: Convergence threshold on the max center movement.
        init: ``"maximin"`` (default), ``"k-means++"``, or ``"random"``.

    Returns:
        The best :class:`KMeansResult` across restarts.

    Raises:
        ClusteringError: On an invalid ``k``, empty data, or unknown init.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ClusteringError("data must be a non-empty (n, d) matrix")
    n = data.shape[0]
    if not 1 <= k <= n:
        raise ClusteringError(f"k must be in [1, {n}], got {k}")
    initializers = {
        "maximin": _maximin_init,
        "k-means++": _kmeans_pp_init,
        "random": _random_init,
    }
    if init not in initializers:
        raise ClusteringError(f"unknown init strategy {init!r}")
    if n_init < 1:
        raise ClusteringError("n_init must be at least 1")
    if init == "maximin":
        # Farthest-first is deterministic after the first pick; restarts
        # only vary that pick, so a couple suffice.
        n_init = min(n_init, 2)

    rng = np.random.default_rng(seed)
    best = None
    for _ in range(n_init):
        centers = initializers[init](data, k, rng)
        labels, centers, inertia, costs, iters = _lloyd(data, centers, max_iter, tol)
        if best is None or inertia < best[2]:
            best = (labels, centers, inertia, iters, costs)

    labels, centers, inertia, iters, costs = (
        best[0], best[1], best[2], best[3], best[4],
    )
    sums = np.bincount(labels, weights=costs, minlength=k)
    counts = np.bincount(labels, minlength=k)
    variances = np.zeros(k)
    nonempty = counts > 0
    variances[nonempty] = sums[nonempty] / counts[nonempty]
    recorder = get_recorder()
    if recorder is not None:
        recorder.count("clustering.iterations", int(iters), k=k)
        recorder.count("clustering.runs", 1)
    return KMeansResult(labels, centers, inertia, iters, variances)
