"""K-means clustering with k-means++ seeding and Lloyd iterations."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cache import _native
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


def _sq_norms(points: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``(m,)`` squared Euclidean norm of each row (into ``out``, if given)."""
    return np.einsum("ij,ij->i", points, points, out=out)


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


def _maximin_init(
    data: np.ndarray,
    k: int,
    rng: np.random.Generator,
    kernel: Optional[_native.NativeKernel],
) -> np.ndarray:
    """Gonzalez farthest-first seeding.

    After a random first center, each subsequent center is the point
    farthest from its nearest chosen center.  On well-separated clustered
    data this deterministically seeds every cluster before ever placing a
    second seed inside one — exactly the property needed to recover tiny
    program phases next to dominant ones, where D^2-sampling (k-means++)
    can leave a two-slice phase unseeded.

    With ``kernel``, each step's product stays numpy's and one C call
    makes the min-update and the argmax; without, numpy does all of it.
    Both choose the same centers.
    """
    n = data.shape[0]
    data_sq = _sq_norms(data)
    centers = np.empty((k, data.shape[1]), dtype=np.float64)
    row = int(rng.integers(n))
    centers[0] = data[row]
    if kernel is not None:
        farthest = kernel.farthest(data_sq)
        for i in range(1, k):
            np.matmul(data, centers[i - 1 : i].T, out=farthest.cross)
            row = farthest.step(row)
            centers[i] = data[row]
        return centers
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


def _lloyd(
    data: np.ndarray,
    centers: np.ndarray,
    max_iter: int,
    tol: float,
    kernel: Optional[_native.NativeKernel],
):
    """Lloyd iterations with farthest-point reseeding of empty clusters.

    Every centroid sum adds each cluster's members in index order
    starting from 0.0.  That is exactly how
    ``data[labels == c].mean(axis=0)`` reduces two or more columns, so
    the centroids match it bit for bit.  (On a single column ``mean``
    sums pairwise instead, so a centroid may differ from it in its last
    few bits.)

    With ``kernel``, numpy computes ``data @ centers.T``, the center
    norms and the final ``costs.sum()`` -- the reductions whose order
    BLAS and einsum choose -- and one C call per iteration does the rest
    in the numpy path's order.  Without, the sums come from one
    ``bincount`` over ``label * d + column``, weighted by the row-major
    flattened data.  Both paths give the same bits.
    """
    n, d = data.shape
    k = centers.shape[0]
    data_sq = _sq_norms(data)
    iteration = 0
    if kernel is not None:
        steps = kernel.lloyd(np.ascontiguousarray(data), data_sq, centers)
        shift = np.inf
        for iteration in range(1, max_iter + 1):
            np.matmul(data, steps.centers.T, out=steps.cross)
            _sq_norms(steps.centers, out=steps.center_sq)
            shift = steps.step()
            if shift <= tol:
                break
        if shift != 0.0:  # repro-lint: disable=REP002 -- exact: only unmoved centers give 0
            # Unless the centers stood still, label under the last ones.
            np.matmul(data, steps.centers.T, out=steps.cross)
            _sq_norms(steps.centers, out=steps.center_sq)
            steps.assign()
        costs = steps.costs
        return steps.labels, steps.centers, float(costs.sum()), costs, iteration
    flat = data.reshape(-1)
    columns = np.arange(d)
    rows = np.arange(n)
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
        ClusteringError: On an invalid ``k``, empty data, data holding a
            NaN or an infinity, or an unknown init.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or not data.size:
        raise ClusteringError("data must be a non-empty (n, d) matrix")
    if not np.isfinite(data).all():
        raise ClusteringError("data must be finite (no NaN or infinity)")
    n = data.shape[0]
    if not 1 <= k <= n:
        raise ClusteringError(f"k must be in [1, {n}], got {k}")
    # The C steps run whenever the kernel loads; numpy's are the path
    # without a compiler, with the same bits.
    kernel = _native.load_kernel()
    initializers = {
        "maximin": functools.partial(_maximin_init, kernel=kernel),
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
        labels, centers, inertia, costs, iters = _lloyd(
            data, centers, max_iter, tol, kernel
        )
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
        recorder.count(
            "clustering.step", 1, path="numpy" if kernel is None else "native"
        )
    return KMeansResult(labels, centers, inertia, iters, variances)
