"""Reference k-means: the per-cluster Lloyd loop, kept as a test oracle.

:func:`reference_kmeans` is the straightforward form of
:func:`repro.clustering.kmeans.kmeans`: point norms recomputed for every
distance matrix, and every centroid updated by its own
``data[labels == c].mean(axis=0)``.  The library computes the same
thing with one ``bincount`` per iteration; the differential tests in
``test_clustering.py`` hold the two bit-identical.  Seeding, restart
selection and the RNG draw order are the same as the library's.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.kmeans import KMeansResult


def pairwise_sq_dists(data: np.ndarray, centers: np.ndarray) -> np.ndarray:
    data_sq = np.einsum("ij,ij->i", data, data)[:, None]
    center_sq = np.einsum("ij,ij->i", centers, centers)[None, :]
    dists = data_sq + center_sq - 2.0 * (data @ centers.T)
    np.maximum(dists, 0.0, out=dists)
    return dists


def _kmeans_pp_init(data, k, rng):
    n = data.shape[0]
    centers = np.empty((k, data.shape[1]), dtype=np.float64)
    centers[0] = data[int(rng.integers(n))]
    closest_sq = pairwise_sq_dists(data, centers[:1]).ravel()
    for i in range(1, k):
        total = closest_sq.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest_sq / total))
        centers[i] = data[idx]
        np.minimum(closest_sq,
                   pairwise_sq_dists(data, centers[i:i + 1]).ravel(),
                   out=closest_sq)
    return centers


def _random_init(data, k, rng):
    idx = rng.choice(data.shape[0], size=k, replace=False)
    return data[idx].astype(np.float64)


def _maximin_init(data, k, rng):
    n = data.shape[0]
    centers = np.empty((k, data.shape[1]), dtype=np.float64)
    centers[0] = data[int(rng.integers(n))]
    closest_sq = pairwise_sq_dists(data, centers[:1]).ravel()
    for i in range(1, k):
        centers[i] = data[int(closest_sq.argmax())]
        np.minimum(closest_sq,
                   pairwise_sq_dists(data, centers[i:i + 1]).ravel(),
                   out=closest_sq)
    return centers


INITS = {
    "maximin": _maximin_init,
    "k-means++": _kmeans_pp_init,
    "random": _random_init,
}


def lloyd(data, centers, max_iter, tol):
    """Lloyd iterations, one centroid ``mean`` per non-empty cluster."""
    k = centers.shape[0]
    iteration = 0
    for iteration in range(1, max_iter + 1):
        dists = pairwise_sq_dists(data, centers)
        labels = dists.argmin(axis=1)
        point_costs = dists[np.arange(data.shape[0]), labels]
        new_centers = np.empty_like(centers)
        counts = np.bincount(labels, minlength=k)
        for cluster in range(k):
            if counts[cluster] == 0:
                worst = int(point_costs.argmax())
                new_centers[cluster] = data[worst]
                point_costs[worst] = 0.0
            else:
                new_centers[cluster] = data[labels == cluster].mean(axis=0)
        shift = float(np.abs(new_centers - centers).max())
        centers = new_centers
        if shift <= tol:
            break
    dists = pairwise_sq_dists(data, centers)
    labels = dists.argmin(axis=1)
    point_costs = dists[np.arange(data.shape[0]), labels]
    return labels, centers, float(point_costs.sum()), point_costs, iteration


def reference_kmeans(data, k, seed=0, n_init=3, max_iter=100, tol=1e-7,
                     init="maximin"):
    """The oracle counterpart of :func:`repro.clustering.kmeans.kmeans`."""
    data = np.asarray(data, dtype=np.float64)
    if init == "maximin":
        n_init = min(n_init, 2)
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(n_init):
        centers = INITS[init](data, k, rng)
        run = lloyd(data, centers, max_iter, tol)
        if best is None or run[2] < best[2]:
            best = run
    labels, centers, inertia, costs, iters = best
    sums = np.bincount(labels, weights=costs, minlength=k)
    counts = np.bincount(labels, minlength=k)
    variances = np.zeros(k)
    nonempty = counts > 0
    variances[nonempty] = sums[nonempty] / counts[nonempty]
    return KMeansResult(labels, centers, inertia, iters, variances)
