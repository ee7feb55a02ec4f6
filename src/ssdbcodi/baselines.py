"""Reference algorithms for comparison: DBSCAN, k-means, LOF, and the
terminating-expansion clusterer with a nearest-neighbour fallback.

DBSCAN and LOF read a square distance matrix, k-means a Dataset and the
fallback clusterer a NeighborhoodIndex; all of them are deterministic
given their inputs (and seed, for k-means). The clusterers return a
cluster id per point, LOF a score per point.
"""

import numpy as np

from .dataset import Dataset
from .expansion import UNCLUSTERED, expand
from .metricspace import (NeighborhoodIndex, nearest, nearest_center, pairwise_distances,
                          squared_norms)

# Cluster id for points no cluster claimed.
NOISE = -1

# Lloyd updates k-means makes at most.
KMEANS_MAX_ITER = 100


def _square(dist) -> np.ndarray:
    d = np.asarray(dist, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("expected a square distance matrix")
    return d


def dbscan(dist, epsilon: float, min_pts: int) -> np.ndarray:
    """Density clustering with the self-excluding core test.

    A point is core when at least min_pts other points sit within epsilon.
    Clusters are the connected components of core points under the epsilon
    graph, numbered by ascending smallest member; a non-core point joins
    the cluster of its lowest-indexed core neighbour, if any, else NOISE.
    """
    dist = _square(dist)
    n = dist.shape[0]
    if not epsilon >= 0:
        raise ValueError("epsilon must be non-negative")
    if min_pts < 1:
        raise ValueError("min_pts must be >= 1")
    within = dist <= epsilon
    core = (within.sum(axis=1) - 1) >= min_pts  # the diagonal counts self
    assign = np.full(n, NOISE, dtype=int)
    cluster = 0
    for p in range(n):
        if not core[p] or assign[p] != NOISE:
            continue
        frontier = np.array([p])
        assign[p] = cluster
        while frontier.size:
            reach = within[frontier].any(axis=0) & core & (assign == NOISE)
            frontier = np.flatnonzero(reach)
            assign[frontier] = cluster
        cluster += 1
    for p in range(n):
        if core[p]:
            continue
        neighbours = np.flatnonzero(within[p] & core)
        if neighbours.size:
            assign[p] = assign[neighbours[0]]
    return assign


def _kmeanspp(pts: np.ndarray, k: int, rng) -> np.ndarray:
    n = pts.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = ((pts - pts[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(k - 1):
        total = d2.sum()
        if total > 0:
            nxt = int(rng.choice(n, p=d2 / total))
        else:
            nxt = int(min(set(range(n)) - set(chosen)))
        chosen.append(nxt)
        d2 = np.minimum(d2, ((pts - pts[nxt]) ** 2).sum(axis=1))
    return pts[chosen].copy()


def kmeans(ds: Dataset, k: int, seed: int) -> np.ndarray:
    """Lloyd iterations from seeded k-means++ starting centroids.

    Stops at an assignment fixed point or after KMEANS_MAX_ITER updates.
    Distance ties go to the lowest centroid index; a cluster that empties
    keeps its previous centroid. Points must pass squared_norms.
    """
    pts, n = ds.points, ds.n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    squared_norms(pts)
    rng = np.random.default_rng(seed)
    centroids = _kmeanspp(pts, k, rng)
    labels = nearest_center(pts, centroids)[0]
    for _ in range(KMEANS_MAX_ITER):
        for c in range(k):
            members = pts[labels == c]
            if members.shape[0]:
                centroids[c] = members.mean(axis=0)
        new_labels = nearest_center(pts, centroids)[0]
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels


def lof(dist, k: int) -> np.ndarray:
    """Local outlier factor over exactly k nearest other points.

    Distances must be finite; neighbour ties resolve to the smaller index.
    Scores near 1 mean as dense as the neighbours; well above 1, outlying.
    """
    dist = _square(dist)
    n = dist.shape[0]
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    if not np.isfinite(dist).all():
        raise ValueError("lof needs finite distances")
    d = dist.copy()
    np.fill_diagonal(d, np.inf)
    nbrs = nearest(d, k)
    nd = np.take_along_axis(dist, nbrs, axis=1)
    reach = np.maximum(nd[:, -1][nbrs], nd)
    with np.errstate(divide="ignore", invalid="ignore"):
        lrd = k / reach.sum(axis=1)
        scores = lrd[nbrs].mean(axis=1) / lrd
    # duplicated points can drive both densities to infinity; call that 1
    return np.where(np.isnan(scores), 1.0, scores)


def ssdbscan_with_fallback(idx: NeighborhoodIndex, labels) -> np.ndarray:
    """Terminating-expansion clustering with leftovers joined to the
    cluster of their nearest clustered point (ties to the smaller index), by
    pairwise_distances(idx.points): a submatrix of its own could flip a near-tie."""
    assign = expand(idx, labels)[0].copy()
    unclustered = np.flatnonzero(assign == UNCLUSTERED)
    clustered = np.flatnonzero(assign != UNCLUSTERED)
    if unclustered.size and clustered.size:
        sub = pairwise_distances(idx.points)[np.ix_(unclustered, clustered)]
        closest = clustered[np.argmin(sub, axis=1)]
        assign[unclustered] = assign[closest]
    return assign
