"""Reference algorithms for comparison: DBSCAN, k-means, LOF, and the
terminating-expansion clusterer with a nearest-neighbour fallback.

DBSCAN, k-means and LOF take a Dataset and the fallback clusterer a
NeighborhoodIndex; all of them are deterministic given their inputs (and
seed, for k-means). DBSCAN, LOF and the fallback read what they need off
the row blocks of one distance matrix as it is made, in a workspace that
ends with the pass that reads it. The clusterers return a cluster id per
point, LOF a score per point.
"""

import numpy as np

from .dataset import Dataset, is_int
from .expansion import UNCLUSTERED, expand
from .metricspace import (NeighborhoodIndex, _distances, _nearest_block, _workspace,
                          nearest_center, squared_norms)

# Cluster id for points no cluster claimed.
NOISE = -1

# Lloyd updates k-means makes at most.
KMEANS_MAX_ITER = 100


def dbscan(ds: Dataset, epsilon: float, min_pts: int) -> np.ndarray:
    """Density clustering with the self-excluding core test.

    A point is core when at least min_pts other points sit within epsilon,
    where exactly equal points sit within any epsilon of each other.
    Clusters are the connected components of core points under the epsilon
    graph, numbered by ascending smallest member; a non-core point joins
    the cluster of its lowest-indexed core neighbour, if any, else NOISE.
    Points must pass squared_norms.
    """
    n = ds.n
    if not epsilon >= 0:
        raise ValueError("epsilon must be non-negative")
    if not (is_int(min_pts) and min_pts >= 1):
        raise ValueError(f"min_pts must be an integer >= 1, got {min_pts!r}")
    dist = _workspace((n, n), n * n)  # and the n x n neighbourhoods beside it
    within = np.empty((n, n), dtype=bool)
    _distances(ds.points, ds.points, dist, None,
               lambda rows, blk: np.less_equal(blk, epsilon, out=within[rows]))
    del dist  # the graph steps read only the neighbourhoods
    # the pass's distances between equal points, self included, need not be
    # 0; raveled, as numpy 1.x and 2.x shape an axis=0 inverse differently
    same = np.unique(ds.points, axis=0, return_inverse=True)[1].ravel()
    within |= same[:, None] == same
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
    border = np.flatnonzero(~core)
    hits = within[border]
    hits &= core  # each non-core point's core neighbours; argmax is the first
    joined = hits.any(axis=1)
    assign[border[joined]] = assign[hits.argmax(axis=1)[joined]]
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
    if not (is_int(k) and 1 <= k <= n):
        raise ValueError(f"k must be an integer in [1, {n}], got {k!r}")
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


def lof(ds: Dataset, k: int) -> np.ndarray:
    """Local outlier factor over exactly k nearest other points.

    Points must pass squared_norms; neighbour ties resolve to the smaller
    index. Scores near 1 mean as dense as the neighbours; well above 1,
    outlying.
    """
    n = ds.n
    if not (is_int(k) and 1 <= k <= n - 1):
        raise ValueError(f"k must be an integer in [1, {n - 1}], got {k!r}")
    nbrs, nd = np.empty((n, k), dtype=np.intp), np.empty((n, k))

    def take_nearest(rows, blk):  # self is no neighbour
        np.fill_diagonal(blk[:, rows], np.inf)
        _nearest_block(blk, nbrs[rows], nd[rows])

    _distances(ds.points, ds.points, _workspace((n, n)), None, take_nearest)
    reach = np.maximum(nd[:, -1][nbrs], nd)
    with np.errstate(divide="ignore", invalid="ignore"):
        lrd = k / reach.sum(axis=1)
        scores = lrd[nbrs].mean(axis=1) / lrd
    # duplicated points can drive both densities to infinity; call that 1
    return np.where(np.isnan(scores), 1.0, scores)


def ssdbscan_with_fallback(idx: NeighborhoodIndex, labels) -> np.ndarray:
    """Terminating-expansion clustering with leftovers joined to the
    cluster of their nearest clustered point (ties to the smaller index),
    read off the leftovers' rows of the whole pairwise product: a product of
    fewer rows or columns could flip a near-tie."""
    assign = expand(idx, labels)[0].copy()
    unclustered = np.flatnonzero(assign == UNCLUSTERED)
    clustered = np.flatnonzero(assign != UNCLUSTERED)
    if unclustered.size and clustered.size:
        closest = np.empty(unclustered.size, dtype=np.intp)

        def take_closest(rows, blk):
            closest[rows] = clustered[blk[:, clustered].argmin(axis=1)]

        _distances(idx.points, idx.points, _workspace((idx.n, idx.n)), unclustered, take_closest)
        assign[unclustered] = assign[closest]
    return assign
