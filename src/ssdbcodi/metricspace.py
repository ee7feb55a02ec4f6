"""Pairwise Euclidean distances, core distances, and reachability queries.

The neighbourhood convention everywhere is self-excluding: the core
distance of p is the distance to its min_pts-th nearest *other* point.
"""

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset


@dataclass(frozen=True)
class NeighborhoodIndex:
    """Dense distance matrix plus per-point core distances for a fixed min_pts."""

    dist: np.ndarray
    core: np.ndarray
    min_pts: int

    @property
    def n(self) -> int:
        return self.dist.shape[0]


def pairwise_distances(points) -> np.ndarray:
    """Exactly symmetric Euclidean distance matrix with a zero diagonal."""
    pts = np.asarray(points, dtype=float)
    sq = np.einsum("ij,ij->i", pts, pts)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T)
    np.maximum(d2, 0.0, out=d2)
    d2 = np.maximum(d2, d2.T)  # BLAS output is not guaranteed symmetric
    dist = np.sqrt(d2)
    np.fill_diagonal(dist, 0.0)
    return dist


def build_index(ds, min_pts: int) -> NeighborhoodIndex:
    """Build the distance matrix and min_pts-th-nearest-neighbour core distances.

    Accepts a Dataset or a raw point matrix. Requires n >= 2 and
    1 <= min_pts <= n - 1.
    """
    points = ds.points if isinstance(ds, Dataset) else np.asarray(ds, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be a 2-D matrix")
    n = points.shape[0]
    if n < 2:
        raise ValueError("need at least 2 points to build an index")
    if not 1 <= min_pts <= n - 1:
        raise ValueError(f"min_pts must be in [1, {n - 1}], got {min_pts}")
    dist = pairwise_distances(points)
    # Row position min_pts of the sorted row skips exactly one self-distance.
    core = np.partition(dist, min_pts, axis=1)[:, min_pts]
    dist.flags.writeable = False
    core.flags.writeable = False
    return NeighborhoodIndex(dist=dist, core=core, min_pts=int(min_pts))


def _check_point(idx: NeighborhoodIndex, p: int) -> None:
    if not 0 <= p < idx.n:
        raise IndexError(f"point index {p} out of range for n={idx.n}")


def reach_distance(idx: NeighborhoodIndex, p: int, q: int) -> float:
    """max(core(p), core(q), dist(p, q)): the smallest epsilon at which p and q
    are directly density-reachable from each other."""
    _check_point(idx, p)
    _check_point(idx, q)
    return float(max(idx.core[p], idx.core[q], idx.dist[p, q]))


def rdist_row(idx: NeighborhoodIndex, p: int) -> np.ndarray:
    """Reachability from p to every point; entry p itself equals core(p)."""
    _check_point(idx, p)
    return np.maximum(np.maximum(idx.core, idx.core[p]), idx.dist[p])


def rdist_matrix(idx: NeighborhoodIndex) -> np.ndarray:
    """Full n x n reachability matrix (diagonal holds the core distances)."""
    return np.maximum(np.maximum.outer(idx.core, idx.core), idx.dist)


def is_density_reachable(idx: NeighborhoodIndex, p: int, q: int, epsilon: float) -> bool:
    """True iff a chain of core objects at `epsilon` connects p to q with hops <= epsilon.

    Both endpoints must themselves be core objects at epsilon.
    """
    _check_point(idx, p)
    _check_point(idx, q)
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    core_ok = idx.core <= epsilon
    if not (core_ok[p] and core_ok[q]):
        return False
    visited = np.zeros(idx.n, dtype=bool)
    visited[p] = True
    frontier = np.array([p])
    while frontier.size:
        if visited[q]:
            return True
        reached = (idx.dist[frontier] <= epsilon).any(axis=0) & core_ok & ~visited
        frontier = np.flatnonzero(reached)
        visited[frontier] = True
    return bool(visited[q])
