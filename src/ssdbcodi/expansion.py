"""Density expansion from labeled roots, back-tracing, and clustering.

An expansion from a labeled normal root attaches the cheapest unclaimed
point next over the complete reachability graph. The running maximum of
attachment keys when q joins is the minimax reachability path value
mm(root, q): the largest edge on the root-q path of a minimum spanning
tree of that graph. One tree therefore serves every root. Each root keeps
the points it reaches more cheaply than its first differently-labeled
point, which is the expansion cut back at its largest edge.
"""

from dataclasses import dataclass

import numpy as np

from .dataset import LabelSet
from .metricspace import NeighborhoodIndex

# Assignment value for points no back-trace claimed.
UNCLUSTERED = -1

_NO_LABEL = -2
_OUTLIER_LABEL = -1


def _user_labels(labels: LabelSet, n: int) -> np.ndarray:
    lab = np.full(n, _NO_LABEL, dtype=int)
    for i, c in labels.normal.items():
        lab[i] = c
    for i in labels.outliers:
        lab[i] = _OUTLIER_LABEL
    return lab


@dataclass(frozen=True)
class ClusterAssignment:
    """Per-point cluster id, or UNCLUSTERED where no back-trace claimed the point."""

    assign: np.ndarray

    @property
    def clustered(self) -> np.ndarray:
        return self.assign != UNCLUSTERED

    @property
    def n_unclustered(self) -> int:
        return int((self.assign == UNCLUSTERED).sum())


def _spanning_tree(idx: NeighborhoodIndex) -> tuple:
    """Dense Prim over the reachability graph, one reachability row per step.

    Returns (u, v, w) arrays of the n - 1 tree edges.
    """
    n = idx.n
    best = np.full(n, np.inf)
    source = np.zeros(n, dtype=int)
    in_tree = np.zeros(n, dtype=bool)
    u = np.empty(n - 1, dtype=int)
    v = np.empty(n - 1, dtype=int)
    w = np.empty(n - 1)
    q = 0
    for step in range(n - 1):
        in_tree[q] = True
        best[q] = np.inf
        rd = np.maximum(np.maximum(idx.core, idx.core[q]), idx.dist[q])  # rdist_row(idx, q)
        closer = (rd < best) & ~in_tree
        best[closer] = rd[closer]
        source[closer] = q
        q = int(np.argmin(best))
        u[step], v[step], w[step] = source[q], q, best[q]
    return u, v, w


def minimax_rows(idx: NeighborhoodIndex, roots) -> np.ndarray:
    """mm(r, q) for every root r (one row each, in the given order) and point q.

    A Kruskal merge sweep over the spanning tree's edges in ascending
    weight: joining two components by an edge of weight w sets mm to w
    between each root on one side and every point on the other.
    """
    roots = np.asarray(roots, dtype=int)
    mm = np.zeros((roots.size, idx.n))
    comp = np.arange(idx.n)
    u, v, w = _spanning_tree(idx)
    for e in np.argsort(w, kind="stable"):
        in_u = comp == comp[u[e]]
        in_v = comp == comp[v[e]]
        mm[np.ix_(in_u[roots], in_v)] = w[e]
        mm[np.ix_(in_v[roots], in_u)] = w[e]
        comp[in_v] = comp[u[e]]
    return mm


def expand(idx: NeighborhoodIndex, labels: LabelSet) -> tuple:
    """Back-traced clustering and emax from every labeled normal root.

    Root r keeps itself and every q with mm(r, q) < e*(r), the smallest
    mm(r, p) over labeled points p whose label differs from r's (labeled
    outliers always differ; e* is infinite when none does). A point kept
    by several roots goes to the one with the smallest mm there, ties to
    the smaller root index. emax[q] is the smallest mm(r, q) over roots.

    Returns (ClusterAssignment, emax).
    """
    labels.validate_for(idx.n)
    roots = np.array(sorted(labels.normal), dtype=int)
    if not roots.size:
        raise ValueError("at least one labeled normal point is required")
    mm = minimax_rows(idx, roots)
    lab = _user_labels(labels, idx.n)
    root_label = lab[roots]
    differs = (lab != _NO_LABEL) & (lab != root_label[:, None])
    cut = np.where(differs, mm, np.inf).min(axis=1)
    kept = mm < cut[:, None]
    kept[np.arange(roots.size), roots] = True
    owner = np.where(kept, mm, np.inf).argmin(axis=0)
    assign = np.where(kept.any(axis=0), root_label[owner], UNCLUSTERED)
    assign.flags.writeable = False
    return ClusterAssignment(assign=assign), mm.min(axis=0)


def ssdbscan(idx: NeighborhoodIndex, labels: LabelSet) -> ClusterAssignment:
    """Clustering of the original expansion semantics: every labeled normal
    root keeps its back-traced points and the traced clusters are merged."""
    return expand(idx, labels)[0]
