"""Density expansion from labeled roots, back-tracing, and clustering.

An expansion from a labeled normal root attaches the cheapest unclaimed
point next over the complete reachability graph. The running maximum of
attachment keys when q joins is the minimax reachability path value
mm(root, q): the largest edge on the root-q path of a minimum spanning
tree of that graph. One tree therefore serves every root: `build_index`
stores it on the index, and a Kruskal sweep over its edges in ascending weight
merges components small-to-large, writing each edge's weight between the
roots on one side and the points on the other. Each root keeps the points
it reaches more cheaply than its first differently-labeled point, which
is the expansion cut back at its largest edge.
"""

import numpy as np

from .dataset import LabelSet, OUTLIER, point_indices
from .metricspace import NeighborhoodIndex

# Assignment value for points no back-trace claimed.
UNCLUSTERED = -1

_NO_LABEL = -2


def _user_labels(labels: LabelSet, n: int) -> np.ndarray:
    lab = np.full(n, _NO_LABEL, dtype=int)
    for i, c in labels.normal.items():
        lab[i] = c
    for i in labels.outliers:
        lab[i] = OUTLIER
    return lab


def minimax_rows(idx: NeighborhoodIndex, roots) -> np.ndarray:
    """mm(r, q) for every root r (one row each, in the given order) and point q.

    A Kruskal sweep over the index's spanning-tree edges in ascending weight.
    Each component keeps its member points and the rows of the roots it
    contains. Joining components A and B by an edge of weight w sets mm to
    w between A's roots and B's members and between B's roots and A's
    members; the smaller component is then folded into the larger, so a
    point changes component O(log n) times.
    """
    roots = point_indices(roots, idx.n, "root indices")
    mm = np.zeros((roots.size, idx.n))
    comp = list(range(idx.n))
    members = [[p] for p in range(idx.n)]
    rows = [None] * idx.n  # a column of mm row indices, None without roots
    for r in np.unique(roots).tolist():
        rows[r] = np.flatnonzero(roots == r)[:, None]
    for a, b, weight in zip(*(arr.tolist() for arr in idx.tree)):
        a, b = comp[a], comp[b]
        if len(members[a]) < len(members[b]):
            a, b = b, a
        rows_a, rows_b = rows[a], rows[b]
        if rows_a is not None:
            mm[rows_a, members[b]] = weight
        if rows_b is not None:
            mm[rows_b, members[a]] = weight
            rows[a] = rows_b if rows_a is None else np.concatenate([rows_a, rows_b])
        for p in members[b]:
            comp[p] = a
        members[a] += members[b]
        members[b] = rows[b] = None
    return mm


def expand(idx: NeighborhoodIndex, labels: LabelSet) -> tuple:
    """Back-traced clustering and emax from every labeled normal root.

    Root r keeps itself and every q with mm(r, q) < e*(r), the smallest
    mm(r, p) over labeled points p whose label differs from r's (labeled
    outliers always differ; e* is infinite when none does). A point kept
    by several roots goes to the one with the smallest mm there, ties to
    the smaller root index. emax[q] is the smallest mm(r, q) over roots.

    Returns (assign, emax): the read-only cluster id per point, UNCLUSTERED
    where no root kept it, and emax per point.
    """
    labels.validate_for(idx.n)
    roots = np.array(sorted(labels.normal), dtype=int)
    if not roots.size:
        raise ValueError("at least one labeled normal point is required")
    mm = minimax_rows(idx, roots)
    lab = _user_labels(labels, idx.n)
    root_label = lab[roots]
    labeled = np.flatnonzero(lab != _NO_LABEL)
    differs = lab[labeled] != root_label[:, None]
    cut = np.where(differs, mm[:, labeled], np.inf).min(axis=1)
    kept = mm < cut[:, None]
    kept[np.arange(roots.size), roots] = True
    owner = np.where(kept, mm, np.inf).argmin(axis=0)
    assign = np.where(kept.any(axis=0), root_label[owner], UNCLUSTERED)
    assign.flags.writeable = False
    return assign, mm.min(axis=0)
