"""Density expansion from labeled roots, back-tracing, and clustering.

An expansion from a labeled normal root attaches the cheapest unclaimed
point next over the complete reachability graph. The running maximum of
attachment keys when q joins is the minimax reachability path value
mm(root, q): the largest edge on the root-q path of a minimum spanning
tree of that graph, which is the largest key between root and q on the
tree's reachability plot (`NeighborhoodIndex.order` and `gap`). Each root
keeps the points it reaches more cheaply than its first differently-labeled
point, which is the expansion cut back at its largest edge. One sparse
table of the plot's keys answers both range-max queries of a draw: each
root's cut, then each point's nearest roots.
"""

import numpy as np

from .dataset import LabelSet, OUTLIER
from .metricspace import NeighborhoodIndex

# Assignment value for points no back-trace claimed.
UNCLUSTERED = -1

_NO_LABEL = -2


def _range_max_table(values: np.ndarray) -> np.ndarray:
    """The sparse table of values: row k holds the maxima of the windows of
    2**k values, so two windows cover any range."""
    table = np.empty((values.size.bit_length(), values.size))
    table[0] = values
    for k in range(1, table.shape[0]):
        half = 1 << (k - 1)
        table[k] = table[k - 1]
        np.maximum(table[k - 1, :-half], table[k - 1, half:], out=table[k, :-half])
    return table


def _range_max(table: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """max(values[lo:hi]) for each pair of entries of lo <= hi, 0.0 where
    lo == hi, off the sparse table of values."""
    level = np.maximum(np.frexp(hi - lo)[1] - 1, 0)
    flat, row = table.ravel(), level * table.shape[1]  # flat takes beat a 2-D gather
    got = np.maximum(flat.take(row + lo), flat.take(row + hi - (1 << level)))
    return np.where(hi > lo, got, 0.0)


def expand(idx: NeighborhoodIndex, labels: LabelSet) -> tuple:
    """Back-traced clustering and emax from every labeled normal root.

    Root r keeps itself and every q with mm(r, q) < e*(r), the smallest
    mm(r, p) over labeled points p whose label differs from r's (labeled
    outliers always differ; e* is infinite when none does). mm(r, .) never
    decreases away from r along the plot, so the nearest such p on each
    side fixes e*(r), and the nearest root on each side of q gives emax[q],
    the smallest mm(r, q) over roots. Roots that keep the same point share
    a label (else one would reach the other below its cut), and if any root
    keeps q, so does the nearest root on one side of q.

    Returns (assign, emax): the read-only cluster id per point, UNCLUSTERED
    where no root kept it, and emax per point.
    """
    labels.validate_for(idx.n)
    if not labels.normal:
        raise ValueError("at least one labeled normal point is required")
    n = idx.n
    lab = np.full(n, _NO_LABEL, dtype=int)
    lab[list(labels.normal)] = list(labels.normal.values())
    lab[list(labels.outliers)] = OUTLIER
    # Plot positions run 1..n; 0 and n + 1 stand beyond its ends, behind
    # +inf keys, so a side without a root or labeled point keeps nothing.
    gap = np.concatenate([[np.inf], idx.gap, [np.inf]])
    table = _range_max_table(gap)  # for both range queries below
    lab = np.concatenate([[_NO_LABEL], lab[idx.order], [_NO_LABEL]])
    at = np.arange(n + 2)
    # A root's cut lies at the nearest differently-labeled point on each
    # side: just beyond the run of its own label among the labeled points.
    labeled = np.flatnonzero(lab != _NO_LABEL)
    k = np.arange(labeled.size)
    change = np.r_[True, lab[labeled[1:]] != lab[labeled[:-1]], True]
    first = np.maximum.accumulate(np.where(change[:-1], k, 0))
    last = np.minimum.accumulate(np.where(change[1:], k, k[-1])[::-1])[::-1]
    beyond = np.r_[0, labeled, n + 1]  # beyond[j + 1] is labeled[j]
    cut = np.full(n + 2, np.inf)
    cut[labeled] = _range_max(table, np.stack([beyond[first], labeled]),
                              np.stack([labeled, beyond[last + 2]])).min(axis=0)
    # The nearest root at or before, and at or after, each plot position.
    is_root = lab >= 0
    left = np.maximum.accumulate(np.where(is_root, at, 0))[1:-1]
    right = np.minimum.accumulate(np.where(is_root, at, n + 1)[::-1])[::-1][1:-1]
    at = at[1:-1]
    to_left, to_right = _range_max(table, np.stack([left, at]), np.stack([at, right]))
    keep_left = (to_left < cut[left]) | (left == at)
    assign, emax = np.empty(n, dtype=int), np.empty(n)
    assign[idx.order] = np.where(keep_left, lab[left],
                                 np.where(to_right < cut[right], lab[right], UNCLUSTERED))
    emax[idx.order] = np.minimum(to_left, to_right)
    assign.flags.writeable = False
    return assign, emax
