"""Reliable-set selection and the instance-weighted kNN classifier, in two steps:
`neighbours` (the distance search, reusable across blends) and `vote`.

`neighbours` reads each row's nearest training rows off the index's shared
neighbour list wherever the gaps between them are wide enough that every
summation order ranks them alike: off a window of the row itself and the
head of its list, or off the whole list where the window holds a point
outside the training set. The rows the list cannot rank are ranked by a product of those
rows alone under the same rule, and only the rows left after that are
searched with the whole distance product, so each row's neighbours have the
bits that product gives whichever way they were found."""

from dataclasses import dataclass

import numpy as np

from .dataset import OUTLIER, int_vector
from .expansion import UNCLUSTERED
from .metricspace import NeighborhoodIndex, _fresh_nearest, cross_nearest


@dataclass(frozen=True, eq=False)
class TrainingSet:
    """Classifier training rows: dataset indices, a class each, and a weight each.

    Reliable normals carry their cluster id weighted by r_score; reliable
    outliers carry OUTLIER weighted by t_score. Indices never repeat.
    """

    indices: np.ndarray
    classes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        indices = int_vector(self.indices, "training indices")
        classes = int_vector(self.classes, "training classes")
        weights = np.asarray(self.weights, dtype=float)
        if not indices.shape == classes.shape == weights.shape:
            raise ValueError("indices, classes, and weights must have equal length")
        ordered = np.sort(indices, axis=None)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("training indices must be unique")
        if np.any(classes < OUTLIER):
            raise ValueError("classes must be cluster ids or OUTLIER")
        if not np.all((weights >= 0) & (weights <= 1)):
            raise ValueError("weights must lie in [0, 1]")
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return int(self.indices.size)


def select_reliable(assign: np.ndarray, r_score: np.ndarray, t: np.ndarray,
                    k: int) -> TrainingSet:
    """All clustered points of `assign` as reliable normals, weighted by
    r_score, plus the k most outlier-like unclustered points, weighted by
    the blend t (highest t, ties to the smaller index)."""
    clustered = np.flatnonzero(assign != UNCLUSTERED)
    unclustered = np.flatnonzero(assign == UNCLUSTERED)
    if not 0 <= k <= unclustered.size:
        raise ValueError(f"k must be in [0, {unclustered.size}], got {k}")
    # unclustered ascends, so ties keep index order
    order = np.argsort(-t[unclustered], kind="stable")
    chosen = unclustered[order[:k]]
    return TrainingSet(
        indices=np.concatenate([clustered, chosen]),
        classes=np.concatenate([assign[clustered], np.full(k, OUTLIER, dtype=int)]),
        weights=np.concatenate([r_score[clustered], t[chosen]]),
    )


def neighbours(ts: TrainingSet, index: NeighborhoodIndex, k_c: int, rows) -> np.ndarray:
    """Positions in ts of the k_c nearest training rows of each of `rows` (an
    index array of the points, searched in its order), trained on
    index.points[ts.indices]: Euclidean, ties by training-row position.

    The result is cross_nearest(points, points[ts.indices], k_c, rows)'s,
    bit for bit. A row's candidates are itself at distance 0, when it is a
    training row, then the training rows of its index.near list, in order.
    The row takes its first k_c candidates when every gap between adjacent
    values among its first k_c + 1 (the (k_c + 1)-th being the list's last
    distance when the candidates run out) exceeds 4B on squared distances,
    for B = (2d + 8) eps (|p|^2 + max|q|^2) over every point q. Those first
    k_c + 1 are read off the row's window, itself and the first k_c members
    of its list, wherever the window holds training rows only; the other
    rows read their whole list. Rows still undecided go to the second
    level (never at k_c > K): a product of just those rows against every
    training row, |p|^2 + |q|^2 - 2 p.q from index.sq_norms, in one guarded
    workspace, beside which it holds those rows' and the training rows'
    points and two arrays of k_c + 1 per row. A row whose k_c + 1 smallest
    values there are more than 4B apart takes the first k_c. Every other
    row goes, in one call, to cross_nearest.

    Why 4B suffices. With u = eps / 2 the unit roundoff, a dot product over
    d terms in any order, fused or not, is off by at most gamma_d sum|p_i q_i|
    <= d u (|p|^2 + |q|^2) / 2 (to first order; Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., section 3.1), and so is a
    squared norm relative to itself. So the squared distance s that any
    product's passes form, |p|^2 + |q|^2 - 2 p.q with three more roundings,
    is off by at most (2d + 3) u N, N = |p|^2 + |q|^2, below B / 2: the
    second level's values, from a fresh product of a few rows, are such s.
    The list's values were rooted and are squared again here, which adds at
    most 6 u N (s <= 2N), so they too are within B of the exact value. If two
    candidates' values differ by more than 4B, their exact values differ by
    more than 2B, and the whole product's squared values by more than
    B >= 8 eps N, at least 4 eps of the larger; their square roots then
    differ by more than a rounding, so the product ranks them alike, with
    no tie. A training row outside the list has a listed value at least the
    list's last, since the list holds the row's K smallest, so the gap to
    the last value covers it too; the second level sees every training row.
    Members tied with the last value are never taken: the list may have
    kept any of them.
    """
    m = len(ts)
    if m == 0:
        raise ValueError("training set is empty")
    if not 1 <= k_c <= m:
        raise ValueError(f"k_c must be in [1, {m}], got {k_c}")
    nbrs = np.empty((rows.size, k_c), dtype=np.intp)
    left = np.arange(rows.size)  # the rows still to search
    K = index.near.shape[1]
    if k_c <= K:
        at = np.full(index.n, -1, dtype=np.intp)
        at[ts.indices] = np.arange(m)
        # each row's window, candidates down the first axis: itself, then the
        # first k_c members of its list
        first = np.empty((k_c + 1, rows.size), dtype=np.intp)
        vals = np.empty((k_c + 1, rows.size))
        first[0], first[1:] = at[rows], at[index.near[rows, :k_c].T]
        vals[0], vals[1:] = 0.0, index.near_dist[rows, :k_c].T
        # a row whose window holds a point outside the training set, itself
        # included, reads its first k_c + 1 candidates off its whole list
        rest = np.flatnonzero((first < 0).any(axis=0))
        if rest.size:
            s = rows[rest]
            cand = np.empty((rest.size, K + 1), dtype=np.intp)
            cand_vals = np.empty((rest.size, K + 1))
            cand[:, 0], cand[:, 1:] = first[0, rest], at[index.near[s]]
            cand_vals[:, 0], cand_vals[:, 1:] = 0.0, index.near_dist[s]
            by = np.argsort(cand < 0, axis=1, kind="stable")[:, :k_c + 1]
            at_rows = np.arange(rest.size)[:, None]
            cand, cand_vals = cand[at_rows, by], cand_vals[at_rows, by]
            np.copyto(cand_vals, index.near_dist[s, -1:], where=cand < 0)
            first[:, rest], vals[:, rest] = cand.T, cand_vals.T
        four_b = (4 * (2 * index.points.shape[1] + 8) * np.finfo(float).eps
                  * (index.sq_norms[rows] + index.sq_max))
        # padding comes last and at one value, so a row with fewer than k_c
        # candidates has a zero gap
        sq_vals = np.square(vals)
        ranked = (sq_vals[1:] - sq_vals[:-1] > four_b).all(axis=0)
        nbrs[:] = first[:k_c].T
        left = np.flatnonzero(~ranked)
        if left.size:
            # the second level: a product of these rows alone
            cols, vals = _fresh_nearest(index.points, rows[left], ts.indices, index.sq_norms,
                                        min(k_c + 1, m))
            settled = (np.diff(vals, axis=1) > four_b[left, None]).all(axis=1)
            nbrs[left[settled]] = cols[settled, :k_c]
            left = left[~settled]
    if left.size:
        nbrs[left] = cross_nearest(index.points, index.points[ts.indices], k_c, rows[left])
    return nbrs


def vote(ts: TrainingSet, nbrs: np.ndarray) -> tuple:
    """Sum the weights of each row's neighbours `nbrs` (positions in ts) per class.

    The heaviest class wins; on a tied vote a cluster beats OUTLIER and
    lower cluster ids beat higher ones. Returns (classes, outlier_score):
    the predicted class per row (cluster id or OUTLIER) and OUTLIER's
    share of the summed weight.

    The votes are one flat array of a cell per (row, class among the
    neighbours), indexed by a k x n table of each rank's cells. Each class
    adds its weights one neighbour rank at a time, so in neighbour order,
    and `seen` keeps zero-weight votes as present; the total adds the class
    sums in first-appearance order.
    """
    n, k = nbrs.shape
    if n == 0:  # no row, so no neighbour to take class ids from
        return np.empty(0, dtype=int), np.zeros(0)
    # raveled, as numpy 1.x and 2.x shape a 2-D input's inverse differently
    ids, inv = np.unique(ts.classes[nbrs.T].ravel(), return_inverse=True)
    cells = inv.reshape(k, n) + np.arange(0, n * ids.size, ids.size)
    w = ts.weights[nbrs.T]
    votes = np.zeros(n * ids.size)
    seen = np.zeros(n * ids.size, dtype=bool)
    first = np.empty((k, n), dtype=bool)
    for j in range(k):
        first[j] = ~seen[cells[j]]
        seen[cells[j]] = True
        votes[cells[j]] += w[j]
    total = np.zeros(n)
    for j in range(k):
        np.add(total, votes[cells[j]], out=total, where=first[j])

    votes, seen = votes.reshape(n, ids.size), seen.reshape(n, ids.size)
    top = np.where(seen, votes, -np.inf).max(axis=1)
    winners = seen & (votes == top[:, None]) & (ids != OUTLIER)
    out_class = np.where(winners.any(axis=1), ids[winners.argmax(axis=1)], OUTLIER)
    out_score = np.zeros(n)
    np.divide(votes[:, ids == OUTLIER].sum(axis=1), total, out=out_score, where=total > 0)
    return out_class, out_score


@dataclass(frozen=True, eq=False)
class PipelineResult:
    """What `finish` made: clusters, outliers and outlier_score follow the
    stage's rows (every point by default); training is the classifier's
    training set and k_c its width. The assignment and score columns are
    the stage's (pipeline.Prepared)."""

    clusters: np.ndarray
    outliers: np.ndarray
    outlier_score: np.ndarray
    training: TrainingSet
    k_c: int
