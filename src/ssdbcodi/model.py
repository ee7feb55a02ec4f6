"""Reliable-set selection and the instance-weighted kNN classifier, in three
steps: `neighbours` (the distance search), `_vote_layout` (each neighbour's
place among its row's classes), both reusable across blends, and `vote`.

`neighbours` reads each row's nearest training rows off the index's shared
neighbour list wherever the gaps between them are wide enough that every
summation order ranks them alike, by `_ranked`, the rule the stage's
candidate table (pipeline._candidate_table) shares. The rows the list
cannot rank are ranked by a product of those rows alone under the same
rule, and only the rows left after that are searched with the whole
distance product, so each row's neighbours have the bits that product
gives whichever way they were found. `vote` is
row-independent, so a caller may vote any subset of rows alone: a stage's
first vote (pipeline._vote_mixed) sends it only the rows whose neighbours
hold two classes or more."""

from dataclasses import dataclass

import numpy as np

from .dataset import OUTLIER, int_vector, is_int
from .expansion import UNCLUSTERED
from .metricspace import NeighborhoodIndex, _four_b, _fresh_nearest, cross_nearest


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
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "weights", weights)
        self._check_classes_and_weights(classes, weights)

    @classmethod
    def _built(cls, indices: np.ndarray, classes: np.ndarray, weights: np.ndarray):
        """A set of unique int indices, int classes and float weights by
        construction, whose classes and weights its caller has checked."""
        ts = object.__new__(cls)
        ts.__dict__.update(indices=indices, classes=classes, weights=weights)
        return ts

    @staticmethod
    def _check_classes_and_weights(classes: np.ndarray, weights: np.ndarray):
        if (classes < OUTLIER).any():
            raise ValueError("classes must be cluster ids or OUTLIER")
        TrainingSet._check_weights(weights)

    @staticmethod
    def _check_weights(weights: np.ndarray):
        if not ((weights >= 0) & (weights <= 1)).all():
            raise ValueError("weights must lie in [0, 1]")

    def __len__(self) -> int:
        return int(self.indices.size)


def _split(assign: np.ndarray, r_score: np.ndarray) -> tuple:
    """(normals, unclustered): every clustered point of `assign` as a
    reliable normal, its cluster id its class and its r_score its weight,
    checked; and the unclustered points, ascending."""
    if assign.ndim != 1 or assign.dtype.kind != "i":  # so the classes are signed ints
        raise ValueError("assign must be a 1-D signed integer array")
    clustered = np.flatnonzero(assign != UNCLUSTERED)
    classes, weights = assign[clustered], np.asarray(r_score[clustered], dtype=float)
    TrainingSet._check_classes_and_weights(classes, weights)
    return TrainingSet._built(clustered, classes, weights), np.flatnonzero(assign == UNCLUSTERED)


def _select(normals: TrainingSet, unclustered: np.ndarray, t: np.ndarray, k: int) -> tuple:
    """(indices, classes, weights), cells x (normals + k) each: a training
    set per row of t, a cells x unclustered blend, which is `normals`, a
    checked set of the clustered points, plus the k most outlier-like of the
    ascending `unclustered` points, weighted by their blend (t[c, i] belongs
    to unclustered[i]; highest t, ties to the smaller index). Only the
    chosen outliers' weights are checked, as their class is OUTLIER."""
    if not (is_int(k) and 0 <= k <= unclustered.size):
        raise ValueError(f"k must be in [0, {unclustered.size}], got {k}")
    # unclustered ascends, so ties keep index order
    picked = np.argsort(-t, axis=1, kind="stable")[:, :k]
    chosen = np.asarray(np.take_along_axis(t, picked, axis=1), dtype=float)
    TrainingSet._check_weights(chosen)
    # clustered and unclustered are disjoint and picked is part of a
    # permutation, so the indices are unique by construction
    cells, n = len(t), len(normals)
    indices = np.empty((cells, n + k), dtype=normals.indices.dtype)
    indices[:, :n], indices[:, n:] = normals.indices, unclustered[picked]
    classes = np.tile(np.concatenate([normals.classes, np.full(k, OUTLIER, dtype=int)]),
                      (cells, 1))
    weights = np.empty(indices.shape)
    weights[:, :n], weights[:, n:] = normals.weights, chosen
    return indices, classes, weights


def _first(cand: np.ndarray, member: np.ndarray, k_c: int) -> np.ndarray:
    """k_c x rows: each row's first k_c candidates (a row of cand) that are
    members (True in member), in order."""
    taken = member & (np.cumsum(member, axis=1) <= k_c)
    return cand[taken].reshape(cand.shape[0], k_c).T


def _ranked(index: NeighborhoodIndex, rows: np.ndarray, k_c: int, count: np.ndarray) -> tuple:
    """(ranked, first, four_b, whole, cand) for `rows` at k_c (at most the
    list's K), counting the points marked in `count`, a mask over the
    points: whether each row is ranked; each row's first k_c counted
    candidates, k_c x rows, valid at the ranked rows; 4B per row; the
    positions in `rows` of the ranked rows read off their whole list; and
    those rows' candidates.

    The rule, which `neighbours` and the stage's candidate table share: a
    row's candidates are itself at distance 0, then its index.near list, in
    order. It is ranked when every adjacent gap of their squared values,
    counted or not, up to its (k_c + 1)-th counted candidate exceeds 4B, for
    B = (2d + 8) eps (|p|^2 + max|q|^2) over every point q (the proof is in
    `neighbours`). When the list holds exactly k_c counted candidates, the
    k_c-th before the list's end, the list's last value stands for the
    (k_c + 1)-th, as every point off the list is at least that far. Any set
    of the counted points and some others then has the row's first k_c
    members, and the gap after them, in that ranked prefix.

    A row whose window, itself and the first k_c members of its list, is
    wide and all counted is read off the window; a wide window with a point
    that does not count, off the whole list."""
    K = index.near.shape[1]
    four_b = _four_b(index.points.shape[1], index.sq_norms[rows], index.sq_max)
    # each row's window, candidates down the first axis
    first = np.empty((k_c + 1, rows.size), dtype=np.intp)
    vals = np.empty((k_c + 1, rows.size))
    first[0], first[1:] = rows, index.near[rows, :k_c].T
    vals[0], vals[1:] = 0.0, index.near_dist[rows, :k_c].T
    sq_vals = np.square(vals)
    ranked = (sq_vals[1:] - sq_vals[:-1] > four_b).all(axis=0)
    # a row's (k_c + 1)-th counted candidate lies at or past its window's
    # end, so only a wide window can rank off the whole list
    whole = np.flatnonzero(ranked & ~count[first].all(axis=0))
    first = first[:k_c]
    cand = np.empty((whole.size, K + 1), dtype=np.intp)
    if whole.size:
        s = rows[whole]
        cand[:, 0], cand[:, 1:] = s, index.near[s]
        vals = np.empty(cand.shape)
        vals[:, 0], vals[:, 1:] = 0.0, index.near_dist[s]
        sq_vals = np.square(vals)
        counted = count[cand]
        # the list's last candidate counts: when exactly k_c before it do, it
        # stands for the (k_c + 1)-th, and otherwise it changes no outcome
        counted[:, -1] = True
        # only the candidates before the first gap of at most 4B count
        counted[:, 1:] &= np.logical_and.accumulate(
            sq_vals[:, 1:] - sq_vals[:, :-1] > four_b[whole, None], axis=1)
        ok = counted.sum(axis=1) > k_c
        ranked[whole] = ok
        whole, cand = whole[ok], cand[ok]
        first[:, whole] = _first(cand, counted[ok], k_c)
    return ranked, first, four_b, whole, cand


def neighbours(ts: TrainingSet, index: NeighborhoodIndex, k_c: int, rows) -> tuple:
    """(nbrs, searched): nbrs holds the positions in ts of the k_c nearest
    training rows of each of `rows` (an index array of the points, searched in
    its order), trained on index.points[ts.indices]: Euclidean, ties by
    training-row position; searched holds the positions in `rows` of the rows
    that went to cross_nearest, the only ones whose neighbour points may
    depend on the order of ts.

    nbrs is cross_nearest(points, points[ts.indices], k_c, rows)'s, bit for
    bit. A row that `_ranked`, counting the training rows, ranks takes its
    first k_c training rows among its candidates. Rows still undecided go
    to the second level (never at k_c > K): a product of just those rows
    against every training row, |p|^2 + |q|^2 - 2 p.q from index.sq_norms,
    in one guarded workspace, beside which it holds those rows' and the
    training rows' points and two arrays of k_c + 1 per row. A row whose
    k_c + 1 smallest values there are more than 4B apart takes the first
    k_c. Every other row goes, in one call, to cross_nearest.

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
    if k_c <= index.near.shape[1]:
        at = np.full(index.n, -1, dtype=np.intp)
        at[ts.indices] = np.arange(m)
        ranked, first, four_b, _, _ = _ranked(index, rows, k_c, at >= 0)
        nbrs[:] = at[first.T]
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
    return nbrs, left


def _vote_layout(classes: np.ndarray, ids: np.ndarray | None = None) -> tuple:
    """(ids, cells, first, seen), the weight-free part of `vote` for a k x n
    table of neighbour classes, a column per row. The votes are one flat
    array of a cell per (row, id): ids are the classes among the
    neighbours, ascending, or the ascending `ids` given, which hold every
    class of the table, so that tables laid out over the same ids can be
    voted side by side (an id no neighbour of a row holds is not seen, and
    changes no bit of its vote); cells each neighbour's cell; first whether
    it is its class's first in its row; seen, n x ids, the cells any
    neighbour votes in, so that zero-weight votes stay present."""
    k, n = classes.shape
    if ids is None:
        # raveled, as numpy 1.x and 2.x shape a 2-D input's inverse differently
        ids, inv = np.unique(classes.ravel(), return_inverse=True)
        inv = inv.reshape(k, n)
    else:
        inv = np.searchsorted(ids, classes)
    cells = inv + ids.size * np.arange(n)  # no ids when n == 0
    seen = np.zeros(n * ids.size, dtype=bool)
    first = np.empty((k, n), dtype=bool)
    for j in range(k):
        first[j] = ~seen[cells[j]]
        seen[cells[j]] = True
    return ids, cells, first, seen.reshape(n, ids.size)


def vote(layout: tuple, weights: np.ndarray) -> tuple:
    """Sum each row's neighbour weights, a k x n table like the classes of
    `_vote_layout`, per class over that layout.

    The heaviest class wins; on a tied vote a cluster beats OUTLIER and
    lower cluster ids beat higher ones. Returns (classes, outlier_score):
    the predicted class per row (cluster id or OUTLIER) and OUTLIER's
    share of the summed weight.

    Each class adds its weights one neighbour rank at a time, so in
    neighbour order; the total adds the class sums in first-appearance
    order.
    """
    ids, cells, first, seen = layout
    k, n = cells.shape
    if n == 0:  # no row, so no neighbour to take class ids from
        return np.empty(0, dtype=int), np.zeros(0)
    votes = np.zeros(n * ids.size)
    for j in range(k):
        votes[cells[j]] += weights[j]
    total = np.zeros(n)
    for j in range(k):
        np.add(total, votes[cells[j]], out=total, where=first[j])

    votes = votes.reshape(n, ids.size)
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
