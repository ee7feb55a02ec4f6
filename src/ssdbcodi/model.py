"""Reliable-set selection and the instance-weighted kNN classifier, in two steps:
`neighbours` (the distance search, reusable across blends) and `vote`."""

from dataclasses import dataclass

import numpy as np

from .dataset import OUTLIER, int_vector
from .expansion import UNCLUSTERED
from .metricspace import cross_nearest
from .scoring import ScoreTable


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
        if np.any(weights < 0) or np.any(weights > 1):
            raise ValueError("weights must lie in [0, 1]")
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return int(self.indices.size)


def select_reliable(assign: np.ndarray, scores: ScoreTable, k: int) -> TrainingSet:
    """All clustered points of `assign` as reliable normals plus the k most
    outlier-like unclustered points (highest t_score, ties to the smaller index)."""
    if scores.t_score is None:
        raise ValueError("score table must include t_score")
    clustered = np.flatnonzero(assign != UNCLUSTERED)
    unclustered = np.flatnonzero(assign == UNCLUSTERED)
    if not 0 <= k <= unclustered.size:
        raise ValueError(f"k must be in [0, {unclustered.size}], got {k}")
    t = scores.t_score[unclustered]
    order = np.argsort(-t, kind="stable")  # unclustered ascends, so ties keep index order
    chosen = unclustered[order[:k]]
    return TrainingSet(
        indices=np.concatenate([clustered, chosen]),
        classes=np.concatenate([assign[clustered], np.full(k, OUTLIER, dtype=int)]),
        weights=np.concatenate([scores.r_score[clustered], scores.t_score[chosen]]),
    )


def neighbours(ts: TrainingSet, points, k_c: int, rows=None) -> np.ndarray:
    """Positions in ts of each row's k_c nearest training rows, trained on
    points[ts.indices]: Euclidean, ties by training-row position. With
    `rows`, only those rows of points (in their order) are searched; see
    cross_nearest."""
    m = len(ts)
    if m == 0:
        raise ValueError("training set is empty")
    if not 1 <= k_c <= m:
        raise ValueError(f"k_c must be in [1, {m}], got {k_c}")
    points = np.asarray(points, dtype=float)
    return cross_nearest(points, points[ts.indices], k_c, rows)


def vote(ts: TrainingSet, nbrs: np.ndarray) -> tuple:
    """Sum the weights of each row's neighbours `nbrs` (positions in ts) per class.

    The heaviest class wins; on a tied vote a cluster beats OUTLIER and
    lower cluster ids beat higher ones. Returns (classes, outlier_score):
    the predicted class per row (cluster id or OUTLIER) and OUTLIER's
    share of the summed weight.
    """
    n, k = nbrs.shape
    # Vote one neighbour rank at a time so each class sums its weights in
    # neighbour order; `seen` keeps zero-weight votes as present.
    ids, cls = np.unique(ts.classes, return_inverse=True)
    cls = cls[nbrs]
    w = ts.weights[nbrs]
    rows = np.arange(n)
    votes = np.zeros((n, ids.size))
    seen = np.zeros((n, ids.size), dtype=bool)
    first = np.empty((n, k), dtype=bool)
    for j in range(k):
        first[:, j] = ~seen[rows, cls[:, j]]
        seen[rows, cls[:, j]] = True
        votes[rows, cls[:, j]] += w[:, j]
    # The total adds the class sums in first-appearance order.
    total = np.zeros(n)
    for j in range(k):
        np.add(total, votes[rows, cls[:, j]], out=total, where=first[:, j])

    top = np.where(seen, votes, -np.inf).max(axis=1)
    winners = seen & (votes == top[:, None]) & (ids != OUTLIER)
    out_class = np.where(winners.any(axis=1), ids[winners.argmax(axis=1)], OUTLIER)
    out_score = np.zeros(n)
    np.divide(votes[:, ids == OUTLIER].sum(axis=1), total, out=out_score, where=total > 0)
    return out_class, out_score


@dataclass(frozen=True, eq=False)
class PipelineResult:
    """End-to-end output: predictions plus the artifacts that produced them.
    clusters, outliers and outlier_score follow `finish`'s rows (every point
    by default); score_table, assignment and training cover every point."""

    clusters: np.ndarray
    outliers: np.ndarray
    outlier_score: np.ndarray
    score_table: ScoreTable
    assignment: np.ndarray
    training: TrainingSet
    k_c: int
