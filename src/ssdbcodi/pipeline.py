"""End-to-end orchestration and cross-validated blend-weight tuning.

The label-independent work (core distances, local densities, the
reachability plot) lives on a NeighborhoodIndex, which owns the points
and min_pts; build_index keeps one per dataset and min_pts, so `run` and
`tune` on one dataset build it once. `prepare(index, labels, rows)` stages
one label draw on it and a copy of the rows it classifies (all by default);
`finish` reads only that stage to apply one (alpha, beta) blend, select the
reliable sets and classify those rows. The stage sets out the reliable
normals, the unclustered points and their score columns, so a cell blends
and ranks only the unclustered points. It caches, per k_c and training set
in any order, its rows' neighbour points and their vote layout (see
Prepared). A normal weighs its r_score in every cell, so only the rows with
a chosen outlier among their neighbours (the live rows) can vote otherwise
in another cell: from an entry's second use on, a cell copies the entry's
vote of the other (fixed) rows and re-votes only its live rows, often none.
`run` composes the two; `tune` stages each validation fold on its hidden
rows and finishes every cell before the next.

Each fold's objective sets out its truth side once (the hidden outlier and
normal rows, the hidden labels' codes and pair count, the ids a cell can
predict), so a cell hands only its own side to the counts that metrics.auc and
metrics.rand_index make (see the metrics module docstring).
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import metrics
from .dataset import Dataset, LabelSet, OUTLIER, is_int, point_indices, round_half_up
from .expansion import UNCLUSTERED, expand
from .metricspace import NeighborhoodIndex, build_index
from .model import (PipelineResult, TrainingSet, _select, _split, _vote_layout,
                    neighbours, vote)
from .scoring import ScoreParams, ScoreTable, l_score, r_score, sim_scores, t_score


@dataclass(frozen=True)
class PipelineParams:
    """Pipeline knobs: score blend, reliable-outlier count, classifier width.

    k=None derives the reliable-outlier count from the labeled
    contamination rate (5% of n when no outliers are labeled), clamped to
    the number of unclustered points. An explicit k that exceeds the
    unclustered count is an error instead of a silent clamp.
    """

    score: ScoreParams
    k: int | None = None
    k_c: int = 5

    def __post_init__(self):
        if self.k is not None and not (is_int(self.k) and self.k >= 0):
            raise ValueError(f"k must be None or an integer >= 0, got {self.k!r}")
        if not (is_int(self.k_c) and self.k_c >= 1):
            raise ValueError(f"k_c must be an integer >= 1, got {self.k_c!r}")


@dataclass(frozen=True)
class TuneReport:
    """Grid of (alpha, beta, mean objective) plus the winning cell."""

    grid: tuple
    best: tuple


@dataclass(frozen=True, eq=False)
class Prepared:
    """Blend-independent stage of one label draw: the index it was prepared
    on (its points and min_pts), the assignment, the three raw score columns
    (t_score(scores, params) blends them), the k used when PipelineParams.k
    is None and the rows `finish` classifies (a read-only index array the
    stage owns).

    From these the stage sets out what every cell shares: `normals`, the
    reliable normals (every clustered point, ascending, its cluster id its
    class and its r_score its weight, checked once), the `unclustered`
    points, ascending, and `unclustered_scores`, the three columns at those
    points, which a cell blends alone.

    `neighbours` is the stage's cache of its rows' kNN neighbours, per
    (k_c, sorted bytes of the chosen outliers), as the normals are the same
    in every set. An entry first holds the k_c x rows neighbour points,
    whether each is a chosen outlier, and their `_vote_layout`. On its
    second use it becomes the vote of every row, whose fixed rows (no chosen
    outlier among their neighbours) keep it in every cell, and the live
    rows' positions, vote layout, weights and the chosen outliers'
    positions among the unclustered points. The rows that `neighbours`
    ranks under its 4B rule have the same neighbour points in every order of
    a set; a set whose first lookup sent a row to cross_nearest, whose ties
    follow the order, maps to False, and each of its orders has an entry
    under that key plus the ordered indices' bytes."""

    index: NeighborhoodIndex
    assignment: np.ndarray
    scores: ScoreTable
    auto_k: int
    rows: np.ndarray
    normals: TrainingSet = field(init=False, repr=False)
    unclustered: np.ndarray = field(init=False, repr=False)
    unclustered_scores: ScoreTable = field(init=False, repr=False)
    neighbours: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        normals, unclustered = _split(self.assignment, self.scores.r_score)
        scores = ScoreTable(*(column[unclustered] for column in (
            self.scores.r_score, self.scores.l_score, self.scores.sim_score)))
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "unclustered", unclustered)
        object.__setattr__(self, "unclustered_scores", scores)


def default_k(n: int, labels: LabelSet) -> int:
    """Scale the labeled contamination rate to the dataset; 5% fallback."""
    if labels.outliers:
        return round_half_up(n * len(labels.outliers) / len(labels))
    return round_half_up(0.05 * n)


def prepare(index: NeighborhoodIndex, labels: LabelSet, rows=None) -> Prepared:
    """Back-traced expansion, the three raw score columns and the automatic
    reliable-outlier count of one label draw on `index`, and a read-only copy
    of the `rows` its finishes classify (np.arange(n) when None)."""
    rows = point_indices(rows, index.n, "rows").copy() if rows is not None else np.arange(index.n)
    rows.flags.writeable = False
    assignment, emax = expand(index, labels)
    scores = ScoreTable(r_score=r_score(emax), l_score=l_score(index.density),
                        sim_score=sim_scores(index.points, labels))
    auto_k = min(default_k(index.n, labels), int((assignment == UNCLUSTERED).sum()))
    return Prepared(index=index, assignment=assignment, scores=scores, auto_k=auto_k,
                    rows=rows)


def finish(prepared: Prepared, params: PipelineParams) -> PipelineResult:
    """Blend scores, select reliable sets, and classify the stage's rows
    (prepared.rows), each bit for bit as an all-points stage would; the
    per-row fields of the result follow those rows. A stage whose index has
    another min_pts than params.score is refused."""
    index = prepared.index
    if index.min_pts != params.score.min_pts:
        raise ValueError(f"stage min_pts={index.min_pts} != params min_pts={params.score.min_pts}")
    # _select rejects an explicit k above the unclustered count
    k = prepared.auto_k if params.k is None else params.k
    # t_score is elementwise, so the blend of the unclustered points alone
    # has the bits of theirs in the full blend
    t = t_score(prepared.unclustered_scores, params.score)
    ts = _select(prepared.normals, prepared.unclustered, t, k)
    k_c = min(params.k_c, len(ts))
    classes, outlier_score = _cached_vote(prepared, ts, t, k_c, k)
    return PipelineResult(clusters=classes, outliers=classes == OUTLIER,
                          outlier_score=outlier_score, training=ts, k_c=k_c)


def _cached_vote(prepared: Prepared, ts, t: np.ndarray, k_c: int, k: int) -> tuple:
    """`vote` of the stage's rows for ts, its last k rows the chosen outliers
    and t the blend at the unclustered points, through the stage's cache
    entry (see Prepared): looked up and voted on a miss, voted again and
    split into fixed and live rows on the second use, and then only the live
    rows voted, onto copies of the fixed rows' vote."""
    cache = prepared.neighbours
    key = (k_c, np.sort(ts.indices[len(ts) - k:]).tobytes())
    if cache.get(key) is False:
        key += (ts.indices.tobytes(),)
    entry = cache.get(key)
    if entry is None:
        nbrs, searched = neighbours(ts, prepared.index, k_c, prepared.rows)
        if searched.size and len(key) == 2:
            cache[key], key = False, key + (ts.indices.tobytes(),)
        classes = ts.classes[nbrs.T]
        layout = _vote_layout(classes)
        cache[key] = (ts.indices[nbrs.T], classes == OUTLIER, layout)
        return vote(layout, ts.weights[nbrs.T])
    if len(entry) == 3:
        points, chosen, layout = entry
        # a normal weighs its r_score, a chosen outlier its blend: ts.weights' bits
        weights = prepared.scores.r_score[points]
        at = np.searchsorted(prepared.unclustered, points[chosen])
        weights[chosen] = t[at]
        classes, outlier_score = vote(layout, weights)
        # only the chosen outliers' weights vary, and vote is row-independent;
        # at follows chosen[:, live] too, as every chosen outlier is in a live row
        live = np.flatnonzero(chosen.any(axis=0))
        chosen = chosen[:, live]
        live_classes = np.where(chosen, OUTLIER, prepared.assignment[points[:, live]])
        cache[key] = (classes.copy(), outlier_score.copy(), live, _vote_layout(live_classes),
                      weights[:, live], chosen, at)
        return classes, outlier_score
    fixed_classes, fixed_score, live, layout, weights, chosen, at = entry
    classes, outlier_score = fixed_classes.copy(), fixed_score.copy()
    if live.size:
        weights = weights.copy()
        weights[chosen] = t[at]
        classes[live], outlier_score[live] = vote(layout, weights)
    return classes, outlier_score


def run(ds: Dataset, labels: LabelSet, params: PipelineParams) -> PipelineResult:
    """Full pipeline: prepare once, then finish with the given blend."""
    return finish(prepare(build_index(ds, params.score.min_pts), labels), params)


def _fold_partition(labels: LabelSet, folds: int, seed: int) -> list:
    """Deterministic fold split of the labeled set.

    Normals and labeled outliers are shuffled and dealt round-robin
    separately, so every fold complement keeps at least one normal root
    whenever len(normal) >= folds.
    """
    rng = np.random.default_rng(seed)

    def deal(items):
        arr = np.array(sorted(items), dtype=int)
        rng.shuffle(arr)
        return [set(arr[f::folds].tolist()) for f in range(folds)]

    normal_folds = deal(labels.normal)
    outlier_folds = deal(labels.outliers)
    return [normal_folds[f] | outlier_folds[f] for f in range(folds)]


def _drop_labels(labels: LabelSet, hidden: set) -> LabelSet:
    return LabelSet(
        normal={i: c for i, c in labels.normal.items() if i not in hidden},
        outliers=frozenset(i for i in labels.outliers if i not in hidden),
    )


def _fold_objective(prepared: Prepared, labels: LabelSet):
    """The fold objective of one stage: objective(result) is the mean of AUC
    and Rand index on the stage's rows, the fold's sorted hidden labeled
    points and so the only rows `result` classified, each with the bits of
    metrics.auc and metrics.rand_index.

    AUC scores the hidden outlier indicator; it needs both an outlier and
    a normal among the hidden points, otherwise the Rand index stands
    alone. objective returns None when neither metric is computable.
    """
    hidden, assignment = prepared.rows.tolist(), prepared.assignment
    is_outlier = np.array([i in labels.outliers for i in hidden], dtype=bool)
    outliers, normals = np.flatnonzero(is_outlier), np.flatnonzero(~is_outlier)
    # the ids a cell can predict: a training class is a clustered id or OUTLIER
    ids = np.union1d(assignment[assignment != UNCLUSTERED], [OUTLIER])
    truth_ids, truth = np.unique([labels.normal.get(i, OUTLIER) for i in hidden],
                                 return_inverse=True)
    truth_pairs = metrics._pairs(np.bincount(truth))

    def objective(result: PipelineResult) -> float | None:
        parts = []
        if outliers.size and normals.size:
            parts.append(metrics._u_share(np.sort(result.outlier_score[normals]),
                                          result.outlier_score[outliers]))
        if len(hidden) >= 2:
            parts.append(metrics._agreement(np.searchsorted(ids, result.clusters), truth,
                                            truth_ids.size, truth_pairs))
        return sum(parts) / len(parts) if parts else None

    return objective


def blend_grid(grid_step: float) -> list:
    """The admissible (alpha, beta) cells, alpha + beta <= 1 on a grid_step
    lattice, in lexicographic order, for a grid_step in [0.01, 1] dividing
    1; a finer step's lattice (over 5151 cells) could outgrow memory."""
    if not 0.0 < grid_step <= 1.0:
        raise ValueError(f"grid_step must be in (0, 1], got {grid_step}")
    if 1.0 / grid_step > 100.5:  # m > 100, tested before 1 / grid_step can overflow round
        raise ValueError(f"grid_step must be at least 0.01, got {grid_step}")
    m = round(1.0 / grid_step)
    if abs(m * grid_step - 1.0) > 1e-9:
        raise ValueError(f"grid_step must divide 1 evenly, got {grid_step}")
    return [(ia / m, ib / m) for ia in range(m + 1) for ib in range(m + 1 - ia)]


def tune(ds: Dataset, labels: LabelSet, grid_step: float = 0.1, folds: int = 5,
         seed: int = 0, params: PipelineParams | None = None) -> TuneReport:
    """Grid-search (alpha, beta) by hiding folds of the labeled set.

    Every `blend_grid(grid_step)` cell is scored with the mean fold
    objective; the report keeps the whole grid and the argmax, ties
    resolved to the lexicographically smallest cell. Every fold shares
    the dataset's index, which build_index keeps for later calls.
    """
    base = params if params is not None else PipelineParams(score=ScoreParams(0.0, 0.0))
    blends = [replace(base, score=replace(base.score, alpha=a, beta=b))
              for a, b in blend_grid(grid_step)]
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    if len(labels.normal) < folds:
        raise ValueError(
            f"need at least {folds} labeled normal points for {folds} folds, "
            f"got {len(labels.normal)}"
        )
    labels.validate_for(ds.n)

    index = build_index(ds, base.score.min_pts)
    per_fold = []  # folds outer: one fold's stage and neighbour cache live at a time
    for fold in _fold_partition(labels, folds, seed):
        prepared = prepare(index, _drop_labels(labels, fold), sorted(fold))
        objective = _fold_objective(prepared, labels)
        per_fold.append([objective(finish(prepared, p)) for p in blends])

    grid = []
    for cell, objectives in zip(blends, zip(*per_fold)):
        objectives = [obj for obj in objectives if obj is not None]
        if not objectives:
            raise ValueError("no validation fold produced a computable objective")
        grid.append((cell.score.alpha, cell.score.beta, float(np.mean(objectives))))
    best = max(grid, key=lambda cell: cell[2])  # the first, so the smallest, of tied maxima
    return TuneReport(grid=tuple(grid), best=best[:2])
