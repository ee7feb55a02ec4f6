"""End-to-end orchestration and cross-validated blend-weight tuning.

The label-independent work (core distances, local densities, the
reachability plot) lives on a NeighborhoodIndex, which owns the points
and min_pts; build_index keeps one per dataset and min_pts, so `run` and
`tune` on one dataset build it once. `prepare(index, labels, rows)` stages
one label draw on it and a copy of the rows it classifies (all by default);
`finish` reads only that stage to apply one (alpha, beta) blend, select the
reliable sets and classify those rows. The stage sets out the reliable
normals, the unclustered points and their score columns, so a cell blends
and ranks only the unclustered points. A normal weighs its r_score in every
cell, so only the rows with a chosen outlier among their neighbours (the
live rows) can vote otherwise in another cell; the stage's cell cache
(_Cells) keeps the other rows' vote and re-votes only the live rows.
`run` composes the two; `tune` stages each validation fold on its hidden
rows and finishes every cell before the next.

Each fold's objective sets out its hidden labels once, as a metrics._Truth,
and the ids a cell can predict, so a cell hands the _Truth only its own
scores and codes (see the metrics module docstring).
"""

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import metrics
from .dataset import Dataset, LabelSet, OUTLIER, is_int, point_indices, round_half_up
from .expansion import UNCLUSTERED, expand
from .metricspace import NeighborhoodIndex, build_index
from .model import (PipelineResult, TrainingSet, _first, _ranked, _select, _split,
                    _vote_layout, neighbours, vote)
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


class _Cells:
    """A stage's cell cache. It holds nothing of the stage, so the stage is
    freed with its last reference. The first finish at a k_c votes through
    _vote_mixed and records only that it ran (`once`); the second builds the
    candidate table at k_c (`tables`). `entries` maps (k_c, sorted bytes of
    the chosen outliers) to an _Entry, as the normals are the same in every
    set; a set whose lookup sent a row to cross_nearest, whose ties follow
    the order, has that key in `ordered`, and an entry per order under the
    key plus the ordered indices' bytes."""

    def __init__(self):
        self.once, self.tables, self.entries, self.ordered = set(), {}, {}, set()

    def vote(self, prepared: "Prepared", ts, t: np.ndarray, k_c: int, k: int) -> tuple:
        """`vote` of the stage's rows for ts, its last k rows the chosen
        outliers and t the blend at the unclustered points."""
        if k_c not in self.once:
            self.once.add(k_c)
            nbrs, _ = neighbours(ts, prepared.index, k_c, prepared.rows)
            nbrs = np.ascontiguousarray(nbrs.T)  # so that each rank's row is contiguous
            return _vote_mixed(ts.classes[nbrs], ts.weights[nbrs])
        picked = np.sort(ts.indices[len(ts) - k:])  # a copy: ts is the caller's
        key = (k_c, picked.tobytes())
        if key in self.ordered:
            key += (ts.indices.tobytes(),)
        entry = self.entries.get(key)
        if entry is not None:
            return entry.vote(t)
        table = self.tables.get(k_c)
        if table is None:
            table = self.tables[k_c] = _candidate_table(prepared, k_c)
        entry, searched = _entry(prepared, table, ts, t, k_c, picked)
        if searched.size and len(key) == 2:
            self.ordered.add(key)
            key += (ts.indices.tobytes(),)
        self.entries[key] = entry
        return entry.classes.copy(), entry.outlier_score.copy()


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
    points, which a cell blends alone. `_cells` is its cell cache (_Cells)."""

    index: NeighborhoodIndex
    assignment: np.ndarray
    scores: ScoreTable
    auto_k: int
    rows: np.ndarray
    normals: TrainingSet = field(init=False, repr=False)
    unclustered: np.ndarray = field(init=False, repr=False)
    unclustered_scores: ScoreTable = field(init=False, repr=False)
    _cells: _Cells = field(default_factory=_Cells, init=False, repr=False)

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
    classes, outlier_score = prepared._cells.vote(prepared, ts, t, k_c, k)
    return PipelineResult(clusters=classes, outliers=classes == OUTLIER,
                          outlier_score=outlier_score, training=ts, k_c=k_c)


def _vote_mixed(classes: np.ndarray, weights: np.ndarray) -> tuple:
    """vote(_vote_layout(classes), weights), bit for bit, voting only the
    rows whose neighbours hold two classes or more. vote is row-independent,
    and a row of one class c takes c, with OUTLIER's share x / x = 1.0 when c
    is OUTLIER and some weight, so their sum x, is above 0, and 0.0
    otherwise."""
    head = classes[0]
    out_class = head.copy()
    out_score = ((head == OUTLIER) & (weights > 0).any(axis=0)).astype(float)
    mixed = np.flatnonzero((classes[1:] != head).any(axis=0))
    if mixed.size:
        out_class[mixed], out_score[mixed] = vote(_vote_layout(classes[:, mixed]),
                                                  weights[:, mixed])
    return out_class, out_score


class _Entry(NamedTuple):
    """A training set's cache entry at one k_c, born split in the cell that
    made it: the vote of every row, which its fixed rows keep in every cell,
    and its live rows, with their vote layout, weights and the chosen
    outliers' places among them and among the unclustered points (None when
    no row is live). The live rows are the decided rows with a chosen outlier
    in their reach, whose neighbours are the first k_c members of the set
    among their candidates, and the undecided rows that `neighbours`, called
    on the undecided rows alone, gives a chosen outlier."""

    classes: np.ndarray
    outlier_score: np.ndarray
    live: np.ndarray           # positions of the live rows in the stage's rows
    layout: tuple | None = None
    weights: np.ndarray | None = None
    chosen: np.ndarray | None = None  # whether each live neighbour is a chosen outlier
    at: np.ndarray | None = None      # and, if so, its place among the unclustered points

    def vote(self, t: np.ndarray) -> tuple:
        """The vote for the cell whose blend at the unclustered points is t:
        a copy of the fixed rows' vote with the live rows voted again."""
        classes, outlier_score = self.classes.copy(), self.outlier_score.copy()
        if self.live.size:
            weights = self.weights.copy()
            weights[self.chosen] = t[self.at]
            classes[self.live], outlier_score[self.live] = vote(self.layout, weights)
        return classes, outlier_score


class _Table(NamedTuple):
    """A stage's candidate table at one k_c (see _candidate_table). Positions
    are in the stage's rows."""

    undecided: np.ndarray      # positions of the rows a table cannot rank
    classes: np.ndarray        # the normals-only vote at every decided row
    outlier_score: np.ndarray
    mixed: np.ndarray          # positions of the decided rows with a reach
    cand: np.ndarray           # their candidates, up to their k_c-th normal
    normal: np.ndarray         # whether each candidate is a normal
    reach_row: np.ndarray      # each reach member's row in mixed
    reach_point: np.ndarray    # and the point


def _candidate_table(prepared: Prepared, k_c: int) -> _Table:
    """The stage's candidate table at k_c, which depends on the stage alone.

    Every training set of the stage is its normals plus some unclustered
    points, so a row's candidates, itself at distance 0 and then its
    index.near list, each a normal or an unclustered point, are the same in
    every cell. A row is decided when model._ranked, counting the normals,
    ranks it: every set's first k_c members, and the gap after them, lie in
    the ranked prefix, so the row's neighbours are its first k_c candidates
    in the set. Its reach is its unclustered candidates before its k_c-th
    normal; a set with no chosen outlier there gives it the normals' vote,
    which the table holds (its first k_c normals voted through _vote_mixed;
    OUTLIER and 0.0 at the undecided rows), with the candidates, up to the
    k_c-th normal, and reach of each decided row read off its whole list."""
    index, rows, assignment = prepared.index, prepared.rows, prepared.assignment
    is_normal = assignment != UNCLUSTERED
    ranked = np.zeros(rows.size, dtype=bool)
    first = np.empty((k_c, rows.size), dtype=np.intp)
    mixed, cand = np.empty(0, dtype=np.intp), np.empty((0, 1), dtype=np.intp)
    if k_c <= index.near.shape[1]:  # a list of K holds at most K + 1 candidates
        ranked, first, _, mixed, cand = _ranked(index, rows, k_c, is_normal)
    normal = is_normal[cand]
    count = np.cumsum(normal, axis=1)
    # every training set's first k_c members of a mixed row lie up to its
    # k_c-th normal
    width = int((count < k_c).sum(axis=1).max(initial=0)) + 1
    cand, normal, count = cand[:, :width], normal[:, :width], count[:, :width]
    reach_row, reach_col = np.nonzero(~normal & (count < k_c))
    # vote is row-independent, so the decided rows are voted alone
    decided = np.flatnonzero(ranked)
    nbrs = first[:, decided]
    classes, outlier_score = np.full(rows.size, OUTLIER, dtype=int), np.zeros(rows.size)
    classes[decided], outlier_score[decided] = _vote_mixed(assignment[nbrs],
                                                           prepared.scores.r_score[nbrs])
    return _Table(np.flatnonzero(~ranked), classes, outlier_score, mixed, cand, normal,
                  reach_row, cand[reach_row, reach_col])


def _entry(prepared: Prepared, table: _Table, ts, t: np.ndarray, k_c: int,
           picked: np.ndarray) -> tuple:
    """(entry, searched): the _Entry at k_c of ts, whose chosen outliers are
    `picked`, its fixed and live rows voted once for this cell; searched as
    `neighbours` returns it for the undecided rows."""
    undecided, assignment = table.undecided, prepared.assignment
    points, cols, live = [], [], 0
    if table.reach_row.size and picked.size:
        is_chosen = np.zeros(assignment.size, dtype=bool)
        is_chosen[picked] = True
        # the rows whose reach holds a chosen outlier, ascending
        hit = np.flatnonzero(np.bincount(table.reach_row[is_chosen[table.reach_point]],
                                         minlength=table.mixed.size))
        if hit.size:
            cand = table.cand[hit]
            points.append(_first(cand, table.normal[hit] | is_chosen[cand], k_c))
            cols.append(table.mixed[hit])
            live = hit.size
    searched = undecided[:0]
    if undecided.size:
        nbrs, searched = neighbours(ts, prepared.index, k_c, prepared.rows[undecided])
        reached = (nbrs >= len(prepared.normals)).any(axis=1)
        # the undecided rows a chosen outlier reaches join the live rows, first
        by = np.argsort(~reached, kind="stable")
        points.append(ts.indices[nbrs[by].T])
        cols.append(undecided[by])
        live += int(reached.sum())
    entry = _Entry(table.classes.copy(), table.outlier_score.copy(), undecided[:0])
    if not cols:
        return entry, searched
    points, cols = np.concatenate(points, axis=1), np.concatenate(cols)
    chosen = assignment[points] == UNCLUSTERED
    # a normal weighs its r_score, a chosen outlier its blend: ts.weights' bits
    weights = prepared.scores.r_score[points]
    at = np.searchsorted(prepared.unclustered, points[chosen])
    weights[chosen] = t[at]
    layout = _vote_layout(np.where(chosen, OUTLIER, assignment[points]))
    entry.classes[cols], entry.outlier_score[cols] = vote(layout, weights)
    if not live:
        return entry, searched
    # vote is row-independent, so the live rows, which come first, keep the
    # layout's first columns; every chosen outlier is in a live row, so at
    # follows chosen[:, :live] too
    ids, cells, first, seen = layout
    return entry._replace(live=cols[:live], layout=(ids, cells[:, :live], first[:, :live],
                                                    seen[:live]),
                          weights=weights[:, :live], chosen=chosen[:, :live], at=at), searched


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
    # part of a checked set, so checked
    return LabelSet._built(
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
    truth = metrics._Truth([labels.normal.get(i, OUTLIER) for i in hidden], is_outlier)
    # the ids a cell can predict: a training class is a clustered id or OUTLIER
    ids = np.union1d(assignment[assignment != UNCLUSTERED], [OUTLIER])

    def objective(result: PipelineResult) -> float | None:
        parts = []
        if truth.classes is not None:
            parts.append(truth.auc(result.outlier_score))
        if len(hidden) >= 2:
            parts.append(truth.rand_index(np.searchsorted(ids, result.clusters)))
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
    if not (is_int(folds) and folds >= 2):
        raise ValueError(f"folds must be an integer >= 2, got {folds!r}")
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
