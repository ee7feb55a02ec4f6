"""End-to-end orchestration and cross-validated blend-weight tuning.

The expensive work (index, expansions, back-traces, the r/l/sim score
columns) depends only on the data, min_pts, and the visible labels, so it
is staged in `prepare`; `finish` applies one (alpha, beta) blend and runs
selection, training, and prediction. `run` composes the two; `tune`
re-uses one prepared stage per validation fold across every grid cell.
"""

from dataclasses import dataclass, replace

import numpy as np

from .dataset import Dataset, LabelSet, OUTLIER, round_half_up
from .expansion import expand
from .metricspace import NeighborhoodIndex, build_index
from .metrics import auc, rand_index
from .model import PipelineResult, predict, select_reliable, train
from .scoring import ScoreParams, ScoreTable, local_densities, l_score, r_score, sim_scores, t_score


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
        if self.k is not None and self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")
        if self.k_c < 1:
            raise ValueError(f"k_c must be >= 1, got {self.k_c}")


@dataclass(frozen=True)
class TuneReport:
    """Grid of (alpha, beta, mean objective) plus the winning cell."""

    grid: tuple
    best: tuple


@dataclass(frozen=True)
class Prepared:
    """Blend-independent stage: assignment plus the r/l/sim score columns."""

    idx: NeighborhoodIndex
    assignment: object
    r: np.ndarray
    l: np.ndarray
    sim: np.ndarray


def default_k(n: int, labels: LabelSet) -> int:
    """Scale the labeled contamination rate to the dataset; 5% fallback."""
    if labels.outliers:
        return round_half_up(n * len(labels.outliers) / len(labels))
    return round_half_up(0.05 * n)


def prepare(ds: Dataset, labels: LabelSet, min_pts: int, index=None) -> Prepared:
    """Index, back-traced expansion, and the three raw score columns."""
    labels.validate_for(ds.n)
    idx = index if index is not None else build_index(ds, min_pts)
    assignment, emax = expand(idx, labels)
    return Prepared(
        idx=idx,
        assignment=assignment,
        r=r_score(emax),
        l=l_score(local_densities(idx)),
        sim=sim_scores(ds, labels),
    )


def finish(ds: Dataset, prepared: Prepared, labels: LabelSet,
           params: PipelineParams) -> PipelineResult:
    """Blend scores, select reliable sets, train, and classify every point."""
    table = ScoreTable(r_score=prepared.r, l_score=prepared.l, sim_score=prepared.sim)
    table = replace(table, t_score=t_score(table, params.score))
    n_unclustered = prepared.assignment.n_unclustered
    if params.k is None:
        k = min(default_k(ds.n, labels), n_unclustered)
    else:
        k = params.k  # select_reliable rejects k > n_unclustered
    ts = select_reliable(prepared.assignment, table, k)
    k_c = min(params.k_c, len(ts))
    classifier = train(ts, ds, k_c)
    classes, outliers, outlier_score = predict(classifier, ds)
    return PipelineResult(
        clusters=classes,
        outliers=outliers,
        outlier_score=outlier_score,
        score_table=table,
        assignment=prepared.assignment,
        training=ts,
        k_c=k_c,
    )


def run(ds: Dataset, labels: LabelSet, params: PipelineParams) -> PipelineResult:
    """Full pipeline: prepare once, then finish with the given blend."""
    prepared = prepare(ds, labels, params.score.min_pts)
    return finish(ds, prepared, labels, params)


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
    outlier_folds = deal(labels.outliers) if labels.outliers else [set() for _ in range(folds)]
    return [normal_folds[f] | outlier_folds[f] for f in range(folds)]


def _drop_labels(labels: LabelSet, hidden: set) -> LabelSet:
    return LabelSet(
        normal={i: c for i, c in labels.normal.items() if i not in hidden},
        outliers=frozenset(i for i in labels.outliers if i not in hidden),
    )


def _fold_objective(result: PipelineResult, hidden: list, labels: LabelSet) -> float | None:
    """Mean of AUC and Rand index on the hidden labeled points.

    AUC scores the hidden outlier indicator; it needs both an outlier and
    a normal among the hidden points, otherwise the Rand index stands
    alone. Returns None when neither metric is computable.
    """
    truth_outlier = np.array([i in labels.outliers for i in hidden])
    parts = []
    if truth_outlier.any() and not truth_outlier.all():
        parts.append(auc(result.outlier_score[hidden], truth_outlier))
    if len(hidden) >= 2:
        hidden_truth = np.array([labels.normal.get(i, OUTLIER) for i in hidden])
        parts.append(rand_index(result.clusters[hidden], hidden_truth))
    if not parts:
        return None
    return float(np.mean(parts))


def blend_grid(grid_step: float) -> list:
    """The admissible (alpha, beta) cells, alpha + beta <= 1 on a grid_step
    lattice, in lexicographic order."""
    if not 0.0 < grid_step <= 1.0:
        raise ValueError(f"grid_step must be in (0, 1], got {grid_step}")
    m = round(1.0 / grid_step)
    if abs(m * grid_step - 1.0) > 1e-9:
        raise ValueError(f"grid_step must divide 1 evenly, got {grid_step}")
    return [(ia / m, ib / m) for ia in range(m + 1) for ib in range(m + 1 - ia)]


def tune(ds: Dataset, labels: LabelSet, grid_step: float = 0.1, folds: int = 5,
         seed: int = 0, params: PipelineParams | None = None) -> TuneReport:
    """Grid-search (alpha, beta) by hiding folds of the labeled set.

    Every `blend_grid(grid_step)` cell is scored with the mean fold
    objective; the report keeps the whole grid and the argmax, ties
    resolved to the lexicographically smallest cell.
    """
    base = params if params is not None else PipelineParams(score=ScoreParams(0.0, 0.0))
    cells = blend_grid(grid_step)
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    if len(labels.normal) < folds:
        raise ValueError(
            f"need at least {folds} labeled normal points for {folds} folds, "
            f"got {len(labels.normal)}"
        )
    labels.validate_for(ds.n)

    index = build_index(ds, base.score.min_pts)
    stages = []
    for hidden in _fold_partition(labels, folds, seed):
        visible = _drop_labels(labels, hidden)
        stages.append((prepare(ds, visible, base.score.min_pts, index=index),
                       sorted(hidden), visible))

    grid = []
    best = None
    for alpha, beta in cells:
        cell = replace(base, score=replace(base.score, alpha=alpha, beta=beta))
        objectives = []
        for prepared, hidden, visible in stages:
            result = finish(ds, prepared, visible, cell)
            obj = _fold_objective(result, hidden, labels)
            if obj is not None:
                objectives.append(obj)
        if not objectives:
            raise ValueError("no validation fold produced a computable objective")
        mean_obj = float(np.mean(objectives))
        grid.append((alpha, beta, mean_obj))
        if best is None or mean_obj > best[2]:
            best = (alpha, beta, mean_obj)
    return TuneReport(grid=tuple(grid), best=(best[0], best[1]))
