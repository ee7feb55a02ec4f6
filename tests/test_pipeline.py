"""End-to-end pipeline behaviour and blend-weight tuning."""

import numpy as np
import pytest

from ssdbcodi import (Dataset, LabelSet, OUTLIER, UNCLUSTERED, PipelineParams,
                      ScoreParams, blend_grid, default_k, finish, prepare, run, tune)
from ssdbcodi.pipeline import _drop_labels, _fold_partition

BLOB = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0),
        (0.5, 0.5), (0.2, 0.8), (0.8, 0.2), (0.5, 0.0)]
BLOBS = Dataset(
    points=[p for p in BLOB]
    + [(x + 8.0, y + 8.0) for x, y in BLOB]
    + [(4.0, 4.0), (12.0, -4.0)],
    truth=[0] * 8 + [1] * 8 + [OUTLIER, OUTLIER],
)
BLOB_LABELS = LabelSet(normal={0: 0, 8: 1}, outliers=frozenset([16]))
PARAMS = PipelineParams(score=ScoreParams(0.4, 0.3, min_pts=3), k_c=1)


def test_default_k_scales_labeled_contamination():
    with_outliers = LabelSet(normal={i: 0 for i in range(8)},
                             outliers=frozenset([100, 101]))
    assert default_k(100, with_outliers) == 20
    none = LabelSet(normal={0: 0, 1: 0}, outliers=frozenset())
    assert default_k(50, none) == 3  # round half up of 2.5
    assert default_k(10, none) == 1  # round half up of 0.5


def test_pipeline_params_validation():
    with pytest.raises(ValueError, match="k must be"):
        PipelineParams(score=ScoreParams(0.4, 0.3), k=-1)
    with pytest.raises(ValueError, match="k_c"):
        PipelineParams(score=ScoreParams(0.4, 0.3), k_c=0)


def test_run_separates_blobs_and_flags_outliers():
    result = run(BLOBS, BLOB_LABELS, PARAMS)
    assert result.assignment.assign.tolist() == [0] * 8 + [1] * 8 + [UNCLUSTERED] * 2
    # default k = round(18 * 1/3) clamped to the 2 unclustered points
    assert result.training.indices.tolist() == list(range(16)) + [16, 17]
    assert result.training.classes.tolist() == [0] * 8 + [1] * 8 + [OUTLIER] * 2
    assert result.k_c == 1
    assert result.clusters.tolist() == [0] * 8 + [1] * 8 + [OUTLIER] * 2
    assert result.outliers.tolist() == [False] * 16 + [True] * 2
    assert result.outlier_score[16] == 1.0
    assert result.outlier_score[17] == 1.0
    assert np.all(result.outlier_score[:16] == 0.0)
    # labeled roots are reached for free
    assert result.score_table.r_score[0] == 1.0
    assert result.score_table.r_score[8] == 1.0
    assert result.score_table.t_score is not None


def test_run_is_prepare_then_finish():
    direct = run(BLOBS, BLOB_LABELS, PARAMS)
    staged = finish(BLOBS, prepare(BLOBS, BLOB_LABELS, PARAMS.score.min_pts),
                    BLOB_LABELS, PARAMS)
    assert np.array_equal(direct.clusters, staged.clusters)
    assert np.array_equal(direct.outlier_score, staged.outlier_score)
    assert np.array_equal(direct.training.indices, staged.training.indices)


def test_run_reproduces_full_supervision_exactly():
    ds = Dataset(points=[[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]],
                 truth=[0, 0, 0, 1, 1, 1])
    labels = LabelSet(normal={0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1},
                      outliers=frozenset())
    result = run(ds, labels, PipelineParams(score=ScoreParams(0.4, 0.3, min_pts=2), k_c=1))
    assert result.clusters.tolist() == [0, 0, 0, 1, 1, 1]
    assert not result.outliers.any()
    assert np.all(result.outlier_score == 0.0)
    assert len(result.training) == 6  # default k lands on zero outlier rows


def test_finish_rejects_oversized_explicit_k():
    prepared = prepare(BLOBS, BLOB_LABELS, 3)
    params = PipelineParams(score=ScoreParams(0.4, 0.3, min_pts=3), k=3)
    with pytest.raises(ValueError, match=r"\[0, 2\]"):
        finish(BLOBS, prepared, BLOB_LABELS, params)


def test_fold_partition_covers_labels_and_keeps_roots():
    labels = LabelSet(normal={i: i % 2 for i in range(9)},
                      outliers=frozenset([20, 21, 22]))
    for seed in range(5):
        folds = _fold_partition(labels, 3, seed)
        assert len(folds) == 3
        merged = set().union(*folds)
        assert merged == set(labels.normal) | set(labels.outliers)
        assert sum(len(f) for f in folds) == len(merged)
        for fold in folds:
            visible = _drop_labels(labels, fold)
            assert len(visible.normal) >= 1


def tune_labels():
    return LabelSet(normal={0: 0, 1: 0, 8: 1, 9: 1}, outliers=frozenset([16]))


def test_tune_grid_shape_and_argmax():
    report = tune(BLOBS, tune_labels(), grid_step=0.5, folds=2, seed=0,
                  params=PipelineParams(score=ScoreParams(0.0, 0.0, min_pts=3), k_c=1))
    cells = [(a, b) for a, b, _ in report.grid]
    assert cells == [(0.0, 0.0), (0.0, 0.5), (0.0, 1.0),
                     (0.5, 0.0), (0.5, 0.5), (1.0, 0.0)]
    values = [v for _, _, v in report.grid]
    # best is the first cell attaining the maximum, in iteration order
    winner = cells[int(np.argmax(values))]
    assert report.best == winner
    for step in (1.0, 0.5, 0.25):
        report = tune(BLOBS, tune_labels(), grid_step=step, folds=2, seed=0)
        assert [(a, b) for a, b, _ in report.grid] == blend_grid(step)
    assert blend_grid(1.0) == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)]
    assert len(blend_grid(0.25)) == 15


def test_tune_is_deterministic():
    a = tune(BLOBS, tune_labels(), grid_step=0.5, folds=2, seed=3)
    b = tune(BLOBS, tune_labels(), grid_step=0.5, folds=2, seed=3)
    assert a.grid == b.grid
    assert a.best == b.best


def test_tune_matches_unshared_recomputation():
    base = PipelineParams(score=ScoreParams(0.0, 0.0, min_pts=3), k_c=1)
    report = tune(BLOBS, tune_labels(), grid_step=0.5, folds=2, seed=0, params=base)
    from dataclasses import replace

    from ssdbcodi.pipeline import _fold_objective
    alpha, beta = report.best
    cell = replace(base, score=replace(base.score, alpha=alpha, beta=beta))
    objectives = []
    for hidden in _fold_partition(tune_labels(), 2, 0):
        visible = _drop_labels(tune_labels(), hidden)
        prepared = prepare(BLOBS, visible, base.score.min_pts)  # fresh index
        result = finish(BLOBS, prepared, visible, cell)
        obj = _fold_objective(result, sorted(hidden), tune_labels())
        if obj is not None:
            objectives.append(obj)
    want = float(np.mean(objectives))
    got = dict(((a, b), v) for a, b, v in report.grid)[report.best]
    assert got == pytest.approx(want, abs=1e-15)


def test_tune_all_tied_prefers_origin():
    # with k pinned to 0 the blend cannot influence predictions, so every
    # cell scores the same and the lexicographically smallest must win
    labels = LabelSet(normal={0: 0, 1: 0, 8: 1, 9: 1}, outliers=frozenset())
    report = tune(BLOBS, labels, grid_step=0.5, folds=2, seed=1,
                  params=PipelineParams(score=ScoreParams(0.0, 0.0, min_pts=3),
                                        k=0, k_c=1))
    values = [v for _, _, v in report.grid]
    assert len(set(values)) == 1
    assert report.best == (0.0, 0.0)


def test_tune_validation_errors():
    with pytest.raises(ValueError, match="grid_step"):
        tune(BLOBS, tune_labels(), grid_step=0.3, folds=2)
    with pytest.raises(ValueError, match="grid_step"):
        tune(BLOBS, tune_labels(), grid_step=0.0, folds=2)
    with pytest.raises(ValueError, match="folds"):
        tune(BLOBS, tune_labels(), grid_step=0.5, folds=1)
    with pytest.raises(ValueError, match="labeled normal"):
        tune(BLOBS, LabelSet(normal={0: 0}, outliers=frozenset()),
             grid_step=0.5, folds=2)


def test_tune_reports_uncomputable_objective():
    # two labeled normals, one hidden per fold: no hidden outlier for AUC
    # and a single hidden point cannot support a Rand index
    labels = LabelSet(normal={0: 0, 1: 0}, outliers=frozenset())
    with pytest.raises(ValueError, match="computable"):
        tune(BLOBS, labels, grid_step=0.5, folds=2)
