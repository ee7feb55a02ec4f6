"""End-to-end pipeline behaviour and blend-weight tuning."""

from dataclasses import replace
import gc
import re
import tracemalloc
from types import SimpleNamespace
import weakref

import numpy as np
import pytest

from ssdbcodi import (Dataset, LabelSet, OUTLIER, UNCLUSTERED, PipelineParams,
                      ScoreParams, TrainingSet, blend_grid, build_index, default_k, finish,
                      metricspace, model, pipeline, prepare, run, sample_labels, t_score, tune)
from ssdbcodi.pipeline import _drop_labels, _fold_partition
from oracles import (decided_by_loop, finish_by_order, fold_objective, moons_with_outliers,
                     run_by_paper, tune_by_cells, tune_by_paper, vote_every_row)

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


def test_pipeline_params_refuse_float_and_boolean_counts():
    # k=2.0 was reported as out of [0, 0]; k_c=2.5 and True failed in numpy
    score = ScoreParams(0.4, 0.3)
    for bad in (2.0, 2.5, np.float64(2.0), True, np.bool_(False)):
        with pytest.raises(ValueError, match="k must be None or an integer"):
            PipelineParams(score=score, k=bad)
        with pytest.raises(ValueError, match="k_c must be an integer"):
            PipelineParams(score=score, k_c=bad)
    params = PipelineParams(score=score, k=np.int64(2), k_c=np.int32(3))
    assert params.k == 2 and params.k_c == 3 and PipelineParams(score=score).k is None


def test_run_separates_blobs_and_flags_outliers():
    prepared = prepare(build_index(BLOBS, PARAMS.score.min_pts), BLOB_LABELS)
    result = run(BLOBS, BLOB_LABELS, PARAMS)
    assert prepared.assignment.tolist() == [0] * 8 + [1] * 8 + [UNCLUSTERED] * 2
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
    assert prepared.scores.r_score[0] == 1.0
    assert prepared.scores.r_score[8] == 1.0
    # the reliable outliers are weighted by the stage's blend
    blend = t_score(prepared.scores, PARAMS.score)
    assert result.training.weights[16:].tobytes() == blend[[16, 17]].tobytes()


def test_run_is_prepare_then_finish():
    direct = run(BLOBS, BLOB_LABELS, PARAMS)
    staged = finish(prepare(build_index(BLOBS, PARAMS.score.min_pts), BLOB_LABELS), PARAMS)
    assert np.array_equal(direct.clusters, staged.clusters)
    assert np.array_equal(direct.outlier_score, staged.outlier_score)
    assert np.array_equal(direct.training.indices, staged.training.indices)


def test_array_holding_objects_compare_by_identity():
    # a generated __eq__ would compare ndarray fields, and raise, as would hash
    ds = replace(BLOBS, name="x")
    idx, other = build_index(ds, 3), build_index(ds, 4)
    prepared = prepare(idx, BLOB_LABELS)
    result = finish(prepared, PARAMS)
    assert (ds == BLOBS) is False and (ds == ds) is True and ds != BLOBS
    assert idx in [other, idx] and idx not in [other]
    objects = [ds, idx, prepared.scores, result.training, result, prepared]
    assert len(set(objects + objects)) == 6
    assert {type(obj).__name__ for obj in objects} == {
        "Dataset", "NeighborhoodIndex", "ScoreTable", "TrainingSet", "PipelineResult",
        "Prepared"}


def test_finish_refuses_params_with_another_min_pts():
    prepared = prepare(build_index(BLOBS, 3), BLOB_LABELS)
    with pytest.raises(ValueError, match="stage min_pts=3 != params min_pts=7"):
        finish(prepared, PipelineParams(ScoreParams(0.4, 0.3, 7)))
    assert finish(prepared, PipelineParams(ScoreParams(0.4, 0.3, 3))).clusters.shape == (18,)


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
    prepared = prepare(build_index(BLOBS, 3), BLOB_LABELS)
    params = PipelineParams(score=ScoreParams(0.4, 0.3, min_pts=3), k=3)
    with pytest.raises(ValueError, match=r"\[0, 2\]"):
        finish(prepared, params)


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
    alpha, beta = report.best
    cell = replace(base, score=replace(base.score, alpha=alpha, beta=beta))
    objectives = []
    for hidden in _fold_partition(tune_labels(), 2, 0):
        visible = _drop_labels(tune_labels(), hidden)
        twin = Dataset(points=BLOBS.points.copy(), truth=BLOBS.truth)  # a fresh index
        prepared = prepare(build_index(twin, base.score.min_pts), visible)
        result = finish(prepared, cell)
        obj = fold_objective(result, sorted(hidden), tune_labels())
        if obj is not None:
            objectives.append(obj)
    want = float(np.mean(objectives))
    got = dict(((a, b), v) for a, b, v in report.grid)[report.best]
    assert got == pytest.approx(want, abs=1e-15)


def test_fold_objective_matches_the_public_metrics_bit_for_bit():
    # scores from a pool of at most five values tie outliers with normals;
    # folds of every kind: all outliers (no metric for one row, else Rand
    # alone), no outlier (Rand alone, or None for one row) and mixed; the
    # predicted and labeled ids need not be contiguous. Each fold scores 1-4
    # cells in turn, each a new draw, the previous cell's result again, or
    # that result with one hidden row's score or class redrawn, as the
    # objective reuses the previous cell's value for a result of the same
    # bytes. The oracle scores by the former rank and contingency forms,
    # which test_metrics holds the public metrics to bit for bit
    rng = np.random.default_rng(67)
    score_pool = np.array([0.0, 0.25, 1 / 3, 0.5, 1.0])
    id_pools = [np.array([0, 1, 2]), np.array([3, 17]), np.array([5])]
    kinds = {"mixed": 0, "all outliers": 0, "no outlier": 0, "none": 0}
    changes = [0] * 4
    ties = 0
    for case in range(1500):
        m = int(rng.integers(1, 41))
        n = m + int(rng.integers(0, 20))
        ids = id_pools[case % 3]
        assignment = rng.choice(np.append(ids, UNCLUSTERED), size=n)
        hidden = sorted(rng.permutation(n)[:m].tolist())
        share = (0.3, 1.0, 0.0)[case % 7 % 3]
        outlier = rng.random(m) < share
        labels = LabelSet(normal={i: int(rng.choice(ids)) for i, o in zip(hidden, outlier) if not o},
                          outliers=frozenset(i for i, o in zip(hidden, outlier) if o))
        pool = rng.choice(score_pool, size=int(rng.integers(1, 6)), replace=False)
        predicted = np.append(np.unique(assignment[assignment != UNCLUSTERED]), OUTLIER)
        stage = SimpleNamespace(rows=np.array(hidden), assignment=assignment)
        objective = pipeline._fold_objective(stage, labels)
        for cell in range(int(rng.integers(1, 5))):
            change = int(rng.integers(4)) if cell else 0
            changes[change] += 1
            if change == 0:  # a new draw
                scores, clusters = rng.choice(pool, size=n), rng.choice(predicted, size=n)
            else:  # the previous result again, or with one hidden row redrawn
                scores, clusters = scores.copy(), clusters.copy()
                row = hidden[int(rng.integers(m))]
                if change == 2:
                    scores[row] = rng.choice(score_pool)
                if change == 3:
                    clusters[row] = rng.choice(predicted)
            everything = SimpleNamespace(clusters=clusters, outlier_score=scores)
            rows = SimpleNamespace(clusters=clusters[hidden], outlier_score=scores[hidden])
            want = fold_objective(everything, hidden, labels)
            got = objective(rows)
            if want is None:
                assert got is None, case
                kinds["none"] += 1
                continue
            assert (type(got) is float
                    and np.float64(got).tobytes() == np.float64(want).tobytes()), case
            kinds["mixed" if 0 < outlier.sum() < m else "all outliers" if outlier.all()
                  else "no outlier"] += 1
            ties += int((scores[hidden][outlier][:, None] == scores[hidden][~outlier]).sum())
    assert min(kinds.values()) >= 20 and ties >= 10000 and min(changes) >= 300, (
        kinds, ties, changes)


def test_tune_after_build_index_reuses_that_index(monkeypatch):
    params = PipelineParams(score=ScoreParams(0.0, 0.0, min_pts=3), k_c=1)
    ds = Dataset(points=BLOBS.points, truth=BLOBS.truth)
    index = build_index(ds, 3)
    staged, trees = [], []
    real_prepare, real_tree = pipeline.prepare, metricspace._spanning_tree
    monkeypatch.setattr(pipeline, "prepare",
                        lambda idx, labels, rows=None:
                        staged.append(idx) or real_prepare(idx, labels, rows))
    monkeypatch.setattr(metricspace, "_spanning_tree",
                        lambda *args: trees.append(args) or real_tree(*args))
    got = tune(ds, tune_labels(), grid_step=0.25, folds=2, seed=2, params=params)
    assert len(staged) == 2 and all(idx is index for idx in staged)
    assert trees == []
    # a twin dataset builds its own index and tunes to the same bytes
    twin = Dataset(points=BLOBS.points.copy(), truth=BLOBS.truth)
    want = tune(twin, tune_labels(), grid_step=0.25, folds=2, seed=2, params=params)
    assert len(trees) == 1 and staged[-1] is not index
    assert np.array(got.grid).tobytes() == np.array(want.grid).tobytes()
    assert got.best == want.best


def test_tune_on_equal_points_in_another_array_matches():
    twin = Dataset(points=BLOBS.points.copy(), truth=BLOBS.truth)
    params = PipelineParams(score=ScoreParams(0.0, 0.0, min_pts=3), k_c=1)
    got = tune(twin, tune_labels(), grid_step=0.5, folds=2, params=params)
    want = tune(BLOBS, tune_labels(), grid_step=0.5, folds=2, params=params)
    assert np.array(got.grid).tobytes() == np.array(want.grid).tobytes()
    assert got.best == want.best


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
    # a step finer than 0.01 is refused before its lattice is listed
    for step in (0.005, 1e-6, 5e-324):
        for refuse in (blend_grid,
                       lambda s: tune(BLOBS, tune_labels(), grid_step=s, folds=2)):
            with pytest.raises(ValueError, match="grid_step must be at least 0.01"):
                refuse(step)
    assert len(blend_grid(0.01)) == 5151
    with pytest.raises(ValueError, match="folds"):
        tune(BLOBS, tune_labels(), grid_step=0.5, folds=1)
    # a float reached range() and a boolean passed as the number 1
    for bad in (2.5, 3.0, np.float64(2.0), True, np.bool_(True)):
        with pytest.raises(ValueError, match=re.escape(f"folds must be an integer >= 2, got {bad!r}")):
            tune(BLOBS, tune_labels(), grid_step=0.5, folds=bad)
    assert tune(BLOBS, tune_labels(), grid_step=0.5, folds=np.int64(2)).best
    with pytest.raises(ValueError, match="labeled normal"):
        tune(BLOBS, LabelSet(normal={0: 0}, outliers=frozenset()),
             grid_step=0.5, folds=2)


def test_dropped_labels_are_the_public_constructors_set():
    labels = tune_labels()
    for fold in _fold_partition(labels, 3, 1):
        got = _drop_labels(labels, fold)
        want = LabelSet(normal={i: c for i, c in labels.normal.items() if i not in fold},
                        outliers=frozenset(labels.outliers - fold))
        assert got == want and list(got.normal.items()) == list(want.normal.items())
        assert type(got.outliers) is frozenset


def test_tune_reports_uncomputable_objective():
    # two labeled normals, one hidden per fold: no hidden outlier for AUC
    # and a single hidden point cannot support a Rand index
    labels = LabelSet(normal={0: 0, 1: 0}, outliers=frozenset())
    with pytest.raises(ValueError, match="computable"):
        tune(BLOBS, labels, grid_step=0.5, folds=2)


def test_prepared_stage_owns_points_and_auto_k():
    ds = moons_with_outliers(n=200)
    params = [PipelineParams(score=ScoreParams(0.4, 0.3, 3), k_c=5),
              PipelineParams(score=ScoreParams(0.1, 0.8, 3), k=2, k_c=3)]
    index = build_index(ds, 3)
    with_outliers = 0
    for seed in range(4):
        drawn = sample_labels(ds, 0.1, seed=seed)
        for labels in (drawn, LabelSet(normal=drawn.normal, outliers=frozenset())):
            with_outliers += bool(labels.outliers)
            prepared = prepare(index, labels)
            assert prepared.index is index
            unclustered = int((prepared.assignment == UNCLUSTERED).sum())
            assert prepared.auto_k == min(default_k(ds.n, labels), unclustered)
            assert np.shares_memory(prepared.index.points, ds.points)
            assert prepared.assignment.tobytes() == prepare(index, labels).assignment.tobytes()
            for p in params:
                got, want = finish(prepared, p), run(ds, labels, p)
                for attr in ("clusters", "outliers", "outlier_score"):
                    assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes()
                assert got.training.indices.tobytes() == want.training.indices.tobytes()
                assert got.k_c == want.k_c
    assert with_outliers >= 2


def test_prepare_refuses_rows_outside_the_dataset():
    index = build_index(BLOBS, 3)
    for rows in ([0, -1], [3, BLOBS.n]):
        with pytest.raises(IndexError, match=r"rows must lie in \[0, 17\]"):
            prepare(index, BLOB_LABELS, rows)
    assert finish(prepare(index, BLOB_LABELS, [17, 0]), PARAMS).clusters.shape == (2,)


def test_prepare_refuses_indices_it_would_cast():
    # a float would truncate, a mask would become rows 1 and 0
    index = build_index(BLOBS, 3)
    for bad in ([0.9, 1.5], [0.7], [True, False], [[0, 1], [2, 3]]):
        with pytest.raises(ValueError, match="rows must be a 1-D sequence of integers"):
            prepare(index, BLOB_LABELS, bad)
    rows = np.array([3, 0], dtype=np.int32)
    assert finish(prepare(index, BLOB_LABELS, rows), PARAMS).clusters.shape == (2,)
    empty = finish(prepare(index, BLOB_LABELS, []), PARAMS)
    assert empty.clusters.shape == empty.outlier_score.shape == (0,)


def test_prepare_owns_a_read_only_copy_of_its_rows():
    # every point by default, else a copy of the caller's rows; either way
    # an integer array that no one can write to
    index = build_index(BLOBS, 3)
    caller = np.array([5, 2, 5], dtype=np.int32)
    for rows, want in ((None, np.arange(BLOBS.n)), (caller, caller), ([5, 2, 5], caller)):
        staged = prepare(index, BLOB_LABELS, rows)
        assert staged.rows.tolist() == want.tolist() and staged.rows.dtype.kind == "i"
        assert not staged.rows.flags.writeable
        assert not np.shares_memory(staged.rows, caller)
        with pytest.raises(ValueError, match="read-only"):
            staged.rows[0] = 1


def test_editing_the_callers_rows_changes_no_later_finish():
    # the stage keeps the rows it was prepared on, so a finish after the
    # caller overwrites its array classifies the original rows, whether its
    # neighbours are searched or read off the stage's memo (the second k_c=5)
    ds = moons_with_outliers(n=300)
    labels = sample_labels(ds, 0.1, seed=3)
    index = build_index(ds, 3)
    params = [PipelineParams(score=ScoreParams(0.4, 0.3, 3), k_c=k_c) for k_c in (5, 3, 5)]
    rows = np.arange(200, 250)
    want = [finish(prepare(index, labels, rows.copy()), p) for p in params]
    staged = prepare(index, labels, rows)
    rows[:] = np.arange(250, 300)
    for p, w in zip(params, want):
        got = finish(staged, p)
        for attr in ("clusters", "outliers", "outlier_score"):
            assert getattr(got, attr).tobytes() == getattr(w, attr).tobytes(), attr
    moved = finish(prepare(index, labels, rows), params[0])
    assert moved.outlier_score.tobytes() != want[0].outlier_score.tobytes()


def counted_searches(monkeypatch) -> list:
    """Replace finish's neighbour search with one that records its calls:
    (training rows, rows searched, rows sent to cross_nearest)."""
    calls = []
    real = pipeline.neighbours

    def counting(ts, index, k_c, rows):
        nbrs, searched = real(ts, index, k_c, rows)
        calls.append((len(ts), len(rows), searched.size))
        return nbrs, searched

    monkeypatch.setattr(pipeline, "neighbours", counting)
    return calls


def test_finish_reuses_neighbours_per_training_set(monkeypatch):
    ds = moons_with_outliers(n=200)
    labels = sample_labels(ds, 0.1, seed=3)
    calls = counted_searches(monkeypatch)
    voted, real_vote = [], pipeline.vote

    def counting_vote(layout, weights):
        voted.append(weights.shape[1])
        return real_vote(layout, weights)

    prepared = prepare(build_index(ds, 3), labels)
    params = [PipelineParams(score=ScoreParams(0.4, 0.3, 3), k_c=k_c) for k_c in (3, 5, 3)]
    monkeypatch.setattr(pipeline, "vote", counting_vote)
    cached, votes = [], []
    for p in params:
        start = len(voted)
        cached.append(finish(prepared, p))
        votes.append(voted[start:])
    monkeypatch.setattr(pipeline, "vote", real_vote)
    # each k_c's first finish searches every row; the second finish at k_c = 3
    # reads the rows the table decides and searches only the others
    undecided = int((~decided_by_loop(prepared, 3)).sum())
    assert [rows for _, rows, _ in calls] == [ds.n, ds.n] + ([undecided] if undecided else [])
    # each k_c's first finish, which no plan answered, votes only the rows
    # whose neighbours hold two classes or more (none may), and some vote
    # fewer rows than they classify
    mixed = [int(mixed_rows(prepared, result.training, result.k_c).sum())
             for result in cached[:2]]
    assert votes[:2] == [[m] if m else [] for m in mixed]
    assert any(m < ds.n for m in mixed), mixed
    for got, p in zip(cached, params):
        fresh = prepare(build_index(ds, 3), labels)
        want = finish(fresh, p)
        for attr in ("clusters", "outliers", "outlier_score"):
            assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes(), attr
        assert got.training.weights.tobytes() == want.training.weights.tobytes()
        assert prepared.assignment.tobytes() == fresh.assignment.tobytes()
        assert (t_score(prepared.scores, p.score).tobytes()
                == t_score(fresh.scores, p.score).tobytes())
        assert got.training.indices.tobytes() == want.training.indices.tobytes()
        assert got.k_c == want.k_c == p.k_c


def live_rows(prepared, result) -> np.ndarray:
    """Which of the stage's rows have a chosen outlier of result's training
    set among their k_c neighbours, found by a fresh search."""
    ts = result.training
    nbrs, _ = model.neighbours(ts, prepared.index, result.k_c, prepared.rows)
    return (nbrs >= len(prepared.normals)).any(axis=1)


def test_first_vote_skips_single_class_rows_with_the_bits_of_every_row():
    # tie-heavy tables: few classes per row, zero and tied weights, k_c = 1,
    # one class, every neighbour OUTLIER, ids up to 2**62, and no row
    rng = np.random.default_rng(110)
    big = 2**62
    seen = {"zero": 0, "k1": 0, "one_class": 0, "all_outlier": 0, "big": 0, "no_row": 0,
            "skipped": 0, "voted": 0}
    for case in range(1500):
        k, n = int(rng.integers(1, 7)), int(rng.integers(0, 40)) if case % 25 else 0
        pool = [np.array([OUTLIER]), np.array([7]), np.array([OUTLIER, 0, 1]),
                np.array([OUTLIER, 3, big]),
                rng.integers(0, big, size=3)][case % 5]
        classes = np.tile(rng.choice(pool, size=n), (k, 1))
        flip = rng.random((k, n)) < rng.choice([0.0, 0.1, 0.5])
        classes = np.where(flip, rng.choice(pool, size=(k, n)), classes)
        weights = rng.choice([0.0, 0.25, 0.5, 1.0, 5e-324], size=(k, n))
        if case % 3 == 0:
            weights = np.zeros((k, n))
        if case % 2:  # laid out as a gather through a transposed neighbour table
            classes, weights = np.asfortranarray(classes), np.asfortranarray(weights)
        got, want = pipeline._vote_mixed(classes, weights), vote_every_row(classes, weights)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), case
        mixed = (classes != classes[:1]).any(axis=0)
        seen["zero"] += not weights.any()
        seen["k1"] += k == 1
        seen["one_class"] += pool.size == 1
        seen["all_outlier"] += bool(n) and (classes == OUTLIER).all()
        seen["big"] += bool((classes >= big).any())
        seen["no_row"] += n == 0
        seen["skipped"] += bool((~mixed).any())
        seen["voted"] += bool(mixed.any())
    assert min(seen.values()) >= 40, seen


def mixed_rows(prepared, ts, k_c: int) -> np.ndarray:
    """Which of the stage's rows have k_c neighbours of two classes or more
    in the training set ts, found by a fresh search."""
    nbrs, _ = model.neighbours(ts, prepared.index, k_c, prepared.rows)
    classes = ts.classes[nbrs]
    return (classes != classes[:, :1]).any(axis=1)


def test_tune_searches_neighbours_once_per_fold_and_training_set(monkeypatch):
    ds = moons_with_outliers(n=200)
    labels = sample_labels(ds, 0.1, seed=5)
    calls = counted_searches(monkeypatch)
    finished, voted = [], []
    real_finish, real_vote = pipeline.finish, pipeline.vote

    def recording(prepared, params):
        start = len(voted)
        result = real_finish(prepared, params)
        indices = result.training.indices
        finished.append((prepared, result.k_c, indices.tobytes(), np.sort(indices).tobytes(),
                         prepared.rows, voted[start:], live_rows(prepared, result),
                         mixed_rows(prepared, prepared.normals, result.k_c),
                         decided_by_loop(prepared, result.k_c)))
        return result

    def counting_vote(layout, weights):
        voted.append(weights.shape[1])
        return real_vote(layout, weights)

    monkeypatch.setattr(pipeline, "finish", recording)
    monkeypatch.setattr(pipeline, "vote", counting_vote)
    tune(ds, labels, grid_step=0.2, folds=5, seed=5,
         params=PipelineParams(score=ScoreParams(0.0, 0.0, 3)))
    # Holding every stage keeps their ids distinct. No lookup sends a row to
    # cross_nearest here, so one entry serves every order of a training set.
    orders = {(id(prepared), k_c, key) for prepared, k_c, key, *_ in finished}
    sets = {(id(prepared), k_c, key) for prepared, k_c, _, key, *_ in finished}
    assert len(finished) == 5 * len(blend_grid(0.2))
    assert [searched for *_, searched in calls] == [0] * len(calls)
    assert len(sets) < len(orders) < len(finished)
    # Each fold's finishes classify exactly its hidden rows, sorted.
    hidden = [sorted(h) for h in _fold_partition(labels, 5, 5)]
    assert [list(finish[4]) for finish in finished] == [
        h for h in hidden for _ in blend_grid(0.2)]
    # Each stage answers its grid when tune hands it over, so no finish
    # votes. The stage builds its table: the normals-only vote of the
    # decided rows whose normals-only neighbours hold two classes or more.
    # Each training set's entry, in the order the grid first meets it, then
    # searches only the undecided rows and votes those that no chosen outlier
    # reaches. Then every cell of every set votes its set's live rows, the
    # rows a chosen outlier reaches, side by side in one call, none when no
    # set has one.
    assert [finish[5] for finish in finished] == [[]] * len(finished)
    stages = {}
    for prepared, k_c, _, key, rows, _, live, normals_mixed, decided in finished:
        stages.setdefault((id(prepared), k_c), {}).setdefault(key, []).append(
            (rows, live, normals_mixed, decided))
    searches, want, tables, lives = [], [], [], []
    for stage in stages.values():
        rows, _, normals_mixed, decided = next(iter(stage.values()))[0]
        table = int((normals_mixed & decided).sum())
        want += [table] if table else []
        tables.append((table, len(rows)))
        for cells in stage.values():
            _, live, _, decided = cells[0]
            undecided = int((~decided).sum())
            searches += [undecided] if undecided else []
            fixed = undecided - int((live & ~decided).sum())
            want += [fixed] if fixed else []
        tiled = 0
        for cells in stage.values():
            live = int(cells[0][1].sum())
            tiled += len(cells) * live
            lives.append((live, len(rows)))
        want += [tiled] if tiled else []
    assert [rows for _, rows, _ in calls] == searches
    assert voted == want
    # some tables vote fewer rows than they classify; some sets have no
    # live row, and some fewer than all
    assert any(m < n for m, n in tables), tables
    assert any(live == 0 for live, _ in lives), lives
    assert any(0 < live < n for live, n in lives), lives


def test_every_tune_cell_training_set_passes_the_public_constructor(monkeypatch):
    # finish builds its sets from the stage's checked normals and checks
    # only the chosen outliers; the public constructor, with every check,
    # accepts each set a tune's cells trained on and keeps its dtypes and bytes
    built = []
    real = pipeline.finish
    monkeypatch.setattr(pipeline, "finish",
                        lambda *args: built.append(real(*args)) or built[-1])
    ds = moons_with_outliers(n=200)
    tune(ds, sample_labels(ds, 0.1, seed=5), grid_step=0.2, folds=5, seed=5,
         params=PipelineParams(score=ScoreParams(0.0, 0.0, 3)))
    rng = np.random.default_rng(109)
    for _ in range(40):  # tie-heavy grids, k of None, 0 or more, some k_c above m
        ds, labels, kwargs = fuzz_tune_case(rng)
        try:
            tune(ds, labels, **kwargs)
        except ValueError:  # too few normals, or an explicit k too large
            pass
    assert len(built) >= 2000
    for ts in (result.training for result in built):
        public = TrainingSet(ts.indices, ts.classes, ts.weights)
        for attr in ("indices", "classes", "weights"):
            got, want = getattr(ts, attr), getattr(public, attr)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), attr


def test_tune_validates_rows_once_per_fold(monkeypatch):
    ds = moons_with_outliers(n=200)
    labels = sample_labels(ds, 0.1, seed=5)
    checked = []
    real = pipeline.point_indices

    def counting(values, n, name):
        checked.append(name)
        return real(values, n, name)

    monkeypatch.setattr(pipeline, "point_indices", counting)
    tune(ds, labels, grid_step=0.2, folds=4, seed=5,
         params=PipelineParams(score=ScoreParams(0.0, 0.0, 3)))
    assert checked == ["rows"] * 4


def fuzz_tune_case(rng):
    """A tie-heavy tuning problem: integer-grid points with repeated rows."""
    n = int(rng.integers(10, 31))
    points = rng.integers(0, 4, size=(n, int(rng.integers(1, 4)))).astype(float)
    points[rng.integers(n, size=n // 4)] = points[rng.integers(n, size=n // 4)]
    ds = Dataset(points=points, truth=np.zeros(n, dtype=int))
    folds = int(rng.integers(2, 6))
    picked = rng.permutation(n)
    n_out = int(rng.integers(0, n // 4 + 1))
    n_normal = int(rng.integers(folds, n // 2 + 1))
    labels = LabelSet(normal={int(i): int(rng.integers(3)) for i in picked[:n_normal]},
                      outliers=frozenset(int(i) for i in picked[n_normal:n_normal + n_out]))
    k = None if rng.random() < 0.6 else int(rng.integers(0, 3))
    k_c = int(rng.choice([1, 2, 3, 5, n + 5]))
    params = PipelineParams(score=ScoreParams(0.0, 0.0, int(rng.integers(1, 4))), k=k, k_c=k_c)
    grid_step = float(rng.choice([0.5, 0.25, 0.2, 0.1], p=[0.4, 0.35, 0.2, 0.05]))
    return ds, labels, dict(grid_step=grid_step, folds=folds, seed=int(rng.integers(100)),
                            params=params)


def test_finish_on_rows_matches_all_rows_indexed():
    rng = np.random.default_rng(41)
    compared = explicit = clamped = 0
    for case in range(120):
        ds, labels, kwargs = fuzz_tune_case(rng)
        base = kwargs["params"]
        index = build_index(ds, base.score.min_pts)
        prepared = prepare(index, labels)
        chosen = rng.choice(ds.n, size=int(rng.integers(1, ds.n + 1)), replace=False)
        repeated = [int(rng.integers(ds.n))] * 2 + [int(chosen[0])]
        for rows in (np.sort(chosen), chosen, repeated):
            staged = prepare(index, labels, rows)
            for alpha, beta in blend_grid(0.5):
                p = replace(base, score=replace(base.score, alpha=alpha, beta=beta))
                try:
                    want = finish(prepared, p)
                except ValueError as exc:  # an explicit k above the unclustered count
                    with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                        finish(staged, p)
                    continue
                got = finish(staged, p)
                for attr in ("clusters", "outliers", "outlier_score"):
                    assert (getattr(got, attr).tobytes()
                            == getattr(want, attr)[rows].tobytes()), (case, attr)
                assert got.training.indices.tobytes() == want.training.indices.tobytes()
                assert got.k_c == want.k_c
                compared += 1
                explicit += p.k is not None
                clamped += p.k_c > len(want.training)
    assert compared >= 2000 and explicit >= 900 and clamped >= 400, (compared, explicit, clamped)


def test_tune_matches_cells_outer_oracle():
    rng = np.random.default_rng(83)
    compared = clamped = 0
    for case in range(220):
        ds, labels, kwargs = fuzz_tune_case(rng)
        try:
            want = tune_by_cells(ds, labels, **kwargs)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                tune(ds, labels, **kwargs)
            continue
        got = tune(ds, labels, **kwargs)
        assert np.array(got.grid).tobytes() == np.array(want.grid).tobytes(), case
        assert got.best == want.best, case
        compared += 1
        clamped += kwargs["params"].k_c > ds.n
    assert compared >= 200 and clamped >= 20


def paper_case(rng, kind: str) -> tuple:
    """A seeded case for the end-to-end reference: 20-119 points in 1-3
    dimensions on an integer grid (exact ties), the same grid at a 0.1 step
    (ties not exact in binary) or Gaussian; stratified labels, min_pts 2-4,
    k_c 1-6 and a random blend."""
    n, d = int(rng.integers(20, 120)), int(rng.integers(1, 4))
    if kind == "gauss":
        points = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0)
    else:
        points = rng.integers(0, 6, size=(n, d)) / (10.0 if kind == "tenths" else 1.0)
    ds = Dataset(points=points,
                 truth=np.where(rng.random(n) < 0.1, OUTLIER, rng.integers(0, 3, size=n)))
    labels = sample_labels(ds, max(float(rng.uniform(0.05, 0.2)), 4 / n),
                           seed=int(rng.integers(1000)), stratified=True)
    alpha = float(rng.uniform(0.0, 1.0))
    score = ScoreParams(alpha, float(rng.uniform(0.0, 1.0 - alpha)), int(rng.integers(2, 5)))
    return ds, labels, PipelineParams(score=score, k_c=int(rng.integers(1, 7)))


def assert_same_result(got, want, case):
    for attr in ("clusters", "outliers", "outlier_score"):
        assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes(), (case, attr)
    for attr in ("indices", "classes", "weights"):
        assert (getattr(got.training, attr).tobytes()
                == getattr(want.training, attr).tobytes()), (case, attr)
    assert got.k_c == want.k_c, case


def test_run_matches_the_papers_reference_bytes():
    # run against run_by_paper, which takes none of the library's fast paths:
    # the plot-read expansion, the list window, the second level or the
    # stage cache
    rng = np.random.default_rng(127)
    for kind in ("grid", "tenths", "gauss"):
        for case in range(100):
            ds, labels, params = paper_case(rng, kind)
            assert_same_result(run(ds, labels, params), run_by_paper(ds, labels, params),
                               (kind, case))


def test_every_cell_of_a_shuffled_stage_matches_the_papers_reference():
    # every blend_grid(0.2) cell, twice each in shuffled order, finished on
    # one stage, so that cells meet the stage's first finish, its candidate
    # table, new entries and entries met again
    rng = np.random.default_rng(131)
    seen = set()
    for kind in ("grid", "tenths", "gauss", "gauss"):
        ds, labels, params = paper_case(rng, kind)
        stage = prepare(build_index(ds, params.score.min_pts), labels)
        cells = [cell for cell in blend_grid(0.2) for _ in range(2)]
        wanted = {}
        for i in rng.permutation(len(cells)):
            p = replace(params, score=replace(params.score, alpha=cells[i][0],
                                              beta=cells[i][1]))
            if cells[i] not in wanted:
                wanted[cells[i]] = run_by_paper(ds, labels, p)
            assert_same_result(finish(stage, p), wanted[cells[i]], (kind, cells[i]))
        table = stage._cells.tables[min(params.k_c, len(wanted[cells[0]].training))]
        seen.update({"undecided": table.undecided.size > 0, "reach": table.mixed.size > 0}
                    .items())
    # the integer and tenths grids' rows are all undecided, the Gaussian
    # sets' mostly decided, some with a reach
    assert seen >= {("undecided", True), ("reach", True)}, seen


def test_tune_matches_the_papers_reference_bytes():
    # tune against tune_by_paper, run_by_paper per fold and cell scored by the
    # former rank and contingency forms, which takes none of the library's
    # fast paths: the stage, its plan, its cache or the cell-axis objective.
    # Integer grids, tenths grids and Gaussian sets, 2-3 folds, grid steps
    # 0.5 and 0.25; a draw that one refuses the other refuses alike
    rng = np.random.default_rng(149)
    compared = 0
    for kind in ("grid", "tenths", "gauss"):
        for case in range(12):
            ds, labels, params = paper_case(rng, kind)
            kwargs = dict(grid_step=float(rng.choice([0.5, 0.25])),
                          folds=int(rng.integers(2, 4)), seed=case, params=params)
            try:
                want = tune_by_paper(ds, labels, **kwargs)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    tune(ds, labels, **kwargs)
                continue
            got = tune(ds, labels, **kwargs)
            assert np.array(got.grid).tobytes() == np.array(want.grid).tobytes(), (kind, case)
            assert got.best == want.best, (kind, case)
            compared += 1
    assert compared >= 30, compared


def cache_fuzz_datasets() -> dict:
    """The set-keyed cache fuzz's data: a 20 x 20 integer grid, the same grid
    at a 0.1 step (ties exact in decimal but not in binary, so some rows
    reach cross_nearest), moons and seeded blobs, each with a few scattered
    outliers."""
    rng = np.random.default_rng(103)
    grid = np.array([(x, y) for x in range(20) for y in range(20)], dtype=float)
    grid_truth = np.where(rng.random(400) < 0.05, OUTLIER, (grid[:, 0] >= 10).astype(int))
    centres = rng.integers(3, size=300)
    blobs = 5.0 * rng.normal(size=(3, 3))[centres] + rng.normal(size=(300, 3))
    blobs_truth = np.where(rng.random(300) < 0.05, OUTLIER, centres)
    blobs[blobs_truth == OUTLIER] = rng.uniform(-10, 10, size=((blobs_truth == OUTLIER).sum(), 3))
    return {"grid": Dataset(points=grid, truth=grid_truth),
            "tenths": Dataset(points=grid / 10, truth=grid_truth),
            "moons": moons_with_outliers(n=300),
            "blobs": Dataset(points=blobs, truth=blobs_truth)}


def test_candidate_table_ranks_each_decided_row_as_neighbours_does():
    # The oracle is a fresh model.neighbours call. In every blend_grid(0.2)
    # cell of each stage (blend_grid(0.5) when k is 0 or every unclustered
    # point, one set each), once the stage's table at k_c is built: it
    # decides exactly the rows that decided_by_loop decides; each decided
    # row's neighbour points are the table's (a row with no reach its first
    # k_c candidates, a row with one its first k_c training members); the
    # table's vote at each decided row is that of a fresh stage's finish with
    # no chosen outlier (some of whose neighbours hold two classes), and the result at each decided row that no chosen
    # outlier reaches is that vote. Stages on all points, a few hidden rows,
    # no row and no unclustered point, at k_c of 1, 5 and NEAR_K + 1, on the
    # cache fuzz data plus a copy of its blobs with 60 coincident points and
    # blobs among scattered outliers, where some decided rows' lists hold
    # exactly k_c normals.
    # Every result's training indices are overwritten once checked, which no
    # later cell may see.
    rng = np.random.default_rng(113)
    datasets = cache_fuzz_datasets()
    blobs = datasets["blobs"]
    datasets["coincident"] = Dataset(points=np.vstack([blobs.points, blobs.points[:60]]),
                                     truth=np.concatenate([blobs.truth, blobs.truth[:60]]))
    # blobs in a background of 40% scattered outliers
    scattered = np.random.default_rng(114)
    centres = scattered.integers(3, size=300)
    points = 5.0 * scattered.normal(size=(3, 3))[centres] + scattered.normal(size=(300, 3))
    points[:120] = scattered.uniform(-10, 10, size=(120, 3))
    datasets["scattered"] = Dataset(points=points,
                                    truth=np.where(np.arange(300) < 120, OUTLIER, centres))
    counts = dict.fromkeys(("cells", "decided", "list_end", "reach", "undecided", "short",
                            "over_near", "zero_k", "all_k", "no_unclustered", "no_rows",
                            "coincident", "cross", "two_class"), 0)
    for name, ds in datasets.items():
        index = build_index(ds, 3)
        labels = sample_labels(ds, 0.1, seed=1)
        base = prepare(index, labels)
        full = np.where(base.assignment == UNCLUSTERED, 0, base.assignment)
        hidden = np.sort(rng.choice(ds.n, size=30, replace=False))
        for stage in (base, prepare(index, labels, hidden), prepare(index, labels, []),
                      replace(base, assignment=full, auto_k=0)):
            rows = stage.rows
            for k_c, k in ((k_c, k) for k_c in (1, 5, metricspace.NEAR_K + 1)
                           for k in (None, 0, stage.unclustered.size)):
                stage = replace(stage)  # fresh caches
                decided = decided_by_loop(stage, k_c)
                normals_only = finish(replace(stage), PipelineParams(
                    score=ScoreParams(0.0, 0.0, 3), k=0, k_c=k_c))
                normals = (stage.assignment[np.column_stack([rows, index.near[rows]])]
                           != UNCLUSTERED).sum(axis=1)
                two_class = mixed_rows(stage, stage.normals, k_c)
                cells = blend_grid(0.2 if k is None else 0.5)
                for i in rng.permutation(len(cells)):
                    p = PipelineParams(score=ScoreParams(*cells[i], 3), k=k, k_c=k_c)
                    result = finish(stage, p)
                    assert result.k_c == k_c
                    table = stage._cells.tables.get(k_c)
                    if table is None:  # the stage's first finish
                        result.training.indices[...] = 3
                        continue
                    ts = result.training
                    nbrs, searched = model.neighbours(ts, index, k_c, rows)
                    assert np.isin(np.arange(rows.size), table.undecided,
                                   invert=True).tolist() == decided.tolist(), name
                    is_chosen = np.isin(np.arange(ds.n), ts.indices[len(stage.normals):])
                    got = np.column_stack([rows, index.near[rows, :k_c - 1]])
                    got[table.mixed] = model._first(table.cand,
                                                    table.normal | is_chosen[table.cand],
                                                    k_c).T
                    want = ts.indices[nbrs]
                    assert got[decided].tobytes() == want[decided].tobytes(), name
                    for kept, fresh in ((table.classes, normals_only.clusters),
                                        (table.outlier_score, normals_only.outlier_score)):
                        assert kept[decided].tobytes() == fresh[decided].tobytes(), name
                    fixed = decided & ~is_chosen[want].any(axis=1)
                    assert result.clusters[fixed].tobytes() == table.classes[fixed].tobytes()
                    assert (result.outlier_score[fixed].tobytes()
                            == table.outlier_score[fixed].tobytes())
                    ts.indices[...] = 3
                    counts["cells"] += 1
                    counts["decided"] += int(decided.sum())
                    # decided with exactly k_c normals: the list's last value
                    # stands for the (k_c + 1)-th
                    counts["list_end"] += int((decided & (normals == k_c)).sum())
                    counts["reach"] += table.mixed.size
                    counts["undecided"] += table.undecided.size
                    counts["short"] += int((normals <= k_c).sum())
                    counts["over_near"] += k_c > metricspace.NEAR_K
                    counts["zero_k"] += k == 0
                    counts["all_k"] += 0 < len(ts) - len(stage.normals) == stage.unclustered.size
                    counts["no_unclustered"] += stage.unclustered.size == 0
                    counts["no_rows"] += rows.size == 0
                    counts["coincident"] += name == "coincident" and bool(
                        (~decided & (index.near_dist[rows, 0] == 0)).any())
                    counts["cross"] += searched.size > 0
                    counts["two_class"] += int((decided & two_class).sum())
    assert counts["cells"] >= 1500 and min(counts.values()) > 0, counts


def test_a_stages_candidate_table_depends_only_on_the_stage_and_k_c():
    # Every array of the table, its undecided rows' vote included, has the
    # same bytes and dtype whichever cell finished first at k_c: on two
    # fresh copies of each stage, one whose first cell chose no outlier
    # (k = 0) and one whose first cell took the automatic k, each then
    # finishing the same second cell. Stages on all points, a few hidden
    # rows, no row and no unclustered point, at k_c of 1, 5 and NEAR_K + 1,
    # on the cache fuzz data; some first cells vote an undecided row
    # otherwise than the other copy's.
    rng = np.random.default_rng(137)
    score = ScoreParams(0.4, 0.3, 3)
    counts = dict.fromkeys(("tables", "decided", "undecided", "no_rows", "no_unclustered",
                            "over_near", "first_differs"), 0)
    for name, ds in cache_fuzz_datasets().items():
        index = build_index(ds, 3)
        labels = sample_labels(ds, 0.1, seed=2)
        base = prepare(index, labels)
        full = np.where(base.assignment == UNCLUSTERED, 0, base.assignment)
        hidden = np.sort(rng.choice(ds.n, size=30, replace=False))
        for stage in (base, prepare(index, labels, hidden), prepare(index, labels, []),
                      replace(base, assignment=full, auto_k=0)):
            for k_c in (1, 5, metricspace.NEAR_K + 1):
                firsts, tables = [], []
                for k in (0, None):
                    copy = replace(stage)
                    firsts.append(finish(copy, PipelineParams(score=score, k=k, k_c=k_c)))
                    finish(copy, PipelineParams(score=score, k_c=k_c))
                    tables.append(copy._cells.tables[k_c])
                assert firsts[0].k_c == firsts[1].k_c == k_c
                for a, b in zip(*tables):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, k_c)
                undecided = tables[0].undecided
                counts["tables"] += 1
                counts["decided"] += stage.rows.size - undecided.size
                counts["undecided"] += undecided.size
                counts["no_rows"] += stage.rows.size == 0
                counts["no_unclustered"] += stage.unclustered.size == 0
                counts["over_near"] += k_c > metricspace.NEAR_K
                counts["first_differs"] += any(
                    getattr(firsts[0], attr)[undecided].tobytes()
                    != getattr(firsts[1], attr)[undecided].tobytes()
                    for attr in ("clusters", "outlier_score"))
    assert min(counts.values()) > 0, counts


def test_a_stage_and_its_cell_cache_are_freed_by_reference_counting():
    # the cache holds nothing of its stage, so no reference cycle keeps a
    # stage, such as each of tune's fold stages, alive until a collection
    ds = moons_with_outliers(n=200)
    stage = prepare(build_index(ds, 3), sample_labels(ds, 0.1, seed=3))
    ref = weakref.ref(stage)
    gc.disable()
    try:
        for k_c in (3, 5):
            for alpha, beta in blend_grid(0.5):
                finish(stage, PipelineParams(score=ScoreParams(alpha, beta, 3), k_c=k_c))
        assert sorted(stage._cells.tables) == [3, 5] and len(stage._cells.entries) >= 2
        del stage
        assert ref() is None
    finally:
        gc.enable()


def test_cached_neighbours_match_a_fresh_stage_and_the_per_order_finish():
    # every blend_grid(0.1) cell, three times each in shuffled order, so that
    # each stage finishes once before its table is built and every cache entry
    # is seen when it is made and on later uses, finished
    # on one stage equals, byte for byte, finish on a fresh stage and the
    # per-order oracle: on all points, on a few hidden rows, on no row, on a
    # stage with two clustered points, so that k_c can exceed its normals,
    # and on one with no unclustered point. A set whose first lookup sent a
    # row to cross_nearest (every row at k_c = NEAR_K + 1) is looked up once
    # per order, and some such sets come in several orders. Every result's
    # arrays are overwritten once compared, which no later cell may see
    rng = np.random.default_rng(107)
    counts = dict.fromkeys(("cells", "refused", "orders", "entries", "reordered",
                            "over_normals", "no_rows", "zero_k", "all_k", "no_unclustered",
                            "live", "fixed"), 0)
    for name, ds in cache_fuzz_datasets().items():
        index = build_index(ds, 3)
        for seed in range(2):
            labels = sample_labels(ds, 0.1, seed=seed)
            hidden = np.sort(rng.choice(ds.n, size=int(rng.integers(5, 40)), replace=False))
            staged = [prepare(index, labels), prepare(index, labels, hidden),
                      prepare(index, labels, [])]
            few = staged[0].assignment.copy()
            few[np.flatnonzero(few != UNCLUSTERED)[2:]] = UNCLUSTERED
            staged.append(replace(staged[0], assignment=few))
            full = np.where(staged[0].assignment == UNCLUSTERED, 0, staged[0].assignment)
            staged.append(replace(staged[0], assignment=full, auto_k=0))
            for stage in staged:
                normals = int((stage.assignment != UNCLUSTERED).sum())
                k_c = int(rng.choice([1, 3, 5, metricspace.NEAR_K + 1]))
                # the automatic k, none, every unclustered point (one set in
                # many orders) or one too many
                k = rng.choice([None, 0, stage.assignment.size - normals + int(rng.integers(2))])
                cells = [cell for cell in blend_grid(0.1) for _ in range(3)]
                rng.shuffle(cells)
                orders, wanted = set(), {}
                for alpha, beta in cells:
                    p = PipelineParams(score=ScoreParams(alpha, beta, 3), k=k, k_c=k_c)
                    first = (alpha, beta) not in wanted
                    if first:
                        try:
                            wanted[alpha, beta] = finish_by_order(stage, p)
                        except ValueError as exc:  # an explicit k above the unclustered count
                            wanted[alpha, beta] = exc
                    want = wanted[alpha, beta]
                    if isinstance(want, ValueError):
                        for target in (stage, replace(stage)):
                            with pytest.raises(ValueError, match=f"^{re.escape(str(want))}$"):
                                finish(target, p)
                        counts["refused"] += 1
                        continue
                    fresh = [finish(replace(stage), p)] if first else []
                    for got in [finish(stage, p)] + fresh:
                        for attr in ("clusters", "outliers", "outlier_score"):
                            assert (getattr(got, attr).tobytes()
                                    == getattr(want, attr).tobytes()), (name, attr)
                        for attr in ("indices", "classes", "weights"):
                            assert (getattr(got.training, attr).tobytes()
                                    == getattr(want.training, attr).tobytes()), (name, attr)
                        assert got.k_c == want.k_c
                        for array in (got.clusters, got.outliers, got.outlier_score,
                                      got.training.indices, got.training.classes,
                                      got.training.weights):
                            array[...] = 3
                    orders.add(want.training.indices.tobytes())
                    counts["cells"] += 1
                    counts["over_normals"] += want.k_c > normals
                    counts["no_rows"] += stage.rows.size == 0
                    counts["zero_k"] += p.k == 0
                    counts["all_k"] += 0 < len(want.training) - normals == stage.unclustered.size
                    counts["no_unclustered"] += stage.unclustered.size == 0
                cache = stage._cells
                entries = list(cache.entries.values())
                counts["orders"] += len(orders)
                counts["entries"] += len(entries)
                # every entry is born split into its fixed rows' vote and its
                # live rows, with a layout, weights and chosen positions only
                # when some row is live
                assert all(isinstance(entry, pipeline._Entry) and all(
                    (part is None) == (entry.live.size == 0)
                    for part in (entry.layout, entry.weights, entry.chosen, entry.at))
                    for entry in entries), name
                counts["live"] += sum(entry.live.size > 0 for entry in entries)
                counts["fixed"] += sum(entry.live.size < stage.rows.size for entry in entries)
                # a set kept per order, at a k_c that the list can rank, in
                # two or more orders; no entry sits under a per-order set's key
                assert not cache.ordered & cache.entries.keys(), name
                counts["reordered"] += sum(
                    sum(key == other[:2] for other in cache.entries) > 1
                    for key in cache.ordered if key[0] <= index.near.shape[1])
    assert counts["cells"] >= 4500 and counts["refused"] > 0, counts
    assert counts["entries"] < counts["orders"] and counts["reordered"] > 0, counts
    assert min(counts[key] for key in ("over_normals", "no_rows", "zero_k", "all_k",
                                       "no_unclustered", "live", "fixed")) > 0, counts


def result_arrays(result) -> list:
    return [result.clusters, result.outliers, result.outlier_score, result.training.indices,
            result.training.classes, result.training.weights]


def assert_same_bytes(got, want, case):
    for a, b in zip(result_arrays(got), result_arrays(want)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), case
    assert got.k_c == want.k_c, case


def test_a_planned_cell_matches_an_unplanned_fresh_stage(monkeypatch):
    # Each stage plans blend_grid(0.2) in chunks of 1 to 21 cells (BLOCK_BYTES
    # set small) and finishes every chunk's cells in shuffled order, with a
    # cell not in the plan, and one cell twice, among them. Every result
    # equals, in every field's bytes and dtype, finish on a fresh copy of the
    # stage, whose first finish takes the unplanned path. The two results of
    # one cell share no memory, and every result's arrays are overwritten once
    # compared, which no later cell may see. Stages on all points, a few
    # hidden rows, no row, two clustered points (k_c above the normals) and no
    # unclustered point, on the cache fuzz data, whose `tenths` grid sends rows
    # to cross_nearest and so keys some sets per order. An explicit k above the
    # unclustered count is planned not at all and refused with today's
    # message, and so is another min_pts.
    rng = np.random.default_rng(139)
    counts = dict.fromkeys(("cells", "chunked", "whole", "unplanned", "twice", "refused",
                            "ordered", "two_sets", "two_live_sets", "no_rows",
                            "no_unclustered", "over_normals", "live"), 0)
    real_block = pipeline.BLOCK_BYTES
    for name, ds in cache_fuzz_datasets().items():
        index = build_index(ds, 3)
        for seed in range(2):
            labels = sample_labels(ds, 0.1, seed=seed)
            hidden = np.sort(rng.choice(ds.n, size=int(rng.integers(5, 40)), replace=False))
            staged = [prepare(index, labels), prepare(index, labels, hidden),
                      prepare(index, labels, [])]
            few = staged[0].assignment.copy()
            few[np.flatnonzero(few != UNCLUSTERED)[2:]] = UNCLUSTERED
            staged.append(replace(staged[0], assignment=few))
            full = np.where(staged[0].assignment == UNCLUSTERED, 0, staged[0].assignment)
            staged.append(replace(staged[0], assignment=full, auto_k=0))
            for stage in staged:
                k_c = int(rng.choice([1, 3, 5, metricspace.NEAR_K + 1]))
                k = rng.choice([None, 0, stage.unclustered.size, stage.unclustered.size + 1])
                base = PipelineParams(score=ScoreParams(0.0, 0.0, 3), k=k, k_c=k_c)
                blends = [replace(base, score=ScoreParams(a, b, 3)) for a, b in blend_grid(0.2)]
                block = int(rng.choice([1, 3000, 30000, real_block]))
                monkeypatch.setattr(pipeline, "BLOCK_BYTES", block)
                outside = replace(base, score=ScoreParams(0.25, 0.25, 3))
                done = 0
                for chunk in stage._cells.plan(stage, blends):
                    cells = list(chunk)
                    rng.shuffle(cells)
                    cells.insert(int(rng.integers(len(cells) + 1)), outside)
                    twice = cells[int(rng.integers(len(cells)))]
                    cells.insert(int(rng.integers(len(cells) + 1)), twice)
                    counts["chunked" if len(chunk) < len(blends) else "whole"] += 1
                    live_sets = {np.sort(r.training.indices).tobytes()
                                 for r in stage._cells.planned.values()
                                 if live_rows(stage, r).any()}
                    counts["two_sets"] += len({np.sort(r.training.indices).tobytes()
                                               for r in stage._cells.planned.values()}) > 1
                    counts["two_live_sets"] += len(live_sets) > 1
                    seen = {}
                    for p in cells:
                        try:
                            want = finish(replace(stage), p)
                        except ValueError as exc:  # an explicit k above the unclustered count
                            assert not stage._cells.planned
                            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                                finish(stage, p)
                            counts["refused"] += 1
                            continue
                        got = finish(stage, p)
                        assert_same_bytes(got, want, (name, p))
                        if p in seen:
                            assert not any(np.shares_memory(a, b) for a in result_arrays(got)
                                           for b in seen[p]), name
                            counts["twice"] += 1
                        seen[p] = result_arrays(got)
                        counts["unplanned"] += p == outside
                        counts["cells"] += 1
                        counts["live"] += bool(live_rows(stage, got).any())
                        for array in result_arrays(got):
                            array[...] = 3
                    done += len(chunk)
                    counts["no_rows"] += stage.rows.size == 0
                    counts["no_unclustered"] += stage.unclustered.size == 0
                    counts["over_normals"] += k_c > len(stage.normals)
                assert done == len(blends) and not stage._cells.planned
                counts["ordered"] += len(stage._cells.ordered)
    stage, p = prepare(index, labels), PipelineParams(score=ScoreParams(0.2, 0.2, 4))
    for chunk in stage._cells.plan(stage, [p, p]):
        with pytest.raises(ValueError, match=r"^stage min_pts=3 != params min_pts=4$"):
            finish(stage, p)
    assert counts["cells"] >= 1400 and min(counts.values()) > 0, counts


def test_a_planned_stage_searches_each_training_set_once(monkeypatch):
    # tune on a 30 x 30 integer grid, whose exact ties leave rows undecided
    # and send them to cross_nearest: each fold stage calls neighbours at most
    # once per k_c and chosen set, or per order for a set kept per order
    grid = np.array([(x, y) for x in range(30) for y in range(30)], dtype=float)
    truth = np.where(np.random.default_rng(5).random(900) < 0.05, OUTLIER,
                     (grid[:, 0] >= 15).astype(int))
    ds = Dataset(points=grid, truth=truth)
    stages, searched = [], []
    real_prepare, real_neighbours = pipeline.prepare, pipeline.neighbours

    def staging(*args):
        stages.append(real_prepare(*args))
        return stages[-1]

    def searching(ts, index, k_c, rows):
        chosen = ts.indices[len(stages[-1].normals):]
        searched.append((len(stages) - 1, k_c, np.sort(chosen).tobytes(), ts.indices.tobytes()))
        return real_neighbours(ts, index, k_c, rows)

    monkeypatch.setattr(pipeline, "prepare", staging)
    monkeypatch.setattr(pipeline, "neighbours", searching)
    tune(ds, sample_labels(ds, 0.1, seed=2), grid_step=0.1, folds=5, seed=2)
    keys = [(stage, k_c, chosen) + ((order,) if (k_c, chosen) in stages[stage]._cells.ordered
                                     else ())
            for stage, k_c, chosen, order in searched]
    assert len(stages) == 5 and len(keys) >= 40 and len(keys) == len(set(keys)), keys


def test_planning_a_fine_grid_holds_about_one_chunk():
    # a 0.01 grid's 5151 cells on a 3000-row stage: their results would need
    # 5151 x (17 x 3000 + 24 x (normals + k)) bytes, about 670 MB, at once,
    # but each chunk's blend matrix, results and vote hold about BLOCK_BYTES
    # and are gone once finish has read them, at the default k_c and at the
    # list's K, whose vote layouts are widest. Every cell chooses every
    # unclustered point, so the cache holds one entry per k_c, made before
    # memory is traced
    rng = np.random.default_rng(15)
    centres = rng.integers(3, size=3000)
    points = 6.0 * rng.normal(size=(3, 2))[centres] + rng.normal(size=(3000, 2))
    points[:300] = rng.uniform(-20, 20, size=(300, 2))
    ds = Dataset(points=points, truth=np.where(np.arange(3000) < 300, OUTLIER, centres))
    stage = prepare(build_index(ds, 3), sample_labels(ds, 0.05, seed=1))
    for k_c in (5, metricspace.NEAR_K):
        base = PipelineParams(score=ScoreParams(0.0, 0.0, 3), k=stage.unclustered.size, k_c=k_c)
        blends = [replace(base, score=ScoreParams(a, b, 3)) for a, b in blend_grid(0.01)]
        for chunk in stage._cells.plan(stage, blends[:2]):
            [finish(stage, p) for p in chunk]
        chunks = 0
        tracemalloc.start()
        try:
            for chunk in stage._cells.plan(stage, blends):
                chunks += 1
                for p in chunk:
                    assert len(finish(stage, p).training) == 3000
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        entry, = (e for key, e in stage._cells.entries.items() if key[0] == k_c)
        assert stage.unclustered.size > 200 and entry.live.size > 200, entry.live.size
        assert chunks > 500 and peak < 2 * pipeline.BLOCK_BYTES, (k_c, chunks, peak)
