"""End-to-end pipeline behaviour and blend-weight tuning."""

from dataclasses import replace
import re
from types import SimpleNamespace

import numpy as np
import pytest

from ssdbcodi import (Dataset, LabelSet, OUTLIER, UNCLUSTERED, PipelineParams,
                      ScoreParams, blend_grid, build_index, default_k, finish, metricspace,
                      pipeline, prepare, run, sample_labels, t_score, tune)
from ssdbcodi.pipeline import _drop_labels, _fold_partition, grid_size
from oracles import fold_objective, moons_with_outliers, tune_by_cells

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
    # predicted and labeled ids need not be contiguous. The oracle scores by
    # the former rank and contingency forms, which test_metrics holds the
    # public metrics to bit for bit
    rng = np.random.default_rng(67)
    score_pool = np.array([0.0, 0.25, 1 / 3, 0.5, 1.0])
    id_pools = [np.array([0, 1, 2]), np.array([3, 17]), np.array([5])]
    kinds = {"mixed": 0, "all outliers": 0, "no outlier": 0, "none": 0}
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
        scores = rng.choice(pool, size=n)
        clusters = rng.choice(np.append(np.unique(assignment[assignment != UNCLUSTERED]), OUTLIER),
                              size=n)
        everything = SimpleNamespace(clusters=clusters, outlier_score=scores)
        rows = SimpleNamespace(clusters=clusters[hidden], outlier_score=scores[hidden])
        want = fold_objective(everything, hidden, labels)
        got = pipeline._fold_objective(assignment, hidden, labels)(rows)
        if want is None:
            assert got is None, case
            kinds["none"] += 1
            continue
        assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes(), case
        kinds["mixed" if 0 < outlier.sum() < m else "all outliers" if outlier.all()
              else "no outlier"] += 1
        ties += int((scores[hidden][outlier][:, None] == scores[hidden][~outlier]).sum())
    assert min(kinds.values()) >= 20 and ties >= 10000, (kinds, ties)


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
        for refuse in (grid_size, blend_grid,
                       lambda s: tune(BLOBS, tune_labels(), grid_step=s, folds=2)):
            with pytest.raises(ValueError, match="grid_step must be at least 0.01"):
                refuse(step)
    assert grid_size(0.01) == 100 and len(blend_grid(0.01)) == 5151
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


def counted_searches(monkeypatch) -> list:
    """Replace finish's neighbour search with one that records its calls."""
    calls = []
    real = pipeline.neighbours

    def counting(ts, index, k_c, rows=None):
        calls.append(len(ts))
        return real(ts, index, k_c, rows)

    monkeypatch.setattr(pipeline, "neighbours", counting)
    return calls


def test_finish_reuses_neighbours_per_training_set(monkeypatch):
    ds = moons_with_outliers(n=200)
    labels = sample_labels(ds, 0.1, seed=3)
    calls = counted_searches(monkeypatch)
    prepared = prepare(build_index(ds, 3), labels)
    params = [PipelineParams(score=ScoreParams(0.4, 0.3, 3), k_c=k_c) for k_c in (3, 5, 3)]
    cached = [finish(prepared, p) for p in params]
    assert len(calls) == 2
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


def test_tune_searches_neighbours_once_per_fold_and_training_set(monkeypatch):
    ds = moons_with_outliers(n=200)
    labels = sample_labels(ds, 0.1, seed=5)
    calls = counted_searches(monkeypatch)
    finished, voted = [], []
    real_finish, real_vote = pipeline.finish, pipeline.vote

    def recording(prepared, params):
        result = real_finish(prepared, params)
        finished.append((prepared, result.k_c, result.training.indices.tobytes(),
                         prepared.rows))
        return result

    def counting_vote(ts, nbrs):
        voted.append(nbrs.shape[0])
        return real_vote(ts, nbrs)

    monkeypatch.setattr(pipeline, "finish", recording)
    monkeypatch.setattr(pipeline, "vote", counting_vote)
    tune(ds, labels, grid_step=0.2, folds=5, seed=5,
         params=PipelineParams(score=ScoreParams(0.0, 0.0, 3)))
    # Holding every stage keeps their ids distinct.
    distinct = {(id(prepared), k_c, key) for prepared, k_c, key, _ in finished}
    assert len(finished) == 5 * len(blend_grid(0.2))
    assert len(calls) == len(distinct) < len(finished)
    # Each fold's finishes classify exactly its hidden rows, sorted.
    hidden = [sorted(h) for h in _fold_partition(labels, 5, 5)]
    assert [list(rows) for *_, rows in finished] == [
        h for h in hidden for _ in blend_grid(0.2)]
    assert voted == [len(rows) for *_, rows in finished]


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
