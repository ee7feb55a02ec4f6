"""Reliable-set selection and the weighted kNN classifier."""

from dataclasses import replace
import re
import tracemalloc

import numpy as np
import pytest

from ssdbcodi import (OUTLIER, UNCLUSTERED, Dataset, TrainingSet, build_index, metricspace,
                     model, prepare, sample_labels)
from ssdbcodi.model import neighbours
from oracles import (as_dataset, classify, cross_distances, knn_predict_by_loop,
                     ranked_by_loop, select_reliable)


def make_assignment(assign):
    return np.asarray(assign, dtype=int)


def make_scores(r, t):
    return np.asarray(r, dtype=float), np.asarray(t, dtype=float)


def test_training_set_validation():
    with pytest.raises(ValueError, match="equal length"):
        TrainingSet(indices=[0, 1], classes=[0], weights=[0.5, 0.5])
    for indices in ([0, 0], [3, 1, 3], [-1, 2, -1]):  # adjacent, apart, negative
        with pytest.raises(ValueError, match="unique"):
            TrainingSet(indices=indices, classes=[0] * len(indices),
                        weights=[0.5] * len(indices))
    with pytest.raises(ValueError, match="cluster ids or OUTLIER"):
        TrainingSet(indices=[0], classes=[-2], weights=[0.5])
    for weights in ([1.5, 0.5], [np.nan, 0.5]):  # NaN fails both range comparisons
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            TrainingSet(indices=[0, 1], classes=[0, OUTLIER], weights=weights)
    # floats, booleans and 2-D input are refused, not cast
    for bad in ([0.9, 1.5], [True, False], [[0, 1]], np.array([0.0, 1.0])):
        with pytest.raises(ValueError, match="training indices must be a 1-D sequence"):
            TrainingSet(indices=bad, classes=[0, 1], weights=[1.0, 1.0])
        with pytest.raises(ValueError, match="training classes must be a 1-D sequence"):
            TrainingSet(indices=[0, 1], classes=bad, weights=[1.0, 1.0])
    ts = TrainingSet(indices=np.array([3, 1], dtype=np.int32), classes=[0, OUTLIER],
                     weights=[1.0, 0.25])
    assert ts.indices.dtype == int
    ts = TrainingSet(indices=[3, 1], classes=[0, OUTLIER], weights=[1.0, 0.25])
    assert len(ts) == 2
    assert (ts.indices.tolist(), ts.classes.tolist(), ts.weights.tolist()) == (
        [3, 1], [0, -1], [1.0, 0.25])


def test_select_reliable_worked_example():
    assignment = make_assignment([0, UNCLUSTERED, 1, UNCLUSTERED, UNCLUSTERED])
    r, t = make_scores(r=[0.9, 0.2, 0.8, 0.3, 0.4], t=[0.1, 0.7, 0.2, 0.7, 0.5])
    ts = select_reliable(assignment, r, t, k=2)
    assert ts.indices.tolist() == [0, 2, 1, 3]
    assert ts.classes.tolist() == [0, 1, OUTLIER, OUTLIER]
    assert ts.weights.tolist() == [0.9, 0.8, 0.7, 0.7]
    # tied t_score goes to the smaller index
    one = select_reliable(assignment, r, t, k=1)
    assert one.indices.tolist() == [0, 2, 1]
    none = select_reliable(assignment, r, t, k=0)
    assert none.indices.tolist() == [0, 2]


def test_select_reliable_rejects_bad_k():
    assignment = make_assignment([0, UNCLUSTERED])
    r, t = make_scores(r=[1.0, 0.5], t=[0.0, 0.5])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        select_reliable(assignment, r, t, k=2)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        select_reliable(assignment, r, t, k=-1)


def test_select_reliable_refuses_float_and_boolean_k():
    # 0.5 and np.float64(1.0) failed as slice indices, True in np.full
    assignment = make_assignment([0, UNCLUSTERED])
    r, t = make_scores(r=[1.0, 0.5], t=[0.0, 0.5])
    for bad in (0.5, 1.5, np.float64(1.0), 1.0, True, np.bool_(False)):
        message = rf"^k must be in \[0, 1\], got {re.escape(str(bad))}$"
        with pytest.raises(ValueError, match=message):
            select_reliable(assignment, r, t, k=bad)
    for good in (1, np.int64(1), np.int32(0)):
        assert len(select_reliable(assignment, r, t, k=good)) == 1 + good
    # an assignment that is not a 1-D integer array would give non-integer classes
    for bad in (assignment.astype(float), assignment != UNCLUSTERED, assignment[None, :],
                assignment.astype(np.uint64)):
        with pytest.raises(ValueError, match="assign must be a 1-D signed integer array"):
            select_reliable(bad, r, t, k=0)


def test_select_reliable_matches_lexsort_order():
    # The two-key order it replaced, on tie-heavy t_score grids.
    rng = np.random.default_rng(67)
    tied = 0
    for case in range(600):
        n = int(rng.integers(1, 40))
        assign = np.where(rng.random(n) < rng.random(), UNCLUSTERED,
                          rng.integers(0, 3, size=n))
        t = rng.choice([0.0, 0.25, 0.5, 1.0], size=n) if case % 2 else rng.random(n)
        r = rng.random(n)
        unclustered = np.flatnonzero(assign == UNCLUSTERED)
        k = int(rng.integers(0, unclustered.size + 1))
        want = unclustered[np.lexsort((unclustered, -t[unclustered]))[:k]]
        got = select_reliable(assign, r, t, k)
        assert got.indices[got.indices.size - k:].tobytes() == want.tobytes(), case
        assert got.weights.tobytes() == np.concatenate(
            [r[assign != UNCLUSTERED], t[want]]).tobytes(), case
        ranked = np.sort(t[unclustered])[::-1]
        tied += bool(0 < k < ranked.size and ranked[k - 1] == ranked[k])  # a tie at the cut
    assert tied >= 100


def classify_queries(features, classes, weights, k_c, queries):
    """classify() on features stacked over queries, trained on the feature
    rows in order; returns the labels of the query rows."""
    points = np.vstack([features, queries]).astype(float)
    m = len(features)
    ts = TrainingSet(indices=np.arange(m), classes=classes, weights=weights)
    got_c, got_s = classify(ts, points, k_c)
    return got_c[m:], got_s[m:]


def test_classifier_weighted_vote_worked_example():
    classes, score = classify_queries([[0.0], [1.0]], [0, OUTLIER], [1.0, 0.6], 2, [[0.4]])
    assert classes.tolist() == [0]
    assert score[0] == pytest.approx(0.6 / 1.6)


def test_classifier_tie_rules():
    # equal vote: a cluster beats OUTLIER
    classes, score = classify_queries([[0.0], [1.0]], [2, OUTLIER], [0.5, 0.5], 2, [[0.5]])
    assert classes.tolist() == [2]
    assert score[0] == pytest.approx(0.5)
    # equal vote between clusters: lower id wins
    classes, _ = classify_queries([[0.0], [1.0]], [3, 1], [0.5, 0.5], 2, [[0.5]])
    assert classes.tolist() == [1]


def test_classifier_all_outlier_neighbourhood():
    classes, score = classify_queries([[0.0], [1.0]], [OUTLIER, OUTLIER], [0.4, 0.2], 2,
                                      [[0.1]])
    assert classes.tolist() == [OUTLIER]
    assert score[0] == 1.0


def test_classifier_zero_total_weight():
    classes, score = classify_queries([[0.0], [1.0]], [OUTLIER, OUTLIER], [0.0, 0.0], 2,
                                      [[0.5]])
    assert classes.tolist() == [OUTLIER]
    assert score[0] == 0.0


def test_classifier_distance_tie_prefers_earlier_training_row():
    classes, _ = classify_queries([[1.0], [-1.0]], [4, 2], [1.0, 1.0], 1, [[0.0]])
    assert classes.tolist() == [4]
    # training-row position decides, not the dataset index
    points = np.array([[-1.0], [1.0], [0.0]])
    ts = TrainingSet(indices=[1, 0], classes=[4, 2], weights=[1.0, 1.0])
    assert classify(ts, points, 1)[0].tolist() == [2, 4, 4]


def test_classifier_rejects_bad_queries():
    # squared norms that overflow would leave NaN distances to select from;
    # a NaN point is refused by its Dataset before any index is built
    ts = TrainingSet(indices=[0], classes=[0], weights=[1.0])
    for bad, message in (([1e200, 0.0], "squared norm"), ([np.nan, 0.0], "finite")):
        with pytest.raises(ValueError, match=message):
            classify(ts, np.array([[0.0, 0.0], bad]), 1)


def test_train_builds_from_dataset_indices():
    points = np.array([[0.0], [10.0], [20.0], [30.0], [19.0], [1.0]])
    ts = TrainingSet(indices=[2, 0], classes=[1, OUTLIER], weights=[0.9, 0.4])
    classes, score = classify(ts, points, 1)
    # 10.0 sits midway between the training rows: the first one, point 2, wins
    assert classes.tolist() == [OUTLIER, 1, 1, 1, 1, OUTLIER]
    assert score.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 1.0]


def test_classifier_rejects_bad_construction():
    points = np.array([[0.0], [1.0], [2.0], [3.0]])
    ts = TrainingSet(indices=[0, 1, 2], classes=[0, 1, OUTLIER], weights=[1.0, 0.5, 0.25])
    with pytest.raises(ValueError, match=r"k_c must be in \[1, 3\], got 0"):
        classify(ts, points, 0)
    with pytest.raises(ValueError, match=r"k_c must be in \[1, 3\], got 4"):
        classify(ts, points, 4)


def test_train_validation():
    points = np.array([[0.0], [1.0]])
    ts = TrainingSet(indices=[0], classes=[0], weights=[1.0])
    with pytest.raises(ValueError, match=r"\[1, 1\]"):
        classify(ts, points, 2)
    with pytest.raises(ValueError, match=r"\[1, 1\]"):
        classify(ts, points, 0)
    empty = TrainingSet(indices=np.array([], dtype=int),
                        classes=np.array([], dtype=int),
                        weights=np.array([], dtype=float))
    with pytest.raises(ValueError, match="empty"):
        classify(empty, points, 1)


def naive_predict(features, classes, weights, k_c, queries):
    out_class = []
    out_score = []
    for q in queries:
        d = [float(np.linalg.norm(q - f)) for f in features]
        nbrs = sorted(range(len(features)), key=lambda j: (d[j], j))[:k_c]
        votes = {}
        for j in nbrs:
            votes[int(classes[j])] = votes.get(int(classes[j]), 0.0) + float(weights[j])
        top = max(votes.values())
        winners = sorted(c for c, v in votes.items() if v == top and c != OUTLIER)
        out_class.append(winners[0] if winners else OUTLIER)
        total = sum(votes.values())
        out_score.append(votes.get(OUTLIER, 0.0) / total if total > 0 else 0.0)
    return np.array(out_class), np.array(out_score)


def test_classifier_matches_naive_route():
    rng = np.random.default_rng(31)
    for _ in range(40):
        m = int(rng.integers(2, 12))
        d = int(rng.integers(1, 3))
        # integer grid coordinates make distance ties exact in both routes
        features = rng.integers(-4, 5, size=(m, d)).astype(float)
        classes = rng.integers(-1, 3, size=m)
        weights = rng.uniform(0.0, 1.0, size=m)
        k_c = int(rng.integers(1, m + 1))
        queries = rng.integers(-4, 5, size=(6, d)).astype(float)
        got_c, got_s = classify_queries(features, classes, weights, k_c, queries)
        want_c, want_s = naive_predict(features, classes, weights, k_c, queries)
        assert np.array_equal(got_c, want_c)
        assert np.allclose(got_s, want_s, atol=1e-12)


def random_training(rng, points, class_pool, weight_pool):
    """A TrainingSet over a random subset of the rows, in random order."""
    m = int(rng.integers(1, points.shape[0] + 1))
    return TrainingSet(indices=rng.permutation(points.shape[0])[:m],
                       classes=rng.choice(class_pool, size=m),
                       weights=rng.choice(weight_pool, size=m))


def test_predict_points_matches_loop_oracle_bit_for_bit():
    rng = np.random.default_rng(47)
    # 0.1 + 0.2 + 0.3 rounds differently in another order; 0.0 and -0.0
    # votes are real, and -0.0 adds to a class's sum as +0.0 does
    weight_pool = np.array([0.0, -0.0, 0.0, 0.1, 0.2, 0.3, 0.5, 0.5, 1.0])
    # every third training set has no OUTLIER class
    class_pools = [np.array([OUTLIER, 0, 2, 5, 9]), np.array([OUTLIER, 0, 2, 5, 9]),
                   np.array([0, 2, 5, 9])]
    tied_rows = wide = no_outlier = 0
    for case in range(2000):
        n = int(rng.integers(1, 25))
        dim = int(rng.integers(1, 4))
        if case % 2:
            # a 0-2 integer grid makes distances tie across the k-cut
            points = rng.integers(0, 3, size=(n, dim)).astype(float)
        else:
            points = rng.normal(size=(n, dim))
        ts = random_training(rng, points, class_pools[case % 3], weight_pool)
        m = len(ts)
        # every fourth case takes k_c >= 9 where it can: past numpy's
        # 8-element block, a pairwise sum would add in another order
        k_c = int(rng.integers(min(9, m) if case % 4 == 0 else 1, m + 1))
        wide += k_c >= 9
        no_outlier += OUTLIER not in ts.classes
        got_c, got_s = classify(ts, points, k_c)
        want_c, want_s = knn_predict_by_loop(ts, points, k_c)
        assert np.array_equal(got_c, want_c), case
        assert got_s.tobytes() == want_s.tobytes(), case
        if k_c < m:
            ranked = np.sort(cross_distances(points, points[ts.indices]), axis=1)
            tied_rows += int(np.sum(ranked[:, k_c - 1] == ranked[:, k_c]))
    assert tied_rows >= 100 and wide >= 250 and no_outlier >= 900, (tied_rows, wide, no_outlier)


def test_predict_points_in_row_blocks_matches_one_block(monkeypatch):
    # blocks of one or a few rows, on grids with ties across the k-cut
    rng = np.random.default_rng(59)
    for case in range(80):
        n = int(rng.integers(2, 100))
        if case % 2:
            points = rng.integers(0, 3, size=(n, 2)).astype(float)
        else:
            points = rng.normal(size=(n, 2))
        ts = random_training(rng, points, np.arange(-1, 3), np.linspace(0.0, 1.0, 11))
        m = len(ts)
        k_c = int(rng.integers(1, m + 1))
        monkeypatch.setattr(metricspace, "BLOCK_BYTES", 1 << 20)
        want_c, want_s = classify(ts, points, k_c)
        monkeypatch.setattr(metricspace, "BLOCK_BYTES", int(rng.choice([8, 8 * m, 24 * m])))
        got_c, got_s = classify(ts, points, k_c)
        assert got_c.tobytes() == want_c.tobytes(), case
        assert got_s.tobytes() == want_s.tobytes(), case
        oracle_c, oracle_s = knn_predict_by_loop(ts, points, k_c)
        assert np.array_equal(got_c, oracle_c), case
        assert got_s.tobytes() == oracle_s.tobytes(), case


def test_predict_points_holds_one_distance_matrix(monkeypatch):
    # the rows the list ranks need no distance array; rows it cannot rank
    # (every row at k_c = NEAR_K + 1) hold the n x m product on the traced
    # heap, and no row x training index array
    monkeypatch.setattr(metricspace, "BLOCK_BYTES", 1 << 14)
    rng = np.random.default_rng(61)
    idx = build_index(as_dataset(rng.normal(size=(700, 3))), 3)
    ts = TrainingSet(indices=rng.permutation(700)[:600],
                     classes=rng.integers(-1, 3, size=600),
                     weights=rng.uniform(0.0, 1.0, size=600))
    peaks = {}
    for k_c in (5, metricspace.NEAR_K + 1):
        tracemalloc.start()
        try:
            neighbours(ts, idx, k_c, np.arange(idx.n))
            peaks[k_c] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[5] < 8 * 700 * 600 / 4
    assert 8 * 700 * 600 <= peaks[metricspace.NEAR_K + 1] < 1.25 * 8 * 700 * 600


def test_second_level_opens_one_workspace_of_its_rows(monkeypatch):
    # a training set without the third blob leaves its 300 rows no training
    # row on their lists; the second level settles every one of them from
    # one workspace of its rows by the training rows, and a workspace above
    # the physical memory is refused before anything of it is allocated
    rng = np.random.default_rng(97)
    groups = np.repeat(np.arange(3), 300)
    idx = build_index(as_dataset(8.0 * rng.normal(size=(3, 3))[groups]
                                 + rng.normal(size=(900, 3))), 3)
    kept = np.flatnonzero(groups < 2)
    ts = TrainingSet(indices=kept, classes=groups[kept], weights=np.ones(kept.size))
    want = metricspace.cross_nearest(idx.points, idx.points[ts.indices], 5)
    opened, seconds, searched = [], [], []
    workspace, fresh = metricspace._workspace, model._fresh_nearest
    monkeypatch.setattr(metricspace, "_workspace",
                        lambda shape, *beside: opened.append(shape) or workspace(shape, *beside))
    monkeypatch.setattr(model, "_fresh_nearest",
                        lambda p, rows, c, sq, k: seconds.append(len(rows)) or fresh(p, rows, c, sq, k))
    monkeypatch.setattr(model, "cross_nearest", lambda *args: searched.append(args))
    every = np.arange(idx.n)
    got, left = neighbours(ts, idx, 5, every)
    assert got.tobytes() == want.tobytes() and searched == [] and left.size == 0
    [rows] = seconds
    assert rows >= 300 and opened == [(rows, kept.size)]
    nbytes = 8 * rows * kept.size
    monkeypatch.setattr(metricspace, "_MEMORY_BYTES", nbytes - 1)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError) as refused:
            neighbours(ts, idx, 5, every)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == (f"a {rows} x {kept.size} distance workspace needs {nbytes} "
                                  f"bytes, more than the {nbytes - 1} bytes of physical memory")
    assert peak < nbytes // 2
    monkeypatch.setattr(metricspace, "_MEMORY_BYTES", nbytes)
    assert neighbours(ts, idx, 5, every)[0].tobytes() == want.tobytes() and searched == []


def listed_case(rng, case):
    """(points, training set, k_c, rows) for the list-versus-search fuzz:
    blobs, points on a sphere around its centres, 0.1-step and integer
    grids, each with duplicated rows every third case; training sets that drop
    whole clusters; k_c from 1 to NEAR_K + 1; rows given or not."""
    n, dim = int(rng.integers(40, 130)), int(rng.integers(1, 5))
    groups = rng.integers(int(rng.integers(1, 5)), size=n)
    kind = case % 4
    if kind == 0:  # blobs
        points = 6.0 * rng.normal(size=(groups.max() + 1, dim))[groups] + rng.normal(size=(n, dim))
    elif kind == 1:  # a sphere of radius 0.3 around each centre: near-ties from the centres
        ray = rng.normal(size=(n, dim))
        ray *= 0.3 / np.linalg.norm(ray, axis=1, keepdims=True)
        centres = 5.0 * rng.normal(size=(groups.max() + 1, dim))
        points = centres[groups] + ray
        points[:groups.max() + 1] = centres
        groups[:groups.max() + 1] = np.arange(groups.max() + 1)
    else:  # grids of integers or of tenths
        points = (rng.integers(0, 4, size=(n, dim)) + 5 * groups[:, None]).astype(float)
        points /= 10.0 if kind == 3 else 1.0
    if case % 3 == 0:
        points[rng.integers(n, size=n // 4)] = points[rng.integers(n, size=n // 4)]
    n_groups = groups.max() + 1
    kept = np.isin(groups, rng.permutation(n_groups)[:int(rng.integers(1, n_groups + 1))])
    pool = np.flatnonzero(kept if rng.random() < 0.5 else np.ones(n, dtype=bool))
    picked = rng.permutation(pool)[:int(rng.integers(1, pool.size + 1))]
    ts = TrainingSet(indices=picked, classes=np.zeros(picked.size, dtype=int),
                     weights=np.ones(picked.size))
    k_c = int(min(rng.choice([1, 2, 3, 5, 8, metricspace.NEAR_K, metricspace.NEAR_K + 1]),
                  picked.size))
    rows = None if rng.random() < 0.5 else rng.integers(n, size=int(rng.integers(1, 2 * n)))
    return points, ts, k_c, rows


def full_windows(idx, ts, k_c, searched) -> np.ndarray:
    """Whether each searched row's window, itself and then the first k_c
    members of its list, holds training rows only."""
    return np.isin(np.column_stack([searched, idx.near[searched, :k_c]]), ts.indices).all(axis=1)


def test_listed_neighbours_match_the_search_bytes(monkeypatch):
    # every row's neighbours, however found, equal the all-rows search's; in
    # every kind of case some rows are decided by each route: the window, the
    # rest of the list, the second level and (exact or decimal ties) the
    # whole product
    seconds, searched = [], []
    fresh, real = model._fresh_nearest, model.cross_nearest
    monkeypatch.setattr(model, "_fresh_nearest",
                        lambda p, rows, c, sq, k: seconds.append(rows) or fresh(p, rows, c, sq, k))
    monkeypatch.setattr(model, "cross_nearest",
                        lambda a, b, k, rows: searched.append(len(rows)) or real(a, b, k, rows))
    rng = np.random.default_rng(89)
    decided, at_k = np.zeros((4, 4), dtype=int), 0  # kind x (window, rest, second, whole)
    listed, fell_back = np.zeros(4, dtype=int), np.zeros(4, dtype=int)
    for case in range(240):
        points, ts, k_c, rows = listed_case(rng, case)
        idx = build_index(as_dataset(points), int(rng.integers(1, 6)))
        want = real(idx.points, idx.points[ts.indices], k_c, rows)
        seconds.clear()
        searched.clear()
        if rows is None:  # the search's all-rows mode against every row listed
            rows = np.arange(idx.n)
        got, left = neighbours(ts, idx, k_c, rows)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), case
        # it reports the rows it sent to the whole product
        assert left.size == sum(searched), case
        listed[case % 4] += want.shape[0] - sum(searched)
        fell_back[case % 4] += sum(searched)
        at_k += k_c >= metricspace.NEAR_K
        if k_c > idx.near.shape[1]:
            assert seconds == [] and searched == [want.shape[0]], case
            continue
        # a row's route depends on its point alone, so repeated rows share it
        second = np.isin(rows, np.concatenate(seconds) if seconds else [])
        full = full_windows(idx, ts, k_c, rows)
        whole = sum(searched)
        decided[case % 4] += [(full & ~second).sum(), (~full & ~second).sum(),
                              second.sum() - whole, whole]
    # every kind of case has rows the whole product searches and rows it
    # does not; the integer grids' (kind 2) exact ties still reach it
    assert (listed > 100).all() and (fell_back > 100).all() and at_k >= 20, (listed, fell_back)
    assert (decided > 0).all(), decided


def test_listed_neighbours_read_the_index_squared_norms(monkeypatch):
    # the ranking bound reads the squared norms the index keeps: a lookup
    # that the list decides for every row computes none, and norms that
    # widen the bound past every gap send every row through the second level
    # to the search
    rng = np.random.default_rng(91)
    idx = build_index(as_dataset(rng.normal(size=(200, 2))), 3)
    ts = TrainingSet(indices=np.arange(0, 200, 2), classes=np.zeros(100, dtype=int),
                     weights=np.ones(100))
    calls, real = [], metricspace.squared_norms
    monkeypatch.setattr(metricspace, "squared_norms", lambda p: calls.append(p) or real(p))
    searched, search = [], model.cross_nearest
    monkeypatch.setattr(model, "cross_nearest",
                        lambda a, b, k, rows: searched.append(len(rows)) or search(a, b, k, rows))
    got, left = neighbours(ts, idx, 3, np.arange(idx.n))
    assert searched == [] and calls == [] and left.size == 0
    wide, left = neighbours(ts, replace(idx, sq_norms=np.full(idx.n, 1e300)), 3, np.arange(idx.n))
    assert searched == [200] and wide.tobytes() == got.tobytes()
    assert left.tolist() == list(range(200))


def test_ranked_matches_the_rule_row_by_row():
    # model._ranked against ranked_by_loop on integer and tenths grids,
    # Gaussian blobs among scattered outliers and the same with coincident
    # points, at k_c of 1, 5 and NEAR_K, counting a stage's normals and a
    # training set's rows: the rows it ranks, their first k_c counted
    # candidates, 4B per row, and the ranked rows it read off their whole
    # list (those whose window holds a point that does not count), with
    # those candidates. Lists with fewer than, exactly and more than k_c
    # counted candidates all occur, and so do ranked rows with exactly k_c.
    rng = np.random.default_rng(131)
    seen = dict.fromkeys(("fewer", "exactly", "more", "exactly_ranked", "window", "whole",
                          "unranked"), 0)
    for case in range(24):
        n, kind = 150, case % 4
        groups = rng.integers(3, size=n)
        if kind < 2:  # an integer grid, or the same at a 0.1 step
            points = (rng.integers(0, 6, size=(n, 2)) + 8 * groups[:, None]).astype(float)
            points /= 10.0 if kind else 1.0
        else:  # blobs among 40% scattered outliers, some coincident
            points = 5.0 * rng.normal(size=(3, 3))[groups] + rng.normal(size=(n, 3))
            points[:60] = rng.uniform(-10, 10, size=(60, 3))
            if kind == 3:
                points[rng.integers(n, size=n // 4)] = points[rng.integers(n, size=n // 4)]
        ds = Dataset(points=points, truth=np.where(np.arange(n) < 60, OUTLIER, groups))
        index = build_index(ds, int(rng.integers(1, 5)))
        normals = prepare(index, sample_labels(ds, 0.1, seed=case)).assignment != UNCLUSTERED
        training = normals.copy()  # the normals and some unclustered points
        training[rng.permutation(np.flatnonzero(~normals))[:int(rng.integers(0, 20))]] = True
        rows = np.arange(n) if case % 3 else rng.integers(n, size=2 * n)
        for count in (normals, training):
            counted = count[np.column_stack([rows, index.near[rows]])].sum(axis=1)
            for k_c in (1, 5, metricspace.NEAR_K):
                ranked, first, four_b, whole, cand = model._ranked(index, rows, k_c, count)
                want, want_first = ranked_by_loop(index, rows, k_c, count)
                assert ranked.tolist() == want.tolist(), (case, k_c)
                assert first.shape == (k_c, rows.size)
                assert first.T[ranked].tolist() == [f for f in want_first if f is not None]
                scale = 4 * (2 * points.shape[1] + 8) * np.finfo(float).eps
                assert four_b.tobytes() == (scale * (index.sq_norms[rows] + index.sq_max)).tobytes()
                in_window = count[np.column_stack([rows, index.near[rows, :k_c]])].all(axis=1)
                assert whole.tolist() == np.flatnonzero(ranked & ~in_window).tolist()
                assert cand.tolist() == np.column_stack([rows[whole],
                                                         index.near[rows[whole]]]).tolist()
                seen["fewer"] += int((counted < k_c).sum())
                seen["exactly"] += int((counted == k_c).sum())
                seen["more"] += int((counted > k_c).sum())
                seen["exactly_ranked"] += int((ranked & (counted == k_c)).sum())
                seen["window"] += int((ranked & in_window).sum())
                seen["whole"] += whole.size
                seen["unranked"] += int((~ranked).sum())
    assert min(seen.values()) > 0, seen


def test_a_vote_over_given_ids_matches_the_tables_own_ids():
    # tie-heavy tables (few classes per row, zero and tied weights, k of 1,
    # one class, every neighbour OUTLIER, ids up to 2**62, no row) voted over
    # a layout whose given ids add classes no neighbour holds, OUTLIER among
    # them or not, have the bits of their own layout's vote; and two tables
    # laid out over the same ids and voted side by side, the second's cells
    # counted on from the first's, have the bits of their separate votes
    rng = np.random.default_rng(151)
    big = 2**62
    seen = dict.fromkeys(("extra_outlier", "no_outlier", "no_row", "k1", "zero"), 0)
    for case in range(600):
        pool = [np.array([OUTLIER]), np.array([7]), np.array([OUTLIER, 0, 1]),
                np.array([3, big]), rng.integers(0, big, size=3)][case % 5]
        tables = []
        k = int(rng.integers(1, 6))
        for _ in range(2):
            n = int(rng.integers(0, 30)) if case % 20 else 0
            classes = rng.choice(pool, size=(k, n))
            weights = rng.choice([0.0, 0.25, 0.5, 1.0, 5e-324], size=(k, n))
            tables.append((classes, weights * (case % 3 > 0)))
        extra = rng.choice(np.array([OUTLIER, 5, 11, big - 1]), size=int(rng.integers(0, 3)))
        ids = np.union1d(pool, extra)
        voted = []
        for classes, weights in tables:
            want = model.vote(model._vote_layout(classes), weights)
            got = model.vote(model._vote_layout(classes, ids), weights)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), case
            voted.append(want)
        layouts = [model._vote_layout(classes, ids) for classes, _ in tables]
        offset = ids.size * tables[0][0].shape[1]
        side = (ids, np.concatenate([layouts[0][1], layouts[1][1] + offset], axis=1),
                np.concatenate([layouts[0][2], layouts[1][2]], axis=1),
                np.concatenate([layouts[0][3], layouts[1][3]]))
        got = model.vote(side, np.concatenate([tables[0][1], tables[1][1]], axis=1))
        for a, b in zip(got, (np.concatenate(parts) for parts in zip(*voted))):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), case
        seen["extra_outlier"] += OUTLIER in ids and OUTLIER not in np.concatenate(
            [classes.ravel() for classes, _ in tables])
        seen["no_outlier"] += OUTLIER not in ids
        seen["no_row"] += any(classes.shape[1] == 0 for classes, _ in tables)
        seen["k1"] += k == 1
        seen["zero"] += case % 3 == 0
    assert min(seen.values()) >= 20, seen
