"""Score definitions, bounds, and blend behaviour."""

import math
import tracemalloc

import numpy as np
import pytest

from ssdbcodi import (OUTLIER, Dataset, LabelSet, PipelineParams, ScoreParams, ScoreTable,
                      build_index, expand, l_score, prepare, r_score, run, sim_scores,
                      t_score)
from oracles import (as_dataset, average_ranks, local_density, random_labelset, random_points,
                     sim_score, sim_scores_by_broadcast)

LINE = Dataset(points=[[0.0], [1.0], [3.0], [7.0]], truth=[0, 0, 0, 0])


def test_r_score_values():
    out = r_score(np.array([0.0, math.log(2.0)]))
    assert out[0] == 1.0
    assert out[1] == pytest.approx(0.5, abs=1e-15)
    for bad in ([-0.1], [0.0, np.nan]):
        with pytest.raises(ValueError, match="non-negative"):
            r_score(np.array(bad))


def test_r_score_is_one_exactly_on_labeled_normals():
    rng = np.random.default_rng(4)
    for _ in range(20):
        pts = random_points(rng)
        idx = build_index(as_dataset(pts), 2)
        labels = random_labelset(rng, idx.n)
        r = r_score(expand(idx, labels)[1])
        for root in labels.normal:
            assert r[root] == 1.0
        assert np.all((r > 0) & (r <= 1.0))


def test_local_density_worked_examples():
    idx = build_index(LINE, 2)
    assert local_density(idx, 0) == 3.0
    two = build_index(Dataset(points=[[0.0], [5.0]], truth=[0, 0]), 1)
    assert local_density(two, 0) == 5.0
    dup = build_index(Dataset(points=[[1.0]] * 3, truth=[0] * 3), 2)
    assert local_density(dup, 0) == 0.0


def test_local_densities_matches_pointwise():
    rng = np.random.default_rng(8)
    for _ in range(10):
        pts = random_points(rng)
        idx = build_index(as_dataset(pts), int(rng.integers(1, 4)))
        vec = idx.density
        for q in range(idx.n):
            assert vec[q] == pytest.approx(local_density(idx, q), rel=1e-12)


def test_local_density_invariant_under_far_point_permutations():
    # moving an unrelated far point does not change q's neighbourhood mean
    base = [[0.0], [1.0], [2.0], [50.0]]
    moved = [[0.0], [1.0], [2.0], [80.0]]
    a = build_index(Dataset(points=base, truth=[0] * 4), 2)
    b = build_index(Dataset(points=moved, truth=[0] * 4), 2)
    assert local_density(a, 0) == local_density(b, 0)


def test_l_score_values():
    out = l_score(np.array([0.0, math.log(10.0)]))
    assert out[0] == 1.0
    assert out[1] == pytest.approx(0.1, abs=1e-15)
    for bad in ([-1e-9], [0.0, np.nan]):
        with pytest.raises(ValueError, match="non-negative"):
            l_score(np.array(bad))


def test_sim_score_values():
    ds = Dataset(points=[[0.0], [1.0], [5.0]], truth=[0, 0, 0])
    labels = LabelSet(normal={1: 0}, outliers=frozenset([0]))
    assert sim_score(ds, labels, 0) == 1.0  # sits on a labeled outlier
    assert sim_score(ds, labels, 1) == pytest.approx(math.exp(-1.0), abs=1e-15)
    empty = LabelSet(normal={1: 0}, outliers=frozenset())
    assert sim_score(ds, empty, 0) == 0.0
    assert sim_scores(ds.points, empty).tolist() == [0.0, 0.0, 0.0]


def test_sim_scores_vector_matches_pointwise():
    rng = np.random.default_rng(12)
    pts = random_points(rng, n=20, d=2)
    ds = Dataset(points=pts, truth=[0] * 20)
    labels = LabelSet(normal={0: 0}, outliers=frozenset([3, 11]))
    vec = sim_scores(ds.points, labels)
    for q in range(20):
        assert vec[q] == sim_score(ds, labels, q)


def test_sim_scores_match_broadcast_bytes():
    # odd cases sit on a 0-2 grid, so distances tie and points repeat; some
    # cases label no outlier
    rng = np.random.default_rng(13)
    for case in range(400):
        n, d = int(rng.integers(2, 60)), int(rng.integers(1, 40))
        if case % 2:
            pts = rng.integers(0, 3, size=(n, d)).astype(float)
        else:
            pts = rng.normal(size=(n, d))
        ds = Dataset(points=pts, truth=[0] * n)
        outs = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
        labels = LabelSet(normal={}, outliers=frozenset(outs.tolist()))
        want = sim_scores_by_broadcast(ds, labels)
        assert sim_scores(ds.points, labels).tobytes() == want.tobytes(), case


def test_sim_scores_hold_one_point_matrix_at_a_time():
    n, d, o = 3000, 16, 300
    ds = Dataset(points=np.random.default_rng(14).normal(size=(n, d)), truth=[0] * n)
    labels = LabelSet(normal={}, outliers=frozenset(range(0, n, n // o)))
    tracemalloc.start()
    try:
        sim_scores(ds.points, labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the n x o x d broadcast would need 8 * n * o * d bytes, about 110 MiB
    assert peak < 3 * 2**20


def test_score_params_validation():
    with pytest.raises(ValueError, match="alpha"):
        ScoreParams(alpha=-0.1, beta=0.0)
    with pytest.raises(ValueError, match="beta"):
        ScoreParams(alpha=0.0, beta=1.2)
    with pytest.raises(ValueError, match="exceed 1"):
        ScoreParams(alpha=0.7, beta=0.7)
    # no slack: one let t_score pass 1 where r and l underflow to 0, and
    # TrainingSet then refused the reliable outliers' weights
    with pytest.raises(ValueError, match=r"alpha \+ beta must not exceed 1"):
        ScoreParams(alpha=0.5, beta=0.5000000001)
    assert ScoreParams(alpha=0.5, beta=0.5).beta == 0.5
    with pytest.raises(ValueError, match="min_pts"):
        ScoreParams(alpha=0.1, beta=0.1, min_pts=0)


def test_t_score_stays_in_unit_interval_where_r_and_l_underflow():
    rng = np.random.default_rng(17)
    alpha = rng.uniform(size=20000)
    # half the blends sit on the alpha + beta = 1 edge, where rounding could pass 1
    beta = np.where(rng.random(alpha.size) < 0.5, 1.0 - alpha,
                    rng.uniform(size=alpha.size) * (1.0 - alpha))
    table = ScoreTable(r_score=np.zeros(1), l_score=np.zeros(1), sim_score=np.ones(1))
    admitted = 0
    for a, b in zip(alpha.tolist(), beta.tolist()):
        if a + b <= 1.0:  # the blends ScoreParams admits
            t = t_score(table, ScoreParams(a, b))
            assert 0.0 <= t[0] <= 1.0, (a, b)
            admitted += 1
    assert admitted >= 15000, admitted


def test_score_params_refuse_float_and_boolean_min_pts():
    # these reached numpy's partition, which cast or refused them there
    for bad in (2.7, 3.0, np.float64(3.0), True, np.bool_(True)):
        with pytest.raises(ValueError, match="min_pts must be an integer"):
            ScoreParams(0.4, 0.3, bad)
    assert ScoreParams(0.4, 0.3, np.int64(3)).min_pts == 3


def test_t_score_collapses_to_named_components():
    rng = np.random.default_rng(13)
    r = rng.uniform(0.01, 1.0, size=30)
    l = rng.uniform(0.01, 1.0, size=30)
    s = rng.uniform(0.0, 1.0, size=30)
    table = ScoreTable(r_score=r, l_score=l, sim_score=s)
    assert np.array_equal(t_score(table, ScoreParams(1.0, 0.0)), 1.0 - r)
    assert np.array_equal(t_score(table, ScoreParams(0.0, 0.0)), s)
    perfect = ScoreTable(r_score=np.ones(3), l_score=np.ones(3),
                         sim_score=np.zeros(3))
    third = t_score(perfect, ScoreParams(1 / 3, 1 / 3))
    assert np.all(third == 0.0)


def test_t_score_bounds_fuzz():
    rng = np.random.default_rng(14)
    for _ in range(200):
        n = int(rng.integers(1, 50))
        table = ScoreTable(
            r_score=rng.uniform(0.0, 1.0, size=n),
            l_score=rng.uniform(0.0, 1.0, size=n),
            sim_score=rng.uniform(0.0, 1.0, size=n),
        )
        alpha = float(rng.uniform(0.0, 1.0))
        beta = float(rng.uniform(0.0, 1.0 - alpha))
        t = t_score(table, ScoreParams(alpha, beta))
        assert np.all(t >= 0.0) and np.all(t <= 1.0)


def test_t_score_rank_identity_at_alpha_one():
    rng = np.random.default_rng(15)
    for _ in range(50):
        n = int(rng.integers(2, 60))
        r = rng.uniform(0.001, 1.0, size=n)
        table = ScoreTable(r_score=r, l_score=rng.uniform(size=n),
                           sim_score=rng.uniform(size=n))
        t = t_score(table, ScoreParams(1.0, 0.0))
        assert np.array_equal(average_ranks(t), average_ranks(-r))


def test_score_table_builder_is_complete():
    rng = np.random.default_rng(16)
    pts = random_points(rng, n=25, d=2)
    ds = Dataset(points=pts, truth=[0] * 25)
    labels = LabelSet(normal={0: 0, 12: 0}, outliers=frozenset([5]))
    params = PipelineParams(ScoreParams(0.4, 0.3, min_pts=2))
    idx = build_index(ds, 2)
    table = prepare(idx, labels).scores
    assert np.array_equal(table.r_score, r_score(expand(idx, labels)[1]))
    assert np.array_equal(table.l_score, l_score(idx.density))
    assert np.array_equal(table.sim_score, sim_scores(ds.points, labels))
    t = t_score(table, params.score)
    assert np.all((t >= 0) & (t <= 1))
    expected = (0.4 * (1 - table.r_score) + 0.3 * (1 - table.l_score)
                + 0.3 * table.sim_score)
    assert np.allclose(t, expected, atol=1e-15)
    # run weights its reliable outliers by this blend, bit for bit
    ts = run(ds, labels, params).training
    chosen = ts.indices[ts.classes == OUTLIER]
    assert chosen.size and ts.weights[-chosen.size:].tobytes() == t[chosen].tobytes()
