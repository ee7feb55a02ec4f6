"""Baseline algorithms: worked examples plus naive reimplementation oracles."""

import math
import tracemalloc

import numpy as np
import pytest

from ssdbcodi import (Dataset, LabelSet, NOISE, UNCLUSTERED, baselines, build_index,
                      dbscan, expand, kmeans, lof, metricspace, rand_index,
                      ssdbscan_with_fallback)
from ssdbcodi.metricspace import nearest_center
from oracles import (as_dataset, dbscan_by_matrix, lof_by_matrix, lof_by_sort,
                     nearest_centroid_by_broadcast, pairwise_distances, random_labelset,
                     ssdbscan_with_fallback_by_matrix)


def test_distance_input_validation():
    # the baselines take a Dataset, not a distance matrix, and refuse points
    # whose squared distances could overflow
    with pytest.raises(AttributeError):
        dbscan(np.zeros((2, 2)), epsilon=1.0, min_pts=1)
    with pytest.raises(AttributeError):
        lof(np.zeros((3, 3)), k=1)
    huge = as_dataset([[1e200, 2e200], [2e200, 3e200], [3e200, 1e200]])
    with pytest.raises(ValueError, match="squared norm"):
        dbscan(huge, epsilon=1.0, min_pts=1)
    with pytest.raises(ValueError, match="squared norm"):
        lof(huge, k=1)
    with pytest.raises(ValueError, match="squared norm"):
        kmeans(huge, k=1, seed=0)


def test_dbscan_two_chains():
    ds = as_dataset([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
    out = dbscan(ds, epsilon=1.5, min_pts=1)
    assert out.tolist() == [0, 0, 0, 1, 1, 1]


def test_dbscan_isolated_point_is_noise():
    out = dbscan(as_dataset([[0.0], [1.0], [100.0]]), epsilon=1.5, min_pts=1)
    assert out.tolist() == [0, 0, NOISE]


def test_dbscan_core_test_excludes_self():
    # two coincident points: each has exactly one OTHER point within range
    ds = as_dataset([[0.0], [0.0]])
    assert dbscan(ds, epsilon=0.5, min_pts=1).tolist() == [0, 0]
    assert dbscan(ds, epsilon=0.5, min_pts=2).tolist() == [NOISE, NOISE]


def test_dbscan_border_joins_lowest_indexed_core_neighbour():
    pts = [(0.0, 0.0), (0.0, 1.0), (0.0, -1.0),
           (2.0, 0.0), (2.0, 1.0), (2.0, -1.0),
           (1.0, 0.0)]
    out = dbscan(as_dataset(pts), epsilon=1.0, min_pts=3)
    # the bridge point is within range of both cluster cores; index 0 wins
    assert out.tolist() == [0, 0, 0, 1, 1, 1, 0]


def test_dbscan_parameter_validation():
    ds = as_dataset([[0.0], [1.0]])
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="epsilon"):
            dbscan(ds, epsilon=bad, min_pts=1)
    # 1.5 and True once clustered silently, as 1.5 and 1 other points
    for bad in (0, -1, 1.5, 1.0, np.float64(1.0), True, np.bool_(True), "1"):
        with pytest.raises(ValueError, match="min_pts must be an integer"):
            dbscan(ds, epsilon=1.0, min_pts=bad)
    assert dbscan(ds, epsilon=1.0, min_pts=np.int32(1)).tolist() == [0, 0]


def dbscan_oracle(dist, epsilon, min_pts):
    n = dist.shape[0]
    within = dist <= epsilon
    core = [p for p in range(n) if int(within[p].sum()) - 1 >= min_pts]
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in core:
        for j in core:
            if within[i][j]:
                parent[find(i)] = find(j)
    comps = {}
    for p in core:
        comps.setdefault(find(p), []).append(p)
    assign = [NOISE] * n
    for rank, members in enumerate(sorted(comps.values(), key=min)):
        for m in members:
            assign[m] = rank
    core_set = set(core)
    for p in range(n):
        if p in core_set:
            continue
        nbrs = [q for q in core if within[p][q]]
        if nbrs:
            assign[p] = assign[min(nbrs)]
    return assign


def test_dbscan_matches_union_find_oracle():
    rng = np.random.default_rng(41)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        pts = rng.normal(size=(n, int(rng.integers(1, 4)))) * 3
        dist = pairwise_distances(pts)
        positive = dist[dist > 0]
        epsilon = float(rng.choice(positive)) if positive.size else 0.0
        min_pts = int(rng.integers(1, 5))
        got = dbscan(as_dataset(pts), epsilon, min_pts).tolist()
        assert got == dbscan_oracle(dist, epsilon, min_pts)


def equal_points(pts) -> np.ndarray:
    """0 between exactly equal points, self included, and 1 between others."""
    pts = np.asarray(pts)
    return (pts[:, None, :] != pts[None, :, :]).any(axis=2).astype(float)


def test_dbscan_at_zero_epsilon_on_duplicated_points_matches_oracle():
    # at epsilon 0 exactly the coincident points are neighbours; the pass
    # leaves some self-distances and some between duplicates just above 0,
    # yet each point is within the radius of itself and of its copies, as
    # in the oracle's exact-equality matrix; the last 40 cases draw 40
    # points from 12 rows at d = 3 and d = 8
    rng = np.random.default_rng(53)
    cases = []
    for _ in range(40):
        n, dim = int(rng.integers(2, 40)), int(rng.integers(1, 9))
        base = rng.normal(size=(int(rng.integers(1, n + 1)), dim)) * 3
        cases.append(base[rng.integers(base.shape[0], size=n)])
    for seed in range(20):
        for dim in (3, 8):
            probe = np.random.default_rng(seed)
            cases.append(3 * probe.normal(size=(12, dim))[probe.integers(12, size=40)])
    for case, pts in enumerate(cases):
        for min_pts in (1, 2, 3):
            got = dbscan(as_dataset(pts), 0.0, min_pts).tolist()
            assert got == dbscan_oracle(equal_points(pts), 0.0, min_pts), (case, min_pts)


def test_dbscan_refuses_its_workspace_and_neighbourhoods_before_allocating(monkeypatch):
    # beside its 8n^2-byte workspace dbscan holds an n x n bool array: a limit
    # of 9n^2 - 1 bytes refuses the call before either is allocated, and one
    # of 9n^2 accepts it
    n = 200
    ds = as_dataset(np.random.default_rng(43).normal(size=(n, 2)))
    monkeypatch.setattr(metricspace, "_MEMORY_BYTES", 9 * n * n - 1)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError) as refused:
            dbscan(ds, 0.5, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == ("a 200 x 200 distance workspace needs 360000 bytes with the "
                                  "40000 beside it, more than the 359999 bytes of physical memory")
    assert peak < n * n
    monkeypatch.setattr(metricspace, "_MEMORY_BYTES", 9 * n * n)
    want = dbscan_by_matrix(pairwise_distances(ds.points), 0.5, 3)
    assert dbscan(ds, 0.5, 3).tobytes() == want.tobytes()


def test_dbscan_drops_its_distances_before_its_graph_steps(monkeypatch):
    # after its distance pass dbscan holds its n x n neighbourhoods (n^2
    # bytes) but not its 8n^2-byte distances: the traced heap at its first
    # numpy call after the pass stays below 8n^2
    n = 400
    ds = as_dataset(np.random.default_rng(47).normal(size=(n, 2)))
    want = dbscan_by_matrix(pairwise_distances(ds.points), 0.5, 3)
    seen, full = [], np.full

    def spy(*args, **kwargs):
        seen.append(tracemalloc.get_traced_memory()[0])
        return full(*args, **kwargs)

    monkeypatch.setattr(baselines.np, "full", spy)
    tracemalloc.start()
    try:
        got = dbscan(ds, 0.5, 3)
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    assert seen and n * n <= seen[0] < 8 * n * n


def test_kmeans_single_cluster_and_full_split():
    pts = np.array([[0.0], [1.0], [2.0], [3.0]])
    assert kmeans(as_dataset(pts), k=1, seed=0).tolist() == [0, 0, 0, 0]
    full = kmeans(as_dataset(pts), k=4, seed=0)
    assert len(set(full.tolist())) == 4  # every point its own centroid


def test_kmeans_recovers_separated_blobs():
    rng = np.random.default_rng(42)
    a = rng.normal(size=(20, 2)) * 0.2
    b = rng.normal(size=(20, 2)) * 0.2 + 10.0
    pts = np.vstack([a, b])
    truth = [0] * 20 + [1] * 20
    out = kmeans(as_dataset(pts), k=2, seed=7)
    assert rand_index(out, truth) == 1.0


def test_kmeans_is_deterministic_and_validates():
    pts = np.random.default_rng(1).normal(size=(15, 2))
    one = kmeans(as_dataset(pts), k=3, seed=9)
    two = kmeans(as_dataset(pts), k=3, seed=9)
    assert np.array_equal(one, two)
    with pytest.raises(ValueError, match="k must be"):
        kmeans(as_dataset(pts), k=0, seed=0)
    with pytest.raises(ValueError, match="k must be"):
        kmeans(as_dataset(pts), k=16, seed=0)
    # True once ran as k=1; 2.0 failed deep in numpy
    for bad in (2.0, np.float64(2.0), True, np.bool_(True), "2"):
        with pytest.raises(ValueError, match="k must be an integer"):
            kmeans(as_dataset(pts), k=bad, seed=0)
    assert np.array_equal(kmeans(as_dataset(pts), k=np.int64(3), seed=9), one)


def test_kmeans_reaches_an_assignment_fixed_point():
    rng = np.random.default_rng(43)
    for _ in range(20):
        n = int(rng.integers(3, 20))
        pts = rng.normal(size=(n, 2))
        k = int(rng.integers(1, n + 1))
        labels = kmeans(as_dataset(pts), k=k, seed=int(rng.integers(1000)))
        centroids = {c: pts[labels == c].mean(axis=0)
                     for c in range(k) if (labels == c).any()}
        for p in range(n):
            mine = float(((pts[p] - centroids[labels[p]]) ** 2).sum())
            for c, centre in centroids.items():
                other = float(((pts[p] - centre) ** 2).sum())
                assert mine <= other or (mine == other and labels[p] <= c)


def test_nearest_centroid_matches_broadcast_oracle(monkeypatch):
    # 0-2 grids put points at equal distance from several centroids
    rng = np.random.default_rng(79)
    ties = 0
    for case in range(400):
        n, d, k = (int(rng.integers(1, hi)) for hi in (40, 4, 12))
        if case % 2:
            pts = rng.integers(0, 3, size=(n, d)).astype(float)
            centroids = rng.integers(0, 3, size=(k, d)).astype(float)
        else:
            pts = rng.normal(size=(n, d))
            centroids = rng.normal(size=(k, d))
        got = nearest_center(pts, centroids)[0]
        assert np.array_equal(got, nearest_centroid_by_broadcast(pts, centroids)), case
        d2 = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        ties += int(((d2 == d2.min(axis=1, keepdims=True)).sum(axis=1) > 1).sum())
    assert ties >= 100
    # and whole k-means runs agree with the broadcast route
    for seed in range(20):
        pts = rng.integers(0, 4, size=(30, 2)).astype(float)
        want = kmeans(as_dataset(pts), k=4, seed=seed)
        with monkeypatch.context() as m:
            m.setattr(baselines, "nearest_center",
                      lambda p, c: (nearest_centroid_by_broadcast(p, c), None))
            assert np.array_equal(kmeans(as_dataset(pts), k=4, seed=seed), want), seed


def test_nearest_centroid_holds_one_point_matrix():
    rng = np.random.default_rng(83)
    pts = rng.normal(size=(3000, 16))
    centroids = rng.normal(size=(50, 16))
    tracemalloc.start()
    try:
        nearest_center(pts, centroids)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the n x k x d broadcast would need 8 * 3000 * 50 * 16 bytes (18 MiB)
    assert peak < 2 * 2**20


def test_lof_uniform_line_scores_one():
    out = lof(as_dataset([[0.0], [1.0], [2.0], [3.0]]), k=1)
    assert np.allclose(out, 1.0, atol=1e-12)


def test_lof_worked_example():
    out = lof(as_dataset([[0.0], [1.0], [2.0], [10.0]]), k=2)
    assert out == pytest.approx([7 / 8, 4 / 3, 7 / 8, 119 / 24], abs=1e-12)
    assert int(np.argmax(out)) == 3


def test_lof_coincident_points_score_one():
    out = lof(as_dataset([[0.0], [0.0], [0.0]]), k=2)
    assert out.tolist() == [1.0, 1.0, 1.0]


def test_lof_validation_and_index_input():
    ds = as_dataset([[0.0], [1.0], [2.0]])
    # 2.0 once failed in numpy with a TypeError, and True ran as k=1
    for bad in (0, 3, 2.0, np.float64(1.0), True, np.bool_(True), "1"):
        with pytest.raises(ValueError, match="k must be an integer"):
            lof(ds, k=bad)
    assert lof(ds, k=np.int64(2)).tobytes() == lof(ds, k=2).tobytes()
    # a distance matrix is no Dataset: LOF measures the points itself
    idx = build_index(Dataset(points=[[0.0], [1.0], [2.0], [10.0]], truth=[0] * 4), 2)
    with pytest.raises(AttributeError):
        lof(pairwise_distances(idx.points), k=2)


def lof_oracle(pts, k):
    n = len(pts)
    d = [[float(np.linalg.norm(np.asarray(a) - np.asarray(b))) for b in pts]
         for a in pts]
    nbrs = [sorted((q for q in range(n) if q != p),
                   key=lambda q: (d[p][q], q))[:k] for p in range(n)]
    kdist = [sorted(d[p][q] for q in range(n) if q != p)[k - 1] for p in range(n)]
    lrd = []
    for p in range(n):
        s = sum(max(kdist[o], d[p][o]) for o in nbrs[p])
        lrd.append(k / s if s > 0 else math.inf)
    scores = []
    for p in range(n):
        mean_nbr = sum(lrd[o] for o in nbrs[p]) / k
        if math.isinf(mean_nbr) and math.isinf(lrd[p]):
            scores.append(1.0)
        else:
            scores.append(mean_nbr / lrd[p])
    return scores


def test_lof_matches_naive_route():
    rng = np.random.default_rng(44)
    for _ in range(30):
        n = int(rng.integers(3, 20))
        # integer grid coordinates make neighbour ties exact in both routes
        pts = rng.integers(-4, 5, size=(n, int(rng.integers(1, 3)))).astype(float)
        k = int(rng.integers(1, n))
        got = lof(as_dataset(pts), k=k)
        want = np.array(lof_oracle(pts, k))
        assert np.allclose(got, want, atol=1e-9)


def test_lof_matches_sort_oracle_bytes():
    # 0-2 grids tie neighbours across the k-cut and duplicate points
    rng = np.random.default_rng(71)
    for case in range(400):
        n = int(rng.integers(2, 40))
        if case % 2:
            pts = rng.integers(0, 3, size=(n, int(rng.integers(1, 3)))).astype(float)
        else:
            pts = rng.normal(size=(n, int(rng.integers(1, 4))))
        k = int(rng.integers(1, n)) if case % 10 else n - 1
        got = lof(as_dataset(pts), k=k)
        assert got.tobytes() == lof_by_sort(pairwise_distances(pts), k).tobytes(), case


def test_lof_refuses_non_finite_distances():
    # a Dataset holds finite points only, and LOF refuses points whose
    # squared distances could overflow; just under the bound all is finite
    with pytest.raises(ValueError, match="finite"):
        as_dataset([[0.0], [np.inf], [3.0]])
    bound = np.finfo(float).max / 4
    x = np.sqrt(bound)
    while x * x > bound:
        x = np.nextafter(x, 0.0)
    with pytest.raises(ValueError, match="squared norm"):
        lof(as_dataset([[x * 1.001], [0.0], [1.0]]), k=1)
    assert np.isfinite(lof(as_dataset([[x], [-x], [0.0]]), k=1)).all()


def test_lof_holds_one_distance_copy(monkeypatch):
    # the n x n workspace on the traced heap, and no copy of it beside it
    monkeypatch.setattr(metricspace, "BLOCK_BYTES", 1 << 14)
    ds = as_dataset(np.random.default_rng(73).normal(size=(300, 3)))
    tracemalloc.start()
    try:
        lof(ds, k=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 8 * 300 * 300 <= peak < 1.25 * 8 * 300 * 300


def test_fallback_assigns_leftovers_to_nearest_cluster():
    ds = Dataset(points=[[0.0], [1.0], [4.0], [5.0], [2.5]],
                 truth=[0, 0, 1, 1, 0])
    idx = build_index(ds, 1)
    labels = LabelSet(normal={0: 0, 3: 1}, outliers=frozenset())
    out = ssdbscan_with_fallback(idx, labels)
    # the midpoint is equidistant from points 1 and 2; the smaller index wins
    assert out.tolist() == [0, 0, 1, 1, 0]
    assert not np.any(out == UNCLUSTERED)


def test_fallback_leaves_full_clusterings_alone():
    ds = Dataset(points=[[0.0], [1.0], [2.0]], truth=[0, 0, 0])
    idx = build_index(ds, 1)
    labels = LabelSet(normal={0: 0}, outliers=frozenset())
    out = ssdbscan_with_fallback(idx, labels)
    assert out.tolist() == [0, 0, 0]



def test_fallback_matches_the_index_matrix_route():
    # odd cases sit on 0-2 grids, where leftovers often have several
    # equidistant nearest clustered points and the smaller index must win
    rng = np.random.default_rng(97)
    tied = 0
    for case in range(240):
        n = int(rng.integers(3, 80))
        if case % 2:
            pts = rng.integers(0, 3, size=(n, int(rng.integers(1, 4)))).astype(float)
        else:
            pts = rng.normal(size=(n, int(rng.integers(1, 4))))
        idx = build_index(as_dataset(pts), int(rng.integers(1, min(4, n - 1) + 1)))
        labels = random_labelset(rng, n)
        dist = pairwise_distances(pts)
        want = ssdbscan_with_fallback_by_matrix(dist, idx, labels)
        assert ssdbscan_with_fallback(idx, labels).tobytes() == want.tobytes(), case
        assign = expand(idx, labels)[0]
        leftover, clustered = assign == UNCLUSTERED, assign != UNCLUSTERED
        if clustered.any():
            sub = dist[np.ix_(leftover, clustered)]
            tied += int(((sub == sub.min(axis=1, keepdims=True)).sum(axis=1) > 1).sum())
    assert tied >= 50


def test_fallback_reads_the_whole_pairwise_matrix_once(monkeypatch):
    # host-independent guard on the route: a product of its own (say of
    # leftovers and clustered points) gives other bits on some hosts, so
    # the fallback must read the leftovers' rows of the whole product of
    # idx.points with itself, once, and only when there is a leftover to join
    calls, real = [], baselines._distances

    def recording(a, b, out, rows, each):
        calls.append((a, b, out.shape, rows))
        real(a, b, out, rows, each)

    monkeypatch.setattr(baselines, "_distances", recording)
    rng = np.random.default_rng(98)
    seen = {True: 0, False: 0}
    for case in range(120):
        n = int(rng.integers(3, 40))
        if case % 2:
            pts = rng.integers(0, 3, size=(n, 2)).astype(float)
        else:
            pts = rng.normal(size=(n, 2))
        idx = build_index(as_dataset(pts), int(rng.integers(1, min(4, n - 1) + 1)))
        labels = random_labelset(rng, n)
        assign = expand(idx, labels)[0]
        assert (assign != UNCLUSTERED).any(), case  # every labeled normal is clustered
        joins = bool((assign == UNCLUSTERED).any())
        calls.clear()
        ssdbscan_with_fallback(idx, labels)
        assert len(calls) == joins, case
        for a, b, shape, rows in calls:
            assert a is idx.points and b is idx.points and shape == (n, n), case
            assert np.array_equal(rows, np.flatnonzero(assign == UNCLUSTERED)), case
        seen[joins] += 1
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("count", [0, 1, 3])
def test_baselines_match_their_matrix_routes_bytes(monkeypatch, helpers, count):
    # 0-3 grids (ties and duplicates), the same grids far from the origin, and
    # normals; blocks of one row, of three rows and of 1 MiB; every row pass
    # spread, or none, over 0, 1 and 3 helper threads. DBSCAN, LOF and the
    # fallback must give the bytes of their whole-matrix routes.
    ran = helpers(count)
    rng = np.random.default_rng(103)
    for case in range(60):
        n = int(rng.integers(2, 90))
        dim = int(rng.integers(1, 5))
        grid = rng.integers(0, 4, size=(n, dim)).astype(float)
        pts = [grid, grid + rng.normal(size=dim) * 100.0, rng.normal(size=(n, dim))][case % 3]
        dist = pairwise_distances(pts)
        monkeypatch.setattr(metricspace, "BLOCK_BYTES", [8, 8 * n * 3, 1 << 20][case // 3 % 3])
        monkeypatch.setattr(metricspace, "SPREAD_BYTES", 1 if rng.random() < 0.5 else 1 << 62)
        ds = as_dataset(pts)
        epsilon, min_pts = float(rng.choice([0.5, 1.0, 1.5, 2.0])), int(rng.integers(1, 6))
        assert (dbscan(ds, epsilon, min_pts).tobytes()
                == dbscan_by_matrix(dist, epsilon, min_pts).tobytes()), case
        if n > 1:
            k = int(rng.integers(1, n)) if case % 7 else n - 1
            assert lof(ds, k).tobytes() == lof_by_matrix(dist, k).tobytes(), case
        idx = build_index(ds, int(rng.integers(1, n)))
        labels = random_labelset(rng, n)
        assert (ssdbscan_with_fallback(idx, labels).tobytes()
                == ssdbscan_with_fallback_by_matrix(dist, idx, labels).tobytes()), case
    assert len(ran) == 1 if count == 0 else len(ran) >= 2
