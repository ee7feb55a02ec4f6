"""Distance matrix, core distances, reachability, and reachability kNN."""

from dataclasses import replace
import gc
import os
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from ssdbcodi import (Dataset, LabelSet, PipelineParams, ScoreParams, baselines, build_index, cli,
                      dbscan, lof, metricspace, run, sample_labels, ssdbscan_with_fallback, tune)
from ssdbcodi.metricspace import _workspace, cross_nearest, nearest_center
from oracles import (as_dataset, cross_distances, dbscan_by_matrix, distances_by_expression,
                     index_by_serial_passes, is_density_reachable, knn_by_rdist,
                     local_densities_by_matrix, lof_by_matrix, moons_with_outliers, nearest,
                     nearest_by_matrix, nearest_centroid_by_loop, pairwise_by_expression,
                     pairwise_distances, random_labelset, random_points, reach_distance,
                     ssdbscan_with_fallback_by_matrix, sq_dist_by_minimum)

LINE = Dataset(points=[[0.0], [1.0], [3.0], [7.0]], truth=[0, 0, 0, 0])


def test_core_distances_on_the_line():
    idx = build_index(LINE, 2)
    assert idx.core.tolist() == [3.0, 2.0, 3.0, 6.0]


def test_core_min_pts_one_is_nearest_other():
    idx = build_index(LINE, 1)
    assert idx.core.tolist() == [1.0, 1.0, 2.0, 4.0]


def test_core_with_coincident_points():
    ds = Dataset(points=[[2.0], [2.0]], truth=[0, 0])
    idx = build_index(ds, 1)
    assert idx.core.tolist() == [0.0, 0.0]


def test_build_index_errors():
    with pytest.raises(ValueError, match="min_pts"):
        build_index(LINE, 0)
    with pytest.raises(ValueError, match="min_pts"):
        build_index(LINE, 4)
    one = Dataset(points=[[0.0]], truth=[0])
    with pytest.raises(ValueError, match="at least 2"):
        build_index(one, 1)


def test_build_index_refuses_float_and_boolean_min_pts(monkeypatch):
    # 3.5 once returned the index kept for 3, and failed in np.partition on
    # a dataset with none kept; True reached np.partition as an index
    ds = as_dataset(np.random.default_rng(6).normal(size=(10, 2)))
    kept = build_index(ds, 3)
    trees = counted_trees(monkeypatch)
    for bad in (3.5, 3.0, np.float64(3.0), True, np.bool_(True)):
        for target in (ds, LINE):
            with pytest.raises(ValueError, match="min_pts must be an integer"):
                build_index(target, bad)
    assert not trees
    assert build_index(ds, np.int32(3)) is kept and build_index(LINE, np.uint8(2)).min_pts == 2


def counted_trees(monkeypatch) -> list:
    """Record every spanning-tree pass, one per index actually built."""
    trees, real = [], metricspace._spanning_tree
    monkeypatch.setattr(metricspace, "_spanning_tree",
                        lambda *args: trees.append(args) or real(*args))
    return trees


def assert_same_index(got, want, case=None):
    for name in ("core", "density", "order", "gap"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (case, name)
    assert got.points.tobytes() == want.points.tobytes() and got.min_pts == want.min_pts


def test_build_index_keeps_one_index_per_dataset_and_min_pts(monkeypatch):
    ds = as_dataset(np.random.default_rng(5).normal(size=(30, 2)))
    trees = counted_trees(monkeypatch)
    first = build_index(ds, 3)
    assert build_index(ds, 3) is first and build_index(ds, np.int64(3)) is first
    assert len(trees) == 1
    other = build_index(ds, 4)
    assert other is not first and other.min_pts == 4 and len(trees) == 2
    assert build_index(ds, 3) is first and build_index(ds, 4) is other and len(trees) == 2
    # a refused min_pts is refused before the memo is read
    with pytest.raises(ValueError, match="min_pts"):
        build_index(ds, 30)
    # a replaced dataset is a new one: its memo starts empty
    renamed = replace(ds, name="x")
    assert renamed.name == "x" and "_indexes" not in repr(renamed)
    again = build_index(renamed, 3)
    assert again is not first and len(trees) == 3
    assert_same_index(again, first)


def test_kept_index_matches_a_fresh_build_bytes():
    # tie-heavy cases: small integer grids with repeated rows; every kept
    # index, read back in any order of min_pts, equals a twin's fresh build
    rng = np.random.default_rng(31)
    for case in range(120):
        n = int(rng.integers(2, 40))
        pts = rng.integers(0, 4, size=(n, int(rng.integers(1, 3)))).astype(float)
        pts[rng.integers(n, size=n // 3)] = pts[rng.integers(n, size=n // 3)]
        ds = as_dataset(pts)
        ks = rng.integers(1, n, size=4).tolist()
        kept = {k: build_index(ds, k) for k in ks}
        for k in rng.permutation(ks).tolist():
            assert build_index(ds, k) is kept[k], case
            twin = Dataset(points=ds.points.copy(), truth=ds.truth)
            assert_same_index(kept[k], build_index(twin, k), case)


def test_threads_building_one_dataset_get_equal_indexes():
    ds = as_dataset(np.random.default_rng(9).integers(0, 5, size=(300, 2)).astype(float))
    barrier, got = threading.Barrier(4), [None] * 4

    def build(i):
        barrier.wait()
        got[i] = build_index(ds, 5)

    threads = [threading.Thread(target=build, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for idx in got[1:]:
        assert_same_index(idx, got[0])
    kept = build_index(ds, 5)
    assert any(kept is idx for idx in got)


def test_tune_then_run_builds_once(monkeypatch):
    ds = moons_with_outliers(n=120)
    labels = sample_labels(ds, 0.2, seed=3)
    trees = counted_trees(monkeypatch)
    params = PipelineParams(score=ScoreParams(0.0, 0.0, min_pts=4), k_c=3)
    best = tune(ds, labels, grid_step=0.5, folds=2, seed=3, params=params).best
    run(ds, labels, PipelineParams(score=ScoreParams(*best, min_pts=4), k_c=3))
    assert len(trees) == 1


def test_density_matches_matrix_oracle_bytes():
    # half the cases sit on small integer grids, so duplicate points and
    # tied reachabilities are common; min_pts spans 1 .. n - 1
    rng = np.random.default_rng(21)
    for case in range(240):
        if case % 2:
            n = int(rng.integers(2, 30))
            pts = rng.integers(0, 4, size=(n, int(rng.integers(1, 3)))).astype(float)
        else:
            pts = random_points(rng)
        n = pts.shape[0]
        idx = build_index(as_dataset(pts), int(rng.integers(1, n)))
        assert idx.density.tobytes() == local_densities_by_matrix(idx).tobytes(), case
    for n in (2, 7):
        pts = rng.normal(size=(n, 2))
        for min_pts in range(1, n):
            idx = build_index(as_dataset(pts), min_pts)
            assert idx.density.tobytes() == local_densities_by_matrix(idx).tobytes()


@pytest.mark.parametrize("block_bytes", [8, 1 << 9, 1 << 20])
def test_row_blocks_and_maps_keep_the_whole_matrix_bytes(monkeypatch, block_bytes):
    # blocks of one row, of a few rows, and a single block; every row pass
    # spread
    monkeypatch.setattr(metricspace, "BLOCK_BYTES", block_bytes)
    monkeypatch.setattr(metricspace, "SPREAD_BYTES", 1)
    rng = np.random.default_rng(23)
    for case in range(60):
        if case % 2:
            n = int(rng.integers(2, 60))
            pts = rng.integers(0, 4, size=(n, int(rng.integers(1, 3)))).astype(float)
        else:
            pts = random_points(rng, n=int(rng.integers(2, 60)))
        n = pts.shape[0]
        dist = pairwise_by_expression(pts)
        assert pairwise_distances(pts).tobytes() == dist.tobytes(), case
        feats = pts[rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)]
        assert (cross_distances(pts, feats).tobytes()
                == distances_by_expression(pts, feats).tobytes()), case
        # rows of the full product, unsorted and repeated, from a stream of their own
        rows = np.random.default_rng(case).integers(n, size=n // 2 + 1)
        assert (cross_distances(pts, feats, rows).tobytes()
                == distances_by_expression(pts, feats)[rows].tobytes()), case
        min_pts = int(rng.integers(1, n))
        idx = build_index(as_dataset(pts), min_pts)
        core = np.partition(dist, min_pts, axis=1)[:, min_pts]
        assert idx.core.tobytes() == core.tobytes(), case
        assert idx.density.tobytes() == local_densities_by_matrix(idx).tobytes(), case
    # a tight cluster far from the origin in up to 20 dimensions: the rounding
    # left on the diagonal outweighs true distances, so a core distance read
    # before the block's diagonal is zeroed would differ
    for case in range(20):
        n, dim = int(rng.integers(2, 40)), int(rng.integers(1, 21))
        pts = rng.normal(size=dim) * 1e3 + rng.normal(size=(n, dim)) * 1e-6
        dist = pairwise_by_expression(pts)
        assert pairwise_distances(pts).tobytes() == dist.tobytes(), case
        min_pts = int(rng.integers(1, n))
        core = np.partition(dist, min_pts, axis=1)[:, min_pts]
        assert build_index(as_dataset(pts), min_pts).core.tobytes() == core.tobytes(), case


def misaligned(p: np.ndarray) -> np.ndarray:
    """A copy of p whose float64s start one byte past an aligned address."""
    out = np.empty(p.nbytes + 1, dtype=np.uint8)[1:].view(float).reshape(p.shape)
    out[...] = p
    return out


# C- and F-ordered points reach BLAS as one operand; Dataset and
# pairwise_distances copy the others into one
LAYOUTS = {"C": lambda p: p, "F": np.asfortranarray,
           "strided": lambda p: np.repeat(p, 2, axis=1)[:, ::2], "misaligned": misaligned}


@pytest.mark.parametrize("spread", [False, True])
@pytest.mark.parametrize("rows_per_block", [0, 3, None])
def test_gram_and_distances_equal_their_transposes(monkeypatch, rows_per_block, spread):
    # pairwise_distances takes no max with the transpose: its symmetry rests
    # on P @ P.T being one syrk mirrored and on the passes adding the norms
    # in either order. Blocks under one row, of three rows and of 1 MiB; every
    # row pass spread, or none. Some sets reach 170+ points, where numpy 2's
    # GEMM on strided or misaligned operands, copied apart, mirrors unequal
    # bits; those layouts reach _distances as Dataset copies them, whole.
    monkeypatch.setattr(metricspace, "SPREAD_BYTES", 1 if spread else 1 << 62)
    rng = np.random.default_rng(31)
    for case in range(45):
        n = int(rng.integers(170, 220)) if case % 9 == 2 else int(rng.integers(1, 70))
        dim = int(rng.integers(1, 6))
        grid = rng.integers(0, 3, size=(n, dim)).astype(float)
        pts = [grid, grid + rng.normal(size=dim) * 100.0, rng.normal(size=(n, dim))][case % 3]
        block = {0: 8, 3: 8 * n * 3, None: 1 << 20}[rows_per_block]
        monkeypatch.setattr(metricspace, "BLOCK_BYTES", block)
        dists = {}
        for layout, view in LAYOUTS.items():
            p = view(pts)
            assert np.array_equal(p, pts) and p.flags.aligned == (layout != "misaligned")
            if layout in ("C", "F"):
                gram = p @ p.T
                assert gram.tobytes() == gram.T.tobytes(), (case, layout)
            d = dists[layout] = pairwise_distances(p)
            assert d.tobytes() == d.T.tobytes(), (case, layout)
            assert not d.diagonal().any(), (case, layout)
        assert dists["strided"].tobytes() == dists["misaligned"].tobytes() == dists["C"].tobytes()


@pytest.mark.parametrize("spread", [False, True])
def test_datasets_hand_pairwise_whole_float64_points(monkeypatch, spread):
    # each self-product _distances(p, p, ...) takes its points as BLAS takes
    # them whole, one aligned C- or F-contiguous float64 operand: Dataset's
    # copy makes them so from any layout or a list, and each caller's matrix
    # is then exactly symmetric, with the oracle's bits once its diagonal is
    # zero. 200 points, past the 170 where a strided or misaligned operand's
    # GEMM mirrors unequal bits on numpy 2
    monkeypatch.setattr(metricspace, "SPREAD_BYTES", 1 if spread else 1 << 62)
    real, seen = metricspace._distances, []

    def whole(a, b, out, rows, each):
        assert a is b and rows is None
        d = np.full(out.shape, np.nan)

        def keep(block_rows, blk):
            d[block_rows] = blk
            each(block_rows, blk)
        sq = real(a, b, out, rows, keep)
        seen.append((a, d))
        return sq

    monkeypatch.setattr(metricspace, "_distances", whole)
    monkeypatch.setattr(baselines, "_distances", whole)
    rng = np.random.default_rng(113)
    grid = rng.integers(0, 3, size=(200, 3)).astype(float)
    for k, pts in enumerate([grid + rng.normal(size=3) * 100.0, rng.normal(size=(200, 3))]):
        for layout, view in {**LAYOUTS, "list": lambda p: p.tolist()}.items():
            ds = Dataset(points=view(pts), truth=np.zeros(200, dtype=int))
            seen.clear()
            build_index(ds, 4), dbscan(ds, 1.0, 4), lof(ds, 5)
            made = seen[:]  # the oracle's own self-products join seen below
            assert len(made) == 3, (k, layout)
            for points, d in made:
                assert points.dtype == np.float64 and points.flags.aligned, (k, layout)
                assert points.flags.c_contiguous or points.flags.f_contiguous, (k, layout)
                assert d.tobytes() == d.T.tobytes(), (k, layout)
                np.fill_diagonal(d, 0.0)
                assert d.tobytes() == pairwise_distances(points).tobytes(), (k, layout)


def opened_workspaces(monkeypatch) -> list:
    """Every workspace opened from now on, by metricspace or the baselines."""
    opened, real = [], metricspace._workspace

    def recording(shape, *beside):
        opened.append(real(shape, *beside))
        return opened[-1]

    monkeypatch.setattr(metricspace, "_workspace", recording)
    monkeypatch.setattr(baselines, "_workspace", recording)
    return opened


def test_a_workspace_above_physical_memory_is_refused_before_allocating(monkeypatch):
    # the refused call's traced peak stays below the workspace it names; the
    # accepted one's reaches it, so the trace sees workspaces
    if hasattr(os, "sysconf") and "SC_PHYS_PAGES" in os.sysconf_names:
        assert metricspace._MEMORY_BYTES == os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    monkeypatch.setattr(metricspace, "_MEMORY_BYTES", 8 * 30 * 30 - 1)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError) as refused:
            _workspace((30, 30))
        refused_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        w = _workspace((30, 29))
        accepted_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == ("a 30 x 30 distance workspace needs 7200 bytes, "
                                  "more than the 7199 bytes of physical memory")
    assert refused_peak < 8 * 30 * 30 and accepted_peak >= 8 * 30 * 29
    assert w.shape == (30, 29) and w.dtype == np.float64


def test_build_index_refuses_its_workspace_and_list_before_allocating(monkeypatch):
    # beside its 8n^2-byte workspace the build holds core distances and
    # densities (8n bytes each), the n x K list (4-byte positions, 8-byte
    # distances) and, at min_pts <= 3, the list step's n x K candidate
    # distances: a limit one byte below their sum refuses the build before
    # any of them is allocated, and one at their sum accepts it
    n, k = 200, metricspace.NEAR_K
    points = np.random.default_rng(43).normal(size=(n, 2))
    for min_pts, held, message in (
            (3, 20, "a 200 x 200 distance workspace needs 451200 bytes with the 131200 beside it, "
                    "more than the 451199 bytes of physical memory"),
            (4, 12, "a 200 x 200 distance workspace needs 400000 bytes with the 80000 beside it, "
                    "more than the 399999 bytes of physical memory")):
        limit = 8 * n * n + n * (16 + held * k)
        want = build_index(as_dataset(points), min_pts)
        monkeypatch.setattr(metricspace, "_MEMORY_BYTES", limit - 1)
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError) as refused:
                build_index(as_dataset(points), min_pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(refused.value) == message
        assert peak < n * n
        monkeypatch.setattr(metricspace, "_MEMORY_BYTES", limit)
        got = build_index(as_dataset(points), min_pts)
        for name in ("core", "density", "order", "gap", "near", "near_dist", "sq_norms"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (min_pts, name)


def test_no_returned_array_shares_memory_with_a_workspace(monkeypatch):
    # every workspace the calls open is recorded; what the library hands back
    # lies outside each, since a view would keep its whole array alive
    opened = opened_workspaces(monkeypatch)
    rng = np.random.default_rng(61)
    pts = rng.integers(0, 4, size=(90, 2)).astype(float)
    ds = as_dataset(pts)
    idx = build_index(ds, 3)
    labels = LabelSet(normal={0: 0, 1: 1, 2: 0}, outliers=frozenset({3}))
    outputs = [idx.core, idx.density, idx.order, idx.gap, idx.near, idx.near_dist,
               cross_nearest(pts, pts[::3], 4), cross_nearest(pts, pts[::2], 3, [5, 1, 5]),
               lof(ds, 5), dbscan(ds, 1.0, 3), ssdbscan_with_fallback(idx, labels)]
    assert [w.shape for w in opened] == [(90, 90), (90, 30), (90, 45), (90, 90), (90, 90),
                                         (90, 90)]
    for i, arr in enumerate(outputs):
        for w in opened:
            assert not np.shares_memory(arr, w), (i, w.shape)


def test_run_and_benchmark_each_open_one_workspace(monkeypatch, tmp_path):
    # a run and a 6-trial sweep each open one workspace, the build's 150 x
    # 150: the classifier reads every row off the index's neighbour list, so
    # no later pass could reuse a kept distance array
    rng = np.random.default_rng(67)
    c = rng.integers(3, size=150)
    x = rng.normal(size=(150, 3)) + 6.0 * c[:, None]
    x[:5] = rng.uniform(-6, 18, size=(5, 3))
    lab = np.where(np.arange(150) < 5, "o", c.astype(str))
    path = tmp_path / "blobs.csv"
    path.write_text("x,y,z,label\n" + "".join(f"{a!r},{b!r},{z!r},{y}\n"
                                              for (a, b, z), y in zip(x.tolist(), lab)))
    opened = opened_workspaces(monkeypatch)
    for argv in (["run", "--label-fraction", "0.1"],
                 ["benchmark", "--fractions", "10", "--trials", "6"]):
        opened.clear()
        assert cli.main(argv + ["--input", str(path), "--no-timing",
                                "--output", str(tmp_path / "report.out")]) == 0
        assert [w.shape for w in opened] == [(150, 150)], argv


@pytest.mark.parametrize("below", [False, True])
@pytest.mark.parametrize("call", ["build_index", "cross_nearest", "cross_nearest rows", "lof",
                                  "dbscan", "fallback"])
def test_row_passes_spread_exactly_when_the_workspace_is_mapped(monkeypatch, helpers, call,
                                                                below):
    # one threshold spreads a workspace's row passes: with SPREAD_BYTES at
    # the workspace's size, one-row blocks run on the caller and the helper;
    # one byte above it, on the caller alone. A 0-3 grid ties many distances,
    # and the bytes are the serial routes' either way. (The name dates from
    # when SPREAD_BYTES also chose which workspaces to memory-map.)
    ran = helpers(1)
    rng = np.random.default_rng(107)
    pts = rng.integers(0, 4, size=(48, 2)).astype(float)
    feats, rows = pts[rng.integers(48, size=30)], rng.integers(48, size=40)
    idx, labels = build_index(as_dataset(pts), 4), random_labelset(rng, 48)
    dist = pairwise_by_expression(pts)
    shape, got, want = {
        "build_index": ((48, 48), lambda: build_index(as_dataset(pts), 4),
                        index_by_serial_passes(pts, 4)),
        "cross_nearest": ((48, 30), lambda: cross_nearest(pts, feats, 5),
                          nearest(distances_by_expression(pts, feats), 5)),
        "cross_nearest rows": ((48, 30), lambda: cross_nearest(pts, feats, 5, rows),
                               nearest(distances_by_expression(pts, feats)[rows], 5)),
        "lof": ((48, 48), lambda: lof(as_dataset(pts), 6), lof_by_matrix(dist, 6)),
        "dbscan": ((48, 48), lambda: dbscan(as_dataset(pts), 1.0, 3),
                   dbscan_by_matrix(dist, 1.0, 3)),
        "fallback": ((48, 48), lambda: ssdbscan_with_fallback(idx, labels),
                     ssdbscan_with_fallback_by_matrix(dist, idx, labels)),
    }[call]
    monkeypatch.setattr(metricspace, "SPREAD_BYTES", 8 * shape[0] * shape[1] + below)
    monkeypatch.setattr(metricspace, "BLOCK_BYTES", 8)
    inner = metricspace._spread  # blocks slow enough that the helper takes some
    monkeypatch.setattr(metricspace, "_spread", lambda out, n_rows, fn: inner(
        out, n_rows, lambda blk_rows: time.sleep(1e-3) or fn(blk_rows)))
    ran.clear()
    out = got()
    if call == "build_index":
        out = tuple(getattr(out, name) for name in ("core", "density", "order", "gap"))
    else:
        out, want = (out,), (want,)
    assert [a.tobytes() for a in out] == [a.tobytes() for a in want]
    assert ran and (len(ran) > 1) == (not below)


@pytest.mark.parametrize("count, raiser", [(0, None), (0, "caller"), (1, None), (1, "caller"),
                                           (1, "helper"), (3, None), (3, "caller"),
                                           (3, "helper")])
def test_a_pass_keeps_no_reference_to_its_workspace(monkeypatch, helpers, count, raiser):
    # once _distances returns, or raises from one block on the caller or on a
    # pool thread, and the caller drops its workspace, the array is freed:
    # neither _spread, its pool threads nor their work items hold it. The
    # collector is off, so a reference cycle would keep it
    ran = helpers(count)
    monkeypatch.setattr(metricspace, "SPREAD_BYTES", 1)
    monkeypatch.setattr(metricspace, "BLOCK_BYTES", 8)
    pts = np.random.default_rng(113).normal(size=(40, 3))
    caller, raised = threading.get_ident(), []
    # every thread holds its first block before any thread ends one, so a
    # pool thread whose block raises cannot take a second drain task before
    # the last pool thread takes its first, however the host schedules them
    first_block, waited = threading.Barrier(count + 1, timeout=60), set()

    def each(rows, blk):
        if threading.get_ident() not in waited:
            waited.add(threading.get_ident())
            first_block.wait()
        time.sleep(1e-3)  # slow enough that every helper takes blocks
        if raiser and not raised and (threading.get_ident() == caller) == (raiser == "caller"):
            raised.append(rows)
            raise ValueError("a block failed")

    out = _workspace((40, 40))
    ref = weakref.ref(out)
    gc.disable()
    try:
        if raiser:
            with pytest.raises(ValueError, match="a block failed"):
                metricspace._distances(pts, pts, out, None, each)
        else:
            metricspace._distances(pts, pts, out, None, each)
        del out
        assert ref() is None
    finally:
        gc.enable()
    assert len(ran) == count + 1 and bool(raised) == bool(raiser)


def test_index_build_holds_one_n_by_n_array(monkeypatch):
    # the output and the index's n x K neighbour list on the traced heap, and
    # no n x n temporary beside them
    monkeypatch.setattr(metricspace, "BLOCK_BYTES", 1 << 14)
    ds = as_dataset(np.random.default_rng(3).normal(size=(300, 4)))
    tracemalloc.start()
    try:
        idx = build_index(ds, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    listed = idx.near.nbytes + idx.near_dist.nbytes
    assert 8 * 300 * 300 + listed <= peak < 1.2 * 8 * 300 * 300 + listed


def test_index_keeps_no_n_by_n_array():
    # what the returned index still holds, not the build's peak
    ds = as_dataset(np.random.default_rng(3).normal(size=(300, 4)))
    tracemalloc.start()
    try:
        idx = build_index(ds, 4)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert idx.n == 300 and held < 8 * 300 * 300 / 4


def assert_serial_bytes(idx, points, min_pts, case=None):
    for name, want in zip(("core", "density", "order", "gap"),
                          index_by_serial_passes(points, min_pts)):
        assert getattr(idx, name).tobytes() == want.tobytes(), (case, name)


@pytest.mark.parametrize("count", [0, 1, 3])
def test_spread_build_matches_serial_passes_bytes(monkeypatch, helpers, count):
    # 0-3 grids, the same grids far from the origin, and normals, so ties are
    # common; n = 2 every tenth case (below the worker count), min_pts = n - 1
    # every fourth; blocks of one row, of three rows and of 1 MiB; every row
    # pass spread, or none. The bytes must not depend on the helper count.
    ran = helpers(count)
    rng = np.random.default_rng(83)
    for case in range(90):
        n = 2 if case % 10 == 0 else int(rng.integers(3, 70))
        dim = int(rng.integers(1, 4))
        grid = rng.integers(0, 4, size=(n, dim)).astype(float)
        pts = [grid, grid + rng.normal(size=dim) * 100.0, rng.normal(size=(n, dim))][case % 3]
        min_pts = n - 1 if case % 4 == 0 else int(rng.integers(1, n))
        monkeypatch.setattr(metricspace, "BLOCK_BYTES", [8, 8 * n * 3, 1 << 20][case // 3 % 3])
        monkeypatch.setattr(metricspace, "SPREAD_BYTES", 1 if rng.random() < 0.5 else 1 << 62)
        assert_serial_bytes(build_index(as_dataset(pts), min_pts), pts, min_pts, case)
        assert pairwise_distances(pts).tobytes() == pairwise_by_expression(pts).tobytes(), case
    assert len(ran) == 1 if count == 0 else len(ran) >= 2


@pytest.mark.parametrize("spread", [False, True])
def test_densities_off_the_list_match_serial_passes_bytes(monkeypatch, helpers, spread):
    # 0-3 grids, tenths, duplicated rows, blobs with outliers, and a centre
    # whose orthogonal neighbours' core distances exceed its every listed
    # distance, so that its list cannot decide its density; min_pts 1-3 (the
    # list route) and, every fourth case, 4-10 (every row in full); blocks
    # of one row and of 1 MiB, spread over one helper or not. Among the
    # min_pts 1-3 builds, each route decides some rows
    helpers(1)
    monkeypatch.setattr(metricspace, "SPREAD_BYTES", 1 if spread else 1 << 62)
    real, shapes = metricspace._smallest_mean, []
    monkeypatch.setattr(metricspace, "_smallest_mean",
                        lambda blk, m: shapes.append(blk.shape) or real(blk, m))
    rng = np.random.default_rng(107)
    decided = {"list": 0, "full": 0}
    for case in range(100):
        n, dim = int(rng.integers(34, 90)), int(rng.integers(1, 4))
        grid = rng.integers(0, 4, size=(n, dim)).astype(float)
        blobs = rng.normal(size=(n, dim)) + 8.0 * rng.integers(3, size=(n, 1))
        blobs[:n // 10] = rng.uniform(-10.0, 30.0, size=(n // 10, dim))
        m = int(rng.integers(33, 46))
        centred = np.vstack([np.zeros(m), np.eye(m)]) * rng.uniform(0.5, 3.0)
        pts = [grid, grid / 10.0, np.repeat(rng.normal(size=(n // 2, dim)), 2, axis=0), blobs,
               centred][case % 5]
        min_pts = int(rng.integers(4, 11)) if case % 4 == 0 else int(rng.integers(1, 4))
        monkeypatch.setattr(metricspace, "BLOCK_BYTES", [8, 1 << 20][case % 2])
        shapes.clear()
        idx = build_index(as_dataset(pts), min_pts)
        assert_serial_bytes(idx, pts, min_pts, case)
        if min_pts <= 3:
            full = sum(rows for rows, width in shapes if width == idx.n)
            decided["full"] += full
            decided["list"] += idx.n - full
    assert decided["list"] > 1000 and decided["full"] > 0, decided


@pytest.mark.parametrize("spread", [False, True])
@pytest.mark.parametrize("min_pts", [1, 3, 5])
def test_spanning_tree_reads_the_pairwise_distances(monkeypatch, helpers, spread, min_pts):
    # no pass rewrites the build's workspace once it holds distances: Prim
    # gets the pairwise matrix's bytes, and forms each reachability row
    # itself. 0-3 grids (ties and duplicates) and blobs with outliers; blocks
    # of one row and of 1 MiB, spread over one helper or not
    helpers(1)
    monkeypatch.setattr(metricspace, "SPREAD_BYTES", 1 if spread else 1 << 62)
    seen, real = [], metricspace._spanning_tree
    monkeypatch.setattr(metricspace, "_spanning_tree",
                        lambda *args: seen.append(args[0].tobytes()) or real(*args))
    rng = np.random.default_rng(113)
    for case in range(12):
        n, dim = int(rng.integers(min_pts + 2, 80)), int(rng.integers(1, 4))
        grid = rng.integers(0, 4, size=(n, dim)).astype(float)
        blobs = rng.normal(size=(n, dim)) + 8.0 * rng.integers(3, size=(n, 1))
        blobs[:n // 10] = rng.uniform(-10.0, 30.0, size=(n // 10, dim))
        pts = [grid, blobs][case % 2]
        monkeypatch.setattr(metricspace, "BLOCK_BYTES", [8, 1 << 20][case // 2 % 2])
        seen.clear()
        idx = build_index(as_dataset(pts), min_pts)
        assert seen == [pairwise_distances(pts).tobytes()], case
        assert_serial_bytes(idx, pts, min_pts, case)


@pytest.mark.parametrize("spread", [False, True])
@pytest.mark.parametrize("count", [0, 1])
def test_neighbour_list_matches_stable_sort_and_serial_passes(monkeypatch, helpers, spread,
                                                               count):
    # min_pts below, at and above NEAR_K, on normals, 0-3 grids (many ties at
    # a list's end) and tenths; blocks of one row and of 1 MiB, over no
    # helper or one, spread or not. The list holds the K smallest distances
    # to other points, and their positions by (distance, position) wherever
    # the distance is not tied with the row's last one
    helpers(count)
    monkeypatch.setattr(metricspace, "SPREAD_BYTES", 1 if spread else 1 << 62)
    rng = np.random.default_rng(97)
    k = metricspace.NEAR_K
    for case in range(30):
        n = int(rng.integers(2, k + 2)) if case % 5 == 0 else int(rng.integers(k + 8, 90))
        grid = rng.integers(0, 4, size=(n, int(rng.integers(1, 4)))).astype(float)
        pts = [rng.normal(size=grid.shape), grid, grid / 10.0][case % 3]
        min_pts = min(n - 1, [3, k, k + 5][case // 3 % 3])
        monkeypatch.setattr(metricspace, "BLOCK_BYTES", [8, 1 << 20][case % 2])
        idx = build_index(as_dataset(pts), min_pts)
        assert_serial_bytes(idx, pts, min_pts, case)
        dist = pairwise_distances(pts)
        np.fill_diagonal(dist, np.inf)
        width = min(k, n - 1)
        want = np.argsort(dist, axis=1, kind="stable")[:, :width]
        assert idx.near.shape == idx.near_dist.shape == (n, width), case
        assert idx.near_dist.tobytes() == np.sort(dist, axis=1)[:, :width].tobytes(), case
        untied = idx.near_dist != idx.near_dist[:, -1:]
        assert np.array_equal(idx.near[untied], want[untied]), case
        assert np.array_equal(np.take_along_axis(dist, idx.near, axis=1), idx.near_dist), case
        ordered = np.sort(idx.near, axis=1)  # distinct other points
        assert (np.diff(ordered, axis=1) > 0).all() and (idx.near != np.arange(n)[:, None]).all()


@pytest.mark.parametrize("where", ["any", "helper", "caller"])
def test_a_failing_block_reaches_the_caller_and_the_next_build_works(monkeypatch, helpers,
                                                                     where):
    # one-row blocks of a spread build over three helpers; the block fails on
    # row 57 whichever thread takes it, or on the first row a helper (or the
    # caller) takes
    ran = helpers(3)
    monkeypatch.setattr(metricspace, "SPREAD_BYTES", 1)
    monkeypatch.setattr(metricspace, "BLOCK_BYTES", 8)
    main, real, failing = threading.get_ident(), metricspace._distances, [True]

    def slow_distances(a, b, out, rows, each):
        def each_or_fail(block_rows, blk):
            here = threading.get_ident()
            time.sleep(1e-3)  # so that every thread takes blocks
            if failing[0] and {"any": block_rows.start == 57, "helper": here != main,
                               "caller": here == main}[where]:
                raise RuntimeError(f"block {block_rows.start}")
            each(block_rows, blk)
        return real(a, b, out, rows, each_or_fail)

    pts = np.random.default_rng(97).normal(size=(120, 3))
    monkeypatch.setattr(metricspace, "_distances", slow_distances)
    with pytest.raises(RuntimeError, match="block"):
        build_index(as_dataset(pts), 4)
    failing[0] = False
    ran.clear()
    assert_serial_bytes(build_index(as_dataset(pts), 4), pts, 4)
    assert len(ran) >= 2


@pytest.mark.parametrize("case", ["return", "caller takes all", "caller raises"])
@pytest.mark.parametrize("count", [1, 3])
def test_spread_returns_once_no_block_is_running(monkeypatch, helpers, count, case):
    # one-row blocks over the caller and count helpers, each call's start
    # and end recorded: the helpers take some blocks; or every pool thread
    # is held until the caller has run every block; or a caller block
    # raises while a helper is mid-block. Either way, when _spread returns
    # no call is running and every block ran exactly once
    ran = helpers(count)
    monkeypatch.setattr(metricspace, "SPREAD_BYTES", 1)
    monkeypatch.setattr(metricspace, "BLOCK_BYTES", 8)
    main, n_rows, lock, started, ended = threading.get_ident(), 24, threading.Lock(), [], []
    caller_in, helper_in, caller_done = threading.Event(), threading.Event(), threading.Event()

    def fn(rows):
        with lock:
            started.append(rows.start)
        try:
            if case != "caller raises":
                time.sleep(1e-3)  # so that the helpers take some blocks
            elif threading.get_ident() == main:
                caller_in.set()
                assert helper_in.wait(10)
                raise RuntimeError(f"block {rows.start}")
            else:  # a helper holds its first block until the caller fails
                assert caller_in.wait(10)
                if not helper_in.is_set():
                    helper_in.set()
                    time.sleep(0.05)
        finally:
            with lock:
                ended.append(rows.start)
        if rows.start == n_rows - 1:
            caller_done.set()

    held = [metricspace._helpers.submit(caller_done.wait, 10)
            for _ in range(count if case == "caller takes all" else 0)]
    out = np.empty((n_rows, 1))
    if case == "caller raises":
        with pytest.raises(RuntimeError, match="block"):
            metricspace._spread(out, n_rows, fn)
    else:
        metricspace._spread(out, n_rows, fn)
    with lock:
        assert len(started) == len(ended) and sorted(started) == list(range(n_rows))
    assert all(task.result() for task in held)
    assert (ran == {main}) == (case == "caller takes all") and main in ran


def test_threads_building_distinct_datasets_at_once_get_serial_bytes(monkeypatch, helpers):
    # four callers spread at once over three shared helpers, with a short
    # switch interval; one of them fails in the row block that holds row 100,
    # whichever thread takes it, and the error reaches that caller alone
    ran = helpers(3)
    monkeypatch.setattr(metricspace, "SPREAD_BYTES", 1)
    rng = np.random.default_rng(101)
    sets = [rng.integers(0, 5, size=(int(rng.integers(150, 300)), 2)).astype(float)
            for _ in range(4)]
    datasets = [as_dataset(pts) for pts in sets]
    real, barrier, got = metricspace._distances, threading.Barrier(4, timeout=30), [None] * 4

    def failing_one(a, b, out, rows, each):
        def each_or_fail(block_rows, blk):
            if a is datasets[2].points and block_rows.start <= 100 < block_rows.stop:
                raise RuntimeError(f"block {block_rows.start}")
            each(block_rows, blk)
        return real(a, b, out, rows, each_or_fail)

    monkeypatch.setattr(metricspace, "_distances", failing_one)
    monkeypatch.setattr(metricspace, "BLOCK_BYTES", 8 * 300 * 8)  # blocks of a few rows

    def build(i):
        barrier.wait()
        try:
            got[i] = build_index(datasets[i], 5)
        except RuntimeError as e:
            got[i] = e

    threads = [threading.Thread(target=build, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(ran) >= 5
    assert isinstance(got[2], RuntimeError) and str(got[2]).startswith("block ")
    assert 5 not in datasets[2]._indexes
    for i in (0, 1, 3):
        assert_serial_bytes(got[i], sets[i], 5, i)


def traced_peak(fn) -> int:
    """fn's traced heap peak, after one untraced call takes the first-call
    allocations (~1 MB on the first build in a process)."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("count", [1, 3])
def test_spread_build_peak_is_the_serial_peak_plus_one_block(monkeypatch, helpers, count):
    # n x n output on the traced heap; the block temporaries in flight over
    # every thread total one BLOCK_BYTES
    ran = helpers(count)
    pts = np.random.default_rng(3).normal(size=(1000, 4))
    serial = traced_peak(lambda: index_by_serial_passes(pts, 4))
    spread = traced_peak(lambda: build_index(as_dataset(pts), 4))
    assert 8 * 1000 * 1000 <= spread <= serial + metricspace.BLOCK_BYTES and len(ran) >= 2


def test_search_of_some_rows_gathers_one_block_at_a_time(monkeypatch):
    # all 1500 rows, shuffled, against 1400 training rows: one gathered block
    # beside the whole product, not a second 1500 x 1400 matrix. The passes
    # stay on the caller, so the peak does not depend on the threads' timing
    monkeypatch.setattr(metricspace, "SPREAD_BYTES", 1 << 62)
    rng = np.random.default_rng(7)
    a = rng.normal(size=(1500, 2))
    b, rows = a[rng.permutation(1500)[:1400]], rng.permutation(1500)
    plain = traced_peak(lambda: cross_nearest(a, b, 5))
    some = traced_peak(lambda: cross_nearest(a, b, 5, rows))
    assert some <= plain + metricspace.BLOCK_BYTES + a[rows].nbytes + 8 * len(rows)
    assert (cross_nearest(a, b, 5, rows).tobytes()
            == nearest_by_matrix(a, b, 5)[rows].tobytes())


@pytest.mark.parametrize("count", [1, 3])
def test_spread_search_of_some_rows_gathers_one_block_per_thread(monkeypatch, helpers, count):
    # the serial test's search with its passes spread over the caller and
    # count helpers: each of the count extra threads may hold its own
    # gathered block and norm-sum temporary, of BLOCK_BYTES // workers each,
    # beyond the serial bound (_distances' docstring)
    ran = helpers(count)
    monkeypatch.setattr(metricspace, "SPREAD_BYTES", 1)
    rng = np.random.default_rng(7)
    a = rng.normal(size=(1500, 2))
    b, rows = a[rng.permutation(1500)[:1400]], rng.permutation(1500)
    plain = traced_peak(lambda: cross_nearest(a, b, 5))
    some = traced_peak(lambda: cross_nearest(a, b, 5, rows))
    per_thread = 2 * (metricspace.BLOCK_BYTES // (count + 1))
    assert (some <= plain + metricspace.BLOCK_BYTES + a[rows].nbytes + 8 * len(rows)
            + count * per_thread)
    assert (cross_nearest(a, b, 5, rows).tobytes()
            == nearest_by_matrix(a, b, 5)[rows].tobytes())
    assert len(ran) >= 2


@pytest.mark.parametrize("rows_per_block", [0, 1, 3, 100])
def test_nearest_matches_stable_sort(monkeypatch, rows_per_block):
    # 0-2 integer grids tie many distances across the k-cut. BLOCK_BYTES of
    # 8 (under one row), one row, three rows (a short last block) and all rows
    rng = np.random.default_rng(67)
    tied_rows = 0
    for case in range(300):
        m, n = int(rng.integers(1, 20)), int(rng.integers(1, 20))
        dim = int(rng.integers(1, 3))
        d = cross_distances(rng.integers(0, 3, size=(n, dim)).astype(float),
                            rng.integers(0, 3, size=(m, dim)).astype(float))
        k = int(rng.integers(1, m + 1)) if case % 10 else m
        monkeypatch.setattr(metricspace, "BLOCK_BYTES", max(8, 8 * m * rows_per_block))
        want = np.argsort(d, axis=1, kind="stable")[:, :k]
        if k < m:
            ranked = np.sort(d, axis=1)
            tied_rows += int(np.sum(ranked[:, k - 1] == ranked[:, k]))
        got = nearest(d, k)
        assert got.dtype == np.intp and got.tobytes() == want.tobytes(), case
    assert tied_rows >= 100


@pytest.mark.parametrize("spread", [False, True])
@pytest.mark.parametrize("rows_per_block", [0, 1, 3, 100])
def test_cross_nearest_matches_search_of_whole_matrix(monkeypatch, rows_per_block, spread):
    # 0-2 grids and training rows drawn with replacement tie many distances
    # across the k-cut; k == m every tenth case; rows unsorted and repeated,
    # sometimes none; every row pass spread, or none
    monkeypatch.setattr(metricspace, "SPREAD_BYTES", 1 if spread else 1 << 62)
    rng = np.random.default_rng(71)
    tied_rows = 0
    for case in range(200):
        n, dim = int(rng.integers(1, 30)), int(rng.integers(1, 3))
        a = (rng.integers(0, 3, size=(n, dim)).astype(float) if case % 3
             else rng.normal(size=(n, dim)))
        m = int(rng.integers(1, 20))
        b = a[rng.integers(n, size=m)] if case % 2 else rng.integers(0, 3, size=(m, dim)) * 1.0
        k = int(rng.integers(1, m + 1)) if case % 10 else m
        rows = None if case % 4 == 0 else rng.integers(n, size=int(rng.integers(0, 2 * n)))
        monkeypatch.setattr(metricspace, "BLOCK_BYTES", max(8, 8 * m * rows_per_block))
        want = nearest_by_matrix(a, b, k, rows)
        got = cross_nearest(a, b, k, rows)
        assert got.dtype == np.intp and got.tobytes() == want.tobytes(), case
        if k < m:
            ranked = np.sort(cross_distances(a, b, rows), axis=1)
            tied_rows += int(np.sum(ranked[:, k - 1] == ranked[:, k]))
    assert tied_rows >= 1000


def test_nearest_center_matches_both_former_loops():
    # odd cases sit on 0-2 grids, so points repeat and centres tie; every
    # fifth case has no centre and every fifth one centre
    rng = np.random.default_rng(89)
    ties = 0
    for case in range(500):
        n, d = int(rng.integers(1, 40)), int(rng.integers(1, 4))
        k = case % 5 if case % 5 < 2 else int(rng.integers(2, 12))
        if case % 2:
            pts = rng.integers(0, 3, size=(n, d)).astype(float)
            centers = rng.integers(0, 3, size=(k, d)).astype(float)
        else:
            pts = rng.normal(size=(n, d))
            centers = rng.normal(size=(k, d))
        index, sq_dist = nearest_center(pts, centers)
        assert sq_dist.tobytes() == sq_dist_by_minimum(pts, centers).tobytes(), case
        want = nearest_centroid_by_loop(pts, centers) if k else np.zeros(n, dtype=int)
        assert index.tobytes() == want.tobytes(), case
        if k:
            d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            ties += int(((d2 == d2.min(axis=1, keepdims=True)).sum(axis=1) > 1).sum())
    assert ties >= 100


def test_distances_refuse_overflowing_norms():
    with pytest.raises(ValueError, match="squared norm"):
        build_index(as_dataset([[1e200, 2e200], [2e200, 3e200], [3e200, 1e200]]), 1)
    with pytest.raises(ValueError, match="squared norm"):
        pairwise_distances([[0.0], [np.nan], [1.0]])
    with pytest.raises(ValueError, match="finite"):  # no Dataset holds a NaN
        as_dataset([[0.0], [np.nan], [1.0]])
    with pytest.raises(ValueError, match="squared norm"):
        cross_distances([[0.0]], [[np.inf]])


def test_distances_just_under_the_norm_bound_stay_finite():
    bound = np.finfo(float).max / 4
    x = np.sqrt(bound)
    while x * x > bound:
        x = np.nextafter(x, 0.0)
    idx = build_index(as_dataset([[x], [-x], [0.0]]), 1)
    dist = pairwise_distances(idx.points)
    assert np.isfinite(dist).all() and np.isfinite(idx.density).all()
    assert dist[0, 1] == pytest.approx(2 * x)
    with pytest.raises(ValueError, match="squared norm"):
        build_index(as_dataset([[x * 1.001], [0.0]]), 1)


def test_index_arrays_are_read_only():
    idx = build_index(LINE, 2)
    assert idx.order.shape == (LINE.n,) and idx.gap.shape == (LINE.n - 1,)
    assert idx.sq_norms.tobytes() == metricspace.squared_norms(LINE.points).tobytes()
    for arr in (idx.core, idx.density, idx.order, idx.gap, idx.near, idx.near_dist,
                idx.sq_norms):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


def test_build_index_computes_squared_norms_once(monkeypatch):
    # the index keeps the norms its distance pass checked
    calls, real = [], metricspace.squared_norms
    monkeypatch.setattr(metricspace, "squared_norms", lambda p: calls.append(p) or real(p))
    idx = build_index(as_dataset(np.random.default_rng(7).normal(size=(50, 3))), 3)
    assert len(calls) == 1 and calls[0] is idx.points
    assert idx.sq_norms.tobytes() == real(idx.points).tobytes()


def test_pairwise_matrix_is_symmetric_with_zero_diagonal():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(40, 3))
    d = pairwise_distances(pts)
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    i, j = 4, 17
    assert d[i, j] == pytest.approx(np.linalg.norm(pts[i] - pts[j]), abs=1e-12)


def test_reach_distance_worked_example():
    idx = build_index(LINE, 2)
    # points 1 and 3 live at indices 1 and 2
    assert reach_distance(idx, 1, 2) == 3.0


def test_reach_distance_is_symmetric_and_dominates_parts():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(25, 2))
    idx = build_index(as_dataset(pts), 3)
    dist = pairwise_distances(pts)
    for _ in range(100):
        p, q = rng.integers(25, size=2)
        r = reach_distance(idx, int(p), int(q))
        assert r == reach_distance(idx, int(q), int(p))
        assert r >= dist[p, q]
        assert r >= idx.core[p] and r >= idx.core[q]


def test_reach_distance_bounds_check():
    idx = build_index(LINE, 1)
    with pytest.raises(IndexError):
        reach_distance(idx, 0, 9)


def test_knn_by_rdist_worked_example():
    idx = build_index(LINE, 1)
    assert knn_by_rdist(idx, 0, 2).tolist() == [1, 2]


def test_knn_by_rdist_full_is_permutation_of_others():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(15, 2))
    idx = build_index(as_dataset(pts), 2)
    for q in range(15):
        got = knn_by_rdist(idx, q, 14)
        assert sorted(got.tolist()) == [i for i in range(15) if i != q]


def test_knn_by_rdist_tie_prefers_smaller_index():
    ds = Dataset(points=[[0.0], [1.0], [-1.0]], truth=[0, 0, 0])
    idx = build_index(ds, 1)
    assert knn_by_rdist(idx, 0, 2).tolist() == [1, 2]


def test_knn_by_rdist_m_bounds():
    idx = build_index(LINE, 1)
    with pytest.raises(ValueError, match="m must be"):
        knn_by_rdist(idx, 0, 0)
    with pytest.raises(ValueError, match="m must be"):
        knn_by_rdist(idx, 0, 4)


def test_density_reachable_at_reach_distance():
    rng = np.random.default_rng(21)
    for _ in range(40):
        pts = rng.normal(size=(int(rng.integers(5, 25)), 2))
        min_pts = int(rng.integers(1, 4))
        idx = build_index(as_dataset(pts), min_pts)
        p, q = rng.choice(idx.n, size=2, replace=False)
        eps = reach_distance(idx, int(p), int(q))
        assert is_density_reachable(idx, int(p), int(q), eps)


def test_density_reachable_epsilon_zero_distinct_points():
    idx = build_index(LINE, 1)
    assert not is_density_reachable(idx, 0, 3, 0.0)


def test_density_reachable_fails_just_below_two_point_reach():
    ds = Dataset(points=[[0.0], [4.0]], truth=[0, 0])
    idx = build_index(ds, 1)
    eps = reach_distance(idx, 0, 1)
    assert is_density_reachable(idx, 0, 1, eps)
    assert not is_density_reachable(idx, 0, 1, eps * (1 - 1e-6))


def test_density_reachable_needs_an_intermediate_chain():
    # tight pairs far apart; p and q are the gap-facing members, so every
    # cross hop is at least dist(p, q) and no chain survives below it
    ds = Dataset(points=[[-0.2], [0.0], [9.0], [9.2]], truth=[0, 0, 0, 0])
    idx = build_index(ds, 1)
    eps = reach_distance(idx, 1, 2)
    assert pairwise_distances(idx.points)[1, 2] == eps  # the gap strictly dominates both cores
    assert is_density_reachable(idx, 1, 2, eps)
    assert not is_density_reachable(idx, 1, 2, eps * (1 - 1e-6))
