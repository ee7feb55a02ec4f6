"""Expansion read off the reachability plot, back-tracing, combined
clustering, and emax.

The per-root Prim expansions in `oracles` are the reference, and so is
the Kruskal sweep that fills every root's row of minimax values
(`expand_by_rows`): the library must reproduce their assignment and emax
bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

from ssdbcodi import Dataset, LabelSet, UNCLUSTERED, build_index, expand
from ssdbcodi.metricspace import _spanning_tree
from oracles import (ExpansionRecord, as_dataset, back_trace, combine_backtraces,
                     emax_over_roots, expand_all, expand_by_rows, expand_by_two_tables,
                     minimax_closure,
                     minimax_rows, mst_weights_by_kruskal, pairwise_distances, prim_expand,
                     prim_tree_edges, random_labelset, random_points, rdist_matrix,
                     ssdbscan_by_expansion)


def line_dataset(values):
    return Dataset(points=[[float(v)] for v in values], truth=[0] * len(values))


def only_normals(mapping):
    return LabelSet(normal=mapping, outliers=frozenset())


def test_prim_expand_worked_example():
    idx = build_index(line_dataset([0, 1, 3]), 1)
    rec = prim_expand(idx, 0, only_normals({0: 0}), terminate=False)
    assert rec.order == ((0, 0.0), (1, 1.0), (2, 2.0))
    assert rec.prefix_max.tolist() == [0.0, 1.0, 2.0]
    assert rec.boundary_pos is None
    assert minimax_rows(idx, [0]).tolist() == [[0.0, 1.0, 2.0]]
    assert idx.order.tolist() == [0, 1, 2] and idx.gap.tolist() == [1.0, 2.0]
    assert expand(idx, only_normals({0: 0}))[1].tolist() == [0.0, 1.0, 2.0]


def test_prim_expand_root_key_is_zero_and_coverage_is_total():
    rng = np.random.default_rng(2)
    for _ in range(20):
        pts = random_points(rng)
        idx = build_index(as_dataset(pts), int(rng.integers(1, 3)))
        labels = random_labelset(rng, idx.n)
        root = sorted(labels.normal)[0]
        rec = prim_expand(idx, root, labels, terminate=False)
        assert rec.order[0] == (root, 0.0)
        inserted = [p for p, _ in rec.order]
        assert sorted(inserted) == list(range(idx.n))
        assert len(set(inserted)) == idx.n
        # prefix_max is the running max of keys in insertion order
        running = 0.0
        for p, key in rec.order:
            running = max(running, key)
            assert rec.prefix_max[p] == running


def test_prim_expand_rejects_non_normal_roots():
    idx = build_index(line_dataset([0, 1, 3]), 1)
    labels = LabelSet(normal={0: 0}, outliers=frozenset([2]))
    with pytest.raises(ValueError, match="root"):
        prim_expand(idx, 2, labels, terminate=True)
    with pytest.raises(ValueError, match="root"):
        prim_expand(idx, 1, labels, terminate=True)


def test_prim_expand_terminating_stops_at_boundary():
    idx = build_index(line_dataset([0, 0.1, 10, 10.1]), 1)
    labels = only_normals({0: 0, 2: 1})
    rec = prim_expand(idx, 0, labels, terminate=True)
    assert rec.boundary == 2
    assert [p for p, _ in rec.order] == [0, 1, 2]
    full = prim_expand(idx, 0, labels, terminate=False)
    assert full.boundary == 2
    assert len(full.order) == 4
    # the shared prefix of insertion order is identical either way
    assert full.order[:len(rec.order)] == rec.order


def test_prefix_max_matches_minimax_oracle():
    rng = np.random.default_rng(9)
    for _ in range(30):
        pts = random_points(rng)
        idx = build_index(as_dataset(pts), int(rng.integers(1, 4)))
        labels = random_labelset(rng, idx.n)
        oracle = minimax_closure(rdist_matrix(idx))
        roots = sorted(labels.normal)
        rows = minimax_rows(idx, roots)
        for row, root in zip(rows, roots):
            rec = prim_expand(idx, root, labels, terminate=False)
            assert np.allclose(rec.prefix_max, oracle[root], atol=1e-12)
            assert np.array_equal(row, rec.prefix_max)
            assert expand(idx, only_normals({root: 0}))[1].tobytes() == row.tobytes()


def synthetic_record(keys, boundary_pos):
    order = tuple((i, k) for i, k in enumerate(keys))
    prefix = np.maximum.accumulate(np.asarray(keys, dtype=float))
    return ExpansionRecord(root=0, order=order, prefix_max=prefix,
                           boundary_pos=boundary_pos)


def test_back_trace_cuts_at_earliest_maximum():
    rec = synthetic_record([0.0, 1.0, 1.2, 5.0, 1.1], boundary_pos=4)
    assert back_trace(rec) == {0, 1, 2}


def test_back_trace_immediate_boundary_keeps_only_root():
    rec = synthetic_record([0.0, 2.0], boundary_pos=1)
    assert back_trace(rec) == {0}


def test_back_trace_without_boundary_keeps_everything():
    rec = synthetic_record([0.0, 1.0, 0.5, 2.0], boundary_pos=None)
    assert back_trace(rec) == {0, 1, 2, 3}


def test_back_trace_tie_uses_earliest_maximum():
    rec = synthetic_record([0.0, 3.0, 1.0, 3.0, 0.5], boundary_pos=4)
    assert back_trace(rec) == {0}


def fuzz_instance(rng, grid):
    """Points and labels for one equivalence case; grid points repeat a lot."""
    if grid:
        n = int(rng.integers(2, 40))
        pts = rng.integers(0, 4, size=(n, int(rng.integers(1, 3)))).astype(float)
    else:
        pts = random_points(rng)
        n = pts.shape[0]
    idx = build_index(as_dataset(pts), int(rng.integers(1, min(3, n - 1) + 1)))
    outlier_rate = float(rng.choice([0.0, 0.3]))
    labels = random_labelset(rng, n, n_clusters=int(rng.integers(1, 4)),
                             outlier_rate=outlier_rate)
    return idx, labels


def test_expand_matches_expand_by_rows_bit_for_bit():
    # the plot path against the R x n Kruskal rows, on 0-2 grids (many tied
    # keys), duplicated points, labeled outliers and every point labeled
    rng = np.random.default_rng(43)
    seen = {"grid": 0, "duplicates": 0, "blobs": 0, "outliers": 0, "all_labeled": 0,
            "one_class": 0, "unclustered": 0}
    for case in range(600):
        kind = ("grid", "duplicates", "blobs")[case % 3]
        if kind == "grid":
            n = int(rng.integers(2, 50))
            pts = rng.integers(0, 3, size=(n, int(rng.integers(1, 3)))).astype(float)
        elif kind == "duplicates":
            n = int(rng.integers(2, 40))
            pts = np.repeat(rng.normal(size=(int(rng.integers(1, 4)), 2)), n, axis=0)[:n]
        else:
            pts = random_points(rng)
            n = pts.shape[0]
        idx = build_index(as_dataset(pts), int(rng.integers(1, min(3, n - 1) + 1)))
        classes = int(rng.integers(1, 4))
        if case % 10 == 0:
            labels = LabelSet(normal={i: int(rng.integers(classes)) for i in range(n)},
                              outliers=frozenset())
        else:
            labels = random_labelset(rng, n, n_clusters=classes,
                                     outlier_rate=float(rng.choice([0.0, 0.3, 0.6])))
            if not labels.normal:
                labels = LabelSet(normal={0: 0}, outliers=labels.outliers - {0})
        assign, emax = expand(idx, labels)
        want_assign, want_emax = expand_by_rows(idx, labels)
        assert assign.dtype == want_assign.dtype and emax.dtype == want_emax.dtype
        assert assign.tobytes() == want_assign.tobytes(), (case, kind)
        assert emax.tobytes() == want_emax.tobytes(), (case, kind)
        assert not assign.flags.writeable
        seen[kind] += 1
        seen["outliers"] += bool(labels.outliers)
        seen["all_labeled"] += len(labels) == n
        seen["one_class"] += len(set(labels.normal.values())) == 1
        seen["unclustered"] += bool((assign == UNCLUSTERED).any())
    assert min(seen.values()) >= 40, seen


def test_expand_answers_both_queries_off_one_table_with_the_bits_of_two():
    rng = np.random.default_rng(44)
    for case in range(300):
        if case % 3 == 2:  # duplicated points: runs of zero keys
            n = int(rng.integers(2, 40))
            pts = np.repeat(rng.normal(size=(int(rng.integers(1, 4)), 2)), n, axis=0)[:n]
            idx = build_index(as_dataset(pts), 1)
            labels = random_labelset(rng, n, n_clusters=2)
            if not labels.normal:
                labels = LabelSet(normal={0: 0}, outliers=labels.outliers - {0})
        else:
            idx, labels = fuzz_instance(rng, grid=case % 3 == 0)
            if not labels.normal:
                continue
        got, want = expand(idx, labels), expand_by_two_tables(idx, labels)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), case


def test_expand_holds_no_roots_by_points_array():
    rng = np.random.default_rng(71)
    centres = rng.normal(scale=8.0, size=(6, 3))
    pts = centres[rng.integers(6, size=3000)] + rng.normal(size=(3000, 3))
    idx = build_index(as_dataset(pts), 4)
    picked = rng.choice(idx.n, size=330, replace=False)
    labels = LabelSet(normal={int(i): int(i) % 3 for i in picked[:300]},
                      outliers=frozenset(int(i) for i in picked[300:]))
    tracemalloc.start()
    try:
        expand(idx, labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(labels.normal) * idx.n


def test_expand_matches_per_root_expansions_bit_for_bit():
    rng = np.random.default_rng(41)
    seen = {"grid": 0, "outliers": 0, "no_boundary": 0}
    for case in range(400):
        idx, labels = fuzz_instance(rng, grid=case % 2 == 1)
        records = expand_all(idx, labels, terminate=False)
        assign, emax = expand(idx, labels)
        assert np.array_equal(assign, combine_backtraces(records, labels, idx.n))
        assert emax.tobytes() == emax_over_roots(records).tobytes()
        assert np.array_equal(expand(idx, labels)[0], ssdbscan_by_expansion(idx, labels))
        seen["grid"] += case % 2
        seen["outliers"] += bool(labels.outliers)
        seen["no_boundary"] += all(rec.boundary_pos is None for rec in records)
    assert min(seen.values()) >= 20


def per_root_rows(idx, roots):
    """The per-root expansions' prefix maxima, one row per entry of roots."""
    labels = only_normals({int(r): 0 for r in roots})
    return np.vstack([prim_expand(idx, int(r), labels, terminate=False).prefix_max
                      for r in roots])


def large_fuzz_points(rng, kind):
    if kind == "blobs":
        return random_points(rng, n=int(rng.integers(100, 301)))
    if kind == "chain":
        # gaps grow along the line, so one component absorbs the points one by one
        gaps = np.sort(rng.uniform(0.1, 1.0, size=int(rng.integers(50, 301))))
        line = np.concatenate([[0.0], np.cumsum(gaps)])
        return line[rng.permutation(line.size)][:, None]
    if kind == "duplicates":
        return np.tile(rng.normal(size=(1, 2)), (int(rng.integers(2, 120)), 1))
    return rng.normal(size=(2, int(rng.integers(1, 4))))  # "pair"


def test_minimax_rows_matches_per_root_expansions_on_large_shapes():
    rng = np.random.default_rng(53)
    seen = {}
    for case in range(48):
        kind = ("blobs", "chain", "duplicates", "pair")[case % 4]
        pts = large_fuzz_points(rng, kind)
        n = pts.shape[0]
        idx = build_index(as_dataset(pts), int(rng.integers(1, min(3, n - 1) + 1)))
        how = ("one", "all", "some")[case // 4 % 3]
        if how == "all" and n > 150:
            how = "some"
        count = {"one": 1, "all": n, "some": int(rng.integers(1, min(n, 12) + 1))}[how]
        # unsorted, and with repeats under "some": rows follow this order
        roots = rng.choice(n, size=count, replace=how == "some")
        mm = minimax_rows(idx, roots)
        assert mm.shape == (count, n)
        assert mm.tobytes() == per_root_rows(idx, roots).tobytes(), (kind, how)
        # the library reads each row off the plot as a one-root emax
        for root in np.unique(roots).tolist():
            emax = expand(idx, only_normals({root: 0}))[1]
            assert emax.tobytes() == mm[roots == root][0].tobytes(), (kind, how)
        if n <= 80:
            assert np.array_equal(mm, minimax_closure(rdist_matrix(idx))[roots])
        seen[kind] = seen.get(kind, 0) + 1
        seen[how] = seen.get(how, 0) + 1
        seen["repeats"] = seen.get("repeats", 0) + int(np.unique(roots).size < count)
    assert len(seen) == 8 and min(seen.values()) >= 5


def test_minimax_rows_rejects_roots_out_of_range():
    idx = build_index(line_dataset([0, 1, 3]), 1)
    for roots in ([3], [-1], [2, -1]):
        with pytest.raises(IndexError, match="root indices"):
            minimax_rows(idx, roots)
    assert minimax_rows(idx, []).shape == (0, 3)


def test_minimax_rows_refuses_roots_it_would_cast():
    # a float would truncate, a mask would become rows 1 and 0
    idx = build_index(line_dataset([0, 1, 3, 7]), 1)
    for bad in ([0.9, 1.5], [0.7], [True, False], [[0, 1], [2, 3]]):
        with pytest.raises(ValueError, match="root indices must be a 1-D sequence"):
            minimax_rows(idx, bad)
    assert minimax_rows(idx, np.array([3, 0], dtype=np.int32)).shape == (2, 4)


def test_spanning_tree_weights_match_kruskal_on_tied_grids():
    rng = np.random.default_rng(61)
    for case in range(60):
        n = int(rng.integers(2, 60)) if case % 3 else int(rng.integers(100, 160))
        pts = rng.integers(0, 4, size=(n, int(rng.integers(1, 3)))).astype(float)
        idx = build_index(as_dataset(pts), int(rng.integers(1, min(3, n - 1) + 1)))
        rdist = rdist_matrix(idx)
        assert np.array_equal(np.sort(idx.gap), mst_weights_by_kruskal(rdist))
        # the index stores the plot of a fresh Prim pass: its join order
        # from point 0 and its join keys, those of the recorded tree edges
        order, gap = _spanning_tree(pairwise_distances(pts), idx.core)
        u, v, w = prim_tree_edges(pairwise_distances(pts), idx.core)
        assert idx.order.dtype == order.dtype and idx.gap.dtype == gap.dtype
        assert idx.order.tobytes() == order.tobytes() and idx.gap.tobytes() == gap.tobytes()
        assert np.array_equal(idx.order[1:], v) and idx.gap.tobytes() == w.tobytes()
        assert idx.order[0] == 0
        assert np.array_equal(np.sort(idx.order), np.arange(n))
        # mm(root, .) is the running maximum of gap outward from the root
        closure = minimax_closure(rdist)
        for at, root in enumerate(idx.order.tolist()):
            mm = np.empty(n)
            mm[idx.order[at]] = 0.0
            mm[idx.order[at + 1:]] = np.maximum.accumulate(idx.gap[at:])
            mm[idx.order[:at]] = np.maximum.accumulate(idx.gap[:at][::-1])[::-1]
            assert np.array_equal(mm, closure[root]), (case, root)


def test_ssdbscan_two_tight_groups():
    idx = build_index(line_dataset([0, 0.1, 10, 10.1]), 1)
    assign = expand(idx, only_normals({0: 0, 2: 1}))[0]
    assert assign.tolist() == [0, 0, 1, 1]


def test_ssdbscan_single_label_claims_everything():
    idx = build_index(line_dataset([0, 1, 2, 3]), 1)
    assign = expand(idx, only_normals({0: 0}))[0]
    assert assign.tolist() == [0, 0, 0, 0]


def test_ssdbscan_labeled_outlier_between_same_class_roots():
    idx = build_index(line_dataset([0, 1, 2, 3, 4]), 1)
    labels = LabelSet(normal={0: 0, 4: 0}, outliers=frozenset([2]))
    assign = expand(idx, labels)[0]
    assert assign[2] == UNCLUSTERED
    assert assign[0] == 0 and assign[4] == 0


def test_ssdbscan_never_violates_labels():
    rng = np.random.default_rng(17)
    for _ in range(200):
        pts = random_points(rng)
        idx = build_index(as_dataset(pts), int(rng.integers(1, 4)))
        labels = random_labelset(rng, idx.n)
        assign = expand(idx, labels)[0]
        # labeled normals keep their own label; labeled outliers stay out
        for i, c in labels.normal.items():
            assert assign[i] == c
        for i in labels.outliers:
            assert assign[i] == UNCLUSTERED
        # no cluster mixes two different user labels
        for i, ci in labels.normal.items():
            for j, cj in labels.normal.items():
                if ci != cj:
                    assert not (assign[i] == assign[j])


def test_adding_labeled_outlier_never_grows_a_backtrace():
    rng = np.random.default_rng(23)
    for _ in range(50):
        pts = random_points(rng)
        idx = build_index(as_dataset(pts), int(rng.integers(1, 3)))
        labels = random_labelset(rng, idx.n)
        unlabeled = [i for i in range(idx.n) if i not in labels.normal
                     and i not in labels.outliers]
        if not unlabeled:
            continue
        extra = LabelSet(normal=labels.normal,
                         outliers=labels.outliers | {int(rng.choice(unlabeled))})
        before = expand(idx, labels)[0] != UNCLUSTERED
        after = expand(idx, extra)[0] != UNCLUSTERED
        assert np.all(before | ~after)


def test_conflicting_claims_go_to_the_cheaper_root():
    # a midpoint clump reachable from both sides: whichever root reaches it
    # with the smaller minimax path value wins
    values = [0, 1, 2, 3.0, 3.5, 4.0, 7, 8, 9]
    idx = build_index(line_dataset(values), 1)
    labels = only_normals({0: 0, 8: 1})
    roots = sorted(labels.normal)
    mm = minimax_rows(idx, roots)
    assign = expand(idx, labels)[0]
    assert assign.tolist() == [0, 0, 0, 0, 0, 0, 1, 1, 1]
    for q in range(idx.n):
        claims = [(float(mm[j, q]), root) for j, root in enumerate(roots)
                  if q in back_trace(prim_expand(idx, root, labels, terminate=True))]
        if claims:
            assert assign[q] == labels.normal[min(claims)[1]]
        else:
            assert assign[q] == UNCLUSTERED


def test_emax_is_zero_exactly_at_roots_and_min_over_records():
    rng = np.random.default_rng(31)
    for _ in range(20):
        pts = random_points(rng)
        idx = build_index(as_dataset(pts), 2)
        labels = random_labelset(rng, idx.n)
        emax = expand(idx, labels)[1]
        assert np.array_equal(emax, minimax_rows(idx, sorted(labels.normal)).min(axis=0))
        for root in labels.normal:
            assert emax[root] == 0.0


def test_emax_rejects_empty_and_partial_records():
    idx = build_index(line_dataset([0, 0.1, 10, 10.1]), 1)
    labels = only_normals({0: 0, 2: 1})
    with pytest.raises(ValueError, match="at least one labeled normal point is required"):
        expand(idx, LabelSet(normal={}, outliers=frozenset([1])))
    # the reference refuses what it cannot take a minimum over
    with pytest.raises(ValueError, match="at least one"):
        emax_over_roots([])
    partial = [prim_expand(idx, 0, labels, terminate=True)]
    with pytest.raises(ValueError, match="cover"):
        emax_over_roots(partial)
