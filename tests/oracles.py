"""Independent reference computations used to pin expected test values.

Everything here deliberately takes a different route from the library:
closure-based minimax paths and one Prim expansion per root instead of a
single spanning tree, and a Kruskal sweep over that tree's recorded
edges (`prim_tree_edges`, `minimax_rows`, `expand_by_rows`) that fills
every root's R x n row of minimax values instead of reading them off the
reachability plot, threshold-swept ROC curves and average-rank sums
(`auc_by_ranks`) instead of the U count, pair enumeration and
contingency tables (`rand_by_contingency`, `nmi_by_contingency`, and
Counter-based ones) instead of counting pairs by bincount, pointwise
scores and a full sort with a per-row vote loop instead of the
vectorized scores and the k-pass neighbour selection, a search of
the finished distance matrix instead of each row block as it is made
(`nearest_by_matrix`), one broadcast over every centroid instead of a
running minimum (the former running-minimum loops stay beside it as
oracles of their own), a cells-outer tuning loop that searches neighbours
afresh for every finish and classifies every point before reading the
hidden ones, a fallback clusterer, DBSCAN and LOF handed a whole
distance matrix (`ssdbscan_with_fallback_by_matrix`, `dbscan_by_matrix`,
`lof_by_matrix`) instead of reading row blocks as they are made, the
index build's former passes on one thread (`index_by_serial_passes`)
instead of row blocks spread over the cores, the CSV reader's former
csv and float() loop over every cell (`load_csv_by_cells`) instead of
numpy's parser, the paper's pipeline from points to result with none of
the library's fast paths (`run_by_paper`), and a loop over each row's
list (`ranked_by_loop`, and `decided_by_loop` for a stage's normals)
instead of model._ranked's window and whole-list passes, and
the former paths that each shortcut of a label draw skips: a vote of every
row (`vote_every_row`), the running minimum over every labeled outlier
(`sq_dist_by_minimum`), and a sparse table per range-max query
(`expand_by_two_tables`).

The exceptions call the library to give its bits: `select_reliable`,
the model's split of an assignment and its selection of the reliable
outliers in one call, which the selection tests drive; `classify`, its
`neighbours`, vote layout and `vote` in one call, which the classifier tests
drive (the vote it replaced, over a training set and its neighbour
positions, stays as `vote_by_positions`, beside `finish_by_order`, the
finish that looked neighbours up per order of every training set), and
`pairwise_distances`, `cross_distances` and `nearest`, thin wrappers over
metricspace's private block loop (`_distances`, `_nearest_block`) that
hand back whole matrices, which the library itself never keeps.
"""

from collections import Counter
import csv
from dataclasses import dataclass, replace
import math
from pathlib import Path

import numpy as np

from ssdbcodi import (Dataset, LabelSet, NeighborhoodIndex, NOISE, OUTLIER, PipelineParams,
                      PipelineResult, ScoreParams, TrainingSet, TuneReport, UNCLUSTERED,
                      blend_grid, build_index, default_k, expand, finish, prepare,
                      round_half_up)
from ssdbcodi import dataset
from ssdbcodi.dataset import point_indices
from ssdbcodi import metricspace
from ssdbcodi import model
from ssdbcodi.model import neighbours
from ssdbcodi.scoring import t_score
from ssdbcodi.pipeline import _drop_labels, _fold_partition


def minimax_closure(weights: np.ndarray) -> np.ndarray:
    """All-pairs minimax path values over a complete weighted graph."""
    w = np.array(weights, dtype=float)
    n = w.shape[0]
    np.fill_diagonal(w, 0.0)
    for k in range(n):
        w = np.minimum(w, np.maximum(w[:, k:k + 1], w[k:k + 1, :]))
    return w


def mst_weights_by_kruskal(weights: np.ndarray) -> np.ndarray:
    """Sorted edge weights of a minimum spanning tree of a complete graph,
    by Kruskal over every pair with a path-halving union-find."""
    w = np.asarray(weights, dtype=float)
    n = w.shape[0]
    parent = list(range(n))

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    taken = []
    for weight, i, j in sorted((float(w[i, j]), i, j)
                               for i in range(n) for j in range(i + 1, n)):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            taken.append(weight)
    return np.array(taken)


def auc_by_threshold_sweep(scores, labels) -> float:
    """Trapezoidal area under the ROC curve swept over score thresholds."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=bool)
    pos = y.sum()
    neg = (~y).sum()
    thresholds = np.concatenate([[np.inf], np.unique(s)[::-1]])
    points = []
    for t in thresholds:
        predicted = s >= t
        points.append((
            (predicted & ~y).sum() / neg,
            (predicted & y).sum() / pos,
        ))
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return float(area)


def rand_by_pair_enumeration(a, b) -> float:
    """Agreement rate over all point pairs, computed from pair masks."""
    ai = np.asarray(a)
    bi = np.asarray(b)
    same_a = ai[:, None] == ai[None, :]
    same_b = bi[:, None] == bi[None, :]
    upper = np.triu_indices(ai.size, k=1)
    return float((same_a[upper] == same_b[upper]).mean())


def nmi_by_counter(a, b) -> float:
    """Normalized mutual information from Counter-based contingencies."""
    a = [int(v) for v in a]
    b = [int(v) for v in b]
    n = len(a)
    ca = Counter(a)
    cb = Counter(b)
    cab = Counter(zip(a, b))
    h_a = -sum((c / n) * math.log(c / n) for c in ca.values())
    h_b = -sum((c / n) * math.log(c / n) for c in cb.values())
    if h_a + h_b == 0.0:
        return 1.0
    info = sum((c / n) * math.log((c / n) / ((ca[x] / n) * (cb[y] / n)))
               for (x, y), c in cab.items())
    return 2.0 * info / (h_a + h_b)


def average_ranks(values) -> np.ndarray:
    """1-based ranks with ties sharing their group's average rank."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    high = np.cumsum(counts)
    return (high - (counts - 1) / 2.0)[inverse]


def auc_by_ranks(scores, labels) -> float:
    """metrics.auc as it was before the U count: the positives' average-rank
    sum less pos (pos + 1) / 2, over pos x neg."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=bool)
    pos = int(y.sum())
    neg = int(y.size - pos)
    u = average_ranks(s)[y].sum() - pos * (pos + 1) / 2.0
    return float(u / (pos * neg))


def _contingency(a, b) -> np.ndarray:
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((int(ai.max()) + 1, int(bi.max()) + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)
    return table


def rand_by_contingency(a, b) -> float:
    """metrics.rand_index as it was before the pair count: C(., 2) sums over
    an np.add.at contingency table and its margins."""
    t = _contingency(a, b).astype(float)
    n = t.sum()

    def comb2(x):
        return (x * (x - 1) / 2.0).sum()

    same_both = comb2(t)
    total = n * (n - 1) / 2.0
    diff_both = total - comb2(t.sum(axis=1)) - comb2(t.sum(axis=0)) + same_both
    return float((same_both + diff_both) / total)


def nmi_by_contingency(a, b) -> float:
    """metrics.nmi as it was before its one-bincount table: the same
    entropies over an np.add.at contingency table."""
    p = _contingency(a, b).astype(float)
    p /= p.sum()
    pa = p.sum(axis=1)
    pb = p.sum(axis=0)
    ha = float(-(pa[pa > 0] * np.log(pa[pa > 0])).sum())
    hb = float(-(pb[pb > 0] * np.log(pb[pb > 0])).sum())
    if ha + hb == 0.0:
        return 1.0
    outer = np.outer(pa, pb)
    nz = p > 0
    info = float((p[nz] * np.log(p[nz] / outer[nz])).sum())
    return float(min(1.0, max(0.0, 2.0 * info / (ha + hb))))


def random_points(rng, n=None, d=None) -> np.ndarray:
    """Loosely clustered random points so expansions see real structure."""
    n = int(rng.integers(5, 40)) if n is None else n
    d = int(rng.integers(1, 4)) if d is None else d
    centers = rng.normal(scale=4.0, size=(int(rng.integers(1, 4)), d))
    assign = rng.integers(centers.shape[0], size=n)
    return centers[assign] + rng.normal(scale=1.0, size=(n, d))


def as_dataset(points) -> Dataset:
    """Raw points as a Dataset of one cluster, for the calls that take one."""
    points = np.asarray(points, dtype=float)
    return Dataset(points=points, truth=np.zeros(points.shape[0], dtype=int))


def sample_labels_by_loop(ds: Dataset, fraction: float, seed: int,
                          stratified: bool = False) -> LabelSet:
    """sample_labels as it built its labels: the library's seeded draw, read
    one Python int at a time into the public LabelSet constructor."""
    count = round_half_up(fraction * ds.n)
    rng = np.random.default_rng(seed)
    if stratified:
        chosen = dataset._stratified_choice(ds, count, rng)
    else:
        chosen = rng.choice(ds.n, size=count, replace=False)
    normal, outliers = {}, set()
    for i in sorted(int(v) for v in chosen):
        if ds.truth[i] == OUTLIER:
            outliers.add(i)
        else:
            normal[i] = int(ds.truth[i])
    return LabelSet(normal=normal, outliers=frozenset(outliers))


def random_labelset(rng, n, n_clusters=3, outlier_rate=0.3) -> LabelSet:
    """A random label assignment over a random subset of points."""
    count = int(rng.integers(1, max(2, n // 2)))
    chosen = rng.choice(n, size=count, replace=False)
    normal = {}
    outliers = set()
    for i in chosen:
        if rng.random() < outlier_rate and normal:
            outliers.add(int(i))
        else:
            normal[int(i)] = int(rng.integers(n_clusters))
    if not normal:
        normal[int(chosen[0])] = 0
    return LabelSet(normal=normal, outliers=frozenset(outliers))


def make_moons(n: int, noise: float, rng) -> tuple:
    """Two interleaved half-circle clusters with Gaussian jitter."""
    half = n // 2
    t1 = rng.uniform(0.0, math.pi, size=half)
    t2 = rng.uniform(0.0, math.pi, size=n - half)
    upper = np.column_stack([np.cos(t1), np.sin(t1)])
    lower = np.column_stack([1.0 - np.cos(t2), 0.5 - np.sin(t2)])
    pts = np.vstack([upper, lower]) + rng.normal(scale=noise, size=(n, 2))
    truth = np.concatenate([np.zeros(half, dtype=int), np.ones(n - half, dtype=int)])
    return pts, truth


def moons_with_outliers(n: int = 400, outlier_rate: float = 0.05,
                        noise: float = 0.08, seed: int = 411) -> Dataset:
    """Two-moons data plus uniformly scattered background outliers."""
    rng = np.random.default_rng(seed)
    pts, truth = make_moons(n, noise, rng)
    n_out = round(n * outlier_rate)
    lo = pts.min(axis=0) - 0.5
    hi = pts.max(axis=0) + 0.5
    background = rng.uniform(lo, hi, size=(n_out, 2))
    points = np.vstack([pts, background])
    labels = np.concatenate([truth, np.full(n_out, OUTLIER, dtype=int)])
    order = rng.permutation(points.shape[0])
    return Dataset(points=points[order], truth=labels[order], name="moons")


# --- reachability queries: closure and chain-search references ---

def _check_point(idx: NeighborhoodIndex, p: int) -> None:
    if not 0 <= p < idx.n:
        raise IndexError(f"point index {p} out of range for n={idx.n}")


def reach_distance(idx: NeighborhoodIndex, p: int, q: int) -> float:
    """max(core(p), core(q), dist(p, q)): the smallest epsilon at which p and q
    are directly density-reachable from each other."""
    _check_point(idx, p)
    _check_point(idx, q)
    return float(max(idx.core[p], idx.core[q], pairwise_distances(idx.points)[p, q]))


def rdist_matrix(idx: NeighborhoodIndex) -> np.ndarray:
    """Full n x n reachability matrix (diagonal holds the core distances)."""
    return np.maximum(np.maximum.outer(idx.core, idx.core), pairwise_distances(idx.points))


def is_density_reachable(idx: NeighborhoodIndex, p: int, q: int, epsilon: float) -> bool:
    """True iff a chain of core objects at `epsilon` connects p to q with hops <= epsilon.

    Both endpoints must themselves be core objects at epsilon.
    """
    _check_point(idx, p)
    _check_point(idx, q)
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    core_ok = idx.core <= epsilon
    if not (core_ok[p] and core_ok[q]):
        return False
    dist = pairwise_distances(idx.points)
    visited = np.zeros(idx.n, dtype=bool)
    visited[p] = True
    frontier = np.array([p])
    while frontier.size:
        if visited[q]:
            return True
        reached = (dist[frontier] <= epsilon).any(axis=0) & core_ok & ~visited
        frontier = np.flatnonzero(reached)
        visited[frontier] = True
    return bool(visited[q])


# --- pointwise scores: the reference for ssdbcodi.scoring ---

def rdist_row(idx: NeighborhoodIndex, p: int) -> np.ndarray:
    """Reachability from p to every point; entry p itself equals core(p)."""
    if not 0 <= p < idx.n:
        raise IndexError(f"point index {p} out of range for n={idx.n}")
    return np.maximum(np.maximum(idx.core, idx.core[p]), pairwise_distances(idx.points)[p])


def knn_by_rdist(idx: NeighborhoodIndex, q: int, m: int) -> np.ndarray:
    """Indices of the m reachability-nearest other points of q.

    Sorted by ascending reachability, ties broken by smaller point index.
    """
    rd = rdist_row(idx, q)
    if not 1 <= m <= idx.n - 1:
        raise ValueError(f"m must be in [1, {idx.n - 1}], got {m}")
    rd[q] = np.inf
    order = np.argsort(rd, kind="stable")
    return order[:m]


def local_density(idx: NeighborhoodIndex, q: int) -> float:
    """Mean reachability to q's min_pts reachability-nearest other points."""
    nbrs = knn_by_rdist(idx, q, idx.min_pts)
    return float(rdist_row(idx, q)[nbrs].mean())


def distances_by_expression(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross distances as one whole-matrix expression, every temporary n x m."""
    sa = np.einsum("ij,ij->i", a, a)
    sb = np.einsum("ij,ij->i", b, b)
    d2 = sa[:, None] + sb[None, :] - 2.0 * (a @ b.T)
    np.maximum(d2, 0.0, out=d2)
    return np.sqrt(d2)


def pairwise_by_expression(points: np.ndarray) -> np.ndarray:
    """Pairwise distances symmetrized by a whole-matrix maximum with the
    transpose before the square root; zero diagonal."""
    sq = np.einsum("ij,ij->i", points, points)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (points @ points.T)
    np.maximum(d2, 0.0, out=d2)
    dist = np.sqrt(np.maximum(d2, d2.T))
    np.fill_diagonal(dist, 0.0)
    return dist


def local_densities_by_matrix(idx: NeighborhoodIndex) -> np.ndarray:
    """Mean reachability to each point's min_pts reachability-nearest others,
    from a fresh reachability matrix and a partitioned copy of it."""
    rd = rdist_matrix(idx)
    np.fill_diagonal(rd, np.inf)
    smallest = np.partition(rd, idx.min_pts - 1, axis=1)[:, :idx.min_pts]
    return smallest.mean(axis=1)


def sim_score(ds: Dataset, labels: LabelSet, q: int) -> float:
    """exp(-distance to the nearest labeled outlier); 0 when none are labeled."""
    if not labels.outliers:
        return 0.0
    outs = ds.points[sorted(labels.outliers)]
    d = np.sqrt(((ds.points[q] - outs) ** 2).sum(axis=1))
    return float(np.exp(-d.min()))


def sim_scores_by_broadcast(ds: Dataset, labels: LabelSet) -> np.ndarray:
    """sim scores from one n x o x d difference array and a row minimum."""
    if not labels.outliers:
        return np.zeros(ds.n)
    outs = ds.points[sorted(labels.outliers)]
    d2 = ((ds.points[:, None, :] - outs[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-np.sqrt(d2.min(axis=1)))


def sq_dist_by_minimum(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """sim_scores' former loop: a running np.minimum of the squared distance
    to every centre, +inf when there is none."""
    d2 = np.full(points.shape[0], np.inf)
    for o in centers:
        np.minimum(d2, ((points - o) ** 2).sum(axis=1), out=d2)
    return d2


# --- the index build's former passes, all on the calling thread ---

def index_by_serial_passes(points, min_pts: int) -> tuple:
    """build_index's (core, density, order, gap) as its passes ran on one
    thread: row blocks of BLOCK_BYTES turn one GEMM into distances, each
    block's core distances read as it is made, then a second sweep turns the
    matrix into reachabilities and averages each row's min_pts smallest
    off-diagonal entries, then prim_tree_edges' join order and keys."""
    pts = np.asarray(points, dtype=float)
    if not (pts.flags.aligned and (pts.flags.c_contiguous or pts.flags.f_contiguous)):
        pts = pts.copy()
    n = pts.shape[0]
    sq = np.einsum("ij,ij->i", pts, pts)
    dist = pts @ pts.T
    step = max(1, metricspace.BLOCK_BYTES // (8 * n))
    blocks = [slice(a, a + step) for a in range(0, n, step)]
    core, density = np.empty(n), np.empty(n)
    for rows in blocks:
        blk = dist[rows]
        blk *= 2.0
        np.subtract(sq[rows, None] + sq[None, :], blk, out=blk)
        np.maximum(blk, 0.0, out=blk)
        np.sqrt(blk, out=blk)
        np.fill_diagonal(blk[:, rows], 0.0)
        core[rows] = np.partition(blk, min_pts, axis=1)[:, min_pts]
    for rows in blocks:
        blk = dist[rows]
        np.maximum(blk, core, out=blk)
        np.maximum(blk, core[rows, None], out=blk)
        blk = blk.copy()
        np.fill_diagonal(blk[:, rows], np.inf)
        blk.partition(min_pts - 1, axis=1)
        density[rows] = blk[:, :min_pts].mean(axis=1)
    _, v, gap = prim_tree_edges(dist, core)
    return core, density, np.concatenate(([0], v)), gap


# --- the library's distance loop handing back whole matrices, for the tests ---

def pairwise_distances(points) -> np.ndarray:
    """Exactly symmetric Euclidean distance matrix with a zero diagonal: the
    blocks of the self-product metricspace._distances(p, p, ...), copied out
    of its workspace, with the diagonal then set to zero. The points are
    copied to float64 first, as Dataset copies them."""
    points = np.array(points, dtype=float)
    n = points.shape[0]
    out = np.empty((n, n))
    metricspace._distances(points, points, metricspace._workspace((n, n)), None, out.__setitem__)
    np.fill_diagonal(out, 0.0)
    return out


def cross_distances(a, b, rows=None) -> np.ndarray:
    """Euclidean distances from each row of a (or those `rows` of a, in their
    order) to each row of b: the blocks of metricspace._distances, copied out
    of its workspace."""
    out = np.empty((np.shape(a)[0] if rows is None else len(rows), np.shape(b)[0]))
    metricspace._distances(a, b, metricspace._workspace((np.shape(a)[0], np.shape(b)[0])), rows,
                           out.__setitem__)
    return out


def nearest(d: np.ndarray, k: int) -> np.ndarray:
    """Columns of each row's k smallest entries, ordered by (value, column):
    metricspace._nearest_block over d's row blocks. Consumes d, which must
    hold finite entries only."""
    nbrs = np.empty((d.shape[0], k), dtype=np.intp)
    step = max(1, metricspace.BLOCK_BYTES // (8 * max(d.shape[1], 1)))
    for start in range(0, d.shape[0], step):
        rows = slice(start, start + step)
        metricspace._nearest_block(d[rows], nbrs[rows])
    return nbrs


# --- the classifier search's former path: the whole matrix, then nearest's sweep ---

def nearest_by_matrix(a, b, k: int, rows=None) -> np.ndarray:
    """cross_nearest as two passes: every distance first, then the search."""
    return nearest(cross_distances(a, b, rows), k)


# --- the library's two classifier steps in one call, for the tests ---

def classify(ts: TrainingSet, points, k_c: int) -> tuple:
    """Train the weighted kNN on points[ts.indices] and label every row of
    points: the `vote` over each row's k_c `neighbours`, read off the index
    of the points (min_pts 1). One point has no index; its one training row
    is its neighbour, as the search finds."""
    ds = as_dataset(points)
    if ds.n == 1:
        nbrs = metricspace.cross_nearest(ds.points, ds.points[ts.indices], k_c)
    else:
        nbrs, _ = neighbours(ts, build_index(ds, 1), k_c, np.arange(ds.n))
    return model.vote(model._vote_layout(ts.classes[nbrs.T]), ts.weights[nbrs.T])


# --- the vote and the finish the stage's neighbour cache replaced ---

def vote_by_positions(ts: TrainingSet, nbrs: np.ndarray) -> tuple:
    """model.vote as one call over ts and each row's neighbour positions in
    it, (classes, outlier_score): the votes are one flat array of a cell per
    (row, class among the neighbours), indexed by a k x n table of each
    rank's cells; each class adds its weights one neighbour rank at a time,
    `seen` keeps zero-weight votes as present, and the total adds the class
    sums in first-appearance order."""
    n, k = nbrs.shape
    if n == 0:  # no row, so no neighbour to take class ids from
        return np.empty(0, dtype=int), np.zeros(0)
    # raveled, as numpy 1.x and 2.x shape a 2-D input's inverse differently
    ids, inv = np.unique(ts.classes[nbrs.T].ravel(), return_inverse=True)
    cells = inv.reshape(k, n) + np.arange(0, n * ids.size, ids.size)
    w = ts.weights[nbrs.T]
    votes = np.zeros(n * ids.size)
    seen = np.zeros(n * ids.size, dtype=bool)
    first = np.empty((k, n), dtype=bool)
    for j in range(k):
        first[j] = ~seen[cells[j]]
        seen[cells[j]] = True
        votes[cells[j]] += w[j]
    total = np.zeros(n)
    for j in range(k):
        np.add(total, votes[cells[j]], out=total, where=first[j])

    votes, seen = votes.reshape(n, ids.size), seen.reshape(n, ids.size)
    top = np.where(seen, votes, -np.inf).max(axis=1)
    winners = seen & (votes == top[:, None]) & (ids != OUTLIER)
    out_class = np.where(winners.any(axis=1), ids[winners.argmax(axis=1)], OUTLIER)
    out_score = np.zeros(n)
    np.divide(votes[:, ids == OUTLIER].sum(axis=1), total, out=out_score, where=total > 0)
    return out_class, out_score


def vote_every_row(classes: np.ndarray, weights: np.ndarray) -> tuple:
    """A stage's first vote as it ran before single-class rows skipped it:
    model.vote over the layout of every row of the k x n classes table."""
    return model.vote(model._vote_layout(classes), weights)


def ranked_by_loop(index, rows, k_c: int, count) -> tuple:
    """(ranked, first): whether model._ranked ranks each of `rows` at k_c,
    one row at a time, and each ranked row's first k_c counted candidates
    (None at the others). The row's candidates are itself at distance 0,
    then its index.near list; `count`, a mask over the points, marks those
    that count. The row is ranked when every adjacent gap of their squared
    values, counted or not, up to the (k_c + 1)-th counted candidate exceeds
    model.neighbours' 4B bound. A list of exactly k_c counted candidates,
    the k_c-th not its last, has its last value stand for the (k_c + 1)-th,
    so every gap up to the list's end counts."""
    scale = 4 * (2 * index.points.shape[1] + 8) * np.finfo(float).eps
    ranked, first = [], []
    for p in np.asarray(rows).tolist():
        cand = [p] + index.near[p].tolist()
        sq = np.square([0.0] + index.near_dist[p].tolist())
        counted = [j for j, q in enumerate(cand) if count[q]]
        four_b = scale * (index.sq_norms[p] + index.sq_max)
        if len(counted) > k_c:
            end = counted[k_c]
        elif len(counted) == k_c and counted[-1] < len(cand) - 1:
            end = len(cand) - 1
        else:
            end = None
        ok = end is not None and all(sq[j + 1] - sq[j] > four_b for j in range(end))
        ranked.append(ok)
        first.append([cand[j] for j in counted[:k_c]] if ok else None)
    return np.array(ranked, dtype=bool), first


def decided_by_loop(prepared, k_c: int) -> np.ndarray:
    """Whether the stage's candidate table ranks each of its rows at k_c:
    ranked_by_loop counting the normals (clustered points)."""
    return ranked_by_loop(prepared.index, prepared.rows, k_c,
                          prepared.assignment != UNCLUSTERED)[0]


def select_reliable(assign: np.ndarray, r_score: np.ndarray, t: np.ndarray,
                    k: int) -> TrainingSet:
    """All clustered points of `assign` as reliable normals, weighted by
    r_score, plus the k most outlier-like unclustered points, weighted by
    the blend t (highest t, ties to the smaller index): model._split and
    model._select, the two steps that Prepared and finish take apart."""
    normals, unclustered = model._split(assign, r_score)
    return TrainingSet._built(*(a[0] for a in model._select(normals, unclustered,
                                                            t[unclustered][None], k)))


def finish_by_order(prepared, params: PipelineParams) -> PipelineResult:
    """pipeline.finish with no cache: the reliable set rebuilt through the
    public TrainingSet constructor, its neighbours looked up in the order
    select_reliable gives and voted by vote_by_positions."""
    k = prepared.auto_k if params.k is None else params.k
    picked = select_reliable(prepared.assignment, prepared.scores.r_score,
                             t_score(prepared.scores, params.score), k)
    ts = TrainingSet(picked.indices, picked.classes, picked.weights)
    k_c = min(params.k_c, len(ts))
    nbrs, _ = neighbours(ts, prepared.index, k_c, prepared.rows)
    classes, outlier_score = vote_by_positions(ts, nbrs)
    return PipelineResult(clusters=classes, outliers=classes == OUTLIER,
                          outlier_score=outlier_score, training=ts, k_c=k_c)


# --- full sort and per-row vote: the reference for `classify` ---

def knn_predict_by_loop(ts: TrainingSet, points: np.ndarray, k_c: int) -> tuple:
    """(classes, outlier_score) for every row of points, trained on
    points[ts.indices], from a stable full argsort of every distance row
    and a dict vote per row."""
    queries = np.asarray(points, dtype=float)
    d = cross_distances(queries, queries[ts.indices])
    nbrs = np.argsort(d, axis=1, kind="stable")[:, :k_c]
    out_class = np.empty(queries.shape[0], dtype=int)
    out_score = np.empty(queries.shape[0], dtype=float)
    for row in range(queries.shape[0]):
        votes = {}
        for j in nbrs[row]:
            c = int(ts.classes[j])
            votes[c] = votes.get(c, 0.0) + float(ts.weights[j])
        # Left to right in first-appearance order, as sum() adds floats
        # before Python 3.12 (later versions compensate the rounding).
        total = 0.0
        for v in votes.values():
            total += v
        top = max(votes.values())
        winners = sorted(c for c, v in votes.items() if v == top and c != OUTLIER)
        out_class[row] = winners[0] if winners else OUTLIER
        out_score[row] = votes.get(OUTLIER, 0.0) / total if total > 0 else 0.0
    return out_class, out_score


# --- the paper's pipeline end to end: the reference for pipeline.run ---

def run_by_paper(ds: Dataset, labels: LabelSet, params: PipelineParams) -> PipelineResult:
    """pipeline.run along the paper's steps with none of the library's fast
    paths: one Prim expansion per labeled root, run to the end and
    back-traced (`expand_all`, `combine_backtraces`, `emax_over_roots`),
    densities off a whole reachability matrix, sim scores by one broadcast,
    the three scores and their blend written out, the k reliable outliers by
    a stable argsort of the blend over the unclustered points, the public
    TrainingSet constructor and a full sort per row (`knn_predict_by_loop`).
    Only the core distances come from the library's index."""
    idx = build_index(ds, params.score.min_pts)
    records = expand_all(idx, labels, terminate=False)
    assign = combine_backtraces(records, labels, idx.n)
    r = np.exp(-emax_over_roots(records))
    l = np.exp(-local_densities_by_matrix(idx))
    sim = sim_scores_by_broadcast(ds, labels)
    alpha, beta = params.score.alpha, params.score.beta
    t = alpha * (1.0 - r) + beta * (1.0 - l) + max(0.0, 1.0 - alpha - beta) * sim
    clustered = np.flatnonzero(assign != UNCLUSTERED)
    unclustered = np.flatnonzero(assign == UNCLUSTERED)
    k = min(default_k(idx.n, labels), unclustered.size) if params.k is None else params.k
    if k > unclustered.size:
        raise ValueError(f"k must be in [0, {unclustered.size}], got {k}")
    picked = unclustered[np.argsort(-t[unclustered], kind="stable")[:k]]
    ts = TrainingSet(indices=np.concatenate([clustered, picked]),
                     classes=np.concatenate([assign[clustered], np.full(k, OUTLIER)]),
                     weights=np.concatenate([r[clustered], t[picked]]))
    k_c = min(params.k_c, len(ts))
    classes, outlier_score = knn_predict_by_loop(ts, ds.points, k_c)
    return PipelineResult(clusters=classes, outliers=classes == OUTLIER,
                          outlier_score=outlier_score, training=ts, k_c=k_c)


# --- DBSCAN and LOF on a whole distance matrix: their former routes ---

def _square(dist) -> np.ndarray:
    d = np.asarray(dist, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("expected a square distance matrix")
    return d


def dbscan_by_matrix(dist, epsilon: float, min_pts: int) -> np.ndarray:
    """baselines.dbscan reading its neighbourhoods off a square matrix."""
    dist = _square(dist)
    n = dist.shape[0]
    if not epsilon >= 0:
        raise ValueError("epsilon must be non-negative")
    if min_pts < 1:
        raise ValueError("min_pts must be >= 1")
    within = dist <= epsilon
    core = (within.sum(axis=1) - 1) >= min_pts  # the diagonal counts self
    assign = np.full(n, NOISE, dtype=int)
    cluster = 0
    for p in range(n):
        if not core[p] or assign[p] != NOISE:
            continue
        frontier = np.array([p])
        assign[p] = cluster
        while frontier.size:
            reach = within[frontier].any(axis=0) & core & (assign == NOISE)
            frontier = np.flatnonzero(reach)
            assign[frontier] = cluster
        cluster += 1
    for p in range(n):
        if core[p]:
            continue
        neighbours = np.flatnonzero(within[p] & core)
        if neighbours.size:
            assign[p] = assign[neighbours[0]]
    return assign


def lof_by_matrix(dist, k: int) -> np.ndarray:
    """baselines.lof on a finite square matrix: a copy with an infinite
    diagonal, searched by `nearest` once it is whole."""
    dist = _square(dist)
    n = dist.shape[0]
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    if not np.isfinite(dist).all():
        raise ValueError("lof needs finite distances")
    d = dist.copy()
    np.fill_diagonal(d, np.inf)
    nbrs = nearest(d, k)
    nd = np.take_along_axis(dist, nbrs, axis=1)
    reach = np.maximum(nd[:, -1][nbrs], nd)
    with np.errstate(divide="ignore", invalid="ignore"):
        lrd = k / reach.sum(axis=1)
        scores = lrd[nbrs].mean(axis=1) / lrd
    # duplicated points can drive both densities to infinity; call that 1
    return np.where(np.isnan(scores), 1.0, scores)


# --- full sort and partition: the reference for baselines.lof ---

def lof_by_sort(dist, k: int) -> np.ndarray:
    """Local outlier factor from a stable full argsort of every distance row
    and a partition for the k-distances."""
    dist = np.asarray(dist, dtype=float)
    n = dist.shape[0]
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    d = dist.copy()
    np.fill_diagonal(d, np.inf)
    nbrs = np.argsort(d, axis=1, kind="stable")[:, :k]
    kdist = np.partition(d, k - 1, axis=1)[:, k - 1]
    rows = np.arange(n)[:, None]
    reach = np.maximum(kdist[nbrs], d[rows, nbrs])
    with np.errstate(divide="ignore", invalid="ignore"):
        lrd = k / reach.sum(axis=1)
        scores = lrd[nbrs].mean(axis=1) / lrd
    # duplicated points can drive both densities to infinity; call that 1
    return np.where(np.isnan(scores), 1.0, scores)


# --- a broadcast and kmeans' former loop: the references for nearest_center ---

def nearest_centroid_by_broadcast(pts: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest centroid per point from every squared distance at once;
    argmin takes the first minimum, so ties go to the lower index."""
    d2 = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


def nearest_centroid_by_loop(pts: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of each point's nearest centroid, ties to the lower index.

    A running minimum over the centroids holds one n x d array at a time.
    """
    best = ((pts - centroids[0]) ** 2).sum(axis=1)
    labels = np.zeros(pts.shape[0], dtype=int)
    for c in range(1, centroids.shape[0]):
        d2 = ((pts - centroids[c]) ** 2).sum(axis=1)
        closer = d2 < best
        best[closer] = d2[closer]
        labels[closer] = c
    return labels


# --- per-root Prim expansions: the reference for ssdbcodi.expansion ---

_NO_LABEL = -2
_OUTLIER_LABEL = -1


def _user_labels(labels: LabelSet, n: int) -> np.ndarray:
    lab = np.full(n, _NO_LABEL, dtype=int)
    for i, c in labels.normal.items():
        lab[i] = c
    for i in labels.outliers:
        lab[i] = _OUTLIER_LABEL
    return lab


@dataclass(frozen=True)
class ExpansionRecord:
    """One expansion: insertion order with attachment keys and running maxima.

    prefix_max[q] is the largest attachment key seen up to and including
    q's insertion (NaN for points a terminated expansion never reached).
    boundary_pos is the position in `order` of the first inserted point
    whose user label differs from the root's; labeled outliers always
    count as different.
    """

    root: int
    order: tuple
    prefix_max: np.ndarray
    boundary_pos: int | None

    @property
    def boundary(self) -> int | None:
        """Point index of the first differently-labeled point, if any."""
        if self.boundary_pos is None:
            return None
        return self.order[self.boundary_pos][0]


def prim_expand(idx: NeighborhoodIndex, root: int, labels: LabelSet,
                terminate: bool) -> ExpansionRecord:
    """Expand from a labeled normal root in cheapest-attachment order.

    With terminate=True the expansion stops right after inserting the
    first differently-labeled point (original semantics); otherwise it
    runs until every point is inserted while still recording where that
    boundary occurred.
    """
    n = idx.n
    if root not in labels.normal:
        raise ValueError(f"expansion root {root} must be a labeled normal point")
    lab = _user_labels(labels, n)
    root_label = lab[root]
    dist = pairwise_distances(idx.points)

    keys = np.full(n, np.inf)
    keys[root] = 0.0
    in_tree = np.zeros(n, dtype=bool)
    order = []
    prefix = np.full(n, np.nan)
    boundary_pos = None
    running = 0.0

    for step in range(n):
        q = int(np.argmin(keys))  # ties resolve to the smallest index
        key = float(keys[q])
        in_tree[q] = True
        keys[q] = np.inf
        running = key if step == 0 else max(running, key)
        order.append((q, key))
        prefix[q] = running
        if boundary_pos is None and lab[q] != _NO_LABEL and lab[q] != root_label:
            boundary_pos = step
            if terminate:
                break
        rd = np.maximum(np.maximum(idx.core, idx.core[q]), dist[q])
        np.minimum(keys, rd, out=keys, where=~in_tree)

    prefix.flags.writeable = False
    return ExpansionRecord(root=int(root), order=tuple(order),
                           prefix_max=prefix, boundary_pos=boundary_pos)


def back_trace(rec: ExpansionRecord) -> set:
    """Points the root keeps after cutting the expansion at its largest key.

    Without a boundary the whole insertion sequence belongs to the root.
    Otherwise the earliest maximum key at or before the boundary marks the
    cut: the point carrying it and everything after are dropped.
    """
    if rec.boundary_pos is None:
        return {p for p, _ in rec.order}
    keys = [k for _, k in rec.order[1:rec.boundary_pos + 1]]
    cut = 1 + int(np.argmax(keys))
    return {rec.order[i][0] for i in range(cut)}


def expand_all(idx: NeighborhoodIndex, labels: LabelSet, terminate: bool) -> list:
    """One expansion per labeled normal root, in ascending root order."""
    labels.validate_for(idx.n)
    roots = sorted(labels.normal)
    if not roots:
        raise ValueError("at least one labeled normal point is required")
    return [prim_expand(idx, r, labels, terminate=terminate) for r in roots]


def combine_backtraces(records, labels: LabelSet, n: int) -> np.ndarray:
    """Merge per-root back-traces into a single assignment.

    A point claimed by roots carrying different labels goes to the root
    with the smallest prefix_max there, ties to the smaller root index.
    Claims from same-label roots simply union.
    """
    best_key = np.full(n, np.inf)
    best_root = np.full(n, n, dtype=int)
    assign = np.full(n, UNCLUSTERED, dtype=int)
    for rec in records:
        cluster = labels.normal[rec.root]
        for q in sorted(back_trace(rec)):
            v = float(rec.prefix_max[q])
            if v < best_key[q] or (v == best_key[q] and rec.root < best_root[q]):
                best_key[q] = v
                best_root[q] = rec.root
                assign[q] = cluster
    assign.flags.writeable = False
    return assign


def emax_over_roots(records) -> np.ndarray:
    """Per point, the smallest prefix_max over all root expansions.

    Requires at least one record and full coverage (non-terminating
    expansions), so every labeled normal root scores exactly 0.
    """
    if not records:
        raise ValueError("at least one expansion record is required")
    stack = np.vstack([rec.prefix_max for rec in records])
    if np.isnan(stack).any():
        raise ValueError("emax needs non-terminating expansions covering every point")
    return stack.min(axis=0)


def ssdbscan_by_expansion(idx: NeighborhoodIndex, labels: LabelSet) -> np.ndarray:
    """Terminating expansions from every labeled normal root, back-traced and merged."""
    return combine_backtraces(expand_all(idx, labels, terminate=True), labels, idx.n)


# --- Kruskal sweeps over one recorded spanning tree: the reference for
# reading ssdbcodi.expansion off the index's reachability plot ---

def prim_tree_edges(dist: np.ndarray, core: np.ndarray) -> tuple:
    """Dense Prim over the reachability graph from point 0, recording each
    join's tree edge: (u, v, w) arrays of the n - 1 edges in join order,
    where v joined through u at key w."""
    n = core.size
    live_core = core.copy()
    best = np.full(n, np.inf)
    source = np.zeros(n, dtype=int)
    rd = np.empty(n)
    closer = np.empty(n, dtype=bool)
    u, v = np.empty((2, n - 1), dtype=int)
    w = np.empty(n - 1)
    q = 0
    for step in range(n - 1):
        live_core[q] = np.inf
        best[q] = np.inf
        np.maximum(live_core, core[q], out=rd)
        np.maximum(rd, dist[q], out=rd)
        np.less(rd, best, out=closer)
        np.copyto(best, rd, where=closer)
        np.copyto(source, q, where=closer)
        q = int(best.argmin())
        u[step], v[step], w[step] = source[q], q, best[q]
    return u, v, w


def minimax_rows(idx: NeighborhoodIndex, roots) -> np.ndarray:
    """mm(r, q) for every root r (one row each, in the given order) and point q.

    A Kruskal sweep over prim_tree_edges' tree, its edges sorted stably by
    weight. Each component keeps its member points and the rows of the
    roots it contains. Joining components A and B by an edge of weight w
    sets mm to w between A's roots and B's members and between B's roots
    and A's members; the smaller component is then folded into the larger.
    """
    roots = point_indices(roots, idx.n, "root indices")
    u, v, w = prim_tree_edges(pairwise_distances(idx.points), idx.core)
    by_weight = np.argsort(w, kind="stable")
    mm = np.zeros((roots.size, idx.n))
    comp = list(range(idx.n))
    members = [[p] for p in range(idx.n)]
    rows = [None] * idx.n  # a column of mm row indices, None without roots
    for r in np.unique(roots).tolist():
        rows[r] = np.flatnonzero(roots == r)[:, None]
    for a, b, weight in zip(*(arr[by_weight].tolist() for arr in (u, v, w))):
        a, b = comp[a], comp[b]
        if len(members[a]) < len(members[b]):
            a, b = b, a
        rows_a, rows_b = rows[a], rows[b]
        if rows_a is not None:
            mm[rows_a, members[b]] = weight
        if rows_b is not None:
            mm[rows_b, members[a]] = weight
            rows[a] = rows_b if rows_a is None else np.concatenate([rows_a, rows_b])
        for p in members[b]:
            comp[p] = a
        members[a] += members[b]
        members[b] = rows[b] = None
    return mm


def expand_by_rows(idx: NeighborhoodIndex, labels: LabelSet) -> tuple:
    """expand's (assign, emax) from the full R x n minimax_rows matrix: root
    r keeps itself and every q with mm(r, q) below its cut, and a point
    kept by several roots goes to the one with the smallest mm there, ties
    to the smaller root index."""
    labels.validate_for(idx.n)
    roots = np.array(sorted(labels.normal), dtype=int)
    if not roots.size:
        raise ValueError("at least one labeled normal point is required")
    mm = minimax_rows(idx, roots)
    lab = _user_labels(labels, idx.n)
    root_label = lab[roots]
    labeled = np.flatnonzero(lab != _NO_LABEL)
    differs = lab[labeled] != root_label[:, None]
    cut = np.where(differs, mm[:, labeled], np.inf).min(axis=1)
    kept = mm < cut[:, None]
    kept[np.arange(roots.size), roots] = True
    owner = np.where(kept, mm, np.inf).argmin(axis=0)
    assign = np.where(kept.any(axis=0), root_label[owner], UNCLUSTERED)
    assign.flags.writeable = False
    return assign, mm.min(axis=0)


def _range_max_by_own_table(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """max(values[lo:hi]) for each pair of entries of lo <= hi, 0.0 where
    lo == hi, from a sparse table built for this query alone: row k holds
    the maxima of the windows of 2**k values, and two windows cover any
    range."""
    table = np.empty((values.size.bit_length(), values.size))
    table[0] = values
    for k in range(1, table.shape[0]):
        half = 1 << (k - 1)
        table[k] = table[k - 1]
        np.maximum(table[k - 1, :-half], table[k - 1, half:], out=table[k, :-half])
    level = np.maximum(np.frexp(hi - lo)[1] - 1, 0)
    got = np.maximum(table[level, lo], table[level, hi - (1 << level)])
    return np.where(hi > lo, got, 0.0)


def expand_by_two_tables(idx: NeighborhoodIndex, labels: LabelSet) -> tuple:
    """expand as it ran when each of its two range-max queries (the roots'
    cuts, then each point's nearest roots) built its own sparse table of
    the plot's keys."""
    labels.validate_for(idx.n)
    if not labels.normal:
        raise ValueError("at least one labeled normal point is required")
    n = idx.n
    lab = np.full(n, _NO_LABEL, dtype=int)
    lab[list(labels.normal)] = list(labels.normal.values())
    lab[list(labels.outliers)] = OUTLIER
    gap = np.concatenate([[np.inf], idx.gap, [np.inf]])
    lab = np.concatenate([[_NO_LABEL], lab[idx.order], [_NO_LABEL]])
    at = np.arange(n + 2)
    labeled = np.flatnonzero(lab != _NO_LABEL)
    k = np.arange(labeled.size)
    change = np.r_[True, lab[labeled[1:]] != lab[labeled[:-1]], True]
    first = np.maximum.accumulate(np.where(change[:-1], k, 0))
    last = np.minimum.accumulate(np.where(change[1:], k, k[-1])[::-1])[::-1]
    beyond = np.r_[0, labeled, n + 1]
    cut = np.full(n + 2, np.inf)
    cut[labeled] = _range_max_by_own_table(gap, np.stack([beyond[first], labeled]),
                                           np.stack([labeled, beyond[last + 2]])).min(axis=0)
    is_root = lab >= 0
    left = np.maximum.accumulate(np.where(is_root, at, 0))[1:-1]
    right = np.minimum.accumulate(np.where(is_root, at, n + 1)[::-1])[::-1][1:-1]
    at = at[1:-1]
    to_left, to_right = _range_max_by_own_table(gap, np.stack([left, at]),
                                                np.stack([at, right]))
    keep_left = (to_left < cut[left]) | (left == at)
    assign, emax = np.empty(n, dtype=int), np.empty(n)
    assign[idx.order] = np.where(keep_left, lab[left],
                                 np.where(to_right < cut[right], lab[right], UNCLUSTERED))
    emax[idx.order] = np.minimum(to_left, to_right)
    assign.flags.writeable = False
    return assign, emax


def ssdbscan_with_fallback_by_matrix(dist: np.ndarray, idx: NeighborhoodIndex,
                                     labels: LabelSet) -> np.ndarray:
    """The fallback clusterer reading leftovers' distances from a given
    matrix, as it did when the index kept its own."""
    assign = expand(idx, labels)[0].copy()
    unclustered = np.flatnonzero(assign == UNCLUSTERED)
    clustered = np.flatnonzero(assign != UNCLUSTERED)
    if unclustered.size and clustered.size:
        sub = dist[np.ix_(unclustered, clustered)]
        closest = clustered[np.argmin(sub, axis=1)]
        assign[unclustered] = assign[closest]
    return assign


# --- cells outer, every finish uncached: the reference for pipeline.tune ---

def fold_objective(result: PipelineResult, hidden: list, labels: LabelSet) -> float | None:
    """Mean of AUC and Rand index on the hidden labeled points, read from a
    result that classified every point, by the former rank and contingency
    forms (`auc_by_ranks`, `rand_by_contingency`).

    AUC scores the hidden outlier indicator; it needs both an outlier and
    a normal among the hidden points, otherwise the Rand index stands
    alone. Returns None when neither metric is computable.
    """
    truth_outlier = np.array([i in labels.outliers for i in hidden])
    parts = []
    if truth_outlier.any() and not truth_outlier.all():
        parts.append(auc_by_ranks(result.outlier_score[hidden], truth_outlier))
    if len(hidden) >= 2:
        hidden_truth = np.array([labels.normal.get(i, OUTLIER) for i in hidden])
        parts.append(rand_by_contingency(result.clusters[hidden], hidden_truth))
    if not parts:
        return None
    return float(np.mean(parts))


def tune_by_cells(ds: Dataset, labels: LabelSet, grid_step: float = 0.1, folds: int = 5,
                  seed: int = 0, params: PipelineParams | None = None) -> TuneReport:
    """pipeline.tune with every fold prepared up front and the cells
    outermost, on an index built afresh for a twin of ds; each finish gets
    a fresh copy of its fold's stage, so no neighbour search is reused."""
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

    index = build_index(Dataset(points=ds.points.copy(), truth=ds.truth), base.score.min_pts)
    stages = []
    for hidden in _fold_partition(labels, folds, seed):
        stages.append((prepare(index, _drop_labels(labels, hidden)), sorted(hidden)))

    grid = []
    best = None
    for alpha, beta in cells:
        cell = replace(base, score=replace(base.score, alpha=alpha, beta=beta))
        objectives = []
        for prepared, hidden in stages:
            result = finish(replace(prepared), cell)
            obj = fold_objective(result, hidden, labels)
            if obj is not None:
                objectives.append(obj)
        if not objectives:
            raise ValueError("no validation fold produced a computable objective")
        mean_obj = float(np.mean(objectives))
        grid.append((alpha, beta, mean_obj))
        if best is None or mean_obj > best[2]:
            best = (alpha, beta, mean_obj)
    return TuneReport(grid=tuple(grid), best=(best[0], best[1]))


def tune_by_paper(ds: Dataset, labels: LabelSet, grid_step: float = 0.1, folds: int = 5,
                  seed: int = 0, params: PipelineParams | None = None) -> TuneReport:
    """pipeline.tune along the paper's steps: for each fold and each
    blend_grid cell, run_by_paper on the labels the fold leaves visible,
    scored on the fold's hidden labeled points by fold_objective (the former
    rank and contingency forms); then each cell's mean over the folds with an
    objective, and the first of the tied maxima."""
    base = params if params is not None else PipelineParams(score=ScoreParams(0.0, 0.0))
    cells = blend_grid(grid_step)
    per_fold = []
    for hidden in _fold_partition(labels, folds, seed):
        visible = _drop_labels(labels, hidden)
        per_fold.append([
            fold_objective(run_by_paper(ds, visible, replace(base, score=replace(
                base.score, alpha=alpha, beta=beta))), sorted(hidden), labels)
            for alpha, beta in cells])
    grid = []
    for (alpha, beta), objectives in zip(cells, zip(*per_fold)):
        objectives = [obj for obj in objectives if obj is not None]
        if not objectives:
            raise ValueError("no validation fold produced a computable objective")
        grid.append((alpha, beta, float(np.mean(objectives))))
    best = max(grid, key=lambda cell: cell[2])
    return TuneReport(grid=tuple(grid), best=best[:2])


# --- load_csv's former reader: csv and float() on every cell ---

def load_csv_by_cells(path, label_column: str = "label", outlier_sentinel: str = "o") -> Dataset:
    """load_csv as it read every file before numpy's parser: csv and float()
    cell by cell, streaming the file, with every error message."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if len(set(header)) != len(header):
            dupes = sorted({c for c in header if header.count(c) > 1})
            raise ValueError(f"{path}: duplicate header columns {dupes}")
        if label_column not in header:
            raise ValueError(f"{path}: missing label column {label_column!r}")
        label_pos = header.index(label_column)
        feature_cols = [(i, name) for i, name in enumerate(header) if i != label_pos]
        if not feature_cols:
            raise ValueError(f"{path}: no feature columns besides {label_column!r}")

        rows = []
        raw_labels = []
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue  # tolerate blank lines
            if len(cells) != len(header):
                raise ValueError(
                    f"{path}: row {lineno} has {len(cells)} cells, expected {len(header)}"
                )
            feats = []
            for i, name in feature_cols:
                try:
                    value = float(cells[i])
                except ValueError:
                    raise ValueError(
                        f"{path}: row {lineno}, column {name!r}: {cells[i]!r} is not numeric"
                    ) from None
                if not math.isfinite(value):
                    raise ValueError(
                        f"{path}: row {lineno}, column {name!r}: value must be finite"
                    )
                feats.append(value)
            rows.append(feats)
            raw_labels.append(cells[label_pos])

    if not rows:
        raise ValueError(f"{path}: no data rows")

    mapping = {}
    truth = []
    for raw in raw_labels:
        if raw == outlier_sentinel:
            truth.append(OUTLIER)
        else:
            mapping.setdefault(raw, len(mapping))
            truth.append(mapping[raw])
    return Dataset(points=np.array(rows, dtype=float), truth=np.array(truth, dtype=int), name=path.stem)
