"""Distances, k-nearest and nearest-centre selection, core distances, local
densities, and the spanning tree's reachability plot.

Every n x n or n x m distance array is a temporary: a BLAS product in a
guarded `_workspace` (in build_index; in _fresh_nearest and cross_nearest,
which rank the classifier's rows that the index's neighbour list cannot; or
in a baseline), turned in place into distances (squared, in _fresh_nearest),
that ends with the pass that reads it; _nearest_sq_dist ranks centres in
blocks of at most BLOCK_BYTES instead. What a caller needs (nearest
neighbours, core distances, neighbourhoods) is read off each row block while
it is still in cache; no distance array leaves this module.
No pass rewrites the build's distances once made: Prim forms each
reachability row it reads, and a density comes off the index's neighbour
list, or else off a copy of its row made into reachabilities. The row passes
over a large workspace run on the caller and one pool thread per other core,
and the caller waits for every pool thread before it returns; callers on
several threads share that pool. Each pass is elementwise or per row, so
which thread takes a block changes no bit.

The neighbourhood convention everywhere is self-excluding: the core
distance of p is the distance to its min_pts-th nearest *other* point.
"""

from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
import math
import os
import threading

import numpy as np

from .dataset import Dataset, is_int


@dataclass(frozen=True, eq=False)
class NeighborhoodIndex:
    """Its dataset's points, core distances, local densities (l_score's
    input) and the reachability plot of the reachability graph's minimum
    spanning tree: `order`, Prim's join order from point 0, and `gap`, the
    keys at which order[1:] joined, so the minimax path value between
    order[i] and order[j] is max(gap[i:j]) for i < j; and each point's
    min(NEAR_K, n - 1) nearest other points, `near` (int32 positions) and
    `near_dist` (their distances), sorted by (distance, position) except
    that members tied with a row's last distance may be any of the points at
    that distance; and the points' squared_norms, `sq_norms`, and their
    maximum, `sq_max`; read-only. It
    keeps no distance matrix, only that n x K list beside it: any other pass
    over its points' distances makes them again, with the build's bits."""

    points: np.ndarray
    core: np.ndarray
    density: np.ndarray
    order: np.ndarray
    gap: np.ndarray
    near: np.ndarray
    near_dist: np.ndarray
    sq_norms: np.ndarray
    sq_max: float
    min_pts: int

    @property
    def n(self) -> int:
        return self.points.shape[0]


# Each n x n pass holds one large array, its workspace, and works in row
# blocks of BLOCK_BYTES. The row passes over a workspace of SPREAD_BYTES or
# more spread over _WORKERS threads, in blocks of BLOCK_BYTES // _WORKERS, so
# the block temporaries in flight still total one BLOCK_BYTES, and all end
# before the pass returns. Smaller workspaces' passes stay on their thread,
# not to save time (spreading saves none) but to keep their temporaries out
# of a helper thread's malloc arena, which would raise a small run's peak
# RSS. No workspace may exceed the physical memory, read once.
BLOCK_BYTES, SPREAD_BYTES = 1 << 20, 4 << 20
# The length of each point's neighbour list on the index: enough for the
# classifier's k_c (5 by default) once the training set drops some points.
NEAR_K = 32
_MEMORY_BYTES = (os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
                 if {"SC_PAGE_SIZE", "SC_PHYS_PAGES"} <= set(getattr(os, "sysconf_names", ()))
                 else math.inf)
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_helpers = ThreadPoolExecutor(max(_WORKERS - 1, 1), thread_name_prefix="ssdbcodi-rows")


def _spread(out: np.ndarray, n_rows: int, fn) -> None:
    """fn(rows) for every slice of n_rows rows whose blocks of out's columns
    fit BLOCK_BYTES // workers, taken off one iterator by this thread and up
    to workers - 1 pool threads: _WORKERS when out is SPREAD_BYTES or more,
    else 1. Once its own share is done, this thread waits for every pool
    task, then raises the first error: its own, else the tasks' in order."""
    workers = _WORKERS if out.nbytes >= SPREAD_BYTES else 1
    step = max(1, BLOCK_BYTES // (8 * max(out.shape[1] * workers, 1)))
    blocks = [slice(a, a + step) for a in range(0, n_rows, step)]
    it, lock = iter(blocks), threading.Lock()

    def drain():
        while True:
            with lock:
                rows = next(it, None)
            if rows is None:
                return
            fn(rows)

    tasks = [_helpers.submit(drain) for _ in range(min(workers, len(blocks)) - 1)]
    try:
        drain()
    finally:
        wait(tasks)
    while tasks:  # popped: an error's frames hold tasks, and its own task would make a cycle
        tasks.pop(0).result()


def _workspace(shape: tuple, beside: int = 0) -> np.ndarray:
    """An uninitialised float64 array of `shape` on the heap. A MemoryError
    names a workspace that, with the `beside` bytes its caller allocates
    next to it, needs more than the physical memory, before anything is
    allocated."""
    nbytes = 8 * math.prod(shape) + beside
    if nbytes > _MEMORY_BYTES:
        held = f" with the {beside} beside it" if beside else ""
        raise MemoryError(f"a {' x '.join(map(str, shape))} distance workspace needs {nbytes} "
                          f"bytes{held}, more than the {_MEMORY_BYTES} bytes of physical memory")
    return np.empty(shape)


def squared_norms(points: np.ndarray) -> np.ndarray:
    """Squared row norms, each required to be at most finfo.max / 4 so that
    no distance step over these points overflows."""
    sq = np.einsum("ij,ij->i", points, points)
    bound = np.finfo(float).max / 4
    if not np.all(sq <= bound):
        raise ValueError(f"every point's squared norm must be finite and at most {bound:.4g}")
    return sq


def _distances(a, b, out, rows, each) -> np.ndarray:
    """Euclidean distances from the rows of a to the rows of b, made in place
    in out, the product a @ b.T, row block by row block by _spread. Each
    block is passed to each(block_rows, block) as soon as it holds
    distances, while it is still in cache. Returns b's squared norms.

    When b is a and a is an aligned, C- or F-contiguous float64 array, as
    every Dataset's points are, the distances are exactly symmetric: numpy
    computes P @ P.T on one such operand with BLAS's syrk and mirrors one
    triangle onto the other, and the elementwise passes add the squared
    norms in either order to the same sum, so entry (i, j) has the bits of
    entry (j, i). numpy would copy strided or misaligned points into two
    operands and run a general GEMM, whose mirrored entries may differ in
    their last bits. The diagonal of such a product is left as the passes
    make it, near but not always at zero.

    With `rows`, each block is a copy of those rows of the full product (in
    their order), seen only by `each`: a BLAS product of fewer rows need not
    have the same bits. The squared norms of b's rows and of the rows of a
    used must pass squared_norms, so that every distance is finite.

    Each thread of the row passes holds its block's norm-sum temporary and,
    with `rows`, its gathered copy of the block, each of BLOCK_BYTES //
    workers. So beside a[rows] and their squared norms, a search of `rows`
    peaks at most BLOCK_BYTES above the search of every row on one thread,
    and 2 * BLOCK_BYTES // workers more for each of the workers - 1 others
    when its passes spread.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    sb = squared_norms(b)
    sa = sb if a is b and rows is None else squared_norms(a if rows is None else a[rows])
    np.matmul(a, b.T, out=out)

    def block(blk_rows):
        blk = out[blk_rows] if rows is None else out[rows[blk_rows]]
        blk *= 2.0
        np.subtract(sa[blk_rows, None] + sb[None, :], blk, out=blk)
        np.maximum(blk, 0.0, out=blk)
        np.sqrt(blk, out=blk)
        each(blk_rows, blk)

    _spread(out, len(sa), block)
    return sb


def cross_nearest(a, b, k: int, rows=None) -> np.ndarray:
    """Columns of the k rows of b nearest each row of a (or of those `rows`
    of a, in their order), ordered by (distance, column); each row block of
    _distances is searched as soon as it holds distances."""
    nbrs = np.empty((np.shape(a)[0] if rows is None else np.shape(rows)[0], k), dtype=np.intp)
    _distances(a, b, _workspace((np.shape(a)[0], np.shape(b)[0])), rows,
               lambda blk_rows, blk: _nearest_block(blk, nbrs[blk_rows]))
    return nbrs


def _fresh_nearest(points, rows, cols, sq_norms, k: int) -> tuple:
    """Positions in `cols` of the k points nearest each of the points' `rows`
    (in their order), ordered by (value, position), and their squared
    distances sq_norms[p] + sq_norms[q] - 2 p.q, from a product of those rows
    alone in one workspace. A product of fewer rows need not have the whole
    product's bits, so only a ranking whose gaps exceed their rounding may be
    read off it. Beside the workspace it holds points[rows], points[cols]
    and the two returned arrays."""
    blk = _workspace((len(rows), len(cols)))
    np.matmul(points[rows], points[cols].T, out=blk)
    blk *= -2.0
    blk += sq_norms[rows, None]
    blk += sq_norms[cols]
    out, vals = np.empty((len(rows), k), dtype=np.intp), np.empty((len(rows), k))
    _nearest_block(blk, out, vals)
    return out, vals


def _nearest_block(blk: np.ndarray, out: np.ndarray, dist=None) -> None:
    """Columns of each row's out.shape[1] smallest entries of blk, ordered by
    (value, column), into out (and their values into dist, if given).

    Consumes blk: each pass takes the first minimum of every row and writes
    +inf over it, so blk must hold finite entries only.
    """
    at = np.arange(blk.shape[0])
    for j in range(out.shape[1]):
        out[:, j] = blk.argmin(axis=1)
        if dist is not None:
            dist[:, j] = blk[at, out[:, j]]
        blk[at, out[:, j]] = np.inf


def _smallest_mean(blk: np.ndarray, m: int) -> np.ndarray:
    """The mean of each row's m smallest entries of blk, summed in the order
    in which partitioning blk in place at its m-th smallest leaves them."""
    blk.partition(m - 1, axis=1)
    return blk[:, :m].mean(axis=1)


def nearest_center(points: np.ndarray, centers: np.ndarray) -> tuple:
    """Each point's nearest centre (ties to the lower index) and squared
    distance to it, 0 and +inf when there is no centre; a running minimum
    over the centres holds one n x d array at a time."""
    best = np.full(points.shape[0], np.inf)
    index = np.zeros(points.shape[0], dtype=int)
    for c, center in enumerate(centers):
        d2 = ((points - center) ** 2).sum(axis=1)
        closer = d2 < best
        best[closer] = d2[closer]
        index[closer] = c
    return index, best


def _four_b(d: int, sq, sq_max):
    """4B for B = (2d + 8) eps (sq + sq_max), the gap between squared
    distances above which every summation order ranks two candidates alike
    (the proof is in model.neighbours' docstring); sq holds |p|^2 per row."""
    return 4 * (2 * d + 8) * np.finfo(float).eps * (sq + sq_max)


def _nearest_sq_dist(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """nearest_center's squared distances, bit for bit, with the centres
    ranked by products. Each point's |p|^2 + |c|^2 - 2 p.c against the
    centres, in blocks of centres of at most BLOCK_BYTES, gives its best and
    second-best value. Where those lie more than `neighbours`' 4B apart, B
    = (2d + 8) eps (|p|^2 + max|c|^2), every summation order ranks the best
    centre first, so the loop's minimum is that centre's
    ((p - c)**2).sum(), which is taken for it alone. Every other row, and
    every row when a squared norm exceeds finfo.max / 4 (so a product might
    overflow), runs nearest_center's loop."""
    n, c = points.shape[0], centers.shape[0]
    if c <= 1:
        return nearest_center(points, centers)[1]
    sq, sq_c = np.einsum("ij,ij->i", points, points), np.einsum("ij,ij->i", centers, centers)
    if not max(sq.max(), sq_c.max()) <= np.finfo(float).max / 4:
        return nearest_center(points, centers)[1]
    step = max(1, BLOCK_BYTES // (8 * n))
    best, second, win = _two_nearest(points, sq, centers[:step], sq_c[:step])
    for a in range(step, c, step):
        b_best, b_second, b_win = _two_nearest(points, sq, centers[a:a + step], sq_c[a:a + step])
        # the two smallest of both pairs, each pair ascending
        second = np.minimum(np.maximum(best, b_best), np.minimum(second, b_second))
        closer = b_best < best
        best[closer], win[closer] = b_best[closer], b_win[closer] + a
    four_b = _four_b(points.shape[1], sq, sq_c.max())
    ranked = second - best > four_b
    if ranked.all():
        return ((points - centers[win]) ** 2).sum(axis=1)
    out = np.empty(n)
    rows, left = np.flatnonzero(ranked), np.flatnonzero(~ranked)
    out[rows] = ((points[rows] - centers[win[rows]]) ** 2).sum(axis=1)
    out[left] = nearest_center(points[left], centers)[1]
    return out


def _two_nearest(points, sq, centers, sq_c) -> tuple:
    """(best, second, win): each point's smallest and second-smallest value
    of |p|^2 + |c|^2 - 2 p.c over `centers` (+inf for a second when there
    is one centre) and the position of the first smallest, from a centres x
    points block."""
    blk = centers @ points.T
    blk *= -2.0
    blk += sq
    blk += sq_c[:, None]
    win, at = blk.argmin(axis=0), np.arange(blk.shape[1])
    best = blk[win, at]
    blk[win, at] = np.inf
    return best, blk.min(axis=0), win


def _spanning_tree(dist: np.ndarray, core: np.ndarray) -> tuple:
    """Dense Prim from point 0, one row per step: q's reachability row is
    max(max(dist[q], floor), core[q]), where `floor` is core with +inf at
    each point already joined, so that one is never closer. dist is only
    read. Returns (order, gap): the join order and the n - 1 join keys."""
    n = core.size
    floor = core.copy()
    best = np.full(n, np.inf)
    rd = np.empty(n)
    order = np.zeros(n, dtype=int)
    gap = np.empty(n - 1)
    q = 0
    for step in range(n - 1):
        floor[q] = np.inf
        best[q] = np.inf
        np.maximum(dist[q], floor, out=rd)  # q's reachability row, off the tree
        np.maximum(rd, core[q], out=rd)
        np.minimum(best, rd, out=best)
        q = int(best.argmin())
        order[step + 1], gap[step] = q, best[q]
    return order, gap


def build_index(ds: Dataset, min_pts: int) -> NeighborhoodIndex:
    """Core distances, local densities, reachability plot and neighbour list
    of the points, read in three passes from one matrix of pairwise
    distances in a workspace that ends on return: the list and core
    distances off each row block as it is made (the core distances from the
    list's entry min_pts - 1 when it has one); the densities; Prim. Requires
    n >= 2 and an integer min_pts in [1, n - 1]. The index depends only on
    ds's read-only points and min_pts, so it is kept on ds and later calls
    return that same object (threads that miss at once build equal ones).

    A density is the mean of a row's min_pts smallest reachabilities
    max(dist_pq, core_q, core_p) to other points. For min_pts <= 3, one step
    over the whole list decides it wherever the min_pts-th smallest of a
    row's listed reachabilities is at most the list's last distance: an
    unlisted point's reachability is at least its distance, so at least that
    last distance. max is exact, so these are the matrix's values, and a mean
    of at most three values adds (x0 + x1) + x2 with x2 the min_pts-th
    smallest, so the order in which a partition leaves the others changes no
    bit. Every other row, and every row at min_pts > 3, is a copy of its
    distance row made into reachabilities and partitioned by _spread.

    A MemoryError refuses, before anything is allocated, a workspace that
    with the core distances, densities, list and the list step's candidates
    beside it needs more than the physical memory.
    """
    n = ds.n
    if n < 2:
        raise ValueError("need at least 2 points to build an index")
    if not (is_int(min_pts) and 1 <= min_pts <= n - 1):
        raise ValueError(f"min_pts must be an integer in [1, {n - 1}], got {min_pts!r}")
    if int(min_pts) in ds._indexes:
        return ds._indexes[int(min_pts)]
    k = min(NEAR_K, n - 1)

    def take_near(rows, blk):
        # -1 makes the row's own entry its unique minimum, so the k + 1
        # smallest hold it and sort it first; it is dropped, and the
        # diagonal is zero before the block is left
        np.fill_diagonal(blk[:, rows], -1.0)
        cols = np.sort(np.argpartition(blk, k, axis=1)[:, :k + 1], axis=1)
        vals = np.take_along_axis(blk, cols, axis=1)
        np.fill_diagonal(blk[:, rows], 0.0)
        by = np.argsort(vals, axis=1, kind="stable")[:, 1:]  # ties keep position order
        near[rows] = np.take_along_axis(cols, by, axis=1)
        near_dist[rows] = np.take_along_axis(vals, by, axis=1)
        # the min_pts-th nearest other point; row position min_pts of the
        # whole row skips exactly one self-distance
        core[rows] = (near_dist[rows, min_pts - 1] if min_pts <= k
                      else np.partition(blk, min_pts, axis=1)[:, min_pts])

    def take_density(rows):
        rows = todo[rows]
        blk = dist[rows]  # a copy, made max(dist_pq, core_q, core_p) in place
        np.maximum(blk, core, out=blk)
        np.maximum(blk, core[rows, None], out=blk)
        blk[np.arange(rows.size), rows] = np.inf
        density[rows] = _smallest_mean(blk, min_pts)

    by_list = min_pts <= min(3, k)  # whether the list step runs
    # core, density and the list (int32 positions and float64 distances)
    # are held beside the workspace, and so is the list step's n x K
    # candidate array when it runs
    dist = _workspace((n, n), n * (16 + (20 if by_list else 12) * k))
    core, density = np.empty(n), np.empty(n)
    near, near_dist = np.empty((n, k), dtype=np.int32), np.empty((n, k))
    sq_norms = _distances(ds.points, ds.points, dist, None, take_near)
    todo = np.arange(n)  # every core is in now; the density steps read them all
    if by_list:  # the rows whose list decides their density
        cand = core[near]
        np.maximum(cand, near_dist, out=cand)
        np.maximum(cand, core[:, None], out=cand)
        mean = _smallest_mean(cand, min_pts)
        listed = cand[:, min_pts - 1] <= near_dist[:, -1]
        density[listed] = mean[listed]
        todo = np.flatnonzero(~listed)
    _spread(dist, todo.size, take_density)
    order, gap = _spanning_tree(dist, core)
    for arr in (core, density, order, gap, near, near_dist, sq_norms):
        arr.flags.writeable = False
    index = NeighborhoodIndex(points=ds.points, core=core, density=density, order=order,
                              gap=gap, near=near, near_dist=near_dist, sq_norms=sq_norms,
                              sq_max=float(sq_norms.max()), min_pts=int(min_pts))
    ds._indexes[index.min_pts] = index
    return index
