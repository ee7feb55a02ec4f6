"""Pairwise and cross distances, k-nearest and nearest-centre selection, core
distances, local densities, and the spanning tree's reachability plot.

The n x n passes work in place in their output, in row blocks, so each holds
one large array at a time; an index keeps none of them. What is read off the
distances alone (the classifier's nearest neighbours, the core distances) is
read off each row block as soon as it holds them, while it is still in
cache, not in a second sweep of the matrix. Large outputs live in maps that
are reused once their output dies, up to IDLE_BYTES of idle maps.

After one BLAS product, the index build's and pairwise_distances' row passes
run on the caller and one pool thread per other core. Each pass is
elementwise or per row, so which thread takes a block changes no bit.

The neighbourhood convention everywhere is self-excluding: the core
distance of p is the distance to its min_pts-th nearest *other* point.
"""

from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
import mmap
import os
import threading
import weakref

import numpy as np

from .dataset import Dataset, is_int


@dataclass(frozen=True, eq=False)
class NeighborhoodIndex:
    """Its dataset's points, core distances, local densities (l_score's
    input) and the reachability plot of the reachability graph's minimum
    spanning tree: `order`, Prim's join order from point 0, and `gap`, the
    keys at which order[1:] joined, so the minimax path value between
    order[i] and order[j] is max(gap[i:j]) for i < j; read-only. It keeps
    no distance matrix: pairwise_distances(points) gives its bits again."""

    points: np.ndarray
    core: np.ndarray
    density: np.ndarray
    order: np.ndarray
    gap: np.ndarray
    min_pts: int

    @property
    def n(self) -> int:
        return self.points.shape[0]


# Each n x n pass holds one large array, its output, and works in row blocks
# of BLOCK_BYTES; a pass spread over _WORKERS threads cuts its blocks to
# BLOCK_BYTES // _WORKERS, so the block temporaries in flight still total one
# BLOCK_BYTES. Outputs from MAPPED_BYTES on (numpy's huge-page size) get an
# anonymous map of their own: in the C heap each would leave a hole that
# smaller allocations split before the next output arrives, so a long-running
# process's resident peak would drift with its allocation history by up to one
# output. A dead output's map then serves the next output that fits, sparing
# it fresh page faults, while idle maps total at most IDLE_BYTES (glibc's
# ceiling for freed chunks).
BLOCK_BYTES, MAPPED_BYTES, IDLE_BYTES = 1 << 20, 4 << 20, 32 << 20
_idle, _idle_lock = [], threading.RLock()  # _park runs on any thread, even inside _mapped
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_helpers = ThreadPoolExecutor(max(_WORKERS - 1, 1), thread_name_prefix="ssdbcodi-rows")


def row_blocks(n_rows: int, n_cols: int) -> list:
    """Row slices whose float64 blocks of n_cols columns fit BLOCK_BYTES."""
    step = max(1, BLOCK_BYTES // (8 * max(n_cols, 1)))
    return [slice(a, a + step) for a in range(0, n_rows, step)]


def _spread(n_rows: int, n_cols: int, fn, workers: int) -> None:
    """fn(rows) for every row slice whose blocks of n_cols columns fit
    BLOCK_BYTES // workers, taken off one iterator by this thread and up to
    workers - 1 pool threads. Once it runs out, this thread cancels the pool
    tasks not yet started and waits for the running ones, then raises the
    error of any block."""
    blocks = row_blocks(n_rows, n_cols * workers)
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
        running = [task for task in tasks if not task.cancel()]
        wait(running)
    for task in running:
        task.result()


def _mapped(shape: tuple, nbytes: int) -> np.ndarray:
    """An uninitialised float64 array in the smallest idle map of nbytes or more,
    else in a new map (dropping the idle maps, all too small). Views are based
    on the array, not its map, so the map is parked once the last of them dies."""
    with _idle_lock:
        fits = [buf for buf in _idle if len(buf) >= nbytes]
        buf = min(fits, key=len) if fits else None
        if buf is None:
            _idle.clear()
        else:
            _idle.remove(buf)
    if buf is None:
        buf = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
        buf.madvise(getattr(mmap, "MADV_HUGEPAGE", mmap.MADV_NORMAL))
    out = np.ndarray(shape, buffer=buf)
    weakref.finalize(out, _park, buf)
    return out


def _park(buf: mmap.mmap) -> None:
    """Keep a map whose output has died while the idle maps fit IDLE_BYTES."""
    with _idle_lock:
        if len(buf) + sum(len(idle) for idle in _idle) <= IDLE_BYTES:
            _idle.append(buf)


def squared_norms(points: np.ndarray) -> np.ndarray:
    """Squared row norms, each required to be at most finfo.max / 4 so that
    no distance step over these points overflows."""
    sq = np.einsum("ij,ij->i", points, points)
    bound = np.finfo(float).max / 4
    if not np.all(sq <= bound):
        raise ValueError(f"every point's squared norm must be finite and at most {bound:.4g}")
    return sq


def cross_distances(a, b, rows=None) -> np.ndarray:
    """Euclidean distances from each row of a to each row of b, computed in
    place in the product a @ b.T (BLAS's symmetric one when b is a).

    With `rows`, only those rows of the full product (in their order) go on
    to the elementwise passes: a BLAS product of fewer rows need not have
    the same bits. The squared norms of b's rows and of the rows of a kept
    must pass squared_norms, so that every distance kept is finite.
    """
    if rows is None:
        return _distances(a, b)
    out = np.empty((len(rows), np.shape(b)[0]))
    _distances(a, b, rows, out.__setitem__)
    return out


def _distances(a, b, rows=None, each=None, workers=1) -> np.ndarray:
    """The product a @ b.T, turned into cross_distances in place, row block by
    row block, over `workers` threads; each(block_rows, block) is called on
    every block as soon as it holds distances, while it is still in cache.
    With `rows`, each block is a copy of those rows of the product, seen
    only by `each`, and the product returned is left as BLAS made it."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    sb = squared_norms(b)
    sa = sb if a is b and rows is None else squared_norms(a if rows is None else a[rows])
    nbytes = 8 * a.shape[0] * b.shape[0]
    if nbytes >= MAPPED_BYTES and hasattr(mmap, "MAP_PRIVATE"):
        d = np.matmul(a, b.T, out=_mapped((a.shape[0], b.shape[0]), nbytes))
    else:
        d = a @ b.T

    def block(blk_rows):
        blk = d[blk_rows] if rows is None else d[rows[blk_rows]]
        blk *= 2.0
        np.subtract(sa[blk_rows, None] + sb[None, :], blk, out=blk)
        np.maximum(blk, 0.0, out=blk)
        np.sqrt(blk, out=blk)
        if each is not None:
            each(blk_rows, blk)

    _spread(len(sa), b.shape[0], block, workers)
    return d


def nearest(d: np.ndarray, k: int) -> np.ndarray:
    """Columns of each row's k smallest entries, ordered by (value, column).

    Consumes d: each pass takes the first minimum of every row and writes
    +inf over it, so d must hold finite entries only.
    """
    nbrs = np.empty((d.shape[0], k), dtype=np.intp)
    for rows in row_blocks(*d.shape):
        _nearest_block(d[rows], nbrs[rows])
    return nbrs


def cross_nearest(a, b, k: int, rows=None) -> np.ndarray:
    """nearest(cross_distances(a, b, rows), k), each row block searched as
    soon as it holds distances instead of in a second sweep of the matrix."""
    nbrs = np.empty((np.shape(a)[0] if rows is None else np.shape(rows)[0], k), dtype=np.intp)
    _distances(a, b, rows, lambda blk_rows, blk: _nearest_block(blk, nbrs[blk_rows]))
    return nbrs


def _nearest_block(blk: np.ndarray, out: np.ndarray) -> None:
    """nearest on one block of rows, into out's k columns; consumes blk."""
    at = np.arange(blk.shape[0])
    for j in range(out.shape[1]):
        out[:, j] = blk.argmin(axis=1)
        blk[at, out[:, j]] = np.inf


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


def pairwise_distances(points) -> np.ndarray:
    """Exactly symmetric Euclidean distance matrix with a zero diagonal.

    numpy computes P @ P.T on one operand with BLAS's syrk and mirrors one
    triangle onto the other, and the elementwise passes add the squared
    norms in either order to the same sum, so entry (i, j) has the bits of
    entry (j, i). Points BLAS cannot take whole (strided or misaligned) are
    copied first: numpy would copy the two operands apart and run a general
    GEMM, whose mirrored entries may differ in their last bits.
    """
    return _pairwise(points)


def _pairwise(points, each=None) -> np.ndarray:
    """pairwise_distances over every core, calling each(block_rows, block) as
    _distances does, once the block's diagonal is zero."""
    pts = np.asarray(points, dtype=float)
    if not (pts.flags.aligned and (pts.flags.c_contiguous or pts.flags.f_contiguous)):
        pts = pts.copy()

    def zero_diagonal(rows, blk):
        np.fill_diagonal(blk[:, rows], 0.0)
        if each is not None:
            each(rows, blk)

    return _distances(pts, pts, each=zero_diagonal, workers=_WORKERS)


def _spanning_tree(reach: np.ndarray) -> tuple:
    """Dense Prim from point 0 over the reachability matrix, one row per step.

    A point's entry in `joined` turns +inf when it joins the tree, so its
    reachability from any later point is +inf and never closer.
    Returns (order, gap): the join order and the n - 1 join keys.
    """
    n = reach.shape[0]
    joined = np.zeros(n)
    best = np.full(n, np.inf)
    rd = np.empty(n)
    order = np.zeros(n, dtype=int)
    gap = np.empty(n - 1)
    q = 0
    for step in range(n - 1):
        joined[q] = np.inf
        best[q] = np.inf
        np.maximum(reach[q], joined, out=rd)  # q's reachability row, off the tree
        np.minimum(best, rd, out=best)
        q = int(best.argmin())
        order[step + 1], gap[step] = q, best[q]
    return order, gap


def build_index(ds: Dataset, min_pts: int) -> NeighborhoodIndex:
    """Core distances, local densities and reachability plot of the points,
    all read from one distance matrix (the core distances off each row block
    as it is made), which the density pass turns into the reachability
    matrix in place for Prim, and which is freed on return. The distance,
    core and density passes run over every core, in row blocks whose bits
    do not depend on the thread that takes them. Requires n >= 2
    and an integer min_pts in [1, n - 1]. The index depends only on
    ds's read-only points and min_pts, so it is kept on ds and later calls
    return that same object (threads that miss at once build equal ones).
    """
    n = ds.n
    if n < 2:
        raise ValueError("need at least 2 points to build an index")
    if not (is_int(min_pts) and 1 <= min_pts <= n - 1):
        raise ValueError(f"min_pts must be an integer in [1, {n - 1}], got {min_pts!r}")
    if int(min_pts) in ds._indexes:
        return ds._indexes[int(min_pts)]
    core, density = np.empty(n), np.empty(n)

    def take_core(rows, blk):  # row position min_pts skips exactly one self-distance
        core[rows] = np.partition(blk, min_pts, axis=1)[:, min_pts]

    def take_density(rows):  # the mean of the row's min_pts smallest off-diagonal entries
        blk = dist[rows]
        np.maximum(blk, core, out=blk)  # dist_pq becomes max(dist_pq, core_q, core_p) in place
        np.maximum(blk, core[rows, None], out=blk)
        blk = blk.copy()
        np.fill_diagonal(blk[:, rows], np.inf)
        blk.partition(min_pts - 1, axis=1)
        density[rows] = blk[:, :min_pts].mean(axis=1)

    dist = _pairwise(ds.points, take_core)
    _spread(n, n, take_density, _WORKERS)  # reads every core, so starts once all are in
    order, gap = _spanning_tree(dist)
    for arr in (core, density, order, gap):
        arr.flags.writeable = False
    index = NeighborhoodIndex(points=ds.points, core=core, density=density, order=order,
                              gap=gap, min_pts=int(min_pts))
    ds._indexes[index.min_pts] = index
    return index
