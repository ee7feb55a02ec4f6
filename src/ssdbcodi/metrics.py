"""Evaluation metrics: ranking AUC, Rand index, and normalized mutual information.

Partition metrics treat every distinct value as its own category, so an
OUTLIER sentinel simply acts as one extra cluster id.

AUC is the Mann-Whitney U count (negatives below each positive, ties
counting 1/2) over positive x negative pairs, and the Rand index the count
of point pairs on which both partitions agree over all pairs. Both counts
are exact in float64 while they stay below 2^53, so each value is one
rounding of an exact ratio. `tune`'s fold objective sets out the truth side
once per fold and calls the same counts, `_u_share` and `_agreement`. The
CLI's sweeps set out the full ground truth's side once per dataset (its
outliers and normals, codes, id count and pair count) and hand each cell to
those counts and to `_nmi`, the core that `nmi` calls on its codes.
"""

import numpy as np


def _u_share(below: np.ndarray, at: np.ndarray) -> float:
    """U / (at.size * below.size): the sorted negative scores `below` that
    each positive score in `at` outscores, ties counting 1/2."""
    lo = np.searchsorted(below, at, side="left")
    hi = np.searchsorted(below, at, side="right")
    return float((lo.sum() + 0.5 * (hi - lo).sum()) / (at.size * below.size))


def auc(scores, labels) -> float:
    """Probability that a random positive outscores a random negative; ties count 1/2."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=bool)
    if s.ndim != 1 or s.shape != y.shape:
        raise ValueError("scores and labels must be equal-length vectors")
    if y.all() or not y.any():
        raise ValueError("AUC needs at least one positive and one negative")
    return _u_share(np.sort(s[~y]), s[y])


def _pairs(counts: np.ndarray) -> float:
    """The number of pairs within the counts' groups, sum C(c, 2), as a float."""
    return float((counts * (counts - 1)).sum() // 2)


def _agreement(a: np.ndarray, b: np.ndarray, nb: int, b_pairs: float) -> float:
    """Share of point pairs on which the codes `a` and `b` agree; `b` lies in
    range(nb) and has `b_pairs` pairs within its groups."""
    m = a.size
    total = m * (m - 1) / 2.0
    same = _pairs(np.bincount(a * nb + b))
    diff = total - _pairs(np.bincount(a)) - b_pairs + same
    return float((same + diff) / total)


def _codes(predicted, truth) -> tuple:
    """Both partitions as codes of their sorted distinct ids, and truth's id count."""
    a = np.asarray(predicted)
    b = np.asarray(truth)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("partitions must be equal-length vectors")
    b_ids, bi = np.unique(b, return_inverse=True)
    return np.unique(a, return_inverse=True)[1], bi, b_ids.size


def rand_index(predicted, truth) -> float:
    """Share of point pairs on which the two partitions agree."""
    a, b, nb = _codes(predicted, truth)
    if a.size < 2:
        raise ValueError("rand_index needs at least 2 points")
    return _agreement(a, b, nb, _pairs(np.bincount(b)))


def nmi(predicted, truth) -> float:
    """2 I(Y;C) / (H(Y) + H(C)) with natural logs; 1.0 when both partitions
    are constant (zero entropy on both sides)."""
    a, b, nb = _codes(predicted, truth)
    if a.size < 1:
        raise ValueError("nmi needs at least 1 point")
    return _nmi(a, b, nb)


def _nmi(a: np.ndarray, b: np.ndarray, nb: int) -> float:
    """nmi of the codes `a` and `b`, at least one each, `b` in range(nb)."""
    p = np.bincount(a * nb + b, minlength=(a.max() + 1) * nb).reshape(-1, nb).astype(float)
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
