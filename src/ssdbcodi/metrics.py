"""Evaluation metrics: ranking AUC, Rand index, and normalized mutual information.

Partition metrics treat every distinct value as its own category, so an
OUTLIER sentinel simply acts as one extra cluster id.

AUC is the Mann-Whitney U count (negatives below each positive, ties
counting 1/2) over positive x negative pairs, and the Rand index the count
of point pairs on which both partitions agree over all pairs. Both counts
are exact in float64 while they stay below 2^53, so each value is one
rounding of an exact ratio. `_Truth` sets out a truth partition once (its
codes, id count and pair count, and its positive and negative rows) and
scores a prediction's codes against it. `rand_index` and `nmi` set one out
per call, the CLI's reports one per dataset and `tune`'s fold objective one
per fold, so a cell hands only its own side to the counts.
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


class _Truth:
    """A truth partition set out once: the codes of its sorted distinct ids,
    its id count and its pair count, and, given a boolean mask `positive`,
    its positive and negative rows (`classes`, None unless both occur).
    Each method scores a prediction's codes, non-negative ints, one per
    truth row, with the bits of auc, rand_index and nmi."""

    def __init__(self, truth, positive=None):
        ids, self.codes = np.unique(truth, return_inverse=True)
        self.n_ids, self.pairs = ids.size, _pairs(np.bincount(self.codes))
        both = positive is not None and positive.any() and not positive.all()
        self.classes = (np.flatnonzero(positive), np.flatnonzero(~positive)) if both else None

    def auc(self, scores: np.ndarray) -> float | None:
        """auc of `scores` against the positive rows; None without both classes."""
        if self.classes is None:
            return None
        return _u_share(np.sort(scores[self.classes[1]]), scores[self.classes[0]])

    def rand_index(self, a: np.ndarray) -> float:
        """Share of point pairs on which the codes `a` and the truth agree."""
        m = a.size
        if m < 2:
            raise ValueError("rand_index needs at least 2 points")
        total = m * (m - 1) / 2.0
        same = _pairs(np.bincount(a * self.n_ids + self.codes))
        diff = total - _pairs(np.bincount(a)) - self.pairs + same
        return float((same + diff) / total)

    def nmi(self, a: np.ndarray) -> float:
        """nmi of the codes `a` against the truth."""
        if a.size < 1:
            raise ValueError("nmi needs at least 1 point")
        b, nb = self.codes, self.n_ids
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


def _codes(predicted, truth) -> tuple:
    """`predicted` as codes of its sorted distinct ids, and `truth` as a _Truth."""
    a = np.asarray(predicted)
    b = np.asarray(truth)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("partitions must be equal-length vectors")
    return np.unique(a, return_inverse=True)[1], _Truth(b)


def rand_index(predicted, truth) -> float:
    """Share of point pairs on which the two partitions agree."""
    a, t = _codes(predicted, truth)
    return t.rand_index(a)


def nmi(predicted, truth) -> float:
    """2 I(Y;C) / (H(Y) + H(C)) with natural logs; 1.0 when both partitions
    are constant (zero entropy on both sides)."""
    a, t = _codes(predicted, truth)
    return t.nmi(a)
