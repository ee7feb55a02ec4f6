"""Metric worked examples plus dual-route oracle comparisons."""

import numpy as np
import pytest

from ssdbcodi import auc, nmi, rand_index
from oracles import (auc_by_ranks, auc_by_threshold_sweep, nmi_by_contingency, nmi_by_counter,
                     rand_by_contingency, rand_by_pair_enumeration)


def test_auc_worked_examples():
    assert auc([1, 2, 3, 4], [False, True, False, True]) == 0.75
    assert auc([0.1, 0.9], [False, True]) == 1.0
    assert auc([0.9, 0.1], [False, True]) == 0.0
    assert auc([1.0, 1.0], [True, False]) == 0.5


def test_auc_rejects_degenerate_input():
    with pytest.raises(ValueError, match="positive"):
        auc([1.0, 2.0], [True, True])
    with pytest.raises(ValueError, match="positive"):
        auc([1.0, 2.0], [False, False])
    with pytest.raises(ValueError, match="equal-length"):
        auc([1.0, 2.0], [True])


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(4, 40))
        scores = rng.normal(size=n)
        labels = rng.random(n) < 0.5
        if labels.all() or not labels.any():
            labels[0] = True
            labels[1] = False
        assert auc(np.exp(scores), labels) == pytest.approx(
            auc(scores, labels), abs=1e-12)


def test_auc_matches_threshold_sweep_oracle():
    rng = np.random.default_rng(22)
    for _ in range(200):
        n = int(rng.integers(4, 60))
        # quantize so tied scores occur often
        scores = np.round(rng.normal(size=n), 1)
        labels = rng.random(n) < rng.uniform(0.2, 0.8)
        if labels.all() or not labels.any():
            labels[0] = True
            labels[1] = False
        assert auc(scores, labels) == pytest.approx(
            auc_by_threshold_sweep(scores, labels), abs=1e-9)


def test_rand_worked_examples():
    assert rand_index([0, 0, 1], [0, 1, 1]) == pytest.approx(1.0 / 3.0)
    assert rand_index([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0
    assert rand_index([0, 1, 2, 3], [0, 0, 0, 0]) == 0.0
    with pytest.raises(ValueError, match="2 points"):
        rand_index([0], [0])
    with pytest.raises(ValueError, match="equal-length"):
        rand_index([0, 1], [0, 1, 2])


def test_rand_is_symmetric_and_relabel_invariant():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        a = rng.integers(0, 4, size=n)
        b = rng.integers(0, 3, size=n)
        assert rand_index(a, b) == pytest.approx(rand_index(b, a), abs=1e-15)
        # arbitrary injective renaming, including the -1 sentinel
        renamed = np.where(a == 0, -1, a + 7)
        assert rand_index(renamed, b) == pytest.approx(
            rand_index(a, b), abs=1e-15)


def test_rand_matches_pair_enumeration_oracle():
    rng = np.random.default_rng(24)
    for _ in range(200):
        n = int(rng.integers(2, 50))
        a = rng.integers(-1, 3, size=n)
        b = rng.integers(0, 5, size=n)
        assert rand_index(a, b) == pytest.approx(
            rand_by_pair_enumeration(a, b), abs=1e-12)


def test_nmi_worked_examples():
    assert nmi([0, 0, 1, 1], [5, 5, 2, 2]) == 1.0
    assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == 0.0
    assert nmi([7, 7, 7], [7, 7, 7]) == 1.0  # both constant by convention
    assert nmi([0, 0, 0], [0, 1, 2]) == 0.0  # one side constant
    with pytest.raises(ValueError, match="1 point"):
        nmi([], [])


def test_nmi_bounds_and_symmetry():
    rng = np.random.default_rng(25)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        a = rng.integers(0, 4, size=n)
        b = rng.integers(0, 4, size=n)
        v = nmi(a, b)
        assert 0.0 <= v <= 1.0
        assert nmi(b, a) == pytest.approx(v, abs=1e-15)


def test_nmi_matches_counter_oracle():
    rng = np.random.default_rng(26)
    for _ in range(200):
        n = int(rng.integers(3, 50))
        a = rng.integers(0, 4, size=n)
        a[0], a[1] = 0, 1  # keep one side non-constant so entropy is positive
        b = rng.integers(-1, 3, size=n)
        assert nmi(a, b) == pytest.approx(nmi_by_counter(a, b), abs=1e-12)


def test_metrics_match_the_former_rank_and_contingency_forms_bit_for_bit():
    # scores from a pool of at most seven values, so ties are heavy, with NaN
    # and +-inf among them; ids with -1 and gaps; every 100th case at n ~ 4000
    rng = np.random.default_rng(27)
    score_pool = np.array([-np.inf, -1.5, -0.0, 0.0, 0.1, 0.2, 1 / 3, 0.5, 2.0, np.inf, np.nan])
    id_pool = np.array([-1, 0, 2, 3, 7, 40])
    seen = {"nan": 0, "inf": 0, "-1": 0, "large": 0}
    for case in range(2000):
        n = int(rng.integers(3990, 4011)) if case % 100 == 0 else int(rng.integers(2, 200))
        pool = rng.choice(score_pool, size=int(rng.integers(1, 8)), replace=False)
        scores = rng.choice(pool, size=n)
        labels = rng.random(n) < rng.uniform(0.05, 0.95)
        if labels.all() or not labels.any():
            labels[rng.integers(n)] ^= True
        a, b = (rng.choice(rng.choice(id_pool, size=int(rng.integers(1, 6)), replace=False), size=n)
                for _ in range(2))
        pairs = ((auc(scores, labels), auc_by_ranks(scores, labels)),
                 (rand_index(a, b), rand_by_contingency(a, b)),
                 (nmi(a, b), nmi_by_contingency(a, b)))
        for got, want in pairs:
            assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes(), case
        seen["nan"] += bool(np.isnan(scores).any())
        seen["inf"] += bool(np.isinf(scores).any())
        seen["-1"] += bool((a == -1).any() or (b == -1).any())
        seen["large"] += n > 3000
    assert min(seen.values()) >= 20, seen
