"""Per-point outlier scores and their weighted blend.

Three ingredients, each mapped through exp(-x) so that 1 means firmly
normal and values near 0 mean suspicious:

* r_score: how cheaply a point is reached from the labeled normal roots,
* l_score: how dense the point's own reachability neighbourhood is (the
  label-independent densities live on the NeighborhoodIndex),
* sim_score: proximity to the nearest labeled outlier (0 when there are
  none). One product ranks the labeled outliers for every point, and a
  point whose nearest one that product ranks clearly takes its distance to
  that one alone; the others run nearest_center's loop over all of them.

The blended t_score weights the complements of the first two against the
third; higher t_score means more outlier-like.
"""

from dataclasses import dataclass

import numpy as np

from .dataset import LabelSet, is_int
from .metricspace import _nearest_sq_dist


@dataclass(frozen=True)
class ScoreParams:
    """Blend weights for the combined score plus the shared min_pts."""

    alpha: float
    beta: float
    min_pts: int = 3

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if self.alpha + self.beta > 1.0:
            raise ValueError(f"alpha + beta must not exceed 1, got {self.alpha + self.beta}")
        if not (is_int(self.min_pts) and self.min_pts >= 1):
            raise ValueError(f"min_pts must be an integer >= 1, got {self.min_pts!r}")


@dataclass(frozen=True, eq=False)
class ScoreTable:
    """The three raw per-point score columns; t_score blends them."""

    r_score: np.ndarray
    l_score: np.ndarray
    sim_score: np.ndarray


def r_score(emax) -> np.ndarray:
    """exp(-emax): 1 exactly at the labeled normal roots, decaying with
    the cost of the cheapest expansion path."""
    e = np.asarray(emax, dtype=float)
    if not np.all(e >= 0):
        raise ValueError("emax values must be non-negative")
    return np.exp(-e)


def l_score(ld) -> np.ndarray:
    """exp(-local density): near 1 in tight neighbourhoods."""
    v = np.asarray(ld, dtype=float)
    if not np.all(v >= 0):
        raise ValueError("local densities must be non-negative")
    return np.exp(-v)


def sim_scores(points: np.ndarray, labels: LabelSet) -> np.ndarray:
    """exp(-distance to the nearest labeled outlier) per row of points; 0
    when none are labeled, as exp(-sqrt(inf)). A labeled outlier outside
    [0, n) is refused, naming it."""
    outliers = sorted(labels.outliers)
    bad = [i for i in outliers if not 0 <= i < points.shape[0]]
    if bad:
        raise ValueError(f"labeled outliers out of range for n={points.shape[0]}: {bad[:5]}")
    d2 = _nearest_sq_dist(points, points[outliers])
    return np.exp(-np.sqrt(d2))


def t_score(table: ScoreTable, params: ScoreParams) -> np.ndarray:
    """alpha * (1 - r) + beta * (1 - l) + (1 - alpha - beta) * sim, in [0, 1]."""
    return _blend(table, params.alpha, params.beta)


def _blend(table: ScoreTable, alpha, beta, out=None) -> np.ndarray:
    """t_score's blend, in out when given. alpha and beta are floats, or
    columns for a cells x points blend matrix, each row the bits of its
    cell's t_score, as every step is elementwise."""
    t = np.multiply(alpha, 1.0 - table.r_score, out=out)
    t += beta * (1.0 - table.l_score)
    t += np.maximum(0.0, 1.0 - alpha - beta) * table.sim_score
    return t

