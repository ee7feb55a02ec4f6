"""Semi-supervised density-based clustering with integrated outlier detection.

The pipeline expands density trees from the labeled normal points, keeps
the reliably clustered region of each expansion, scores every point on
reachability, local density, and proximity to labeled outliers, then
trains an instance-weighted nearest-neighbour classifier on the reliable
normals and reliable outliers to label the whole dataset.
"""

from .baselines import NOISE, dbscan, kmeans, lof, ssdbscan_with_fallback
from .dataset import (Dataset, LabelSet, OUTLIER, load_csv, minmax_scale,
                      round_half_up, sample_labels)
from .expansion import UNCLUSTERED, expand
from .metrics import auc, nmi, rand_index
from .metricspace import NeighborhoodIndex, build_index
from .model import PipelineResult, TrainingSet
from .pipeline import (PipelineParams, Prepared, TuneReport, blend_grid, default_k,
                       finish, prepare, run, tune)
from .scoring import ScoreParams, ScoreTable, l_score, r_score, sim_scores, t_score

__version__ = "0.1.0"

__all__ = [
    "Dataset", "LabelSet", "NeighborhoodIndex", "NOISE", "OUTLIER", "PipelineParams",
    "PipelineResult", "Prepared", "ScoreParams", "ScoreTable", "TrainingSet",
    "TuneReport", "UNCLUSTERED", "auc", "blend_grid", "build_index", "dbscan",
    "default_k", "expand", "finish", "kmeans", "l_score", "load_csv", "lof",
    "minmax_scale", "nmi", "prepare", "r_score",
    "rand_index", "round_half_up", "run", "sample_labels",
    "sim_scores", "ssdbscan_with_fallback", "t_score", "tune",
]
