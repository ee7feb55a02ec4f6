"""Semi-supervised density-based clustering with integrated outlier detection.

The pipeline expands density trees from the labeled normal points, keeps
the reliably clustered region of each expansion, scores every point on
reachability, local density, and proximity to labeled outliers, then
trains an instance-weighted nearest-neighbour classifier on the reliable
normals and reliable outliers to label the whole dataset.
"""

from .baselines import BaselineResult, NOISE, dbscan, kmeans, lof, ssdbscan_with_fallback
from .dataset import (Dataset, LabelSet, OUTLIER, load_csv, minmax_scale,
                      round_half_up, sample_labels)
from .expansion import ClusterAssignment, UNCLUSTERED, expand, minimax_rows, ssdbscan
from .metrics import auc, nmi, rand_index
from .metricspace import (NeighborhoodIndex, build_index, is_density_reachable,
                          pairwise_distances, rdist_matrix, rdist_row, reach_distance)
from .model import (PipelineResult, TrainingSet, WeightedKnnClassifier,
                    predict, select_reliable, train)
from .pipeline import (PipelineParams, Prepared, TuneReport, blend_grid, default_k,
                       finish, prepare, run, tune)
from .scoring import (ScoreParams, ScoreTable, l_score, local_densities, r_score,
                      sim_scores, t_score)

__version__ = "0.1.0"

__all__ = [
    "BaselineResult", "ClusterAssignment", "Dataset", "LabelSet", "NeighborhoodIndex",
    "NOISE", "OUTLIER", "PipelineParams", "PipelineResult", "Prepared", "ScoreParams",
    "ScoreTable", "TrainingSet", "TuneReport", "UNCLUSTERED", "WeightedKnnClassifier",
    "auc", "blend_grid", "build_index", "dbscan", "default_k", "expand", "finish",
    "is_density_reachable", "kmeans", "l_score", "load_csv", "local_densities",
    "lof", "minimax_rows", "minmax_scale", "nmi",
    "pairwise_distances", "predict", "prepare", "r_score", "rand_index", "rdist_matrix",
    "rdist_row", "reach_distance", "round_half_up", "run", "sample_labels",
    "select_reliable", "sim_scores", "ssdbscan", "ssdbscan_with_fallback",
    "t_score", "train", "tune",
]
