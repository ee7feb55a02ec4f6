"""The package's public surface."""

import dataclasses
import re
from pathlib import Path

import ssdbcodi


def test_every_exported_name_resolves():
    missing = [name for name in ssdbcodi.__all__ if not hasattr(ssdbcodi, name)]
    assert missing == []
    assert len(set(ssdbcodi.__all__)) == len(ssdbcodi.__all__)


def test_the_public_surface_is_pinned():
    # src/ exports only what src/, the CLI and the benchmark harness call; a
    # helper made public by mistake, or a name dropped, fails here
    assert sorted(ssdbcodi.__all__) == sorted([
        "Dataset", "LabelSet", "NeighborhoodIndex", "NOISE", "OUTLIER", "PipelineParams",
        "PipelineResult", "Prepared", "ScoreParams", "ScoreTable", "TrainingSet",
        "TuneReport", "UNCLUSTERED", "auc", "blend_grid", "build_index", "dbscan",
        "default_k", "expand", "finish", "kmeans", "l_score", "load_csv", "lof",
        "minmax_scale", "nmi", "prepare", "r_score", "rand_index", "round_half_up", "run",
        "sample_labels", "sim_scores", "ssdbscan_with_fallback",
        "t_score", "tune",
    ])


def test_the_pipeline_records_are_pinned():
    # a result holds only what finish made and a score table only the raw
    # columns; the assignment and the blend stay on the stage, so a field
    # copied back onto either record fails here
    def names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    assert names(ssdbcodi.PipelineResult) == ["clusters", "outliers", "outlier_score",
                                              "training", "k_c"]
    assert names(ssdbcodi.ScoreTable) == ["r_score", "l_score", "sim_score"]
    # a stage fixes the rows its finishes classify, so no cell passes them,
    # and sets out the normals and unclustered points that every cell shares
    assert names(ssdbcodi.Prepared) == ["index", "assignment", "scores", "auto_k", "rows",
                                        "normals", "unclustered", "unclustered_scores",
                                        "_cells"]
    # the set-out fields and the cell cache follow the stage's other fields,
    # so no caller passes them
    assert [f.name for f in dataclasses.fields(ssdbcodi.Prepared) if f.init] == [
        "index", "assignment", "scores", "auto_k", "rows"]


def test_only_the_metrics_module_names_the_private_counts():
    # every score against a truth goes through metrics._Truth, so a module
    # that reaches past it into the counts fails here
    counts = re.compile(r"\b(_u_share|_pairs|_nmi|_agreement)\b")
    named = [path.name for path in sorted(Path(ssdbcodi.__file__).parent.glob("*.py"))
             if path.name != "metrics.py" and counts.search(path.read_text(encoding="utf-8"))]
    assert named == []
