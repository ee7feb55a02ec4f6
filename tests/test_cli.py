"""CLI contract: report shapes, formatting, determinism, and exit codes."""

import json
import subprocess
import sys

import pytest

from ssdbcodi import (PipelineParams, ScoreParams, auc, finish, load_csv,
                      prepare, sample_labels)
from ssdbcodi import cli
from ssdbcodi.cli import main

BLOB = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0),
        (0.5, 0.5), (0.2, 0.8), (0.8, 0.2), (0.5, 0.0)]


def blob_rows():
    rows = [(x, y, "a") for x, y in BLOB]
    rows += [(x + 8.0, y + 8.0, "b") for x, y in BLOB]
    rows += [(4.0, 4.0, "o"), (12.0, -4.0, "o")]
    return rows


def write_csv(path, rows):
    lines = ["x,y,label"] + [f"{x},{y},{lab}" for x, y, lab in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def blobs_csv(tmp_path):
    return write_csv(tmp_path / "blobs.csv", blob_rows())


@pytest.fixture
def clean_csv(tmp_path):
    rows = [(0.0, 0.0, "a"), (1.0, 0.0, "a"), (0.0, 1.0, "a"),
            (9.0, 9.0, "b"), (10.0, 9.0, "b"), (9.0, 10.0, "b")]
    return write_csv(tmp_path / "clean.csv", rows)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_report_shape(blobs_csv, capsys):
    code, out, _ = run_cli(
        ["run", "--input", blobs_csv, "--label-fraction", "0.5", "--seed", "1"],
        capsys)
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert report["command"] == "run"
    assert report["dataset"] == "blobs"
    assert report["n"] == 18 and report["d"] == 2
    assert set(report["params"]) == {"alpha", "beta", "min_pts", "k_reliable", "knn_k"}
    assert report["params"]["alpha"] == 0.4
    for key in ("auc", "rand_index", "nmi"):
        assert key in report
    assert "wall_time_ms" in report
    per_point = report["per_point"]
    assert len(per_point["cluster"]) == 18
    assert len(per_point["outlier"]) == 18
    assert len(per_point["outlier_score"]) == 18
    assert all(isinstance(v, bool) for v in per_point["outlier"])


def test_run_no_timing_is_byte_stable(blobs_csv, tmp_path, capsys):
    outputs = []
    for name in ("one.json", "two.json"):
        target = tmp_path / name
        code, _, _ = run_cli(
            ["run", "--input", blobs_csv, "--label-fraction", "0.5",
             "--no-timing", "--output", str(target)],
            capsys)
        assert code == 0
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1]
    assert b"wall_time_ms" not in outputs[0]


def test_run_floats_survive_reparse(blobs_csv, capsys):
    code, out, _ = run_cli(
        ["run", "--input", blobs_csv, "--label-fraction", "0.5", "--no-timing"],
        capsys)
    assert code == 0

    def check(node):
        if isinstance(node, float):
            assert float(f"{node:.12g}") == node
        elif isinstance(node, dict):
            for v in node.values():
                check(v)
        elif isinstance(node, list):
            for v in node:
                check(v)

    check(json.loads(out))


def test_run_with_tuning(blobs_csv, capsys):
    code, out, _ = run_cli(
        ["run", "--input", blobs_csv, "--label-fraction", "0.5", "--seed", "1",
         "--tune", "--grid-step", "0.5", "--folds", "2", "--no-timing"],
        capsys)
    assert code == 0
    report = json.loads(out)
    tuned = report["tuned"]
    assert tuned["alpha"] + tuned["beta"] <= 1.0 + 1e-9
    assert report["params"]["alpha"] == tuned["alpha"]
    assert report["params"]["beta"] == tuned["beta"]


def test_benchmark_matches_single_run(blobs_csv, capsys):
    code, out, _ = run_cli(
        ["run", "--input", blobs_csv, "--label-fraction", "0.25", "--seed", "3",
         "--no-timing"],
        capsys)
    assert code == 0
    single = json.loads(out)
    code, out, _ = run_cli(
        ["benchmark", "--input", blobs_csv, "--fractions", "25", "--trials", "1",
         "--seed", "3"],
        capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "# schema_version=1"
    header = lines[1].split(",")
    assert header == ["fraction", "auc_mean", "auc_std", "rand_mean", "rand_std",
                      "nmi_mean", "nmi_std"]
    row = dict(zip(header, lines[2].split(",")))
    assert row["fraction"] == "25"
    assert float(row["auc_mean"]) == single["auc"]
    assert float(row["rand_mean"]) == single["rand_index"]
    assert float(row["nmi_mean"]) == single["nmi"]
    assert float(row["auc_std"]) == 0.0  # one trial has no spread


def test_tuned_benchmark_matches_tuned_run(blobs_csv, capsys):
    tune_flags = ["--tune", "--grid-step", "0.5", "--folds", "2", "--seed", "1"]
    code, out, _ = run_cli(
        ["run", "--input", blobs_csv, "--label-fraction", "0.5", "--no-timing"]
        + tune_flags, capsys)
    assert code == 0
    single = json.loads(out)
    code, out, _ = run_cli(
        ["benchmark", "--input", blobs_csv, "--fractions", "50", "--trials", "1"]
        + tune_flags, capsys)
    assert code == 0
    lines = out.strip().split("\n")
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    assert float(row["auc_mean"]) == single["auc"]
    assert float(row["rand_mean"]) == single["rand_index"]
    assert float(row["nmi_mean"]) == single["nmi"]


def test_sweeps_build_one_index(blobs_csv, capsys, monkeypatch):
    calls = []
    real = cli.build_index

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "build_index", counting)
    for command in ("benchmark", "sensitivity"):
        calls.clear()
        code, _, _ = run_cli(
            [command, "--input", blobs_csv, "--fractions", "25,50", "--trials", "3",
             "--grid-step", "0.5", "--workers", "2"], capsys)
        assert code == 0
        assert len(calls) == 1, command


def test_benchmark_threading_is_deterministic(blobs_csv, capsys):
    args = ["benchmark", "--input", blobs_csv, "--fractions", "25,50",
            "--trials", "3", "--seed", "5"]
    code, serial, _ = run_cli(args + ["--workers", "1"], capsys)
    assert code == 0
    code, threaded, _ = run_cli(args + ["--workers", "4"], capsys)
    assert code == 0
    assert serial == threaded


def test_benchmark_without_outliers_leaves_auc_empty(clean_csv, capsys):
    code, out, _ = run_cli(
        ["benchmark", "--input", clean_csv, "--fractions", "50", "--trials", "2",
         "--min-pts", "2"],
        capsys)
    assert code == 0
    lines = out.strip().split("\n")
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    assert row["auc_mean"] == "" and row["auc_std"] == ""
    assert row["rand_mean"] != ""


def test_sensitivity_grid_shape_and_value(blobs_csv, capsys):
    code, out, _ = run_cli(
        ["sensitivity", "--input", blobs_csv, "--grid-step", "0.5",
         "--fractions", "30", "--trials", "1", "--seed", "2"],
        capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "# schema_version=1"
    header = lines[1].split(",")
    assert header == ["alpha", "beta", "fraction", "auc_mean", "rand_mean", "nmi_mean"]
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    assert [(r["alpha"], r["beta"]) for r in rows] == [
        ("0", "0"), ("0", "0.5"), ("0", "1"),
        ("0.5", "0"), ("0.5", "0.5"), ("1", "0")]
    assert all(r["fraction"] == "30" for r in rows)

    # recompute one cell through the library route
    ds = load_csv(blobs_csv)
    labels = sample_labels(ds, 0.3, 2)
    prepared = prepare(ds, labels, 3)
    params = PipelineParams(score=ScoreParams(0.5, 0.0, min_pts=3), k_c=5)
    result = finish(ds, prepared, labels, params)
    want = auc(result.outlier_score, ds.truth == -1)
    got = next(r for r in rows if (r["alpha"], r["beta"]) == ("0.5", "0"))
    assert float(got["auc_mean"]) == float(f"{want:.12g}")


def test_baseline_reports(blobs_csv, capsys):
    code, out, _ = run_cli(
        ["baseline", "--input", blobs_csv, "--algo", "kmeans", "--k", "2",
         "--no-timing"],
        capsys)
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "baseline" and report["algo"] == "kmeans"
    assert report["params"] == {"k": 2, "seed": 0}
    assert 0.0 <= report["rand_index"] <= 1.0 and 0.0 <= report["nmi"] <= 1.0
    assert "wall_time_ms" not in report

    code, out, _ = run_cli(
        ["baseline", "--input", blobs_csv, "--algo", "dbscan",
         "--epsilon", "1.5", "--min-pts", "2"],
        capsys)
    assert code == 0
    report = json.loads(out)
    assert report["params"] == {"epsilon": 1.5, "min_pts": 2}
    assert report["auc"] is not None
    assert "wall_time_ms" in report

    code, out, _ = run_cli(
        ["baseline", "--input", blobs_csv, "--algo", "lof", "--k", "3",
         "--no-timing"],
        capsys)
    assert code == 0
    report = json.loads(out)
    assert report["params"] == {"k": 3}
    assert report["auc"] == 1.0  # the two planted outliers stand well apart

    code, out, _ = run_cli(
        ["baseline", "--input", blobs_csv, "--algo", "ssdbscan",
         "--label-fraction", "0.5", "--seed", "4", "--no-timing"],
        capsys)
    assert code == 0
    report = json.loads(out)
    assert report["params"]["label_fraction"] == 0.5
    assert 0.0 <= report["rand_index"] <= 1.0


def test_usage_errors_exit_two(blobs_csv, capsys):
    cases = [
        ["run"],
        ["run", "--input", blobs_csv, "--alpha", "1.2"],
        ["run", "--input", blobs_csv, "--alpha", "0.8", "--beta", "0.3"],
        ["run", "--input", blobs_csv, "--label-fraction", "0"],
        ["run", "--input", blobs_csv, "--grid-step", "0.3"],
        ["run", "--input", blobs_csv, "--knn-k", "0"],
        ["benchmark", "--input", blobs_csv, "--fractions", "0"],
        ["benchmark", "--input", blobs_csv, "--trials", "0"],
        ["benchmark", "--input", blobs_csv, "--workers", "0"],
        ["benchmark", "--input", blobs_csv, "--fractions", "50,50"],
        ["sensitivity", "--input", blobs_csv, "--fractions", "10,20,10"],
        ["sensitivity", "--input", blobs_csv, "--alpha", "0.5"],
        ["sensitivity", "--input", blobs_csv, "--knn-k", "0"],
        ["sensitivity", "--input", blobs_csv, "--k-reliable", "-1"],
        ["sensitivity", "--input", blobs_csv, "--grid-step", "0.3"],
        ["baseline", "--input", blobs_csv, "--algo", "dbscan"],
        ["baseline", "--input", blobs_csv, "--algo", "kmeans"],
        ["baseline", "--input", blobs_csv, "--algo", "lof", "--k", "0"],
    ]
    for argv in cases:
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2, argv
        capsys.readouterr()


def test_runtime_errors_exit_one(blobs_csv, tmp_path, capsys):
    code, _, err = run_cli(["run", "--input", str(tmp_path / "missing.csv")], capsys)
    assert code == 1
    assert err.startswith("error:")
    # min_pts beyond n - 1 is a data-dependent failure, not a usage error
    code, _, err = run_cli(
        ["run", "--input", blobs_csv, "--min-pts", "50"], capsys)
    assert code == 1
    assert err.startswith("error:")


def test_failing_sweep_trial_is_named(tmp_path, capsys):
    # 24 points: at 5% one point is labeled, and some draws hit an outlier
    rows = blob_rows()
    rows += [(x + 0.1, y + 0.3, lab) for x, y, lab in rows[:3] + rows[8:11]]
    path = write_csv(tmp_path / "small.csv", rows)
    ds = load_csv(path)
    first = next(t for t in range(40) if not sample_labels(ds, 0.05, t).normal)
    want = (f"error: fraction 5 trial {first} (seed {first}): "
            "at least one labeled normal point is required\n")
    for command in ("benchmark", "sensitivity"):
        code, out, err = run_cli(
            [command, "--input", path, "--fractions", "5", "--trials", "40",
             "--workers", "2"], capsys)
        assert (code, out, err) == (1, "", want), command


def test_module_entry_point(blobs_csv):
    proc = subprocess.run(
        [sys.executable, "-m", "ssdbcodi.cli", "run", "--input", blobs_csv,
         "--label-fraction", "0.5", "--no-timing"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["command"] == "run"
