"""CLI contract: report shapes, formatting, determinism, and exit codes."""

import json
import os
from pathlib import Path
import re
import subprocess
import sys
from types import SimpleNamespace
import threading
import weakref

import numpy as np
import pytest

from ssdbcodi import (OUTLIER, Dataset, PipelineParams, ScoreParams, auc, blend_grid,
                      build_index, finish, load_csv, nmi, prepare, rand_index, sample_labels)
from ssdbcodi import baselines, cli, metricspace, pipeline
from ssdbcodi.cli import main
import corpus

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
    # a one-trial benchmark row is the run of the same draw: plain, stratified
    # and tuned draws over seeded (fraction, seed) pairs
    tune_flags = ["--tune", "--grid-step", "0.5", "--folds", "2"]
    rng = np.random.default_rng(31)
    for flags in ([], ["--stratified-labels"], tune_flags,
                  tune_flags + ["--stratified-labels"]):
        for _ in range(3):
            pct, seed = int(rng.choice([25, 50, 75])), int(rng.integers(100))
            code, out, _ = run_cli(
                ["run", "--input", blobs_csv, "--label-fraction", str(pct / 100),
                 "--seed", str(seed), "--no-timing"] + flags, capsys)
            assert code == 0
            single = json.loads(out)
            code, out, _ = run_cli(
                ["benchmark", "--input", blobs_csv, "--fractions", str(pct),
                 "--trials", "1", "--seed", str(seed)] + flags, capsys)
            assert code == 0
            lines = out.strip().split("\n")
            assert lines[0] == "# schema_version=1"
            header = lines[1].split(",")
            assert header == ["fraction", "auc_mean", "auc_std", "rand_mean", "rand_std",
                              "nmi_mean", "nmi_std"]
            row = dict(zip(header, lines[2].split(",")))
            case = (flags, pct, seed)
            assert row["fraction"] == str(pct), case
            assert float(row["auc_mean"]) == single["auc"], case
            assert float(row["rand_mean"]) == single["rand_index"], case
            assert float(row["nmi_mean"]) == single["nmi"], case
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
    # one spanning-tree pass, however many trials and folds: every
    # build_index call gets the one loaded Dataset, whose index it keeps
    calls, trees = [], []
    real, real_tree = cli.build_index, metricspace._spanning_tree

    def counting(*args):
        calls.append(args)
        return real(*args)

    def counting_tree(*args):
        trees.append(args)
        return real_tree(*args)

    monkeypatch.setattr(cli, "build_index", counting)
    monkeypatch.setattr(pipeline, "build_index", counting)
    monkeypatch.setattr(metricspace, "_spanning_tree", counting_tree)
    for command in ("benchmark", "sensitivity"):
        calls.clear()
        trees.clear()
        code, _, _ = run_cli(
            [command, "--input", blobs_csv, "--fractions", "25,50", "--trials", "3",
             "--grid-step", "0.5"], capsys)
        assert code == 0
        assert len(trees) == 1 and len({id(ds) for ds, _ in calls}) == 1, command
    tune_flags = ["--tune", "--grid-step", "0.5", "--folds", "2", "--stratified-labels"]
    for argv in (["run", "--label-fraction", "0.5"],
                 ["benchmark", "--fractions", "20,30", "--trials", "3"],
                 ["benchmark", "--fractions", "50", "--trials", "2"]):
        calls.clear()
        trees.clear()
        code, _, _ = run_cli(argv + ["--input", blobs_csv] + tune_flags, capsys)
        assert code == 0
        assert len(trees) == 1 and len({id(ds) for ds, _ in calls}) == 1, argv[0]


def test_untuned_commands_build_the_blend_lattice_only_to_validate(blobs_csv, capsys,
                                                                    monkeypatch):
    # the lattice check lists the (at most 5151-cell) lattice once, before
    # the CSV is read; an untuned command lists it nowhere else
    calls, grid, load = [], cli.blend_grid, cli.load_csv
    monkeypatch.setattr(cli, "blend_grid", lambda step: calls.append(step) or grid(step))
    monkeypatch.setattr(cli, "load_csv", lambda *a, **k: calls.append("csv") or load(*a, **k))
    for argv in (["run", "--label-fraction", "0.5"],
                 ["benchmark", "--fractions", "50", "--trials", "1"]):
        calls.clear()
        code, _, _ = run_cli(argv + ["--input", blobs_csv, "--grid-step", "0.01"], capsys)
        assert code == 0 and calls == [0.01, "csv"], argv


def test_sweep_trials_run_in_order_on_the_calling_thread(blobs_csv, capsys, monkeypatch):
    # --workers is accepted and changes nothing: every draw is sampled on the
    # calling thread, fraction by fraction and trial by trial
    calls, real = [], cli.sample_labels

    def recording(ds, fraction, seed, **kwargs):
        calls.append((threading.get_ident(), fraction, seed))
        return real(ds, fraction, seed, **kwargs)

    monkeypatch.setattr(cli, "sample_labels", recording)
    code, _, _ = run_cli(["benchmark", "--input", blobs_csv, "--fractions", "20,40",
                          "--trials", "3", "--workers", "4"], capsys)
    assert code == 0
    main = threading.get_ident()
    assert calls == [(main, f, t) for f in (0.2, 0.4) for t in range(3)]


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

    # recompute every cell through the library route
    ds = load_csv(blobs_csv)
    prepared = prepare(build_index(ds, 3), sample_labels(ds, 0.3, 2))
    for row in rows:
        alpha, beta = float(row["alpha"]), float(row["beta"])
        result = finish(prepared, PipelineParams(score=ScoreParams(alpha, beta, min_pts=3),
                                                 k_c=5))
        want = (auc(result.outlier_score, ds.truth == -1),
                rand_index(result.clusters, ds.truth), nmi(result.clusters, ds.truth))
        got = (row["auc_mean"], row["rand_mean"], row["nmi_mean"])
        assert [float(g) for g in got] == [float(f"{w:.12g}") for w in want], row


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


def test_baseline_refuses_a_one_row_partition(tmp_path, capsys):
    # the Rand index of one point has no pair; the refusal comes from the
    # metrics' truth side, as for rand_index and the sweeps
    one_row = write_csv(tmp_path / "one.csv", [(0.0, 0.0, "a")])
    for algo in (["--algo", "dbscan", "--epsilon", "1"], ["--algo", "kmeans", "--k", "1"]):
        code, out, err = run_cli(["baseline", "--input", one_row, *algo], capsys)
        assert (code, out, err) == (1, "", "error: rand_index needs at least 2 points\n"), algo


def test_lof_and_run_refuse_one_row(tmp_path, capsys):
    # one point has no neighbour to score against, nor a pair to build an
    # index on: each says so before it reads k
    one_row = write_csv(tmp_path / "one.csv", [(0.0, 0.0, "a")])
    for argv, message in [(["baseline", "--algo", "lof", "--k", "1"], "for lof"),
                          (["run"], "to build an index")]:
        code, out, err = run_cli([*argv, "--input", one_row], capsys)
        assert (code, out, err) == (1, "", f"error: need at least 2 points {message}\n"), argv


def test_reports_place_wall_time_after_their_metrics(blobs_csv, capsys):
    head = ["schema_version", "command", "dataset", "n", "d"]
    code, out, _ = run_cli(["run", "--input", blobs_csv, "--label-fraction", "0.5",
                            "--seed", "1"], capsys)
    assert code == 0
    assert list(json.loads(out)) == head + [
        "label_fraction", "seed", "params", "auc", "rand_index", "nmi", "wall_time_ms",
        "per_point"]

    base = ["baseline", "--input", blobs_csv, "--algo"]
    for argv, tail in [
            (["kmeans", "--k", "2"], ["params", "rand_index", "nmi"]),
            (["dbscan", "--epsilon", "1.5", "--min-pts", "2"],
             ["params", "rand_index", "nmi", "auc"]),
            (["lof", "--k", "3"], ["params", "auc"]),
            (["ssdbscan", "--label-fraction", "0.5", "--seed", "4"],
             ["params", "rand_index", "nmi"])]:
        code, out, _ = run_cli(base + argv, capsys)
        assert code == 0, argv
        assert list(json.loads(out)) == head[:2] + ["algo"] + head[2:] + tail + [
            "wall_time_ms"], argv


def test_sweep_rows_follow_their_fraction_order(blobs_csv, capsys):
    # benchmark keeps the order the fractions were given; sensitivity sorts them
    def fractions(argv, column):
        code, out, _ = run_cli(argv + ["--input", blobs_csv, "--fractions", "20,5",
                                       "--trials", "1", "--no-timing"], capsys)
        assert code == 0, argv
        lines = out.strip().split("\n")
        at = lines[1].split(",").index(column)
        return [line.split(",")[at] for line in lines[2:]]

    assert fractions(["benchmark"], "fraction") == ["20", "5"]
    assert fractions(["sensitivity", "--grid-step", "0.5"], "fraction") == ["5"] * 6 + ["20"] * 6


DATA_FLAGS = {"input": "d.csv", "label_column": "label", "outlier_sentinel": "o",
              "scale": False, "output": None, "no_timing": False, "debug": False,
              "seed": 0, "stratified_labels": False}
MODEL_FLAGS = {"min_pts": 3, "k_reliable": None, "knn_k": 5}
SWEEP_FLAGS = {"fractions": [5.0, 10.0, 15.0, 20.0, 25.0], "trials": 50, "workers": 1}
TUNE_FLAGS = {"alpha": 0.4, "beta": 0.3, **MODEL_FLAGS, "tune": False, "grid_step": 0.1,
              "folds": 5}
HEAD_OPTIONS = ["-h, --help", "--input", "--label-column", "--outlier-sentinel", "--scale",
                "--output", "--no-timing", "--debug", "--seed", "--stratified-labels"]
TUNE_OPTIONS = ["--alpha", "--beta", "--min-pts", "--k-reliable", "--knn-k", "--tune",
                "--grid-step", "--folds"]
SWEEP_OPTIONS = ["--fractions", "--trials", "--workers"]
LABEL_FRACTION_HELP = {"run": "share of points whose labels are revealed",
                       "baseline": "label share for the ssdbscan baseline"}


@pytest.mark.parametrize("argv, flags, handler, options", [
    (["run"], {**TUNE_FLAGS, "label_fraction": 0.1}, "cmd_run",
     TUNE_OPTIONS + ["--label-fraction"]),
    (["benchmark"], {**TUNE_FLAGS, **SWEEP_FLAGS}, "cmd_benchmark",
     TUNE_OPTIONS + SWEEP_OPTIONS),
    (["sensitivity"], {**MODEL_FLAGS, "grid_step": 0.1, **SWEEP_FLAGS}, "cmd_sensitivity",
     ["--min-pts", "--k-reliable", "--knn-k", "--grid-step"] + SWEEP_OPTIONS),
    (["baseline", "--algo", "kmeans"],
     {"algo": "kmeans", "epsilon": None, "k": None, "min_pts": 3, "label_fraction": 0.1},
     "cmd_baseline", ["--algo", "--epsilon", "--k", "--min-pts", "--label-fraction"]),
])
def test_each_command_keeps_its_flags(argv, flags, handler, options, capsys):
    args = vars(cli.build_parser().parse_args(argv + ["--input", "d.csv"]))
    assert args == {"command": argv[0], **DATA_FLAGS, **flags,
                    "handler": getattr(cli, handler)}

    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: ssdbcodi {argv[0]} ")
    assert re.findall(r"^  (-[\w-]+(?:, -[\w-]+)*)", out, re.M) == HEAD_OPTIONS + options
    if argv[0] in LABEL_FRACTION_HELP:
        assert (f"--label-fraction LABEL_FRACTION {LABEL_FRACTION_HELP[argv[0]]}"
                in " ".join(out.split()))


def test_usage_errors_exit_two(blobs_csv, tmp_path, capsys):
    # each case names the flag whose own type refuses it on stderr, or None
    # where the check reads several flags, a library message or argparse's own
    missing_dir = str(tmp_path / "missing" / "report.out")
    cases = [
        (None, ["run"]),
        (None, ["run", "--input", blobs_csv, "--alpha", "1.2"]),
        (None, ["run", "--input", blobs_csv, "--alpha", "0.8", "--beta", "0.3"]),
        ("label-fraction", ["run", "--input", blobs_csv, "--label-fraction", "0"]),
        (None, ["run", "--input", blobs_csv, "--grid-step", "0.3"]),
        (None, ["run", "--input", blobs_csv, "--knn-k", "0"]),
        ("fractions", ["benchmark", "--input", blobs_csv, "--fractions", "0"]),
        ("trials", ["benchmark", "--input", blobs_csv, "--trials", "0"]),
        ("workers", ["benchmark", "--input", blobs_csv, "--workers", "0"]),
        ("fractions", ["benchmark", "--input", blobs_csv, "--fractions", "50,50"]),
        ("fractions", ["sensitivity", "--input", blobs_csv, "--fractions", "10,20,10"]),
        (None, ["sensitivity", "--input", blobs_csv, "--alpha", "0.5"]),
        (None, ["sensitivity", "--input", blobs_csv, "--knn-k", "0"]),
        (None, ["sensitivity", "--input", blobs_csv, "--k-reliable", "-1"]),
        (None, ["sensitivity", "--input", blobs_csv, "--grid-step", "0.3"]),
        (None, ["baseline", "--input", blobs_csv, "--algo", "dbscan"]),
        ("epsilon", ["baseline", "--input", blobs_csv, "--algo", "dbscan", "--epsilon", "nan"]),
        (None, ["baseline", "--input", blobs_csv, "--algo", "kmeans"]),
        ("k", ["baseline", "--input", blobs_csv, "--algo", "lof", "--k", "0"]),
        ("seed", ["run", "--input", blobs_csv, "--seed", "-1"]),
        ("seed", ["benchmark", "--input", blobs_csv, "--seed", "-1"]),
        ("seed", ["baseline", "--input", blobs_csv, "--algo", "kmeans", "--k", "2",
                  "--seed", "-1"]),
        ("output", ["run", "--input", blobs_csv, "--output", missing_dir]),
        ("output", ["benchmark", "--input", blobs_csv, "--output", missing_dir]),
        ("output", ["baseline", "--input", blobs_csv, "--algo", "kmeans", "--k", "2",
                    "--output", missing_dir]),
        ("output", ["sensitivity", "--input", blobs_csv, "--output", str(tmp_path)]),
        ("fractions", ["benchmark", "--input", blobs_csv, "--fractions", ","]),
        ("fractions", ["sensitivity", "--input", blobs_csv, "--fractions", "5,x"]),
        ("label-fraction", ["baseline", "--input", blobs_csv, "--algo", "ssdbscan",
                            "--label-fraction", "1.5"]),
        ("folds", ["run", "--input", blobs_csv, "--tune", "--folds", "1"]),
        ("trials", ["benchmark", "--input", blobs_csv, "--trials", "two"]),
        ("min-pts", ["baseline", "--input", blobs_csv, "--algo", "ssdbscan", "--min-pts", "0"]),
        # a flag the chosen algorithm ignores is still checked
        ("epsilon", ["baseline", "--input", blobs_csv, "--algo", "lof", "--k", "3",
                     "--epsilon", "-1"]),
    ]
    for flag, argv in cases:
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2, argv
        err = capsys.readouterr().err
        if flag is not None:
            assert f"argument --{flag}:" in err, argv
    for value, want in (("0", "must be at least 1, got 0"), ("two", "invalid int value: 'two'")):
        with pytest.raises(SystemExit):
            main(["benchmark", "--input", blobs_csv, "--trials", value])
        assert capsys.readouterr().err.endswith(f"error: argument --trials: {want}\n")


def test_blend_lattices_finer_than_a_hundredth_are_refused(blobs_csv, capsys, monkeypatch):
    # refused before any lattice is listed or the CSV is read
    calls, real = [], cli.blend_grid
    monkeypatch.setattr(cli, "blend_grid", lambda step: calls.append(real(step)))
    monkeypatch.setattr(cli, "load_csv", lambda *a, **k: calls.append(a))
    for argv in (["sensitivity"], ["run", "--tune"], ["benchmark", "--tune"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--input", blobs_csv, "--grid-step", "0.001"])
        assert excinfo.value.code == 2, argv
        assert "grid_step must be at least 0.01, got 0.001" in capsys.readouterr().err, argv
    assert calls == []


def test_a_blend_summing_just_above_one_is_refused(tmp_path, capsys):
    # r and l underflow to 0 at the far outliers, so this blend once gave
    # them a weight above 1 and the run died with exit 1 on TrainingSet
    blob = np.random.default_rng(0).normal(size=(80, 2))
    rows = [(x, y, "a") for x, y in blob] + [(1000.0, 1000.0, "o"), (-900.0, 1200.0, "o")]
    path = write_csv(tmp_path / "far.csv", rows)
    argv = ["run", "--input", path, "--label-fraction", "0.3", "--seed", "1", "--alpha", "0.5"]
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--beta", "0.5000000001"])
    assert excinfo.value.code == 2
    assert "error: alpha + beta must not exceed 1, got 1.0000000001" in capsys.readouterr().err
    assert run_cli(argv + ["--beta", "0.5"], capsys)[0] == 0


def test_runtime_errors_exit_one(blobs_csv, tmp_path, capsys):
    code, _, err = run_cli(["run", "--input", str(tmp_path / "missing.csv")], capsys)
    assert code == 1
    assert err.startswith("error:")
    # min_pts beyond n - 1 is a data-dependent failure, not a usage error
    code, _, err = run_cli(
        ["run", "--input", blobs_csv, "--min-pts", "50"], capsys)
    assert code == 1
    assert err.startswith("error:")


def test_debug_prints_the_traceback_instead_of_the_error_line(blobs_csv, tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    for argv in (["run", "--input", missing],
                 ["baseline", "--input", blobs_csv, "--algo", "lof", "--k", "50"]):
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == "" and err.startswith("error: ") and err.count("\n") == 1
        line = err[len("error: "):].rstrip("\n")
        code, out, err = run_cli(argv + ["--debug"], capsys)
        assert code == 1 and out == "", argv
        assert err.startswith("Traceback (most recent call last):\n"), argv
        assert err.rstrip("\n").endswith(line) and "error: " not in err, argv
    # a run that succeeds writes the same report with or without it
    argv = ["run", "--input", blobs_csv, "--label-fraction", "0.5", "--no-timing"]
    assert run_cli(argv + ["--debug"], capsys) == run_cli(argv, capsys)


def test_overflowing_points_are_refused(tmp_path, capsys, recwarn):
    big = [(1e200, 2e200), (2e200, 3e200), (3e200, 1e200)]
    rows = [(*big[i % 3], "o" if i == 9 else str(i % 2)) for i in range(10)]
    path = write_csv(tmp_path / "big.csv", rows)
    want = "error: every point's squared norm must be finite and at most 4.494e+307\n"
    for argv in (["run", "--input", path, "--no-timing"],
                 ["baseline", "--input", path, "--algo", "lof", "--k", "3"],
                 ["baseline", "--input", path, "--algo", "kmeans", "--k", "2"]):
        assert run_cli(argv, capsys) == (1, "", want), argv
    assert not recwarn.list


def test_scale_takes_a_finite_column_whose_span_overflows(tmp_path, capsys, recwarn):
    rows = [((x - 6.0) / 6.0 * 1e308, y, lab) for x, y, lab in blob_rows()]
    path = write_csv(tmp_path / "wide.csv", rows)
    code, out, err = run_cli(["run", "--input", path, "--scale", "--no-timing"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["n"] == len(rows)
    assert not recwarn.list


def test_a_workspace_above_physical_memory_is_one_error_line(blobs_csv, monkeypatch, capsys):
    # the build's 18 x 18 workspace, with the 18 x 17 neighbour list, the
    # list step's 18 x 17 candidates, cores and densities beside it, and
    # lof's workspace are refused before anything is allocated
    monkeypatch.setattr(metricspace, "_MEMORY_BYTES", 8 * 18 * 18 - 1)
    build = ("error: a 18 x 18 distance workspace needs 9000 bytes with the 6408 beside it, "
             "more than the 2591 bytes of physical memory\n")
    alone = ("error: a 18 x 18 distance workspace needs 2592 bytes, "
             "more than the 2591 bytes of physical memory\n")
    for argv, want in ((["run"], build), (["benchmark", "--fractions", "50", "--trials", "2"], build),
                       (["baseline", "--algo", "lof", "--k", "3"], alone)):
        assert run_cli(argv + ["--input", blobs_csv], capsys) == (1, "", want), argv


def test_no_subcommand_opens_a_workspace_inside_another(blobs_csv, monkeypatch, capsys):
    # a thread opening a workspace while one it opened is still alive would
    # hold both at once and double its peak; the wrapper holds each thread's
    # workspace as live until the array is freed, and fails on such nesting
    held, opened, nested = {}, [], []
    real = metricspace._workspace

    def unnested(shape, *beside):
        me = threading.get_ident()
        if me in held:
            nested.append((held[me], shape))
            raise AssertionError(f"a {shape} workspace inside a {held[me]} one")
        w = real(shape, *beside)
        held[me] = shape
        weakref.finalize(w, held.pop, me)
        opened.append(shape)
        return w

    monkeypatch.setattr(metricspace, "_workspace", unnested)
    monkeypatch.setattr(baselines, "_workspace", unnested)
    tune_flags = ["--tune", "--grid-step", "0.5", "--folds", "2"]
    for argv in (["run", "--label-fraction", "0.5"],
                 ["run", "--label-fraction", "0.5", "--stratified-labels"] + tune_flags,
                 ["benchmark", "--fractions", "40,50", "--trials", "3"],
                 ["sensitivity", "--grid-step", "0.5", "--fractions", "50", "--trials", "3"],
                 ["baseline", "--algo", "dbscan", "--epsilon", "1.5", "--min-pts", "2"],
                 ["baseline", "--algo", "kmeans", "--k", "2"],
                 ["baseline", "--algo", "lof", "--k", "3"],
                 ["baseline", "--algo", "ssdbscan", "--label-fraction", "0.5"]):
        opened.clear()
        code, _, err = run_cli(argv + ["--input", blobs_csv, "--no-timing"], capsys)
        assert code == 0 and not err and not nested, argv
        assert bool(opened) == ("kmeans" not in argv), argv


def test_failing_sweep_trial_is_named(tmp_path, capsys):
    # 24 points: at 5% one point is labeled, and some draws hit an outlier.
    # Those trials are recorded and the rest summarised; a sweep none of whose
    # trials completes, and a single run, still fail on the first
    rows = blob_rows()
    rows += [(x + 0.1, y + 0.3, lab) for x, y, lab in rows[:3] + rows[8:11]]
    path = write_csv(tmp_path / "small.csv", rows)
    ds = load_csv(path)
    failing = [t for t in range(40) if not sample_labels(ds, 0.05, t).normal]
    assert 0 < len(failing) < 40
    named = [f"# fraction 5 trial {t} (seed {t}): at least one labeled normal point is required"
             for t in failing]
    for command in ("benchmark", "sensitivity"):
        argv = [command, "--input", path, "--fractions", "5", "--no-timing"]
        code, out, err = run_cli(argv + ["--trials", "40", "--workers", "2"], capsys)
        lines = out.splitlines()
        assert (code, err) == (0, ""), command
        assert lines[1:2 + len(failing)] == [f"# failed_trials={len(failing)}"] + named, command
        if command == "benchmark":  # the completed trials' summary, through the library
            rands = []
            for t in range(40):
                if t not in failing:
                    prepared = prepare(build_index(ds, 3), sample_labels(ds, 0.05, t))
                    params = PipelineParams(score=ScoreParams(0.4, 0.3, min_pts=3), k_c=5)
                    rands.append(rand_index(finish(prepared, params).clusters, ds.truth))
            row = dict(zip(*(line.split(",") for line in lines[-2:])))
            assert float(row["rand_mean"]) == float(f"{np.mean(rands):.12g}")
        first = failing[0]
        want = (f"error: fraction 5 trial 0 (seed {first}): "
                "at least one labeled normal point is required\n")
        assert run_cli(argv + ["--trials", "1", "--seed", str(first)], capsys) == (1, "", want)
    code, out, err = run_cli(["run", "--input", path, "--label-fraction", "0.05", "--seed",
                              str(failing[0])], capsys)
    assert (code, out, err) == (1, "", "error: at least one labeled normal point is required\n")


def test_module_entry_point(blobs_csv):
    proc = subprocess.run(
        [sys.executable, "-m", "ssdbcodi.cli", "run", "--input", blobs_csv,
         "--label-fraction", "0.5", "--no-timing"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["command"] == "run"


def test_package_entry_point():
    # the directory this process imported ssdbcodi from: ./src, or site-packages
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "ssdbcodi", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: ssdbcodi ")


def public_metrics(truth, result) -> dict:
    """The sweep's metrics of result through the public functions."""
    is_outlier = truth == OUTLIER
    both = is_outlier.any() and not is_outlier.all()
    return {"auc": auc(result.outlier_score, is_outlier) if both else None,
            "rand_index": rand_index(result.clusters, truth),
            "nmi": nmi(result.clusters, truth)}


def assert_same_bits(got: dict, want: dict):
    assert list(got) == list(want)
    for key, value in want.items():
        if value is None:
            assert got[key] is None, key
        else:
            assert type(got[key]) is float, key
            assert np.float64(got[key]).tobytes() == np.float64(value).tobytes(), key


def test_sweep_metrics_match_the_public_metrics_bit_for_bit(tmp_path):
    # a sweep sets out the ground truth's side once per dataset and hands
    # each cell to the counts that auc, rand_index and nmi make: on the
    # corpus CSVs' finishes, and on tie-heavy fuzz of mixed, one-class,
    # all-outlier and outlier-free truths (the last two with no AUC)
    for name, path in corpus.write_csvs(tmp_path).items():
        ds = load_csv(path)
        truth = cli._truth(ds)
        prepared = prepare(build_index(ds, 3), sample_labels(ds, 0.1, seed=1))
        for alpha, beta in blend_grid(0.25):
            result = finish(prepared, PipelineParams(score=ScoreParams(alpha, beta, 3)))
            assert_same_bits(cli._evaluate(truth, result), public_metrics(ds.truth, result))
    rng = np.random.default_rng(131)
    no_auc = 0
    for case in range(400):
        n = int(rng.integers(2, 40))
        # clusters and outliers, one class, every point an outlier, or no outlier
        outlier_rate = (0.3, 0.0, 1.0, 0.0)[case % 4]
        clusters = rng.integers(0, 1 if case % 4 == 1 else 4, size=n)
        truth = np.where(rng.random(n) < outlier_rate, OUTLIER, clusters)
        clustered = truth != OUTLIER
        truth[clustered] = np.unique(truth[clustered], return_inverse=True)[1]  # ids 0..K-1
        ds = Dataset(points=np.zeros((n, 1)), truth=truth)
        result = SimpleNamespace(
            clusters=rng.integers(-1, int(rng.integers(1, 5)), size=n),
            outlier_score=rng.choice([0.0, 0.25, 0.5, 1.0], size=n) if case % 2
            else rng.random(n))
        want = public_metrics(ds.truth, result)
        assert_same_bits(cli._evaluate(cli._truth(ds), result), want)
        no_auc += want["auc"] is None
    assert no_auc >= 200
    one = Dataset(points=np.zeros((1, 1)), truth=[0])
    single = SimpleNamespace(clusters=np.zeros(1, dtype=int), outlier_score=np.zeros(1))
    with pytest.raises(ValueError, match="^rand_index needs at least 2 points$"):
        rand_index(single.clusters, one.truth)
    with pytest.raises(ValueError, match="^rand_index needs at least 2 points$"):
        cli._evaluate(cli._truth(one), single)
