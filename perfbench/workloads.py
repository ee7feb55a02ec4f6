"""The three benchmark workloads: fixed synthetic data, a pool of label draws,
one timed op per draw, and the answer each op is checked against.

Each workload's data set comes from a fixed data seed, so the reference
digests in reference.json (one per pool entry) hold for every workload
seed. The workload seed chooses which pool entries a run uses and in what
order (see `draw_list`): the same seed gives the same inputs.

Why these three (each loads a different module):

* run_blobs: about 95 labeled roots per op, one `finish` per `prepare`.
  The per-root expansions dominate, so a cheaper expansion shows here.
* tune_moons: `tune` (105 `finish` calls over 5 `prepare` calls) plus the
  final run. Classifier prediction dominates, so a cheaper `finish` shows
  here, as does any work moved from `prepare` into `finish`.
* sweep_cli: the `benchmark` CLI command on a 3000 x 16 CSV, two trials on
  two worker threads, 9 roots each, the index rebuilt per trial. Large n
  and few roots: index, local densities, memory and GIL contention show.

`baselines` is not exercised: no performance item targets it, and its
correctness stays with the repository's tests.
"""

import csv
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import ssdbcodi
import ssdbcodi.cli
from ssdbcodi.metrics import auc, nmi

OUTLIER = -1


@dataclass(frozen=True)
class Outcome:
    """One op checked: the SHA-256 of its output, and its answer quality."""

    digest: str
    auc: float
    nmi: float


def sha256(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _i8(a) -> bytes:
    return np.ascontiguousarray(a, dtype="<i8").tobytes()


def _f8(a) -> bytes:
    return np.ascontiguousarray(a, dtype="<f8").tobytes()


# --- data -------------------------------------------------------------------

def blobs(n: int, d: int, k: int, outlier_rate: float, seed: int):
    """k Gaussian blobs (unit spread, centres in [0, 10]^d) plus uniform outliers
    over the padded bounding box; rows shuffled."""
    rng = np.random.default_rng(seed)
    n_out = round(n * outlier_rate)
    n_in = n - n_out
    centres = rng.uniform(0.0, 10.0, size=(k, d))
    truth = np.arange(n_in) % k
    pts = centres[truth] + rng.normal(size=(n_in, d))
    lo, hi = pts.min(axis=0) - 1.0, pts.max(axis=0) + 1.0
    points = np.vstack([pts, rng.uniform(lo, hi, size=(n_out, d))])
    truth = np.concatenate([truth, np.full(n_out, OUTLIER)])
    order = rng.permutation(n)
    return points[order], truth[order]


def moons(n: int, noise: float, outlier_rate: float, seed: int):
    """Two interleaved half circles with Gaussian jitter, plus round(n *
    outlier_rate) uniform background outliers; rows shuffled."""
    rng = np.random.default_rng(seed)
    half = n // 2
    t1 = rng.uniform(0.0, math.pi, size=half)
    t2 = rng.uniform(0.0, math.pi, size=n - half)
    pts = np.vstack([np.column_stack([np.cos(t1), np.sin(t1)]),
                     np.column_stack([1.0 - np.cos(t2), 0.5 - np.sin(t2)])])
    pts += rng.normal(scale=noise, size=(n, 2))
    n_out = round(n * outlier_rate)
    lo, hi = pts.min(axis=0) - 0.5, pts.max(axis=0) + 0.5
    points = np.vstack([pts, rng.uniform(lo, hi, size=(n_out, 2))])
    truth = np.concatenate([np.repeat([0, 1], [half, n - half]), np.full(n_out, OUTLIER)])
    order = rng.permutation(points.shape[0])
    return points[order], truth[order]


def write_csv(path: Path, points, truth) -> None:
    """Features as shortest round-trip floats, label column last, 'o' = outlier."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow([f"f{j}" for j in range(points.shape[1])] + ["label"])
    for row, t in zip(points.tolist(), truth.tolist()):
        w.writerow([repr(v) for v in row] + ["o" if t == OUTLIER else f"c{t}"])
    path.write_text(buf.getvalue(), encoding="utf-8")


# --- workloads --------------------------------------------------------------

PARAMS = ssdbcodi.PipelineParams(ssdbcodi.ScoreParams(0.4, 0.3, 3))


def _run_blobs_inputs(workdir: Path) -> dict:
    points, truth = blobs(n=1000, d=8, k=4, outlier_rate=0.05, seed=20221)
    return {"ds": ssdbcodi.Dataset(points=points, truth=truth, name="blobs")}


def _run_blobs_op(inputs: dict, draw: int):
    ds = inputs["ds"]
    labels = ssdbcodi.sample_labels(ds, 0.1, seed=draw)
    return ssdbcodi.run(ds, labels, PARAMS)


def _run_blobs_outcome(inputs: dict, result) -> Outcome:
    truth = inputs["ds"].truth
    return Outcome(digest=sha256(_i8(result.clusters), _f8(result.outlier_score)),
                   auc=auc(result.outlier_score, truth == OUTLIER),
                   nmi=nmi(result.clusters, truth))


def _tune_moons_inputs(workdir: Path) -> dict:
    points, truth = moons(n=600, noise=0.15, outlier_rate=0.05, seed=20222)
    return {"ds": ssdbcodi.Dataset(points=points, truth=truth, name="moons")}


def _tune_moons_op(inputs: dict, draw: int):
    # The same steps as `ssdbcodi run --tune --grid-step 0.2 --folds 5`.
    ds = inputs["ds"]
    labels = ssdbcodi.sample_labels(ds, 0.05, seed=draw)
    report = ssdbcodi.tune(ds, labels, grid_step=0.2, folds=5, seed=draw, params=PARAMS)
    alpha, beta = report.best
    params = ssdbcodi.PipelineParams(ssdbcodi.ScoreParams(alpha, beta, 3))
    return report, ssdbcodi.run(ds, labels, params)


def _tune_moons_outcome(inputs: dict, produced) -> Outcome:
    report, result = produced
    truth = inputs["ds"].truth
    return Outcome(digest=sha256(_f8(report.grid), _i8(result.clusters),
                                 _f8(result.outlier_score)),
                   auc=auc(result.outlier_score, truth == OUTLIER),
                   nmi=nmi(result.clusters, truth))


def _sweep_cli_inputs(workdir: Path) -> dict:
    points, truth = blobs(n=3000, d=16, k=9, outlier_rate=0.03, seed=20223)
    path = workdir / "sweep_input.csv"
    write_csv(path, points, truth)
    return {"csv": path, "report": workdir / "sweep_report.csv"}


def _sweep_cli_op(inputs: dict, draw: int):
    # Trials use seeds s and s + 1; 2 * draw keeps pool entries disjoint.
    return ssdbcodi.cli.main([
        "benchmark", "--input", str(inputs["csv"]), "--fractions", "0.3",
        "--trials", "2", "--workers", "2", "--stratified-labels",
        "--seed", str(2 * draw), "--no-timing", "--output", str(inputs["report"])])


def _sweep_cli_outcome(inputs: dict, code) -> Outcome:
    if code != 0:
        raise RuntimeError(f"ssdbcodi benchmark exited with {code}")
    data = inputs["report"].read_bytes()
    row = next(csv.DictReader(line for line in data.decode().splitlines()
                              if not line.startswith("#")))
    return Outcome(digest=sha256(data), auc=float(row["auc_mean"]),
                   nmi=float(row["nmi_mean"]))


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: object  # workdir -> inputs; untimed, part of set-up
    op: object           # (inputs, draw) -> what the program returned; timed
    outcome: object      # (inputs, what op returned) -> Outcome; untimed
    points_per_op: int   # n x data sets labeled by one op
    pool: int            # label draws with a recorded reference digest
    per_run: int         # draws in one seed's list; a run covers it at least once
    nominal_op_s: float  # sizes the traced run; never measured at run time
    kernel_weights: dict  # hostspeed kernel -> share of op time in that kind of work


# tune_moons answer quality swings widely between label draws (AUC 0.58 to
# 0.98), so its runs cover the whole pool and the seed sets only the order;
# a subset would spread auc_mean by about 10% between seeds.
# Kernel weights follow each workload's traced profile at the commit that
# defined the benchmark: run_blobs is ~93% expansion; tune_moons ~70% kNN
# prediction and ~28% expansion; sweep_cli ~53% expansion, ~28% prediction
# and ~18% index and density passes.
WORKLOADS = {
    "run_blobs": Workload("run_blobs", _run_blobs_inputs, _run_blobs_op, _run_blobs_outcome,
                          points_per_op=1000, pool=32, per_run=12, nominal_op_s=2.3,
                          kernel_weights={"prim": 0.93, "sort": 0.07}),
    "tune_moons": Workload("tune_moons", _tune_moons_inputs, _tune_moons_op,
                           _tune_moons_outcome, points_per_op=630, pool=6, per_run=6,
                           nominal_op_s=4.8, kernel_weights={"prim": 0.3, "sort": 0.7}),
    "sweep_cli": Workload("sweep_cli", _sweep_cli_inputs, _sweep_cli_op, _sweep_cli_outcome,
                          points_per_op=2 * 3000, pool=16, per_run=7, nominal_op_s=5.0,
                          kernel_weights={"prim": 0.53, "sort": 0.28, "stream": 0.19}),
}


def draw_list(workload: Workload, seed: int) -> list:
    """The pool indices a run with this workload seed uses, in order."""
    order = np.random.default_rng(seed).permutation(workload.pool)
    return order[:workload.per_run].tolist()
