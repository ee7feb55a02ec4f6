"""The golden report corpus: five seeded CSVs and the CLI reports made on them.

    python tests/corpus.py

Run from the repository root. It rewrites tests/golden_reports.json with the
SHA-256 of each CSV and of each `--no-timing` report, which
`test_corpus.py` checks byte for byte. Re-record only in a change that is
meant to change the program's answers, and list each old → new digest in
that change's CHANGES.md entry.
"""

import hashlib
import json
from pathlib import Path
import sys
import tempfile

import numpy as np

HERE = Path(__file__).resolve().parent
if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))

from ssdbcodi.cli import main  # noqa: E402

GOLDEN = HERE / "golden_reports.json"


def _save(path, x, lab, header):
    np.savetxt(path, np.column_stack([x.astype(str), lab]), fmt='%s', delimiter=',',
               header=header, comments='')


def _large(path):
    # 800 seeded points: the 800 x 800 distance matrix is a workspace of
    # SPREAD_BYTES or more, made in row blocks, the last ragged, each
    # block's neighbour list and core distances read as it is made, and
    # its row passes spread over the cores. The classifier reads most
    # rows' neighbours off that list; a row it cannot rank is searched
    # in an 800 x m workspace of its own
    rng = np.random.default_rng(0)
    c = rng.integers(4, size=800)
    x = rng.normal(size=(800, 3)) + 6.0 * c[:, None]
    out = rng.random(800) < 0.03
    x[out] = rng.uniform(-6, 24, size=(out.sum(), 3))
    lab = np.where(out, 'o', c.astype(str))
    _save(path, x, lab, 'x,y,z,label')


def _grid_points():
    rng = np.random.default_rng(1)
    c = rng.integers(3, size=820)
    x = rng.integers(0, 5, size=(820, 3)) + 4 * c[:, None]
    out = rng.random(820) < 0.03
    x[out] = rng.integers(-4, 17, size=(out.sum(), 3))
    lab = np.where(out, 'o', c.astype(str))
    return x, lab


def _grid(path):
    # 820 points on a 0-4 integer grid: many tied distances and duplicates
    _save(path, *_grid_points(), 'x,y,z,label')


def _tenths(path):
    # the same points at a 0.1 step: ties exact in decimal but not in
    # binary, so their GEMM bits may depend on blocking and thread count
    x, lab = _grid_points()
    _save(path, x / 10, lab, 'x,y,z,label')


def _wide(path):
    # 1500 seeded points in 30 dimensions: the shape at which score bits
    # have moved across BLAS thread counts
    rng = np.random.default_rng(2)
    c = rng.integers(5, size=1500)
    x = rng.normal(size=(1500, 30)) + 3.0 * rng.normal(size=(5, 30))[c]
    out = rng.random(1500) < 0.03
    x[out] = rng.uniform(-12, 12, size=(out.sum(), 30))
    lab = np.where(out, 'o', c.astype(str))
    _save(path, x, lab, ','.join([f'f{i}' for i in range(30)] + ['label']))


def _moons(path):
    # two moons of 600 points at noise 0.15 plus 30 uniform outliers: at 5%
    # labels, tuning's training sets leave some rows' lists without
    # enough training rows, and the second level ranks those rows
    rng = np.random.default_rng(5)
    t = rng.uniform(0, np.pi, size=600)
    c = np.repeat([0, 1], 300)
    x = np.column_stack([np.where(c == 0, np.cos(t), 1 - np.cos(t)),
                         np.where(c == 0, np.sin(t), 0.5 - np.sin(t))])
    x = x + rng.normal(scale=0.15, size=(600, 2))
    x = np.vstack([x, rng.uniform(x.min(axis=0) - 0.5, x.max(axis=0) + 0.5, size=(30, 2))])
    lab = np.concatenate([c.astype(str), np.full(30, 'o')])
    _save(path, x, lab, 'x,y,label')


# Each CSV gets its own DBSCAN radius: at 1.0, tenths is one cluster and
# wide is all noise, so their baseline reports would check nothing
RADII = {"large": 1.0, "grid": 1.0, "tenths": 0.1, "wide": 6.0, "moons": 0.1}
GENERATORS = {"large": _large, "grid": _grid, "tenths": _tenths, "wide": _wide,
              "moons": _moons}


def write_csvs(folder: Path) -> dict:
    """Name -> path of each CSV, written into `folder`. A report names its
    dataset by the file's stem, so the names are part of the corpus."""
    paths = {}
    for name, make in GENERATORS.items():
        paths[name] = folder / f"{name}.csv"
        make(paths[name])
    return paths


def commands(csvs: dict) -> dict:
    """Corpus key ("<csv>/<report>") -> CLI argv, less `--output`."""
    argvs = {}
    data = {name: ["--input", str(path), "--no-timing"] for name, path in csvs.items()}
    for name, radius in RADII.items():
        argvs[f"{name}/run.json"] = ["run", *data[name], "--label-fraction", "0.1"]
        argvs[f"{name}/tune.json"] = ["run", *data[name], "--label-fraction", "0.1", "--tune",
                                      "--grid-step", "0.5", "--folds", "3"]
        argvs[f"{name}/bench.csv"] = ["benchmark", *data[name], "--fractions", "10",
                                      "--trials", "4"]
        argvs[f"{name}/sens.csv"] = ["sensitivity", *data[name], "--grid-step", "0.5",
                                     "--fractions", "10", "--trials", "3"]
        for algo in ("lof", "dbscan", "ssdbscan", "kmeans"):
            argvs[f"{name}/{algo}.json"] = ["baseline", *data[name], "--algo", algo, "--k", "10",
                                            "--epsilon", str(radius), "--min-pts", "4"]
        # on the tied grids, min_pts 1 takes every density off the
        # neighbour list and min_pts 5 every one off a copied row
        if name in ("grid", "tenths"):
            for m in (1, 5):
                argvs[f"{name}/run-min-pts-{m}.json"] = ["run", *data[name],
                                                         "--label-fraction", "0.1",
                                                         "--min-pts", str(m)]
    # at 0.3% labels (seed 3, and the sweep's trial 3) a whole cluster of
    # wide keeps no root, so the training set leaves it out, and ~300
    # rows find no training row on their neighbour list: the second level
    # ranks them on a product of those rows alone. Tuning on moons at
    # seeds 0 and 2 sends rows of some folds' lookups there too
    argvs["wide/sparse-run.json"] = ["run", *data["wide"], "--label-fraction", "0.003",
                                     "--seed", "3"]
    argvs["wide/sparse-bench.csv"] = ["benchmark", *data["wide"], "--fractions", "0.3",
                                      "--trials", "4"]
    for seed in (0, 2):
        argvs[f"moons/tune-{seed}.json"] = ["run", *data["moons"], "--label-fraction", "0.05",
                                            "--seed", str(seed), "--tune", "--grid-step", "0.2",
                                            "--folds", "5"]
    return argvs


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_reports(csvs: dict, folder: Path) -> dict:
    """Corpus key -> SHA-256 of the report `cli.main` writes for it."""
    digests = {}
    for key, argv in commands(csvs).items():
        out = folder / key
        out.parent.mkdir(parents=True, exist_ok=True)
        if main([*argv, "--output", str(out)]) != 0:
            raise RuntimeError(f"{key}: ssdbcodi {' '.join(argv)} failed")
        digests[key] = sha256(out)
    return digests


def record() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        csvs = write_csvs(Path(tmp))
        return {"inputs": {name: sha256(path) for name, path in csvs.items()},
                "reports": write_reports(csvs, Path(tmp) / "reports")}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
