"""Command-line front end: single runs, benchmark sweeps, sensitivity grids,
and baseline comparisons.

Single runs emit JSON; sweeps emit CSV with a leading `# schema_version`
comment. Every float in a report is rounded to 12 significant digits so
reports are byte-stable and reparse to exactly the printed values.

Exit codes: 0 on success, 1 on runtime failures (bad data, infeasible
parameters), 2 on usage errors.
"""

import argparse
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .baselines import NOISE, dbscan, kmeans, lof, ssdbscan_with_fallback
from .dataset import OUTLIER, load_csv, minmax_scale, sample_labels
from .metricspace import build_index, pairwise_distances
from .metrics import auc, nmi, rand_index
from .pipeline import PipelineParams, blend_grid, finish, prepare, run, tune
from .scoring import ScoreParams

SCHEMA_VERSION = 1


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _jsonify(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(f"{float(value):.12g}")
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_jsonify(v) for v in value]
    return value


def _render_json(report: dict) -> str:
    return json.dumps(_jsonify(report), indent=2) + "\n"


def _render_csv(columns, rows) -> str:
    lines = [f"# schema_version={SCHEMA_VERSION}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _write_output(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_dataset(args):
    ds = load_csv(args.input, label_column=args.label_column,
                  outlier_sentinel=args.outlier_sentinel)
    if args.scale:
        ds = minmax_scale(ds)
    return ds


def _pipeline_params(args, alpha: float, beta: float) -> PipelineParams:
    return PipelineParams(
        score=ScoreParams(alpha=alpha, beta=beta, min_pts=args.min_pts),
        k=args.k_reliable,
        k_c=args.knn_k,
    )


def _evaluate(ds, result) -> dict:
    """Metrics against the full ground truth; AUC needs both classes present."""
    truth_outlier = ds.truth == OUTLIER
    out = {}
    if truth_outlier.any() and not truth_outlier.all():
        out["auc"] = auc(result.outlier_score, truth_outlier)
    else:
        out["auc"] = None
    out["rand_index"] = rand_index(result.clusters, ds.truth)
    out["nmi"] = nmi(result.clusters, ds.truth)
    return out


def _blend(ds, labels, args, seed: int) -> tuple:
    """The flag (alpha, beta), or the cross-validated best cell under --tune."""
    if not args.tune:
        return args.alpha, args.beta
    return tune(ds, labels, grid_step=args.grid_step, folds=args.folds, seed=seed,
                params=_pipeline_params(args, args.alpha, args.beta)).best


def _summary(trials) -> dict:
    """Mean and population std per metric over the trials that report it."""
    out = {}
    for key, name in (("auc", "auc"), ("rand_index", "rand"), ("nmi", "nmi")):
        vals = np.asarray([t[key] for t in trials if t[key] is not None], dtype=float)
        out[f"{name}_mean"] = float(vals.mean()) if vals.size else None
        out[f"{name}_std"] = float(vals.std()) if vals.size else None
    return out


def cmd_run(args) -> str:
    started = time.perf_counter()
    ds = _load_dataset(args)
    labels = sample_labels(ds, args.label_fraction, args.seed,
                           stratified=args.stratified_labels)
    alpha, beta = _blend(ds, labels, args, args.seed)
    result = run(ds, labels, _pipeline_params(args, alpha, beta))
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "run",
        "dataset": ds.name,
        "n": ds.n,
        "d": ds.d,
        "label_fraction": args.label_fraction,
        "seed": args.seed,
        "params": {
            "alpha": alpha,
            "beta": beta,
            "min_pts": args.min_pts,
            "k_reliable": int((result.training.classes == OUTLIER).sum()),
            "knn_k": result.k_c,
        },
    }
    if args.tune:
        report["tuned"] = {"alpha": alpha, "beta": beta}
    report.update(_evaluate(ds, result))
    if not args.no_timing:
        report["wall_time_ms"] = (time.perf_counter() - started) * 1000.0
    report["per_point"] = {
        "cluster": result.clusters,
        "outlier": result.outliers,
        "outlier_score": result.outlier_score,
    }
    return _render_json(report)


def _run_trials(ds, args, cells=None) -> dict:
    """Metrics per blend for every (fraction_pct, trial) draw of a sweep.

    One index serves every trial. Each trial draws its labels and prepares
    once, then finishes either every cell in `cells` or, when cells is
    None, its own `_blend`. A failing trial's error names its draw.
    """
    index = build_index(ds, args.min_pts)

    def attempt(job):
        fraction_pct, trial = job
        seed = args.seed + trial
        try:
            labels = sample_labels(ds, fraction_pct / 100.0, seed,
                                   stratified=args.stratified_labels)
            blends = cells if cells is not None else [_blend(ds, labels, args, seed)]
            prepared = prepare(ds, labels, args.min_pts, index=index)
            return [_evaluate(ds, finish(ds, prepared, labels, _pipeline_params(args, a, b)))
                    for a, b in blends]
        except Exception as exc:
            raise RuntimeError(f"fraction {fraction_pct:g} trial {trial} "
                               f"(seed {seed}): {exc}") from exc

    jobs = [(f, t) for f in args.fractions for t in range(args.trials)]
    with ThreadPoolExecutor(max_workers=args.workers) as pool:
        return dict(zip(jobs, pool.map(attempt, jobs)))


def cmd_benchmark(args) -> str:
    ds = _load_dataset(args)
    by_job = _run_trials(ds, args)
    rows = [{"fraction": f, **_summary([by_job[(f, t)][0] for t in range(args.trials)])}
            for f in args.fractions]
    columns = ["fraction", "auc_mean", "auc_std", "rand_mean", "rand_std",
               "nmi_mean", "nmi_std"]
    return _render_csv(columns, rows)


def cmd_sensitivity(args) -> str:
    ds = _load_dataset(args)
    cells = blend_grid(args.grid_step)
    by_job = _run_trials(ds, args, cells)
    rows = [{"alpha": alpha, "beta": beta, "fraction": f,
             **_summary([by_job[(f, t)][i] for t in range(args.trials)])}
            for f in sorted(args.fractions) for i, (alpha, beta) in enumerate(cells)]
    columns = ["alpha", "beta", "fraction", "auc_mean", "rand_mean", "nmi_mean"]
    return _render_csv(columns, rows)


def cmd_baseline(args) -> str:
    started = time.perf_counter()
    ds = _load_dataset(args)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "baseline",
        "algo": args.algo,
        "dataset": ds.name,
        "n": ds.n,
        "d": ds.d,
    }
    truth_outlier = ds.truth == OUTLIER
    both_classes = bool(truth_outlier.any() and not truth_outlier.all())

    if args.algo == "kmeans":
        result = kmeans(ds, args.k, args.seed)
        report["params"] = {"k": args.k, "seed": args.seed}
        report["rand_index"] = rand_index(result.assignment, ds.truth)
        report["nmi"] = nmi(result.assignment, ds.truth)
    elif args.algo == "dbscan":
        result = dbscan(pairwise_distances(ds.points), args.epsilon, args.min_pts)
        report["params"] = {"epsilon": args.epsilon, "min_pts": args.min_pts}
        report["rand_index"] = rand_index(result.assignment, ds.truth)
        report["nmi"] = nmi(result.assignment, ds.truth)
        noise_score = (result.assignment == NOISE).astype(float)
        report["auc"] = auc(noise_score, truth_outlier) if both_classes else None
    elif args.algo == "lof":
        idx = build_index(ds, args.k)
        result = lof(idx, args.k)
        report["params"] = {"k": args.k}
        report["auc"] = auc(result.scores, truth_outlier) if both_classes else None
    else:  # ssdbscan
        labels = sample_labels(ds, args.label_fraction, args.seed,
                               stratified=args.stratified_labels)
        idx = build_index(ds, args.min_pts)
        result = ssdbscan_with_fallback(idx, labels)
        report["params"] = {
            "label_fraction": args.label_fraction,
            "seed": args.seed,
            "min_pts": args.min_pts,
        }
        report["rand_index"] = rand_index(result.assignment, ds.truth)
        report["nmi"] = nmi(result.assignment, ds.truth)

    if not args.no_timing:
        report["wall_time_ms"] = (time.perf_counter() - started) * 1000.0
    return _render_json(report)


def _fraction_list(text: str):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated number list: {text!r}")


def _auto_or_int(text: str):
    if text.lower() == "auto":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'auto', got {text!r}")


def _add_data_flags(p):
    p.add_argument("--input", required=True, help="CSV dataset path (UTF-8, header row)")
    p.add_argument("--label-column", default="label", help="name of the label column")
    p.add_argument("--outlier-sentinel", default="o",
                   help="label value marking ground-truth outliers")
    p.add_argument("--scale", action="store_true", help="min-max scale features to [0, 1]")
    p.add_argument("--output", default=None, help="write the report here instead of stdout")
    p.add_argument("--no-timing", action="store_true",
                   help="omit wall-time fields for byte-stable reports")


def _add_label_flags(p):
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p.add_argument("--stratified-labels", action="store_true",
                   help="guarantee every true cluster at least one label")


def _add_blend_flags(p):
    p.add_argument("--alpha", type=float, default=0.4,
                   help="weight of the reachability component")
    p.add_argument("--beta", type=float, default=0.3,
                   help="weight of the local-density component")


def _add_model_flags(p):
    p.add_argument("--min-pts", type=int, default=3, help="neighbourhood size")
    p.add_argument("--k-reliable", type=_auto_or_int, default=None, metavar="K|auto",
                   help="reliable-outlier count (default: auto from labeled contamination)")
    p.add_argument("--knn-k", type=int, default=5, help="classifier neighbour count")


def _add_tune_flags(p):
    p.add_argument("--tune", action="store_true",
                   help="cross-validate alpha/beta on the labeled set first")
    p.add_argument("--grid-step", type=float, default=0.1, help="alpha/beta lattice step")
    p.add_argument("--folds", type=int, default=5, help="cross-validation folds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssdbcodi",
        description="Semi-supervised density clustering with integrated outlier detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single pipeline run, JSON report")
    _add_data_flags(p_run)
    _add_label_flags(p_run)
    _add_blend_flags(p_run)
    _add_model_flags(p_run)
    _add_tune_flags(p_run)
    p_run.add_argument("--label-fraction", type=float, default=0.1,
                       help="share of points whose labels are revealed")
    p_run.set_defaults(handler=cmd_run)

    p_bench = sub.add_parser("benchmark", help="seeded trials per label fraction, CSV report")
    _add_data_flags(p_bench)
    _add_label_flags(p_bench)
    _add_blend_flags(p_bench)
    _add_model_flags(p_bench)
    _add_tune_flags(p_bench)
    p_bench.add_argument("--fractions", type=_fraction_list, default=[5.0, 10.0, 15.0, 20.0, 25.0],
                         help="label percentages, comma-separated")
    p_bench.add_argument("--trials", type=int, default=50, help="seeded trials per fraction")
    p_bench.add_argument("--workers", type=int, default=1, help="worker threads")
    p_bench.set_defaults(handler=cmd_benchmark)

    p_sens = sub.add_parser("sensitivity", help="alpha/beta grid sweep, CSV report")
    _add_data_flags(p_sens)
    _add_label_flags(p_sens)
    _add_model_flags(p_sens)
    p_sens.add_argument("--grid-step", type=float, default=0.1, help="alpha/beta lattice step")
    p_sens.add_argument("--fractions", type=_fraction_list, default=[5.0, 10.0, 15.0, 20.0, 25.0],
                        help="label percentages, comma-separated")
    p_sens.add_argument("--trials", type=int, default=50, help="seeded trials per cell")
    p_sens.add_argument("--workers", type=int, default=1, help="worker threads")
    p_sens.set_defaults(handler=cmd_sensitivity)

    p_base = sub.add_parser("baseline", help="reference algorithm run, JSON report")
    _add_data_flags(p_base)
    _add_label_flags(p_base)
    p_base.add_argument("--algo", required=True,
                        choices=["dbscan", "kmeans", "lof", "ssdbscan"])
    p_base.add_argument("--epsilon", type=float, default=None, help="DBSCAN radius")
    p_base.add_argument("--k", type=int, default=None, help="k for k-means or LOF")
    p_base.add_argument("--min-pts", type=int, default=3,
                        help="neighbourhood size (dbscan, ssdbscan)")
    p_base.add_argument("--label-fraction", type=float, default=0.1,
                        help="label share for the ssdbscan baseline")
    p_base.set_defaults(handler=cmd_baseline)

    return parser


def _validate(parser: argparse.ArgumentParser, args) -> None:
    try:
        if hasattr(args, "knn_k"):
            _pipeline_params(args, getattr(args, "alpha", 0.0), getattr(args, "beta", 0.0))
        if hasattr(args, "grid_step"):
            blend_grid(args.grid_step)
    except ValueError as exc:
        parser.error(str(exc))
    if getattr(args, "label_fraction", None) is not None:
        if not 0.0 < args.label_fraction <= 1.0:
            parser.error("--label-fraction must be in (0, 1]")
    if getattr(args, "fractions", None) is not None:
        if not args.fractions:
            parser.error("--fractions must list at least one percentage")
        if any(not 0.0 < f <= 100.0 for f in args.fractions):
            parser.error("--fractions entries must be percentages in (0, 100]")
        if len(set(args.fractions)) != len(args.fractions):
            parser.error("--fractions entries must be distinct")
    if getattr(args, "trials", None) is not None and args.trials < 1:
        parser.error("--trials must be >= 1")
    if getattr(args, "workers", None) is not None and args.workers < 1:
        parser.error("--workers must be >= 1")
    if getattr(args, "folds", None) is not None and args.folds < 2:
        parser.error("--folds must be >= 2")
    if args.command == "baseline":
        if args.algo == "dbscan":
            if args.epsilon is None:
                parser.error("--epsilon is required for --algo dbscan")
            if args.epsilon < 0:
                parser.error("--epsilon must be >= 0")
        if args.algo in ("dbscan", "ssdbscan") and args.min_pts < 1:
            parser.error("--min-pts must be >= 1")
        if args.algo in ("kmeans", "lof"):
            if args.k is None:
                parser.error(f"--k is required for --algo {args.algo}")
            if args.k < 1:
                parser.error("--k must be >= 1")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    try:
        text = args.handler(args)
        _write_output(text, args.output)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
