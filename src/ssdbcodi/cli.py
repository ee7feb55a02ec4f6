"""Command-line front end: single runs, benchmark sweeps, sensitivity grids,
and baseline comparisons.

Single runs emit JSON; sweeps emit CSV with a leading `# schema_version`
comment. Every float in a report is rounded to 12 significant digits so
reports are byte-stable and reparse to exactly the printed values.

Exit codes: 0 on success, 1 on runtime failures (bad data, infeasible
parameters), 2 on usage errors. A runtime failure prints one `error:` line,
or its traceback under `--debug`.
"""

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from .baselines import NOISE, dbscan, kmeans, lof, ssdbscan_with_fallback
from .dataset import OUTLIER, load_csv, minmax_scale, sample_labels
from .metricspace import build_index
from .metrics import auc, nmi, rand_index
from .pipeline import PipelineParams, blend_grid, finish, prepare, tune
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


def _render_csv(columns, rows, failed=()) -> str:
    """The CSV report, after a `# failed_trials` count and one comment line per
    failed trial when some failed."""
    lines = [f"# schema_version={SCHEMA_VERSION}"]
    if failed:
        lines += [f"# failed_trials={len(failed)}"] + [f"# {name}" for name in failed]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


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


def _head(command: str, ds, **first) -> dict:
    """A JSON report's opening keys, with `first` between the command and the dataset."""
    return {"schema_version": SCHEMA_VERSION, "command": command, **first,
            "dataset": ds.name, "n": ds.n, "d": ds.d}


def _timed(report: dict, args, started: float) -> dict:
    """`report` with the wall time since `started` added, unless --no-timing."""
    if not args.no_timing:
        report["wall_time_ms"] = (time.perf_counter() - started) * 1000.0
    return report


def _auc(ds, scores) -> float | None:
    """AUC of scores against the true outliers; None unless both classes occur."""
    truth_outlier = ds.truth == OUTLIER
    if truth_outlier.any() and not truth_outlier.all():
        return auc(scores, truth_outlier)
    return None


def _evaluate(ds, result) -> dict:
    """Metrics against the full ground truth."""
    return {"auc": _auc(ds, result.outlier_score),
            "rand_index": rand_index(result.clusters, ds.truth),
            "nmi": nmi(result.clusters, ds.truth)}


def _draw(ds, args, index, fraction: float, seed: int, cells=None):
    """Sample one draw's labels and prepare once, then yield ((alpha, beta), result)
    per cell in `cells`: by default the flags' blend, or tune's best under --tune."""
    labels = sample_labels(ds, fraction, seed, stratified=args.stratified_labels)
    if cells is None:
        cells = [tune(ds, labels, grid_step=args.grid_step, folds=args.folds, seed=seed,
                      params=_pipeline_params(args, args.alpha, args.beta)).best
                 if args.tune else (args.alpha, args.beta)]
    prepared = prepare(index, labels)
    for alpha, beta in cells:
        yield (alpha, beta), finish(prepared, _pipeline_params(args, alpha, beta))


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
    index = build_index(ds, args.min_pts)
    (alpha, beta), result = next(_draw(ds, args, index, args.label_fraction, args.seed))
    report = {
        **_head("run", ds),
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
    _timed(report, args, started)
    report["per_point"] = {
        "cluster": result.clusters,
        "outlier": result.outliers,
        "outlier_score": result.outlier_score,
    }
    return _render_json(report)


def _run_trials(ds, args, cells=None) -> tuple:
    """Each fraction's completed trials in trial order, as metrics per blend,
    and the named error of every draw the pipeline refuses with a ValueError
    (one with no labeled normal point, say).

    One index serves every trial, and each trial is one `_draw`, run in job
    order on the calling thread. Any other error ends the sweep, named after
    its draw, and so does the first refusal when no draw completes.
    """
    index = build_index(ds, args.min_pts)
    done, failed = {f: [] for f in args.fractions}, []
    for fraction_pct in args.fractions:
        for trial in range(args.trials):
            seed = args.seed + trial
            name = f"fraction {fraction_pct:g} trial {trial} (seed {seed})"
            try:
                done[fraction_pct].append([
                    _evaluate(ds, result)
                    for _, result in _draw(ds, args, index, fraction_pct / 100.0, seed, cells)])
            except ValueError as exc:
                failed.append(f"{name}: {exc}")
            except Exception as exc:
                raise RuntimeError(f"{name}: {exc}") from exc
    if not any(done.values()):
        raise ValueError(failed[0])
    return done, failed


def cmd_benchmark(args) -> str:
    ds = _load_dataset(args)
    done, failed = _run_trials(ds, args)
    rows = [{"fraction": f, **_summary([trial[0] for trial in done[f]])}
            for f in args.fractions]
    columns = ["fraction", "auc_mean", "auc_std", "rand_mean", "rand_std",
               "nmi_mean", "nmi_std"]
    return _render_csv(columns, rows, failed)


def cmd_sensitivity(args) -> str:
    ds = _load_dataset(args)
    cells = blend_grid(args.grid_step)
    done, failed = _run_trials(ds, args, cells)
    rows = [{"alpha": alpha, "beta": beta, "fraction": f,
             **_summary([trial[i] for trial in done[f]])}
            for f in sorted(args.fractions) for i, (alpha, beta) in enumerate(cells)]
    columns = ["alpha", "beta", "fraction", "auc_mean", "rand_mean", "nmi_mean"]
    return _render_csv(columns, rows, failed)


def cmd_baseline(args) -> str:
    started = time.perf_counter()
    ds = _load_dataset(args)
    assign = scores = None
    if args.algo == "kmeans":
        assign = kmeans(ds, args.k, args.seed)
        params = {"k": args.k, "seed": args.seed}
    elif args.algo == "dbscan":
        assign = dbscan(ds, args.epsilon, args.min_pts)
        scores = (assign == NOISE).astype(float)
        params = {"epsilon": args.epsilon, "min_pts": args.min_pts}
    elif args.algo == "lof":
        scores = lof(ds, args.k)
        params = {"k": args.k}
    else:  # ssdbscan
        labels = sample_labels(ds, args.label_fraction, args.seed,
                               stratified=args.stratified_labels)
        assign = ssdbscan_with_fallback(build_index(ds, args.min_pts), labels)
        params = {"label_fraction": args.label_fraction, "seed": args.seed,
                  "min_pts": args.min_pts}
    report = {**_head("baseline", ds, algo=args.algo), "params": params}
    if assign is not None:
        report["rand_index"] = rand_index(assign, ds.truth)
        report["nmi"] = nmi(assign, ds.truth)
    if scores is not None:
        report["auc"] = _auc(ds, scores)
    return _render_json(_timed(report, args, started))


def _bounded(kind, low, high=None):
    """An argparse type: one `kind` at least `low`, or in (low, high]. Named
    after `kind`, so a non-number keeps argparse's `invalid int value: 'x'`."""
    def parse(text: str):
        value = kind(text)
        if high is None and not value >= low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        if high is not None and not low < value <= high:
            raise argparse.ArgumentTypeError(f"must be in ({low}, {high}], got {text}")
        return value
    parse.__name__ = kind.__name__
    return parse


def _fraction_list(text: str):
    try:
        fractions = [_bounded(float, 0, 100)(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated number list: {text!r}")
    if not fractions:
        raise argparse.ArgumentTypeError("must list at least one percentage")
    if len(set(fractions)) != len(fractions):
        raise argparse.ArgumentTypeError(f"entries must be distinct, got {text}")
    return fractions


def _output_path(text: str):
    if text and (Path(text).is_dir() or not Path(text).parent.is_dir()):
        raise argparse.ArgumentTypeError(f"must name a file in an existing directory: {text}")
    return text


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
    p.add_argument("--output", type=_output_path, default=None,
                   help="write the report here instead of stdout")
    p.add_argument("--no-timing", action="store_true",
                   help="omit wall-time fields for byte-stable reports")
    p.add_argument("--debug", action="store_true",
                   help="print a failure's traceback instead of its one-line error")


def _add_label_flags(p):
    p.add_argument("--seed", type=_bounded(int, 0), default=0, help="base RNG seed")
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


def _add_sweep_flags(p):
    p.add_argument("--fractions", type=_fraction_list, default=[5.0, 10.0, 15.0, 20.0, 25.0],
                   help="label percentages, comma-separated")
    p.add_argument("--trials", type=_bounded(int, 1), default=50,
                   help="seeded label draws per fraction")
    p.add_argument("--workers", type=_bounded(int, 1), default=1,
                   help="accepted for older command lines and ignored: trials run one "
                        "after another")


def _add_grid_step(p):
    p.add_argument("--grid-step", type=float, default=0.1, help="alpha/beta lattice step")


def _add_tune_flags(p):
    p.add_argument("--tune", action="store_true",
                   help="cross-validate alpha/beta on the labeled set first")
    _add_grid_step(p)
    p.add_argument("--folds", type=_bounded(int, 2), default=5, help="cross-validation folds")


def _add_label_fraction(p, text="share of points whose labels are revealed"):
    p.add_argument("--label-fraction", type=_bounded(float, 0, 1), default=0.1, help=text)


def _add_baseline_flags(p):
    p.add_argument("--algo", required=True, choices=["dbscan", "kmeans", "lof", "ssdbscan"])
    p.add_argument("--epsilon", type=_bounded(float, 0), default=None, help="DBSCAN radius")
    p.add_argument("--k", type=_bounded(int, 1), default=None, help="k for k-means or LOF")
    p.add_argument("--min-pts", type=_bounded(int, 1), default=3,
                   help="neighbourhood size (dbscan, ssdbscan)")
    _add_label_fraction(p, "label share for the ssdbscan baseline")


# Each subcommand's help, handler and flag groups after the data and label flags.
COMMANDS = {
    "run": ("single pipeline run, JSON report", cmd_run,
            (_add_blend_flags, _add_model_flags, _add_tune_flags, _add_label_fraction)),
    "benchmark": ("seeded trials per label fraction, CSV report", cmd_benchmark,
                  (_add_blend_flags, _add_model_flags, _add_tune_flags, _add_sweep_flags)),
    "sensitivity": ("alpha/beta grid sweep, CSV report", cmd_sensitivity,
                    (_add_model_flags, _add_grid_step, _add_sweep_flags)),
    "baseline": ("reference algorithm run, JSON report", cmd_baseline, (_add_baseline_flags,)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssdbcodi",
        description="Semi-supervised density clustering with integrated outlier detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, handler, groups) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for add in (_add_data_flags, _add_label_flags, *groups):
            add(p)
        p.set_defaults(handler=handler)
    return parser


def _validate(parser: argparse.ArgumentParser, args) -> None:
    """The checks that read several flags; each flag's own range is its type's."""
    try:
        if hasattr(args, "knn_k"):
            _pipeline_params(args, getattr(args, "alpha", 0.0), getattr(args, "beta", 0.0))
        if hasattr(args, "grid_step"):
            blend_grid(args.grid_step)
    except ValueError as exc:
        parser.error(str(exc))
    if args.command == "baseline":
        needed = {"dbscan": "epsilon", "kmeans": "k", "lof": "k"}.get(args.algo)
        if needed and getattr(args, needed) is None:
            parser.error(f"--{needed} is required for --algo {args.algo}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    try:
        text = args.handler(args)
        if args.output:
            Path(args.output).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
    except Exception as exc:
        if args.debug:
            traceback.print_exc()
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
