"""Per-layer metrics and the per-stage table, computed from a traced run's spans.

The layers are ssdbcodi's modules. Each pinned metric names the end-to-end
metric it should move:

* metricspace (index build; 8 n^2 bytes per dense matrix): op_s.p50 and
  peak_rss_mb on sweep_cli, which builds twice per op.
* expansion (one Prim expansion per root): op_s.p50 and points_per_s on
  run_blobs most, sweep_cli partly, tune_moons least.
* scoring (local densities copy an n x n matrix): op_s.p50 and peak_rss_mb
  on sweep_cli.
* model (reliable sets, kNN over n x training rows): op_s.p50 on tune_moons.
* pipeline (finish calls per prepare): tune_moons.
* metrics: once per fold objective (tune_moons) and per trial (sweep_cli).
* dataset: load_csv once per op on sweep_cli; sample_labels everywhere.
* cli (process CPU / wall inside main; 2.0 is ideal with 2 workers):
  points_per_s on sweep_cli when GIL-bound Python loops get vectorised.

Every other public function that runs appears in the per-function table and
the written trace with the same generic figures (calls and self time).
"""

import statistics

from tracer import OP, by_function


def _predict_cells(args, kwargs, result):
    classifier = args[0] if args else kwargs["classifier"]
    return {"dist_cells": result[0].size * classifier.features.shape[0]}


# Work counts computed from a call's arguments and result.
PROBES = {
    "metricspace.build_index": lambda a, kw, r: {"dist_bytes": 8 * r.n * r.n},
    "model.train": lambda a, kw, r: {"train_rows": r.features.shape[0]},
    "model.predict": _predict_cells,
}

CALLS = ("metricspace.build_index", "expansion.prim_expand", "scoring.t_score",
         "pipeline.prepare", "pipeline.finish")
SELF = ("metricspace.build_index", "metricspace.pairwise_distances",
        "metricspace.rdist_matrix", "expansion.expand_all", "expansion.prim_expand",
        "expansion.back_trace", "expansion.combine_backtraces",
        "expansion.emax_over_roots", "scoring.local_densities", "scoring.sim_scores",
        "scoring.t_score", "model.predict", "model.select_reliable", "model.train",
        "pipeline.prepare", "pipeline.finish", "pipeline.tune", "metrics.auc",
        "metrics.rand_index", "metrics.nmi", "dataset.load_csv",
        "dataset.sample_labels", "cli.main")
# Counts that depend only on the inputs, so two traced runs of one seed agree.
COMPUTED = ("expansion.prim_expand.calls", "metricspace.build_index.calls",
            "pipeline.finish_per_prepare", "model.train_rows",
            "model.predict.dist_cells", "metricspace.dist_bytes")

UNITS = {"calls": "calls/op", "self_s": "s/op"}
DERIVED_UNITS = {
    "metricspace.dist_bytes": "B/op",
    "model.train_rows": "rows",
    "model.predict.dist_cells": "cells/op",
    "pipeline.finish_per_prepare": "ratio",
    "cli.cpu_per_wall": "ratio",
    "trace.op_s.p50": "s",
    "trace.overhead_ratio": "ratio",
}


def metric_units() -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {f"{name}.calls": UNITS["calls"] for name in CALLS}
    units.update({f"{name}.self_s": UNITS["self_s"] for name in SELF})
    units.update(DERIVED_UNITS)
    return units


def layer_metrics(spans, traced_s, untraced_s) -> dict:
    """Pinned per-layer values, per traced op, plus the tracing overhead."""
    table = by_function(spans)
    n_ops = len(traced_s)

    def total(name, key):
        return table.get(name, {}).get(key, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {f"{name}.calls": total(name, "calls") / n_ops for name in CALLS}
    out.update({f"{name}.self_s": total(name, "self_s") / n_ops for name in SELF})
    out["metricspace.dist_bytes"] = total("metricspace.build_index", "dist_bytes") / n_ops
    out["model.train_rows"] = ratio(total("model.train", "train_rows"),
                                    total("model.train", "calls"))
    out["model.predict.dist_cells"] = total("model.predict", "dist_cells") / n_ops
    out["pipeline.finish_per_prepare"] = ratio(total("pipeline.finish", "calls"),
                                               total("pipeline.prepare", "calls"))
    out["cli.cpu_per_wall"] = ratio(total("cli.main", "cpu_s"), total("cli.main", "wall_s"))
    out["trace.op_s.p50"] = statistics.median(traced_s)
    # Paired by draw, so host-speed drift between pairs cancels.
    out["trace.overhead_ratio"] = statistics.median(t / u for t, u in zip(traced_s, untraced_s))
    return out


# --- the per-stage table, in the shape of the ROADMAP's "Where time goes" ---

STAGES = ("index", "expand", "combine", "scores", "finish", "metrics", "io", "other")
_STAGE_OF_MODULE = {"metricspace": "index", "expansion": "expand", "scoring": "scores",
                    "model": "finish", "metrics": "metrics", "dataset": "io"}
_STAGE_OF_FUNCTION = {
    "expansion.back_trace": "combine",
    "expansion.combine_backtraces": "combine",
    "expansion.emax_over_roots": "combine",
    "metricspace.rdist_matrix": "scores",
    "scoring.t_score": "finish",
    "pipeline.finish": "finish",
    "pipeline.default_k": "finish",
}


def stage_of(name: str) -> str:
    """Stage a function's self time counts toward; new functions go by module."""
    if name in _STAGE_OF_FUNCTION:
        return _STAGE_OF_FUNCTION[name]
    return _STAGE_OF_MODULE.get(name.split(".")[0], "other")


def stage_table(workload: str, spans, n_ops: int) -> str:
    """One markdown row of self milliseconds per op by stage, with roots per op."""
    table = by_function(spans)
    ms = dict.fromkeys(STAGES, 0.0)
    for name, row in table.items():
        ms[stage_of(name)] += 1000.0 * row["self_s"] / n_ops
    roots = table.get("expansion.prim_expand", {}).get("calls", 0) / n_ops
    op_ms = 1000.0 * table.get(OP, {}).get("wall_s", 0.0) / n_ops
    head = ("| workload | op | index | expand (roots) | combine | scores | finish "
            "| metrics | io | other |")
    cells = [f"{ms[s]:,.0f}" for s in STAGES]
    cells[1] = f"{cells[1]} ({roots:g})"
    row = f"| {workload} | {op_ms:,.0f} | " + " | ".join(cells) + " |"
    note = ("Self ms per op, summed over threads; with worker threads, other "
            "includes cli.main waiting for them.")
    return "\n".join([head, "|" + "---|" * 10, row, "", note])


def function_table(spans, n_ops: int) -> str:
    """Every traced function: calls and self milliseconds per op, by self time."""
    table = by_function(spans)
    lines = ["| function | calls/op | self ms/op | stage |", "|---|---|---|---|"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        if name == OP:
            continue
        lines.append(f"| {name} | {row['calls'] / n_ops:g} | "
                     f"{1000.0 * row['self_s'] / n_ops:,.1f} | {stage_of(name)} |")
    return "\n".join(lines)
