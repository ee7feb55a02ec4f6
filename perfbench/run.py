"""Benchmark of the ssdbcodi pipeline: one workload per run.

    python3 perfbench/run.py --workload run_blobs --seed 0 --seconds 30 --trace 0

Run from the repository root; the program is imported from ./src. The
workloads are described in workloads.py. Load is closed-loop from this one
process: the next op starts when the previous one has returned.

--trace 0 times a fixed number of full passes over the seed's draw list,
as many as fit in --seconds at the workload's nominal op time but at least
one, and reports the end-to-end metrics. --trace 1 runs an
even number of draw pairs, sized from --seconds and a nominal op time,
each draw once untraced and once with every public ssdbcodi function
wrapped, and reports the per-layer metrics and the tracing overhead; its
work counts repeat exactly for a seed. Either way every op is checked
against the reference digest of its draw, and the last line of stdout is
the JSON result. Details go to perfbench/out/.

Times are wall seconds scaled to a reference host speed (hostspeed.py): each
op's wall time is divided by the mean host-speed factor timed just before
and just after it, and each set-up sample is divided by the start time of a
reference interpreter timed right after it. The unscaled figures are
printed and kept in the details file.

Default workload seed: 0. Held-out seed, on which a claimed gain must also
hold: 7.
"""

import argparse
import contextlib
import itertools
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

# Threads each workload runs Python on. BLAS gets nproc // this many threads,
# so Python workers x BLAS threads <= nproc. Needed before numpy is imported.
PYTHON_WORKERS = {"run_blobs": 1, "tune_moons": 1, "sweep_cli": 2}
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 9


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(PYTHON_WORKERS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)  # internal: one set-up sample
    return p.parse_args(argv)


def pin_blas(workload: str) -> int:
    nproc = len(os.sched_getaffinity(0))
    threads = max(1, nproc // PYTHON_WORKERS[workload])
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def environment(seed: int, blas_threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    caches = {}
    try:
        conf = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                              timeout=10, check=False).stdout
        for line in conf.splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[0].endswith("CACHE_SIZE"):
                caches[parts[0]] = int(parts[1])
    except (OSError, subprocess.TimeoutExpired, ValueError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "caches": caches,
        "workload_seed": seed,
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def load_reference(name: str) -> list:
    try:
        table = json.loads(REFERENCE.read_text(encoding="utf-8"))
        return [entry["digest"] for entry in table[name]]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"no reference digests for {name} in {REFERENCE}: {exc}") from exc


def setup_probe(workload) -> None:
    """Child side of one set-up sample: make the inputs, then report the time."""
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workload.make_inputs(Path(tmp))
        print(f"ready {time.monotonic()!r}", flush=True)


def measure_setup(args) -> tuple:
    """Seconds from process start until the first op could start, one sample
    per fresh process, each followed by the start time of a reference
    interpreter (hostspeed.start_seconds)."""
    import hostspeed

    walls, refs = [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed:\n{proc.stderr}")
        walls.append(float(proc.stdout.split()[-1]) - t0)
        refs.append(hostspeed.start_seconds())
    return walls, refs


class Runner:
    """Runs ops of one workload and checks each against its reference digest."""

    def __init__(self, workload, inputs, reference):
        self.workload = workload
        self.inputs = inputs
        self.reference = reference
        self.records = []

    def run_op(self, draw: int, region=contextlib.nullcontext) -> float:
        """One op on one draw; returns its wall seconds. region() is entered
        around the program call only."""
        outcome, ok = None, False
        t0 = time.perf_counter()
        try:
            with region():
                produced = self.workload.op(self.inputs, draw)
            t1 = time.perf_counter()
            outcome = self.workload.outcome(self.inputs, produced)
            ok = outcome.digest == self.reference[draw]
            if not ok:
                print(f"op on draw {draw}: digest {outcome.digest} differs from "
                      f"reference {self.reference[draw]}", file=sys.stderr)
        except Exception:  # a failed op is recorded, and the run goes on
            t1 = time.perf_counter()
            traceback.print_exc()
        self.records.append({"draw": draw, "op_s": t1 - t0, "ok": ok,
                             "auc": outcome.auc if outcome else None,
                             "nmi": outcome.nmi if outcome else None})
        return t1 - t0

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.records)


def passes(workload, seconds: float) -> int:
    """Full passes over the draw list that fit in `seconds` at the nominal
    op time; at least one. It does not depend on the commit's speed."""
    return max(1, round(seconds / (workload.per_run * workload.nominal_op_s)))


def run_untraced(args, runner, draws, speed) -> tuple:
    """Fixed passes over draws. Returns op wall seconds and the host-speed
    factors around them."""
    walls, factors = [], [speed.factor()]
    for draw in draws * passes(runner.workload, args.seconds):
        walls.append(runner.run_op(draw))
        factors.append(speed.factor())
    return walls, factors


@contextlib.contextmanager
def traced_op(tracer, op_id: int):
    """Wrap the program's functions around one op only, so that checking
    its answer afterwards is neither traced nor timed."""
    with tracer.installed(), tracer.op(op_id):
        yield


def run_traced(args, runner, draws):
    import layers
    from tracer import Tracer

    # An even count, so each order of a pair is used equally often.
    pairs = max(2, int(args.seconds // (2 * runner.workload.nominal_op_s)) // 2 * 2)
    tracer = Tracer(probes=layers.PROBES)
    traced, untraced = [], []
    for i, draw in zip(range(pairs), itertools.cycle(draws)):
        # Alternate which of the pair goes first, so warm-up favours neither.
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                traced.append(runner.run_op(draw, lambda: traced_op(tracer, i)))
            else:
                untraced.append(runner.run_op(draw))
    return tracer, traced, untraced


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ssdbcodi" / "__init__.py").is_file():
        print(f"error: {SRC / 'ssdbcodi'} not found; run from a repository checkout",
              file=sys.stderr)
        return 2
    blas_threads = pin_blas(args.workload)
    sys.path[:0] = [str(SRC), str(HERE)]
    OUT.mkdir(exist_ok=True)
    import hostspeed
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        setup_probe(workload)
        return 0
    speed = None if args.trace else hostspeed.HostSpeed(workload.kernel_weights)
    try:
        reference = load_reference(args.workload)
        setup = None if args.trace else measure_setup(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env = environment(args.seed, blas_threads)
    draws = workloads.draw_list(workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        runner = Runner(workload, workload.make_inputs(Path(tmp)), reference)
        if args.trace:
            tracer, traced, untraced = run_traced(args, runner, draws)
        else:
            walls, factors = run_untraced(args, runner, draws, speed)
    attempted, failed = len(runner.records), runner.failed
    details = {"workload": args.workload, "env": env, "ops": runner.records}

    if args.trace:
        import layers

        values = layers.layer_metrics(tracer.spans, traced, untraced)
        units = layers.metric_units()
        print(layers.stage_table(args.workload, tracer.spans, len(traced)))
        print()
        print(layers.function_table(tracer.spans, len(traced)))
        details["spans"] = [s.to_json() for s in tracer.spans]
    else:
        import resource

        # Answer quality over one pass, each draw once.
        ok = [r for r in runner.records[:len(draws)] if r["auc"] is not None]
        # Each op is divided by the mean of the factors timed just before
        # and just after it.
        scaled = [wall / ((before + after) / 2)
                  for wall, before, after in zip(walls, factors, factors[1:])]
        details["host_speed"] = {"op_wall_s": walls, "op_factors": factors,
                                 "setup_wall_s": setup[0], "setup_ref_start_s": setup[1]}
        print(f"wall, not scaled: op_s.p50 {statistics.median(walls):.4f} s, "
              f"setup_s {statistics.median(setup[0]):.4f} s; "
              f"host-speed factor median {statistics.median(factors):.3f}")
        values = {
            "op_s.p50": statistics.median(scaled),
            "points_per_s": attempted * workload.points_per_op / sum(scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # Each sample is paired with the reference start timed right
            # after it, which follows the host's phases closely.
            "setup_s": hostspeed.REF_START_S * statistics.median(
                wall / ref for wall, ref in zip(*setup)),
            "auc_mean": statistics.fmean(r["auc"] for r in ok) if ok else 0.0,
            "nmi_mean": statistics.fmean(r["nmi"] for r in ok) if ok else 0.0,
        }
        units = {"op_s.p50": "s", "points_per_s": "points/s", "peak_rss_mb": "MB",
                 "setup_s": "s", "auc_mean": "auc", "nmi_mean": "nmi"}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    details["metrics"] = metrics
    (OUT / f"{tag}.json").write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")

    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} ops, "
          f"{failed} failed, fail_frac {failed / attempted:g}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
