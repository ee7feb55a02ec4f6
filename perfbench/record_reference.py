"""Record the reference digest of every pool entry of every workload.

    python3 perfbench/record_reference.py [workload ...]

Run from the repository root. It rewrites perfbench/reference.json, which
`run.py` checks every op against. Re-record only in a change that is meant
to change the program's answers, and say so in that change.
"""

import json
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

REFERENCE = HERE / "reference.json"


def main(names) -> int:
    table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for name in names or list(workloads.WORKLOADS):
        w = workloads.WORKLOADS[name]
        with tempfile.TemporaryDirectory() as tmp:
            inputs = w.make_inputs(Path(tmp))
            entries = []
            for draw in range(w.pool):
                t0 = time.perf_counter()
                out = w.outcome(inputs, w.op(inputs, draw))
                print(f"{name} draw={draw} op_s={time.perf_counter() - t0:.3f} "
                      f"auc={out.auc:.6f} nmi={out.nmi:.6f}", flush=True)
                entries.append({"digest": out.digest, "auc": out.auc, "nmi": out.nmi})
        table[name] = entries
        REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
