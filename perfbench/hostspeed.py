"""Host-speed factor: how much slower than the reference this host runs now.

On a shared host the speed drifts: by up to 1.8x, in phases of seconds to
minutes, as measured on a shared 2-core x86 host. That drift swamps
the difference between two commits. So the factor is timed before the first
op and after every op, and each op's wall time is divided by the mean of
the factors timed just before and just after it. The factor comes from
kernels that do the same kind of work as the workload's hot stages,
weighted by the share of op time each stage took in a trace:

* prim: a Prim-style loop of small numpy calls from Python (expansion);
* sort: stable row argsorts and a row partition of a 500 x 500 matrix
  (kNN prediction, core distances);
* stream: in-place elementwise passes over a 4 MB array (index and density
  passes).

The kernels are benchmark code, so the factor does not depend on the
program under test. A factor of 1.0 means the kernels took REF_S.

Set-up is mostly interpreter start and imports, which these kernels do not
track. Its reference is `start_seconds()`: a fresh interpreter that imports
numpy, timed right after each set-up sample.
"""

import subprocess
import sys
import time

import numpy as np

# Kernel seconds at reference speed. They fix only the scale of the
# reported times, never a comparison between two commits.
REF_S = {"prim": 0.016, "sort": 0.016, "stream": 0.015}
REPEATS = 3
# Seconds for start_seconds() at reference speed; fixes only the scale of
# the reported set-up time.
REF_START_S = 0.12


class HostSpeed:
    """Times the kernels named in `weights` (name -> share of op time)."""

    def __init__(self, weights: dict):
        self.weights = dict(weights)
        rng = np.random.default_rng(0)
        self._a, self._b = rng.random(1000), rng.random(1000)
        self._m = rng.random((500, 500))
        # 4 MB: past a 2 MB L2 cache, as the index and density passes are.
        self._big = np.full(500_000, 0.25) if "stream" in weights else None

    def _prim(self):
        keys = np.full(self._a.size, np.inf)
        done = np.zeros(self._a.size, dtype=bool)
        for _ in range(self._a.size):
            q = int(np.argmin(keys))
            done[q] = True
            keys[q] = np.inf
            np.minimum(keys, np.maximum(np.maximum(self._a, self._a[q]), self._b),
                       out=keys, where=~done)

    def _sort(self):
        np.argsort(self._m, axis=1, kind="stable")
        np.partition(self._m, 3, axis=1)

    def _stream(self):
        for _ in range(30):
            np.maximum(self._big, 0.5, out=self._big)
            self._big.sum()

    def factor(self) -> float:
        """Weighted mean of kernel time / reference kernel time, each kernel
        run REPEATS times in turn (about 0.1 s in all)."""
        total = 0.0
        for _ in range(REPEATS):
            for name, weight in self.weights.items():
                t0 = time.perf_counter()
                getattr(self, "_" + name)()
                total += weight * (time.perf_counter() - t0) / REF_S[name]
        return total / (REPEATS * sum(self.weights.values()))


def start_seconds() -> float:
    """Seconds from spawning a fresh interpreter until it has imported numpy."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", "import time, numpy; print(time.monotonic())"],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.split()[-1]) - t0
