"""A fixed workload that measures how fast the machine runs at the moment.

On a shared machine, other tenants slow this process by 1.4-1.8x.  The
slowdowns come in episodes of seconds to minutes, so whole runs can land in
a slow one.  The benchmark times :class:`SpeedProbe` between its
operations and rescales every reported time to the probe's reference speed.
"""

from __future__ import annotations

import time

import numpy as np


class SpeedProbe:
    """``steps`` SGD-like steps on rows with ``nnz`` nonzeros in ``d`` dimensions.

    It uses numpy only, never the code under test, so a change to the
    program cannot change the probe.  Each step does what an SVRG inner step
    does: an O(d) regularizer term, a gather and a scatter over the row, an
    O(d) update and an O(d) norm.  The work is fixed.
    """

    def __init__(self, d: int, nnz: int, steps: int):
        rng = np.random.default_rng(20220823)
        self.cols = np.stack([np.sort(rng.choice(d, nnz, replace=False)) for _ in range(steps)])
        vals = rng.uniform(0.5, 1.5, (steps, nnz))
        self.vals = vals / np.linalg.norm(vals, axis=1, keepdims=True)
        self.z = rng.standard_normal(d) / np.sqrt(d)

    def run(self) -> float:
        w = self.z.copy()
        norm = 0.0
        for cols, vals in zip(self.cols, self.vals):
            g = 1e-3 * (w - self.z)
            g[cols] += (float(vals @ w[cols]) - 1.0) * vals
            w -= 0.1 * g
            norm = float(w @ w)
        return norm

    def __call__(self) -> float:
        """Seconds one run of the probe takes now."""
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0
