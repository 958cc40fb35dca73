"""The benchmark's workloads: generated inputs, experiment specs and ttg runs.

Every input is a pure function of the workload seed.  The program under test
sees only the generated data (a synthetic spec or a LIBSVM file); the seed
itself never reaches it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from vrgrad import METHODS, RunConfig, stepsize
from vrgrad.harness import DEFAULT_LAMBDAS, ExperimentSpec

TTG_METHODS = ("SVRG", "SVRG2", "SVRG2D", "SVRG2BB", "SVRG2BBS-M2")
TTG_SEED = 0   # method seed (sample order) of every ttg run


@dataclass(frozen=True)
class TtgRun:
    """One time-to-gap run: a fixed step (c1 for the M2 preset).

    ``cap`` is the number of epochs the untimed calibration run tries first;
    it doubles, up to ``MAX_CAP_FACTOR`` times ``cap``, while the target is not met.
    """

    method: str
    step: float
    cap: int
    c2: float = 0.0


MAX_CAP_FACTOR = 4


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    lambdas: tuple
    methods: tuple
    grid: tuple
    epochs: int
    m: int | None
    seeds: tuple
    anchor_option: int
    ttg: tuple
    # The ttg target gap is ``target_slack`` times the gap the first ttg run
    # (SVRG) records at epoch ``target_epoch`` on the same input.  Tying the
    # target to the input keeps k* steady across seeds whose problems
    # converge at different rates.  The pair was chosen from the gap curves
    # of 30-60 seeds so that k* does not change from seed to seed; see
    # bench/NOTES.md.
    target_epoch: int
    target_slack: float
    # grid parameter of the traced run's per-method passes; no method diverges
    pass_step: float
    # SpeedProbe(d, nnz, steps), shaped like the workload's inner step, and
    # its time at the reference speed that reported seconds are scaled to
    probe: tuple
    probe_ref_s: float
    # gradient-norm tolerance of the reference solve, ExperimentSpec's default
    # unless the solver cannot reach that on every input
    reference_tol: float = 1e-10

    def spec(self, seed: int, workdir: Path) -> ExperimentSpec:
        """The experiment spec for ``seed``; writes any input file to ``workdir``."""
        common = dict(model=self.model, lambdas=self.lambdas, methods=self.methods,
                      grid=self.grid, epochs=self.epochs, m=self.m, seeds=self.seeds,
                      anchor_option=self.anchor_option, variance_mode="last",
                      reference_tol=self.reference_tol,
                      out_dir=str(workdir / "results"))
        if self.name == "sparse-highd":
            path = workdir / f"sparse-{seed}.svm"
            path.write_text(sparse_libsvm_text(SPARSE_N, SPARSE_D, SPARSE_NNZ, seed))
            return ExperimentSpec(data_path=str(path), **common)
        if self.name == "hinge-grid":
            return ExperimentSpec(synth=(500, 20, seed, 0.9), **common)
        return ExperimentSpec(synth=(500, 50, seed), **common)

    def ttg_config(self, run: TtgRun, n: int, m: int, smoothness: float,
                   epochs: int) -> RunConfig:
        if run.method == "SVRG2BBS-M2":
            schedule = stepsize.preset("M2", n, c1=run.step, c2=run.c2,
                                       eta0=1.0 / smoothness)
        else:
            schedule = stepsize.constant(run.step)
        return RunConfig(method=run.method, schedule=schedule, epochs=epochs, m=m,
                         anchor_option=self.anchor_option, seed=TTG_SEED,
                         variance_mode="none")


SPARSE_N, SPARSE_D, SPARSE_NNZ = 500, 25_000, 20


def sparse_libsvm_text(n: int, d: int, nnz: int, seed: int, flip: float = 0.05) -> str:
    """rcv1-shaped LIBSVM text: ``nnz`` distinct columns per row, unit-norm rows.

    Labels are the sign of a random hyperplane's margin, each flipped with
    probability ``flip``.  The first row's last column is d, so that a reader
    that takes d from the largest index gets the same d on every seed.
    """
    rng = np.random.default_rng(seed)
    cols = np.sort(np.stack([rng.choice(d, nnz, replace=False) for _ in range(n)]), axis=1)
    cols[0, -1] = d - 1
    vals = rng.uniform(0.5, 1.5, (n, nnz))
    vals /= np.linalg.norm(vals, axis=1, keepdims=True)
    w_true = rng.standard_normal(d)
    labels = np.where((vals * w_true[cols]).sum(axis=1) >= 0.0, 1, -1)
    labels[rng.random(n) < flip] *= -1
    lines = []
    for label, row_cols, row_vals in zip(labels, cols, vals):
        feats = " ".join(f"{c + 1}:{float(v)!r}" for c, v in zip(row_cols, row_vals))
        lines.append(f"{int(label):+d} {feats}\n")
    return "".join(lines)


WORKLOADS = {
    wl.name: wl for wl in (
        Workload(
            name="dense-lowd",
            model="logistic", lambdas=(1e-3,), methods=METHODS, grid=(1e8, 0.3),
            epochs=2, m=None, seeds=(0,), anchor_option=1,
            ttg=(TtgRun("SVRG", 0.3, 2), TtgRun("SVRG2", 0.3, 2),
                 TtgRun("SVRG2D", 0.3, 2), TtgRun("SVRG2BB", 0.3, 2),
                 TtgRun("SVRG2BBS-M2", 4.0, 3, c2=1e-5)),
            target_epoch=2, target_slack=1.5, pass_step=0.3,
            probe=(50, 50, 3600), probe_ref_s=0.020),
        Workload(
            name="sparse-highd",
            model="logistic", lambdas=(1e-3,), methods=TTG_METHODS, grid=(1.0,),
            epochs=2, m=SPARSE_N // 2, seeds=(0,), anchor_option=1,
            ttg=(TtgRun("SVRG", 1.0, 2), TtgRun("SVRG2", 1.0, 2),
                 TtgRun("SVRG2D", 1.0, 2), TtgRun("SVRG2BB", 1.0, 2),
                 TtgRun("SVRG2BBS-M2", 4.0, 2, c2=1e-5)),
            target_epoch=2, target_slack=1.5, pass_step=1.0,
            probe=(SPARSE_D, SPARSE_NNZ, 400), probe_ref_s=0.014),
        Workload(
            name="hinge-grid",
            model="squared_hinge", lambdas=DEFAULT_LAMBDAS, methods=METHODS,
            grid=(1e2, 1e0), epochs=2, m=50, seeds=(0, 1), anchor_option=2,
            ttg=(TtgRun("SVRG", 0.3, 8), TtgRun("SVRG2", 0.3, 8),
                 TtgRun("SVRG2D", 0.3, 8), TtgRun("SVRG2BB", 0.3, 8),
                 TtgRun("SVRG2BBS-M2", 8.0, 8, c2=1e-4)),
            target_epoch=6, target_slack=0.75, pass_step=0.1,
            probe=(20, 20, 3600), probe_ref_s=0.019,
            # At 1e-10, L-BFGS stops short within its 1000 iterations on 12 of
            # the 900 (seed, lambda) pairs of seeds 0-299; at 1e-9 on none
            reference_tol=1e-9),
    )
}
