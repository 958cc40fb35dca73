"""Experiment driver: grid search, telemetry CSVs, and SVG figures.

An :class:`ExperimentSpec` names a dataset (file or synthetic), a model
family, regularization weights, methods, a step-parameter grid, and seeds.
``run_experiment`` solves the reference per lambda, runs every
(method, lambda, step, seed) cell, and picks each cell's winner by final
optimality gap.  ``emit_csv``/``load_table`` round-trip the telemetry
exactly; ``emit_plots`` renders gap-vs-epoch, gap-vs-time and
variance-vs-epoch figures for the winners.

All outputs except wall-time columns are byte-deterministic given the spec
and seed list.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import stepsize, svgplot
from .data import SparseDataset, parse_libsvm, synth_binary
from .losses import LossModel
from .optimizer import (METHODS, DivergenceError, EpochRecord, RunConfig,
                        optimize)
from .reference import cached_reference
from .stepsize import StepSizeSchedule

DEFAULT_GRID = (1e0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
DEFAULT_LAMBDAS = (1e-3, 1e-4, 1e-5)
DEFAULT_SYNTH = (1000, 20, 0)


class DataSourceError(RuntimeError):
    """Dataset missing or unreadable."""


class ReferenceError(RuntimeError):
    """The reference solve did not reach its tolerance for a cell."""


@dataclass
class ExperimentSpec:
    data_path: str | None = None
    synth: tuple | None = None            # (n, d, seed[, separability])
    model: str = "logistic"
    lambdas: tuple = DEFAULT_LAMBDAS
    methods: tuple = ("SVRG",)
    grid: tuple = DEFAULT_GRID
    epochs: int = 30
    m: int | None = None                  # None -> 2n
    seeds: tuple = (0,)
    out_dir: str = "results"
    scale_features: bool = False
    anchor_option: int = 1
    reference_tol: float = 1e-10
    subsample: int | None = None
    label_map: dict | None = None
    variance_mode: str = "last"

    def __post_init__(self):
        if not self.methods:
            raise ValueError("method list must be non-empty")
        if not self.lambdas:
            raise ValueError("lambda list must be non-empty")
        for g in self.grid:
            if g <= 0:
                raise ValueError("every grid value must be > 0")
        for meth in self.methods:
            if meth not in METHODS:
                raise ValueError(f"unknown method {meth!r}")
        if self.data_path is None and self.synth is None:
            self.synth = DEFAULT_SYNTH


@dataclass
class RunRow:
    method: str
    lam: float
    step_param: float
    seed: int
    records: list[EpochRecord]
    diverged: bool = False

    def final_gap(self) -> float:
        if self.diverged or not self.records:
            return float("inf")
        return self.records[-1].gap


@dataclass
class ResultTable:
    rows: list[RunRow] = field(default_factory=list)
    winners: dict = field(default_factory=dict)    # (method, lam) -> step_param
    references: dict = field(default_factory=dict) # lam -> f_star
    metadata: dict = field(default_factory=dict)

    def cell(self, method: str, lam: float):
        return [r for r in self.rows if r.method == method and r.lam == lam]

    def winner_rows(self, method: str, lam: float):
        step = self.winners.get((method, lam))
        return [r for r in self.cell(method, lam) if r.step_param == step]


def load_dataset(spec: ExperimentSpec) -> SparseDataset:
    if spec.data_path is not None:
        try:
            with open(spec.data_path, "r") as fh:
                ds = parse_libsvm(fh, label_map=spec.label_map)
        except OSError as err:
            raise DataSourceError(f"cannot read {spec.data_path}: {err}") from err
    else:
        ds = synth_binary(*spec.synth)
    if spec.subsample is not None and spec.subsample < ds.n:
        sel = np.random.default_rng(0).permutation(ds.n)[:spec.subsample]
        ds = ds.subsample(np.sort(sel))
    if spec.scale_features:
        ds = ds.scale_max_abs()
    return ds


def schedule_for(method: str, step_param: float, n: int, lam: float,
                 smoothness: float) -> StepSizeSchedule:
    """Map a method plus its grid parameter to a concrete schedule.

    Constant-step methods use the parameter as eta; SVRGBB uses it as the
    bootstrap eta0; the SVRG2BBS presets use it as c1 (decay modes take
    c2 = c1 * lambda) with the bootstrap eta0 pinned to 1/L so every
    emitted step stays inside the theoretical BB bracket.
    """
    if method == "SVRGBB":
        return stepsize.epoch_bb(step_param)
    if method.startswith("SVRG2BBS-"):
        name = method.split("-", 1)[1]
        return stepsize.preset(name, n, c1=step_param, c2=step_param * lam,
                               eta0=1.0 / smoothness)
    return stepsize.constant(step_param)


def run_experiment(spec: ExperimentSpec, cache_dir=None) -> ResultTable:
    """Run every (method, lambda, step, seed) cell of the spec.

    The winner of each (method, lambda) cell minimizes the final-epoch gap
    averaged over seeds; diverged runs count as +inf.  All curves are kept.
    """
    dataset = load_dataset(spec)
    n = dataset.n
    m = spec.m if spec.m is not None else 2 * n

    table = ResultTable(metadata={
        "format": 1,
        "model": spec.model,
        "n": n,
        "d": dataset.d,
        "m": m,
        "epochs": spec.epochs,
        "anchor_option": spec.anchor_option,
        "seeds": list(spec.seeds),
        "grid": [float(g) for g in spec.grid],
        "methods": list(spec.methods),
        "lambdas": [float(l) for l in spec.lambdas],
        "variance_mode": spec.variance_mode,
        "generalized_bb_eta0": "1/L",
        "decay_c2": "c1*lambda",
    })

    for lam in spec.lambdas:
        model = LossModel(dataset, lam, spec.model)
        ref = cached_reference(model, tol=spec.reference_tol, cache_dir=cache_dir)
        if not ref.converged:
            raise ReferenceError(
                f"reference solve for lambda={lam:g} stopped at "
                f"||grad||={ref.grad_norm:.3e} > {spec.reference_tol:g}")
        table.references[float(lam)] = ref.f_star
        L = model.smoothness()
        w0 = np.zeros(model.d)

        for method in spec.methods:
            for g in spec.grid:
                schedule = schedule_for(method, g, n, lam, L)
                for seed in spec.seeds:
                    config = RunConfig(method=method, schedule=schedule,
                                       epochs=spec.epochs, m=m,
                                       anchor_option=spec.anchor_option,
                                       seed=seed,
                                       variance_mode=spec.variance_mode)
                    try:
                        _, records = optimize(model, config, w0, ref.w_star)
                        row = RunRow(method, float(lam), float(g), seed, records)
                    except DivergenceError as err:
                        row = RunRow(method, float(lam), float(g), seed,
                                     err.records, diverged=True)
                    table.rows.append(row)

            cell = table.cell(method, float(lam))
            by_step: dict[float, list[float]] = {}
            for row in cell:
                by_step.setdefault(row.step_param, []).append(row.final_gap())
            winner = min(sorted(by_step), key=lambda s: _mean(by_step[s]))
            table.winners[(method, float(lam))] = winner

    return table


def _mean(vals):
    return sum(vals) / len(vals)


# -- CSV emission --------------------------------------------------------------

CSV_HEADER = "epoch,wall_time_sec,fval,gap,variance,step_size,grad_evals"


def _fmt_float(x: float) -> str:
    return f"{x:.17e}"


def _param_token(x: float) -> str:
    """x in 6 significant digits, or in full when those name another float."""
    token = f"{x:.6g}"
    return (token if float(token) == x else repr(float(x))).replace("+", "")


def run_filename(model: str, lam: float, method: str, step_param: float, seed: int) -> str:
    return f"run_{model}_lam{_param_token(lam)}_{method}_step{_param_token(step_param)}_seed{seed}.csv"


def emit_csv(table: ResultTable, out_dir) -> list[Path]:
    """One CSV per run plus winners.csv and metadata.json.

    Numeric fields use 17-significant-digit scientific notation, so parsing
    the files back reproduces every record exactly.
    """
    if not table.rows:
        raise ValueError("empty result table")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model = table.metadata.get("model", "model")
    paths = []

    for row in table.rows:
        path = out / run_filename(model, row.lam, row.method, row.step_param, row.seed)
        lines = [CSV_HEADER]
        for rec in row.records:
            lines.append(",".join([
                str(rec.epoch),
                _fmt_float(rec.wall_time),
                _fmt_float(rec.fval),
                _fmt_float(rec.gap),
                _fmt_float(rec.variance),
                _fmt_float(rec.step_size),
                str(rec.grad_evals),
            ]))
        path.write_text("\n".join(lines) + "\n")
        paths.append(path)

    winner_lines = ["method,lambda,step_param,final_gap,file"]
    for (method, lam), step in sorted(table.winners.items()):
        rows = table.winner_rows(method, lam)
        gap = _mean([r.final_gap() for r in rows]) if rows else float("inf")
        winner_lines.append(",".join([
            method, _fmt_float(lam), _fmt_float(step), _fmt_float(gap),
            run_filename(model, lam, method, step, rows[0].seed if rows else 0),
        ]))
    winners_path = out / "winners.csv"
    winners_path.write_text("\n".join(winner_lines) + "\n")
    paths.append(winners_path)

    meta = dict(table.metadata)
    meta["references"] = {_fmt_float(lam): _fmt_float(f) for lam, f in sorted(table.references.items())}
    meta_path = out / "metadata.json"
    meta_path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    paths.append(meta_path)
    return paths


def parse_run_csv(path) -> list[EpochRecord]:
    lines = Path(path).read_text().strip().splitlines()
    if lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: unexpected CSV header {lines[0]!r}")
    records = []
    for line in lines[1:]:
        f = line.split(",")
        records.append(EpochRecord(
            epoch=int(f[0]), wall_time=float(f[1]), fval=float(f[2]),
            gap=float(f[3]), variance=float(f[4]), step_size=float(f[5]),
            grad_evals=int(f[6])))
    return records


def load_table(out_dir) -> ResultTable:
    """Rebuild a ResultTable from a directory written by emit_csv."""
    out = Path(out_dir)
    meta = json.loads((out / "metadata.json").read_text())
    references = {float(k): float(v) for k, v in meta.pop("references", {}).items()}
    table = ResultTable(metadata=meta, references=references)
    model = meta.get("model", "model")

    for lam in meta["lambdas"]:
        for method in meta["methods"]:
            for g in meta["grid"]:
                for seed in meta["seeds"]:
                    path = out / run_filename(model, lam, method, g, seed)
                    if not path.exists():
                        continue
                    records = parse_run_csv(path)
                    diverged = len(records) < meta["epochs"]
                    table.rows.append(RunRow(method, float(lam), float(g),
                                             int(seed), records, diverged))

    for line in (out / "winners.csv").read_text().strip().splitlines()[1:]:
        f = line.split(",")
        table.winners[(f[0], float(f[1]))] = float(f[2])
    return table


# -- figures -------------------------------------------------------------------

def _plot_token(lam: float) -> str:
    return _param_token(lam).replace("-", "m").replace(".", "p")


def emit_plots(table: ResultTable, out_dir) -> list[Path]:
    """Gap-vs-epoch, gap-vs-time and variance-vs-epoch SVGs per lambda.

    One series per (method, lambda) winner, seeds overlaid.  Output bytes
    are a pure function of the table contents.
    """
    if not table.rows:
        print("emit_plots: empty table, nothing to plot")
        return []
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model = table.metadata.get("model", "model")
    lambdas = sorted({row.lam for row in table.rows})
    methods = [m for m in table.metadata.get("methods", []) ] or \
        sorted({row.method for row in table.rows})
    paths = []

    for lam in lambdas:
        gap_epoch, gap_time, var_epoch = [], [], []
        for method in methods:
            for row in sorted(table.winner_rows(method, lam), key=lambda r: r.seed):
                label = method if len({r.seed for r in table.winner_rows(method, lam)}) == 1 \
                    else f"{method} (seed {row.seed})"
                epochs = [rec.epoch for rec in row.records]
                gap_epoch.append((label, epochs, [rec.gap for rec in row.records]))
                gap_time.append((label, [rec.wall_time for rec in row.records],
                                 [rec.gap for rec in row.records]))
                var_epoch.append((label, epochs, [rec.variance for rec in row.records]))

        specs = [
            (f"gap_vs_epoch_lam{_plot_token(lam)}.svg", gap_epoch,
             "optimality gap vs epoch", "epoch", "optimality gap"),
            (f"gap_vs_time_lam{_plot_token(lam)}.svg", gap_time,
             "optimality gap vs wall time", "wall time (s)", "optimality gap"),
            (f"variance_vs_epoch_lam{_plot_token(lam)}.svg", var_epoch,
             "direction variance vs epoch", "epoch", "variance"),
        ]
        for fname, series, title, xlabel, ylabel in specs:
            svg = svgplot.line_chart(series, f"{title} ({model}, lambda={lam:g})",
                                     xlabel, ylabel)
            if svg is None:
                print(f"emit_plots: no positive data for {fname}, skipped")
                continue
            path = out / fname
            path.write_text(svg)
            paths.append(path)
    return paths
