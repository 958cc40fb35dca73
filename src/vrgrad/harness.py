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
from dataclasses import dataclass, field, fields
from operator import attrgetter
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import stepsize, svgplot
from .data import SparseDataset, parse_libsvm, synth_binary
from .losses import LossModel, loss_kind
from .optimizer import (DivergenceError, EpochRecord, RunConfig, check_run_options,
                        optimize)
from .reference import DEFAULT_TOL, cached_reference
from .stepsize import StepSizeSchedule

DEFAULT_GRID = (1e0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
DEFAULT_LAMBDAS = (1e-3, 1e-4, 1e-5)
DEFAULT_SYNTH = (1000, 20, 0)


class DataSourceError(RuntimeError):
    """An input file (a dataset or an emitted results file) missing,
    unreadable or malformed."""


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
    reference_tol: float = DEFAULT_TOL
    subsample: int | None = None
    variance_mode: str = "last"

    def __post_init__(self):
        self.lambdas, self.grid = tuple(map(float, self.lambdas)), tuple(map(float, self.grid))
        for name, values in (("method", self.methods), ("lambda", self.lambdas),
                             ("grid", self.grid), ("seed", self.seeds)):
            if not values:
                raise ValueError(f"{name} list must be non-empty")
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                # a repeated value would run its cells again, into the same files
                raise ValueError(f"{name} list repeats {', '.join(map(str, repeated))}")
        if any(seed < 0 for seed in self.seeds):
            raise ValueError(f"every seed must be >= 0, got {self.seeds}")
        if not all(0.0 < g < np.inf for g in self.grid):
            raise ValueError(f"every grid value must be finite and > 0, got {self.grid}")
        if not all(0.0 <= lam < np.inf for lam in self.lambdas):
            raise ValueError(f"every lambda must be finite and >= 0, got {self.lambdas}")
        if not 0.0 < self.reference_tol < np.inf:
            raise ValueError(f"reference_tol must be finite and > 0, got {self.reference_tol}")
        if self.subsample is not None and self.subsample < 1:
            raise ValueError(f"subsample must be >= 1, got {self.subsample}")
        check_run_options(self.methods, self.epochs, self.m, self.anchor_option,
                          self.variance_mode)
        self.model = loss_kind(self.model)
        if self.data_path is not None and self.synth is not None:
            raise ValueError("give one data source, data_path or synth, not both")
        if self.data_path is None and self.synth is None:
            self.synth = DEFAULT_SYNTH
        if self.synth is not None:
            n, d, seed, *separability = self.synth
            if not (n >= 1 and d >= 1 and seed >= 0 and len(separability) <= 1
                    and np.isfinite(separability).all()):
                raise ValueError("synth needs (n, d, seed[, separability]) with n, d >= 1, "
                                 f"seed >= 0 and a finite separability, got {self.synth}")


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

    def step_rows(self, method: str, lam: float, step: float):
        return [r for r in self.cell(method, lam) if r.step_param == step]

    def winner_rows(self, method: str, lam: float):
        return self.step_rows(method, lam, self.winners.get((method, lam)))

    def mean_gap(self, method: str, lam: float, step: float | None = None) -> float:
        """The final gap of a cell's step, averaged over seeds (diverged
        runs count as +inf); the winner's step by default."""
        if step is None:
            step = self.winners[(method, lam)]
        gaps = [r.final_gap() for r in self.step_rows(method, lam, step)]
        return sum(gaps) / len(gaps)


def load_dataset(spec: ExperimentSpec) -> SparseDataset:
    if spec.data_path is not None:
        try:
            with open(spec.data_path, "r") as fh:
                ds = parse_libsvm(fh)
        except OSError as err:
            raise DataSourceError(f"cannot read {spec.data_path}: {err}") from err
        if ds.n == 0:
            raise DataSourceError(f"{spec.data_path} holds no sample")
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
    bootstrap eta0; the SVRG2BBS presets use it as c1 (M2 and M3 take
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
    averaged over seeds; a run that diverged, one with fewer records than
    epochs, counts as +inf.  All curves are kept.

    The table's metadata, which ``emit_csv`` writes as ``metadata.json``, is
    the spec: every :class:`ExperimentSpec` field but ``out_dir``, with m
    resolved, plus ``format``, the dataset's ``n`` and ``d`` and the two
    schedule notes of :func:`schedule_for`.
    """
    dataset = load_dataset(spec)
    n = dataset.n
    m = spec.m if spec.m is not None else 2 * n

    meta = {f.name: getattr(spec, f.name) for f in fields(spec) if f.name != "out_dir"}
    table = ResultTable(metadata=meta | {
        "format": 1, "n": n, "d": dataset.d, "m": m,
        "generalized_bb_eta0": "1/L", "decay_c2": "c1*lambda"})

    for lam in spec.lambdas:
        model = LossModel(dataset, lam, spec.model)
        ref = cached_reference(model, tol=spec.reference_tol, cache_dir=cache_dir)
        if not ref.converged:
            raise ReferenceError(
                f"reference solve for lambda={lam:g} stopped at "
                f"||grad||={ref.grad_norm:.3e} > {spec.reference_tol:g}")
        table.references[lam] = ref.f_star
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
                        records = optimize(model, config, w0, ref.w_star)[1]
                    except DivergenceError as err:
                        records = err.records
                    table.rows.append(RunRow(method, lam, g, seed, records,
                                             diverged=len(records) < spec.epochs))

            table.winners[(method, lam)] = min(
                sorted(spec.grid), key=lambda s: table.mean_gap(method, lam, s))

    return table


# -- CSV emission --------------------------------------------------------------

def _fmt_float(x: float) -> str:
    return f"{x:.17e}"


# a run CSV's columns are EpochRecord's fields, in order; ints are written as is
_RECORD_FIELDS = fields(EpochRecord)
_RECORD_TYPES = tuple(get_type_hints(EpochRecord)[f.name] for f in _RECORD_FIELDS)
_RECORD_VALUES = attrgetter(*(f.name for f in _RECORD_FIELDS))
_RECORD_FORMATS = tuple(str if kind is int else _fmt_float for kind in _RECORD_TYPES)
CSV_HEADER = ",".join(f.metadata.get("column", f.name) for f in _RECORD_FIELDS)


def _param_token(x: float) -> str:
    """x in 6 significant digits, or in full when those name another float."""
    token = f"{x:.6g}"
    return (token if float(token) == x else repr(float(x))).replace("+", "")


def run_filename(model: str, lam: float, method: str, step_param: float, seed: int) -> str:
    return f"run_{model}_lam{_param_token(lam)}_{method}_step{_param_token(step_param)}_seed{seed}.csv"


def emit_csv(table: ResultTable, out_dir) -> list[Path]:
    """One CSV per run plus winners.csv and metadata.json.

    A run CSV has one column per :class:`EpochRecord` field; floats use
    17-significant-digit scientific notation, so parsing the files back
    reproduces every record exactly.
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
            lines.append(",".join([fmt(value) for fmt, value
                                   in zip(_RECORD_FORMATS, _RECORD_VALUES(rec))]))
        path.write_text("\n".join(lines) + "\n")
        paths.append(path)

    winner_lines = ["method,lambda,step_param,final_gap,file"]
    for (method, lam), step in sorted(table.winners.items()):
        winner_lines.append(",".join([
            method, _fmt_float(lam), _fmt_float(step), _fmt_float(table.mean_gap(method, lam)),
            run_filename(model, lam, method, step, table.winner_rows(method, lam)[0].seed),
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
        values = [kind(tok) for kind, tok in zip(_RECORD_TYPES, line.split(","), strict=True)]
        records.append(EpochRecord(*values))
    return records


def load_table(out_dir) -> ResultTable:
    """Rebuild a ResultTable from a directory written by emit_csv.

    A file there that does not parse raises :class:`DataSourceError`
    naming it.
    """
    out = Path(out_dir)
    path = out / "metadata.json"    # the file being read, for the error
    try:
        meta = json.loads(path.read_text())
        references = {float(k): float(v) for k, v in meta.pop("references", {}).items()}
        table = ResultTable(metadata=meta, references=references)
        model, epochs = meta.get("model", "model"), meta["epochs"]

        for lam in meta["lambdas"]:
            for method in meta["methods"]:
                for g in meta["grid"]:
                    for seed in meta["seeds"]:
                        path = out / run_filename(model, lam, method, g, seed)
                        if not path.exists():
                            continue
                        records = parse_run_csv(path)
                        diverged = len(records) < epochs
                        table.rows.append(RunRow(method, float(lam), float(g),
                                                 int(seed), records, diverged))

        path = out / "winners.csv"
        for line in path.read_text().strip().splitlines()[1:]:
            f = line.split(",")
            table.winners[(f[0], float(f[1]))] = float(f[2])
    except (ValueError, KeyError, TypeError, IndexError) as err:
        raise DataSourceError(f"{path} is malformed: {type(err).__name__}: {err}") from err
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
    methods = table.metadata.get("methods") or sorted({row.method for row in table.rows})
    paths = []

    for lam in lambdas:
        gap_epoch, gap_time, var_epoch = [], [], []
        for method in methods:
            rows = sorted(table.winner_rows(method, lam), key=attrgetter("seed"))
            for row in rows:
                label = method if len(rows) == 1 else f"{method} (seed {row.seed})"
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
