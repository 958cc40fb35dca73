"""Experiment driver: grid search, telemetry CSVs, and SVG figures.

An :class:`ExperimentSpec` names a dataset (file or synthetic), a model
family, regularization weights, methods, a step-parameter grid, and seeds.
``run_experiment`` solves the reference per lambda, runs every
(method, lambda, step, seed) cell, and picks each cell's winner by final
optimality gap.  ``emit_csv``/``load_table`` round-trip the telemetry
exactly, and ``load_table`` takes only the whole layout ``emit_csv``
writes; ``emit_plots`` renders gap-vs-epoch, gap-vs-time and
variance-vs-epoch figures for the winners.  ``metadata.json`` is the
deletion manifest: written into a directory that holds an earlier run,
``emit_csv`` first deletes, in this order, that run's winners.csv, the run
CSVs its ``metadata.json`` names and every figure of its lambdas, and no
other file.

All outputs except wall-time columns are byte-deterministic given the spec
and seed list.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field, fields
from itertools import product
from operator import attrgetter, index
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import stepsize, svgplot
from .data import SparseDataset, parse_libsvm, synth_binary
from .losses import KINDS, LossModel, loss_kind
from .optimizer import (METHODS, DivergenceError, EpochRecord, RunConfig, check_run_options,
                        optimize)
from .reference import (DEFAULT_TOL, cached_entry, cached_reference, data_cache_path,
                        load_dataset_entry, resolve_cache_dir, save_dataset_entry)
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
        if self.epochs == 0:
            # a run may have no epoch, but then it has no final gap to pick a winner by
            raise ValueError("an experiment needs epochs >= 1, got 0")
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
        return self.step_rows(method, lam, self.winners[(method, lam)])

    def mean_gap(self, method: str, lam: float, step: float | None = None) -> float:
        """The final gap of a cell's step, averaged over seeds (diverged
        runs count as +inf); the winner's step by default."""
        if step is None:
            step = self.winners[(method, lam)]
        gaps = [r.final_gap() for r in self.step_rows(method, lam, step)]
        return sum(gaps) / len(gaps)


def load_dataset(spec: ExperimentSpec, cache_dir=None) -> SparseDataset:
    """The spec's dataset: its LIBSVM file or synthetic instance, then its
    subsample and feature scaling.

    With a ``cache_dir``, a file's parse is cached there, keyed by the
    file's bytes (see :mod:`~vrgrad.reference`): a hit returns the dataset
    that parsing those bytes returns, bit for bit, and a miss parses them
    and saves the result.  A file that fails to parse, or holds no sample,
    saves nothing.  Without one nothing is cached.
    """
    if spec.data_path is not None:
        ds = _read_libsvm(spec.data_path, cache_dir)
    else:
        ds = synth_binary(*spec.synth)
    if spec.subsample is not None and spec.subsample < ds.n:
        sel = np.random.default_rng(0).permutation(ds.n)[:spec.subsample]
        ds = ds.subsample(np.sort(sel))
    if spec.scale_features:
        ds = ds.scale_max_abs()
    return ds


def _read_libsvm(path, cache_dir) -> SparseDataset:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as err:
        raise DataSourceError(f"cannot read {path}: {err}") from err

    def parse() -> SparseDataset:
        try:
            # decoded as open(path, "r") decodes: the locale's encoding,
            # universal newlines, and an undecodable byte raising where its
            # chunk is read.  A parse succeeds only on ASCII text, which the
            # ASCII-compatible encodings a locale names all decode alike, so
            # the bytes alone key the entry
            ds = parse_libsvm(io.TextIOWrapper(io.BytesIO(raw)))
        except UnicodeDecodeError as err:
            raise DataSourceError(f"cannot read {path}: {err}") from err
        if ds.n == 0:
            raise DataSourceError(f"{path} holds no sample")
        return ds

    entry = None if cache_dir is None else data_cache_path(cache_dir, raw)
    return cached_entry(entry, load_dataset_entry, parse, save_dataset_entry)


def schedule_for(method: str, step_param: float, n: int, lam: float,
                 smoothness: float) -> StepSizeSchedule:
    """Map a method plus its grid parameter to a concrete schedule.

    Constant-step methods use the parameter as eta; SVRGBB uses it as the
    bootstrap eta0; the SVRG2BBS presets use it as c1 (M2 and M3 take
    c2 = c1 * lambda) with the bootstrap eta0 pinned to 1/L so every
    emitted step stays inside the theoretical BB bracket.  They raise
    ValueError when L = 0, that is when lambda is 0 and every row's
    squared norm is 0.
    """
    if method == "SVRGBB":
        return stepsize.epoch_bb(step_param)
    if method.startswith("SVRG2BBS-"):
        if not smoothness > 0.0:
            raise ValueError(f"{method} pins its first step to 1/L, and L = 0: "
                             "lambda is 0 and every row's squared norm is 0")
        name = method.split("-", 1)[1]
        return stepsize.preset(name, n, c1=step_param, c2=step_param * lam,
                               eta0=1.0 / smoothness)
    return stepsize.constant(step_param)


def run_experiment(spec: ExperimentSpec, cache_dir=None) -> ResultTable:
    """Run every (method, lambda, step, seed) cell of the spec.

    The winner of each (method, lambda) cell minimizes the final-epoch gap
    averaged over seeds; a run that diverged, one with fewer records than
    epochs, counts as +inf.  All curves are kept.

    The cache directory is ``cache_dir``, else the ``VRGRAD_CACHE_DIR`` env
    var: it caches the parse of the spec's data file (:func:`load_dataset`)
    and the reference solution of each lambda
    (:func:`~vrgrad.reference.cached_reference`).  A hit changes no result.

    The table's metadata, which ``emit_csv`` writes as ``metadata.json``, is
    the spec: every :class:`ExperimentSpec` field but ``out_dir``, with m
    resolved, plus ``format``, the dataset's ``n`` and ``d`` and the two
    schedule notes of :func:`schedule_for`.
    """
    cache_dir = resolve_cache_dir(cache_dir)
    dataset = load_dataset(spec, cache_dir)
    n = dataset.n
    m = spec.m if spec.m is not None else 2 * n

    meta = {f.name: getattr(spec, f.name) for f in fields(spec) if f.name != "out_dir"}
    table = ResultTable(metadata=meta | {
        "format": 2, "n": n, "d": dataset.d, "m": m,
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


def _cells(meta: dict):
    """(lambda, method, step, seed, run CSV name) of every cell that the
    metadata dict ``meta`` names, in ``load_table``'s order.

    The model must be one of ``KINDS``, each method one of ``METHODS``, each
    lambda and step a float and each seed an int, or this raises (KeyError,
    TypeError or ValueError) before any name is built: a tampered manifest
    can neither name a path outside its directory nor be read back as valid.
    """
    model, methods = meta["model"], meta["methods"]
    if model not in KINDS or not set(methods) <= set(METHODS):
        raise ValueError(f"unknown model {model!r} or a method of {methods!r}")
    lambdas, grid = [float(lam) for lam in meta["lambdas"]], [float(g) for g in meta["grid"]]
    seeds = [index(seed) for seed in meta["seeds"]]
    for lam, method, g, seed in product(lambdas, methods, grid, seeds):
        yield lam, method, g, seed, run_filename(model, lam, method, g, seed)


def emit_csv(table: ResultTable, out_dir) -> list[Path]:
    """One CSV per run plus winners.csv and metadata.json.

    A run CSV has one column per :class:`EpochRecord` field; floats use
    17-significant-digit scientific notation, so parsing the files back
    reproduces every record exactly.  metadata.json is the table's metadata
    plus its references and, under each run CSV's name, that file's record
    count.

    First, winners.csv is deleted and, if the directory holds a well formed
    metadata.json, every run CSV it names and every figure of its lambdas,
    in that order; no other file is touched.  Then metadata.json is
    written, before the run CSVs and winners.csv, so an interrupted write
    leaves a manifest that names every file it would have written and its
    record count: ``load_table`` fails on a file missing or cut short, and
    the next run deletes them.
    """
    if not table.rows:
        raise ValueError("empty result table")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model = table.metadata["model"]
    meta_path = out / "metadata.json"

    try:
        cells = list(_cells(json.loads(meta_path.read_text())))
    except (OSError, ValueError, KeyError, TypeError):
        cells = []      # a missing or malformed manifest deletes nothing
    # one fixed order, the manifest's, so a failed unlink leaves the same
    # files on every run
    figures = [_figure_name(stem, lam) for lam, *_ in cells for stem, *_ in _FIGURES]
    for name in dict.fromkeys(["winners.csv", *(name for *_, name in cells), *figures]):
        (out / name).unlink(missing_ok=True)

    names = [run_filename(model, row.lam, row.method, row.step_param, row.seed)
             for row in table.rows]
    meta = dict(table.metadata)
    meta["references"] = {_fmt_float(lam): _fmt_float(f) for lam, f in sorted(table.references.items())}
    meta["records"] = {name: len(row.records) for name, row in zip(names, table.rows)}
    meta_path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")

    paths = []
    for name, row in zip(names, table.rows):
        path = out / name
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
    return paths + [winners_path, meta_path]


def parse_run_csv(path) -> list[EpochRecord]:
    """The records of a run CSV; a file whose last line has no newline may
    be cut short inside a record, so it raises ValueError."""
    text = Path(path).read_text()
    if not text.endswith("\n"):
        raise ValueError(f"{path}: no newline at the end")
    lines = text.strip().splitlines()
    if lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: unexpected CSV header {lines[0]!r}")
    records = []
    for line in lines[1:]:
        values = [kind(tok) for kind, tok in zip(_RECORD_TYPES, line.split(","), strict=True)]
        records.append(EpochRecord(*values))
    return records


def load_table(out_dir) -> ResultTable:
    """Rebuild a ResultTable from a directory written by emit_csv.

    That is metadata.json, the manifest, the run CSV of each cell it names
    (see :func:`_cells`), and one line per (method, lambda) in winners.csv
    with a step of the grid.  A file missing or malformed, or a run CSV
    whose record count is not the one the manifest records for it (a file
    cut short), raises :class:`DataSourceError` naming it, so a directory
    reads back whole or not at all.  The references and the counts are not
    kept in the table's metadata.
    """
    out = Path(out_dir)
    path = out / "metadata.json"    # the file being read, for the error
    try:
        meta = json.loads(path.read_text())
        references = {float(k): float(v) for k, v in meta.pop("references").items()}
        counts = meta.pop("records")
        table = ResultTable(metadata=meta, references=references)
        epochs = meta["epochs"]

        for lam, method, g, seed, name in _cells(meta):
            path = out / name
            records = parse_run_csv(path)
            if len(records) != counts[name]:
                raise ValueError(f"record count {len(records)}, the manifest's {counts[name]}")
            table.rows.append(RunRow(method, lam, g, seed, records, len(records) < epochs))

        path = out / "winners.csv"
        lines = path.read_text().strip().splitlines()[1:]
        for line in lines:
            f = line.split(",")
            table.winners[(f[0], float(f[1]))] = float(f[2])
        cells = list(product(meta["methods"], map(float, meta["lambdas"])))
        if len(lines) != len(cells) or not all(table.winner_rows(*cell) for cell in cells):
            raise ValueError("not one line per (method, lambda) with a step of the grid")
    except (OSError, ValueError, KeyError, TypeError, IndexError) as err:
        raise DataSourceError(f"{path} is malformed: {type(err).__name__}: {err}") from err
    return table


# -- figures -------------------------------------------------------------------

# each figure: file stem, title, axis labels, EpochRecord fields on x and y
_FIGURES = (
    ("gap_vs_epoch", "optimality gap vs epoch", "epoch", "optimality gap", "epoch", "gap"),
    ("gap_vs_time", "optimality gap vs wall time", "wall time (s)", "optimality gap",
     "wall_time", "gap"),
    ("variance_vs_epoch", "direction variance vs epoch", "epoch", "variance",
     "epoch", "variance"),
)


def _figure_name(stem: str, lam: float) -> str:
    """The file name of figure ``stem`` (a ``_FIGURES`` stem) at lambda."""
    token = _param_token(lam).replace("-", "m").replace(".", "p")
    return f"{stem}_lam{token}.svg"


def emit_plots(table: ResultTable, out_dir) -> list[Path]:
    """Gap-vs-epoch, gap-vs-time and variance-vs-epoch SVGs per lambda.

    One series per (method, lambda) winner, seeds overlaid.  Output bytes
    are a pure function of the table contents.  A figure with no positive
    data is skipped, and an earlier run's file of its name deleted.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model = table.metadata["model"]
    paths = []

    for lam in sorted({row.lam for row in table.rows}):
        curves = []     # (label, records), one per winning run
        for method in table.metadata["methods"]:
            rows = sorted(table.winner_rows(method, lam), key=attrgetter("seed"))
            curves += [(method if len(rows) == 1 else f"{method} (seed {row.seed})",
                        row.records) for row in rows]

        for stem, title, xlabel, ylabel, x, y in _FIGURES:
            path = out / _figure_name(stem, lam)
            series = [(label, [getattr(rec, x) for rec in records],
                       [getattr(rec, y) for rec in records]) for label, records in curves]
            svg = svgplot.line_chart(series, f"{title} ({model}, lambda={lam:g})",
                                     xlabel, ylabel)
            if svg is None:
                print(f"emit_plots: no positive data for {path.name}, skipped")
                path.unlink(missing_ok=True)
                continue
            path.write_text(svg)
            paths.append(path)
    return paths
