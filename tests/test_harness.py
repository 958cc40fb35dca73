"""emit_csv -> load_table is exact, whatever floats the telemetry holds."""

import dataclasses
import hashlib
import errno
import itertools
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vrgrad.harness import (_FIGURES, DataSourceError, ExperimentSpec, ResultTable, RunRow,
                            _figure_name, emit_csv, emit_plots, load_table, parse_run_csv,
                            run_experiment, run_filename)
from vrgrad.losses import KINDS
from vrgrad.optimizer import METHODS, EpochRecord, RunConfig
from vrgrad.stepsize import constant

# every float: nan, +-inf, -0.0, subnormals and the extremes included
_ANY = st.one_of(st.floats(), st.sampled_from(
    [float("nan"), float("inf"), -0.0, 5e-324, 1.7976931348623157e308, 0.1, 1 / 3]))
_PARAM = st.floats(min_value=5e-324, max_value=1e300)
_RECORD_FIELDS = tuple(f.name for f in dataclasses.fields(EpochRecord))


@st.composite
def tables(draw):
    """A table as run_experiment builds it: every (lambda, method, step,
    seed) cell has a row, and a row with fewer than ``epochs`` records is a
    diverged one."""
    lambdas = draw(st.lists(_PARAM, min_size=1, max_size=2, unique=True))
    methods = draw(st.lists(st.sampled_from(METHODS), min_size=1, max_size=2, unique=True))
    grid = draw(st.lists(_PARAM, min_size=1, max_size=2, unique=True))
    seeds = draw(st.lists(st.integers(0, 9), min_size=1, max_size=2, unique=True))
    epochs = draw(st.integers(0, 3))
    table = ResultTable(metadata={
        "model": draw(st.sampled_from(KINDS)), "epochs": epochs, "lambdas": lambdas,
        "methods": methods, "grid": grid, "seeds": seeds})
    for lam, method, step, seed in itertools.product(lambdas, methods, grid, seeds):
        k = draw(st.integers(0, epochs))
        records = [EpochRecord(epoch=e + 1, fval=draw(_ANY), gap=draw(_ANY),
                               wall_time=draw(_ANY), variance=draw(_ANY),
                               step_size=draw(_ANY), grad_evals=draw(st.integers(0, 2**62)))
                   for e in range(k)]
        table.rows.append(RunRow(method, lam, step, seed, records, diverged=k < epochs))
    for lam, method in itertools.product(lambdas, methods):
        table.winners[(method, lam)] = draw(st.sampled_from(grid))
        table.references[lam] = draw(_ANY)
    return table


def _bits(table):
    """Everything a table holds, with each float as its hex form (nan == nan)."""
    def fl(x):
        return float(x).hex()

    rows = sorted((r.method, fl(r.lam), fl(r.step_param), r.seed, r.diverged,
                   [tuple(fl(getattr(rec, f)) for f in _RECORD_FIELDS) for rec in r.records])
                  for r in table.rows)
    winners = sorted((m, fl(lam), fl(step)) for (m, lam), step in table.winners.items())
    references = sorted((fl(lam), fl(f)) for lam, f in table.references.items())
    return rows, winners, references, table.metadata


@settings(max_examples=60, deadline=None)
@given(tables())
def test_csv_round_trip_is_exact(tmp_path_factory, table):
    out = tmp_path_factory.mktemp("csv")
    emit_csv(table, out)
    assert _bits(load_table(out)) == _bits(table)


# names that share a prefix, a pattern or all but one field with a run CSV's
# or a figure's, which no run writes
_DECOYS = ("run_notes.csv", "gap_vs_epoch_lam0p001_annotated.svg", "notes_lam0p1.svg",
           "run_logistic_lam0.001_SVRG_step0.1_seed007.csv",
           "run_logistic_lam1e-03_SVRG_step0.1_seed0.csv",
           "run_svm_lam0.001_SVRG_step0.1_seed0.csv", "run_logistic_lam0.001_SGD_step0.1_seed0.csv",
           "run_logistic_lam0.001_SVRG_step0.1_seed0.csv.bak",
           "run_logistic_lam0.0010_SVRG_step0.1_seed0.csv", "gap_vs_epoch_lam0p0010.svg",
           "gap_vs_time_lam1e-3.svg", "variance_vs_epoch_lam0.001.svg", "gap_vs_epoch_lamx.svg")


def _figure_names(table):
    return {_figure_name(stem, lam) for lam in table.metadata["lambdas"] for stem, *_ in _FIGURES}


@settings(max_examples=40, deadline=None)
@given(first=tables(), second=tables())
def test_a_second_table_deletes_the_first_one_s_files_and_no_other(tmp_path_factory, first,
                                                                   second):
    out = tmp_path_factory.mktemp("twice")
    emit_csv(first, out)
    for name in _figure_names(first) | set(_DECOYS):
        (out / name).write_text("kept\n")
    written = {path.name for path in emit_csv(second, out)}
    # the first table's figures go at shared lambdas too: the second table
    # may be written without figures
    assert {path.name for path in out.iterdir()} == written | set(_DECOYS)
    assert all((out / name).read_text() == "kept\n" for name in _DECOYS)


def _grid_table(epochs, lam=1e-3):
    """A logistic table at one lambda: SVRG at steps 0.1 and 1, seed 0, each
    run ``epochs`` records long."""
    table = ResultTable(metadata={"model": "logistic", "epochs": epochs, "lambdas": [lam],
                                  "methods": ["SVRG"], "grid": [0.1, 1.0], "seeds": [0]})
    for step in (0.1, 1.0):
        records = [EpochRecord(epoch=e, fval=1.0 + step / e, gap=step / e, wall_time=0.0,
                               variance=0.0, step_size=step, grad_evals=10 * e)
                   for e in range(1, epochs + 1)]
        table.rows.append(RunRow("SVRG", lam, step, 0, records))
    table.winners[("SVRG", lam)] = 0.1
    table.references[lam] = 1.0
    return table


@pytest.mark.parametrize("failing", [run_filename("logistic", 1e-3, "SVRG", 0.1, 0),
                                     run_filename("logistic", 1e-3, "SVRG", 1.0, 0),
                                     "winners.csv"])
@pytest.mark.parametrize("first_lam", [1e-3, 1e-2], ids=["same-cells", "other-cells"])
def test_an_interrupted_emit_reads_back_as_an_error_until_the_next_one(tmp_path, monkeypatch,
                                                                         failing, first_lam):
    # over the same cells with one epoch more: before, load_table read the
    # old files beside the new ones back as one table.  Over other cells, the
    # next emit deletes what the interrupted one wrote
    emit_csv(_grid_table(2, first_lam), tmp_path)
    write_text = Path.write_text

    def write_or_fail(path, *args, **kwargs):
        if path.name == failing:
            raise OSError(errno.ENOSPC, "No space left on device", str(path))
        return write_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", write_or_fail)
    with pytest.raises(OSError):
        emit_csv(_grid_table(3), tmp_path)
    monkeypatch.undo()
    with pytest.raises(DataSourceError, match=f"{failing} is malformed: FileNotFoundError"):
        load_table(tmp_path)
    written = emit_csv(_grid_table(3, 1e-4), tmp_path)
    assert sorted(tmp_path.iterdir()) == sorted(written)
    assert _bits(load_table(tmp_path)) == _bits(_grid_table(3, 1e-4))


@pytest.mark.parametrize("key, value, bait", [
    ("methods", ["../../../x"], "x_step0.1_seed0.csv"),
    ("model", "svm", "out/run_svm_lam0.001_SVRG_step0.1_seed0.csv"),
    ("seeds", ["0"], None),
], ids=["method-outside-the-directory", "unknown-model", "string-seed"])
def test_a_tampered_manifest_deletes_nothing_and_reads_back_as_malformed(tmp_path, key, value,
                                                                         bait):
    out = tmp_path / "out"
    kept = [path for path in emit_csv(_grid_table(2), out) if path.name.startswith("run_")]
    kept.append(out / _figure_name("gap_vs_epoch", 1e-3))
    kept[-1].write_text("kept\n")
    meta = json.loads((out / "metadata.json").read_text())
    meta[key] = value
    (out / "metadata.json").write_text(json.dumps(meta))
    with pytest.raises(DataSourceError, match="metadata.json is malformed"):
        load_table(out)
    if bait:
        (out / "run_logistic_lam0.001_..").mkdir()     # what "../../../x" would pass through
        kept.append(tmp_path / bait)
        kept[-1].write_text("kept\n")
    contents = [path.read_bytes() for path in kept]
    emit_csv(_grid_table(2, lam=1e-4), out)
    assert [path.read_bytes() for path in kept] == contents


def test_steps_equal_to_six_digits_get_files_of_their_own(tmp_path):
    table = ResultTable(metadata={"model": "logistic", "epochs": 1, "lambdas": [1e-3],
                                  "methods": ["SVRG"], "grid": [0.1, 0.1000001], "seeds": [0]})
    for step, fval in ((0.1, 1.0), (0.1000001, 2.0)):
        record = EpochRecord(epoch=1, fval=fval, gap=fval, wall_time=0.0, variance=0.0,
                             step_size=step, grad_evals=10)
        table.rows.append(RunRow("SVRG", 1e-3, step, 0, [record]))
    table.winners[("SVRG", 1e-3)] = 0.1
    assert len(emit_csv(table, tmp_path)) == 4
    assert _bits(load_table(tmp_path)) == _bits(table)


# a run CSV as written before its columns were derived from EpochRecord;
# a reordered, renamed or reformatted field changes these bytes
_GOLDEN_RUN_CSV = (
    "epoch,wall_time_sec,fval,gap,variance,step_size,grad_evals\n"
    "1,5.00000000000000000e-01,nan,-0.00000000000000000e+00,inf,"
    "1.00000000000000006e-01,4611686018427387904\n"
    "2,1.25000000000000000e+00,-inf,4.94065645841246544e-324,nan,"
    "3.33333333333333315e-01,9007199254740993\n")


def test_run_csv_bytes_are_the_golden_file(tmp_path):
    nan, inf = float("nan"), float("inf")
    records = [EpochRecord(epoch=1, wall_time=0.5, fval=nan, gap=-0.0, variance=inf,
                           step_size=0.1, grad_evals=2**62),
               EpochRecord(epoch=2, wall_time=1.25, fval=-inf, gap=5e-324, variance=nan,
                           step_size=1 / 3, grad_evals=2**53 + 1)]
    table = ResultTable(metadata={"model": "logistic", "epochs": 2, "lambdas": [1e-3],
                                  "methods": ["SVRG"], "grid": [0.1], "seeds": [0]})
    table.rows.append(RunRow("SVRG", 1e-3, 0.1, 0, records))
    table.winners[("SVRG", 1e-3)] = 0.1
    path = emit_csv(table, tmp_path)[0]
    assert path.name == "run_logistic_lam0.001_SVRG_step0.1_seed0.csv"
    assert path.read_text() == _GOLDEN_RUN_CSV
    parsed = parse_run_csv(path)
    assert [type(r.grad_evals) for r in parsed] == [int, int]
    assert _bits(load_table(tmp_path)) == _bits(table)


def _figure_table():
    """Two lambdas and three methods, every value fixed, wall time included.
    SVRG2 has two seeds, so its curves are labelled by seed; SVRG2BB's
    winner at 1e-4 stopped after one epoch, and at 1e-4 every variance is 0,
    so that figure is skipped."""
    lambdas, methods, grid = [1e-3, 1e-4], ["SVRG", "SVRG2", "SVRG2BB"], [0.1, 1.0]
    table = ResultTable(metadata={"model": "logistic", "epochs": 3, "lambdas": lambdas,
                                  "methods": methods, "grid": grid, "seeds": [0, 1]})
    for (i, lam), (j, method), step in itertools.product(
            enumerate(lambdas), enumerate(methods), grid):
        for seed in ((0, 1) if method == "SVRG2" else (0,)):
            epochs = 1 if (method, lam) == ("SVRG2BB", 1e-4) else 3
            records = [EpochRecord(
                epoch=e, fval=1.0 + 0.5 ** e, gap=(1 + j + seed) * 10.0 ** (-e - i) / step,
                wall_time=0.125 * e * (j + 1), variance=0.5 ** (e + j) if i == 0 else 0.0,
                step_size=step, grad_evals=60 * e) for e in range(1, epochs + 1)]
            table.rows.append(RunRow(method, lam, step, seed, records, epochs < 3))
    table.winners = {("SVRG", 1e-3): 0.1, ("SVRG", 1e-4): 1.0, ("SVRG2", 1e-3): 1.0,
                     ("SVRG2", 1e-4): 0.1, ("SVRG2BB", 1e-3): 0.1, ("SVRG2BB", 1e-4): 1.0}
    return table


# SHA-256 of each figure of _figure_table, as written before the figures were
# declared in one table; a changed title, label, axis field or order moves them
_GOLDEN_FIGURES = {
    "gap_vs_epoch_lam0p0001.svg":
        "a9050fb8e303c61e1aaa1ed30e782f8e819a8a5d5c68ff993579b67cd83a7624",
    "gap_vs_time_lam0p0001.svg":
        "1c813898bbca1efe87b9d431ca3d5c61820880012d0ad7322d0c5de5f9f4918e",
    "gap_vs_epoch_lam0p001.svg":
        "30f90e7529bf0c4046fad9e7db97a2eaa639059a055c44b0a83bae9badcdc4ec",
    "gap_vs_time_lam0p001.svg":
        "1c68b8391878546539e6f00f7062c4c469833964fe51514fb4f50bc84d4d9148",
    "variance_vs_epoch_lam0p001.svg":
        "eb81e8177c31592295c34e33a8b7917629d15a707a1b97944aef4e3537d8887a",
}


def test_figure_bytes_are_the_golden_files(tmp_path, capsys):
    paths = emit_plots(_figure_table(), tmp_path)
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths} \
        == _GOLDEN_FIGURES
    assert [p.name for p in paths] == list(_GOLDEN_FIGURES)
    assert "variance_vs_epoch_lam0p0001.svg, skipped" in capsys.readouterr().out


def test_a_skipped_figure_deletes_an_earlier_file_of_its_name(tmp_path, capsys):
    stale = tmp_path / "variance_vs_epoch_lam0p0001.svg"
    stale.write_text("<svg/>\n")
    paths = emit_plots(_figure_table(), tmp_path)
    assert not stale.exists() and stale not in paths
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(_GOLDEN_FIGURES)


def test_run_csv_row_with_a_missing_column_is_rejected(tmp_path):
    path = tmp_path / "run.csv"
    path.write_text(_GOLDEN_RUN_CSV.rsplit(",", 1)[0] + "\n")
    with pytest.raises(ValueError):
        parse_run_csv(path)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_spec_rejects_a_reference_tol_outside_the_positive_reals(tol):
    with pytest.raises(ValueError, match="reference_tol"):
        ExperimentSpec(reference_tol=tol)


def test_mean_gap_is_the_winner_s_gap_averaged_over_seeds():
    table = ResultTable()
    for step, seed, gap in ((0.1, 0, 4.0), (0.1, 1, 1.0), (0.1, 2, 2.5), (1.0, 0, 3.0)):
        record = EpochRecord(epoch=1, fval=gap, gap=gap, wall_time=0.0, variance=0.0,
                             step_size=step, grad_evals=1)
        table.rows.append(RunRow("SVRG", 1e-3, step, seed, [record]))
    table.rows.append(RunRow("SVRG", 1e-3, 1.0, 1, [], diverged=True))
    table.winners[("SVRG", 1e-3)] = 0.1
    assert table.mean_gap("SVRG", 1e-3) == 2.5
    assert table.mean_gap("SVRG", 1e-3, 1.0) == float("inf")


@pytest.mark.parametrize("given, message", [
    ({"m": 0}, "m must be >= 1"),
    ({"synth": (0, 5, 0)}, "synth"), ({"synth": (5, 0, 0)}, "synth"),
    ({"synth": (5, 5, -1)}, "synth"), ({"synth": (5, 5, 0, float("nan"))}, "synth"),
    ({"model": "huber"}, "unknown loss kind 'huber'"),
    ({"anchor_option": 3}, "anchor_option must be 1 or 2"),
    ({"variance_mode": "all"}, "variance_mode must be 'last' or 'none'"),
    ({"epochs": 0}, "an experiment needs epochs >= 1, got 0"),
])
def test_spec_rejects_a_value_before_any_data_is_loaded(given, message):
    # before, these failed only inside run_experiment, after loading data
    with pytest.raises(ValueError, match=message):
        ExperimentSpec(**given)


@pytest.mark.parametrize("option, value", [
    ("method", "SAGA"), ("epochs", -1), ("m", 0), ("anchor_option", 3),
    ("variance_mode", "all"),
])
def test_run_config_and_spec_reject_a_run_option_with_one_message(option, value):
    given = {"methods": (value,)} if option == "method" else {option: value}
    with pytest.raises(ValueError) as spec_error:
        ExperimentSpec(**given)
    with pytest.raises(ValueError) as config_error:
        RunConfig(**{"method": "SVRG", "schedule": constant(0.1), "epochs": 1, option: value})
    assert str(config_error.value) == str(spec_error.value)


def test_spec_maps_a_loss_alias_to_its_kind():
    assert ExperimentSpec(model="svm").model == "squared_hinge"
    assert ExperimentSpec(model="lr") == ExperimentSpec(model="logistic")


def test_spec_holds_lambdas_and_grid_as_tuples_of_floats():
    spec = ExperimentSpec(lambdas=[1, 0], grid=[2, 0.5])
    assert spec.lambdas == (1.0, 0.0) and spec.grid == (2.0, 0.5)
    assert all(type(x) is float for x in spec.lambdas + spec.grid)


@pytest.fixture(scope="module")
def diverging_run(tmp_path_factory):
    """A small run whose step 1e8 diverges at once, and SVRG2's step 150
    with seed 1 in its third epoch; and the directory it was written to."""
    out = tmp_path_factory.mktemp("run")
    spec = ExperimentSpec(synth=(20, 3, 0), lambdas=(1e-2,), methods=("SVRG", "SVRG2"),
                          grid=(0.1, 150.0, 1e8), epochs=3, seeds=(0, 1), out_dir=str(out))
    table = run_experiment(spec)
    emit_csv(table, out)
    return spec, table, out


def test_metadata_json_is_the_spec(diverging_run):
    spec, table, out = diverging_run
    meta = json.loads((out / "metadata.json").read_text())
    spec_keys = {f.name for f in dataclasses.fields(ExperimentSpec)} - {"out_dir"}
    assert set(meta) == spec_keys | {"format", "n", "d", "generalized_bb_eta0", "decay_c2",
                                     "references", "records"}
    assert (meta["format"], meta["n"], meta["d"], meta["m"]) == (2, 20, 3, 40)
    for key in spec_keys - {"m"}:
        assert meta[key] == json.loads(json.dumps(getattr(spec, key))), key
    assert meta["records"] == {
        run_filename("logistic", r.lam, r.method, r.step_param, r.seed): len(r.records)
        for r in table.rows}
    assert load_table(out).metadata == {k: v for k, v in meta.items()
                                        if k not in ("references", "records")}


def _one_run(out):
    """Emit a 2-epoch SVRG run into ``out``; returns its run CSV."""
    spec = ExperimentSpec(synth=(20, 3, 0), lambdas=(1e-2,), grid=(0.1,), epochs=2,
                          out_dir=str(out))
    emit_csv(run_experiment(spec), out)
    return out / "run_logistic_lam0.01_SVRG_step0.1_seed0.csv"


@pytest.mark.parametrize("change", [-1, 1])
def test_a_run_csv_whose_record_count_is_not_the_manifest_s_is_malformed(tmp_path, change):
    path = _one_run(tmp_path)
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["records"] == {path.name: 2}
    meta["records"][path.name] += change
    (tmp_path / "metadata.json").write_text(json.dumps(meta))
    message = f"{path} is malformed: ValueError: record count 2, the manifest's {2 + change}"
    with pytest.raises(DataSourceError, match=re.escape(message)):
        load_table(tmp_path)


@pytest.mark.parametrize("cut", [1, 2, 3])
def test_a_run_csv_cut_inside_its_last_record_is_malformed(tmp_path, cut):
    # the newline alone, or digits of the last grad_evals, 200, whose rest
    # still parses; the record count is still the manifest's
    path = _one_run(tmp_path)
    assert path.read_text().endswith(",200\n")
    path.write_bytes(path.read_bytes()[:-cut])
    assert len(path.read_text().splitlines()) == 3
    with pytest.raises(DataSourceError, match=re.escape(f"{path}: no newline at the end")):
        load_table(tmp_path)


def test_a_diverged_run_has_fewer_records_than_epochs(diverging_run):
    spec, table, out = diverging_run
    for rows in (table.rows, load_table(out).rows):
        assert len(rows) == 12
        for row in rows:
            assert row.diverged == (len(row.records) < spec.epochs)
            assert row.diverged or row.step_param != 1e8
        assert [(r.method, r.step_param, r.seed, len(r.records))
                for r in rows if 0 < len(r.records) < spec.epochs] == [("SVRG2", 150.0, 1, 2)]
