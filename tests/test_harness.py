"""emit_csv -> load_table is exact, whatever floats the telemetry holds."""

import dataclasses
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vrgrad.harness import (ExperimentSpec, ResultTable, RunRow, emit_csv, load_table,
                            parse_run_csv, run_experiment)
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
                                     "references"}
    assert (meta["n"], meta["d"], meta["m"]) == (20, 3, 40)
    for key in spec_keys - {"m"}:
        assert meta[key] == json.loads(json.dumps(getattr(spec, key))), key
    assert load_table(out).metadata == {k: v for k, v in meta.items() if k != "references"}


def test_a_diverged_run_has_fewer_records_than_epochs(diverging_run):
    spec, table, out = diverging_run
    for rows in (table.rows, load_table(out).rows):
        assert len(rows) == 12
        for row in rows:
            assert row.diverged == (len(row.records) < spec.epochs)
            assert row.diverged or row.step_param != 1e8
        assert [(r.method, r.step_param, r.seed, len(r.records))
                for r in rows if 0 < len(r.records) < spec.epochs] == [("SVRG2", 150.0, 1, 2)]
