"""emit_csv -> load_table is exact, whatever floats the telemetry holds."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from vrgrad.harness import ResultTable, RunRow, emit_csv, load_table
from vrgrad.losses import KINDS
from vrgrad.optimizer import METHODS, EpochRecord

# every float: nan, +-inf, -0.0, subnormals and the extremes included
_ANY = st.one_of(st.floats(), st.sampled_from(
    [float("nan"), float("inf"), -0.0, 5e-324, 1.7976931348623157e308, 0.1, 1 / 3]))
_PARAM = st.floats(min_value=5e-324, max_value=1e300)
_RECORD_FIELDS = ("epoch", "wall_time", "fval", "gap", "variance", "step_size", "grad_evals")


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
