"""The ``vrgrad`` command line end to end, in-process through
:func:`vrgrad.cli.main`.

The tier-1 suite is the one home of the CLI's end-to-end checks: CI runs the
installed ``vrgrad`` script once, only to see that it resolves, so a new
check goes here (or into the tests of the layer it reaches), not into
``.github/workflows/tests.yml``.
"""

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import vrgrad
import vrgrad.optimizer as optimizer
from vrgrad.cli import _RUN_FIELDS, _spec_from_args, build_parser, main
from vrgrad.data import synth_binary, write_libsvm
from vrgrad.harness import ExperimentSpec, load_table
from vrgrad.optimizer import (_AffineIterate, _DenseIterate, _DiagIterate, _FormedHessIterate,
                              _GramIterate)
from vrgrad.reference import CACHE_ENV_VAR, load_reference


def test_run_rejects_the_removed_step_flag(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["run", "--synth", "20,3,0", "--epochs", "1", "--out", str(tmp_path),
              "--step", "constant:0.1", "--step", "epochbb:0.01"])
    assert err.value.code == 2
    assert not any(tmp_path.iterdir())


def test_run_grid_pins_the_step_values(tmp_path):
    out = tmp_path / "results"
    code = main(["run", "--synth", "20,3,0", "--epochs", "2", "--lambda", "1e-2",
                 "--methods", "SVRG,SVRGBB", "--grid", "0.1",
                 "--out", str(out), "--cache-dir", str(tmp_path / "cache")])
    assert code == 0
    table = load_table(out)
    assert {(r.method, r.step_param) for r in table.rows} == {("SVRG", 0.1), ("SVRGBB", 0.1)}


def _metadata(out):
    return json.loads((out / "metadata.json").read_text())


@pytest.mark.parametrize("flag, m", [("100", 100), ("2n", 40)])
def test_run_m_flag_reaches_the_run(tmp_path, flag, m):
    out = tmp_path / "results"
    code = main(["run", "--synth", "20,3,0", "--epochs", "1", "--lambda", "1e-2",
                 "--grid", "0.1", "--m", flag, "--out", str(out),
                 "--cache-dir", str(tmp_path / "cache")])
    assert code == 0
    meta = _metadata(out)
    assert meta["m"] == m
    assert "variance_enum_cap" not in meta and "variance_samples" not in meta


def test_run_m_below_one_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["run", "--synth", "20,3,0", "--epochs", "1", "--m", "0",
              "--out", str(tmp_path)])
    assert err.value.code == 2
    assert "m must be >= 1" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_spec_file_m_below_one_is_a_usage_error(tmp_path, capsys):
    spec = tmp_path / "spec.txt"
    spec.write_text("synth = 20,3,0\nepochs = 1\nm = 0\n")
    with pytest.raises(SystemExit) as err:
        main(["run", "--spec", str(spec), "--out", str(tmp_path / "results")])
    assert err.value.code == 2
    assert "m must be >= 1" in capsys.readouterr().err


def test_reference_needs_data_or_synth(capsys):
    with pytest.raises(SystemExit) as err:
        main(["reference", "--lambda", "1e-2"])
    assert err.value.code == 2
    assert "--data" in capsys.readouterr().err
    with pytest.raises(SystemExit) as err:
        main(["reference", "--lambda", "1e-2", "--synth", "20,3,0", "--data", "x.svm"])
    assert err.value.code == 2


def test_run_methods_flag_strips_names_and_drops_empty_items(tmp_path):
    out = tmp_path / "results"
    code = main(["run", "--synth", "20,3,0", "--epochs", "1", "--lambda", "1e-2",
                 "--methods", "SVRG, SVRG2,", "--grid", "0.1", "--out", str(out),
                 "--cache-dir", str(tmp_path / "cache")])
    assert code == 0
    assert {r.method for r in load_table(out).rows} == {"SVRG", "SVRG2"}


@pytest.mark.parametrize("key, text, field, want", [
    ("lambda", " 1e-2 ,, 1e-3,", "lambdas", (1e-2, 1e-3)),
    ("grid", ",0.5 , 2", "grid", (0.5, 2.0)),
    ("seeds", " 3, ,1 ", "seeds", (3, 1)),
    ("methods", "SVRG , ,SVRG2BB,", "methods", ("SVRG", "SVRG2BB")),
])
def test_list_values_drop_blanks_and_empty_items(tmp_path, key, text, field, want):
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text(f"{key} = {text}\n")
    for argv in (["run", f"--{key}", text], ["run", "--spec", str(spec_file)]):
        assert getattr(_spec_from_args(build_parser().parse_args(argv)), field) == want


@pytest.mark.parametrize("flag, text", [("--lambda", "1e-2,x"), ("--grid", "0.1,,1e"),
                                        ("--seeds", "0, 1.5"), ("--m", "abc"),
                                        ("--synth", "x,2,3")])
def test_a_bad_list_item_is_a_usage_error_naming_its_flag(tmp_path, capsys, flag, text):
    # the message names the flag and the value's form, not a private converter
    out = tmp_path / "results"
    with pytest.raises(SystemExit) as err:
        main(["run", "--synth", "20,3,0", flag, text, "--out", str(out)])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert f"argument {flag}: invalid" in stderr
    assert "_parse" not in stderr
    assert not out.exists()


@pytest.mark.parametrize("via_spec", [False, True])
def test_unknown_method_is_a_usage_error(tmp_path, capsys, via_spec):
    argv = ["run", "--synth", "20,3,0", "--epochs", "1", "--out", str(tmp_path / "results")]
    if via_spec:
        spec = tmp_path / "spec.txt"
        spec.write_text("methods = SVRG, FOO\n")
        argv += ["--spec", str(spec)]
    else:
        argv += ["--methods", "SVRG, FOO"]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "unknown method 'FOO'" in capsys.readouterr().err


def test_run_flag_overrides_the_spec_file(tmp_path):
    # --m 2n is given, so the spec file's m = 7 does not apply
    spec = tmp_path / "spec.txt"
    spec.write_text("synth = 20,3,0\nepochs = 1\nlambda = 1e-2\ngrid = 0.1\nm = 7\n")
    out = tmp_path / "results"
    code = main(["run", "--spec", str(spec), "--m", "2n", "--out", str(out),
                 "--cache-dir", str(tmp_path / "cache")])
    assert code == 0
    assert _metadata(out)["m"] == 40


def test_run_defaults_are_the_experiment_spec_defaults():
    assert _spec_from_args(build_parser().parse_args(["run"])) == ExperimentSpec()


@pytest.mark.parametrize("name, kind", [("squared_hinge", "squared_hinge"),
                                        ("svm", "squared_hinge"), ("lr", "logistic")])
def test_run_model_takes_every_kind_and_alias(tmp_path, name, kind):
    out = tmp_path / "results"
    code = main(["run", "--synth", "20,3,0", "--epochs", "1", "--lambda", "1e-2",
                 "--grid", "0.1", "--model", name, "--out", str(out),
                 "--cache-dir", str(tmp_path / "cache")])
    assert code == 0
    assert _metadata(out)["model"] == kind


def test_reference_model_takes_an_alias(capsys):
    assert main(["reference", "--synth", "20,3,0", "--lambda", "1e-2", "--model", "lr"]) == 0
    assert "f_star=" in capsys.readouterr().out
    with pytest.raises(SystemExit) as err:
        main(["reference", "--synth", "20,3,0", "--lambda", "1e-2", "--model", "huber"])
    assert err.value.code == 2


def _run_usage_error(tmp_path, key, value, via_spec):
    """Exit code of ``run`` given key = value; the data file does
    not exist, so a run that loaded data would exit 3."""
    argv = ["run", "--data", str(tmp_path / "missing.svm"), "--out", str(tmp_path / "out")]
    if via_spec:
        spec = tmp_path / "spec.txt"
        spec.write_text(f"{key} = {value}\n")
        argv += ["--spec", str(spec)]
    else:
        argv += [f"--{key}", value]
    with pytest.raises(SystemExit) as err:
        main(argv)
    return err.value.code


@pytest.mark.parametrize("via_spec", [False, True])
def test_unknown_model_is_a_usage_error(tmp_path, capsys, via_spec):
    assert _run_usage_error(tmp_path, "model", "huber", via_spec) == 2
    assert "unknown loss kind 'huber'" in capsys.readouterr().err


@pytest.mark.parametrize("via_spec", [False, True])
@pytest.mark.parametrize("key, value, message", [
    ("grid", "nan,inf", "grid value"), ("grid", "-1", "grid value"),
    ("lambda", "nan", "lambda"), ("lambda", "-1", "lambda"), ("lambda", "inf", "lambda"),
    ("epochs", "-1", "epochs"), ("epochs", "0", "epochs >= 1"),
    ("subsample", "0", "subsample"), ("subsample", "-5", "subsample"),
    ("grid", ",", "grid list must be non-empty"), ("grid", "", "grid list must be non-empty"),
    ("seeds", ",", "seed list must be non-empty"), ("seeds", "-1", "seed must be >= 0"),
    ("seeds", "0,-3", "seed must be >= 0"),
    ("synth", "0,3,0", "synth"), ("synth", "50,0,0", "synth"), ("synth", "50,3,-1", "synth"),
    ("synth", "50,3,0,nan", "synth"), ("synth", "50,3,0,inf", "synth"),
    ("grid", "0.1,1,0.1", "grid list repeats 0.1"), ("seeds", "0,0", "seed list repeats 0"),
    ("lambda", "1e-2,0.01", "lambda list repeats 0.01"),
    ("methods", "SVRG,SVRG2,SVRG", "method list repeats SVRG"),
])
def test_out_of_range_values_are_usage_errors(tmp_path, capsys, via_spec, key, value, message):
    assert _run_usage_error(tmp_path, key, value, via_spec) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["maybe", "2", "on", "y"])
def test_spec_file_scale_takes_only_yes_or_no_words(tmp_path, capsys, value):
    assert _run_usage_error(tmp_path, "scale", value, via_spec=True) == 2
    assert "spec file scale" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value, scale", [("1", True), ("TRUE", True), ("Yes", True),
                                          ("0", False), ("false", False), ("NO", False)])
def test_spec_file_scale_words_are_case_insensitive(tmp_path, value, scale):
    spec = tmp_path / "spec.txt"
    spec.write_text(f"scale = {value}\n")
    args = build_parser().parse_args(["run", "--spec", str(spec)])
    assert _spec_from_args(args).scale_features is scale


# a text for every run flag; the scale key's text stands for the bare --scale switch
_FLAG_TEXTS = {
    "data": "train.svm", "synth": "50,3,1,0.5", "model": "svm", "lambda": "1e-2,1e-3",
    "methods": "SVRG, SVRG2BBS-M2", "grid": "0.1,1", "epochs": "3", "m": "7",
    "seeds": "1,2", "out": "results-dir", "scale": "yes", "subsample": "10",
}


@pytest.mark.parametrize("key", [key for key, _, _ in _RUN_FIELDS.values()])
def test_flag_and_spec_line_build_the_same_spec(tmp_path, key):
    text = _FLAG_TEXTS[key]
    flag = [f"--{key}"] if key == "scale" else [f"--{key}", text]
    spec = tmp_path / "spec.txt"
    spec.write_text(f"{key} = {text}\n")
    parser = build_parser()
    from_flag = _spec_from_args(parser.parse_args(["run", *flag]))
    from_spec = _spec_from_args(parser.parse_args(["run", "--spec", str(spec)]))
    assert from_flag == from_spec
    assert from_flag != ExperimentSpec()


@pytest.mark.parametrize("argv", [
    ["run", "--epochs", "1", "--lambda", "1e-2", "--grid", "0.1"],
    ["reference", "--lambda", "1e-2"],
])
def test_labels_outside_plus_minus_one_are_a_data_error(tmp_path, capsys, argv):
    data = tmp_path / "zero_one.svm"
    data.write_text("0 1:0.5 2:1\n1 1:-1 2:0.25\n1 2:2\n")
    argv = argv + ["--data", str(data)]
    if argv[0] == "run":
        argv += ["--out", str(tmp_path / "out"), "--cache-dir", str(tmp_path / "cache")]
    assert main(argv) == 3
    assert "data error: classification labels must be in {-1, +1}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["epoch", "lambdas", "seed", "step"])
def test_unknown_spec_file_key_is_a_usage_error(tmp_path, capsys, key):
    # before, such a line was ignored: ``epoch = 3`` ran 30 epochs
    assert _run_usage_error(tmp_path, key, "3", via_spec=True) == 2
    assert f"unknown spec file key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_spec_file_line_without_equals_is_a_usage_error(tmp_path, capsys):
    spec = tmp_path / "spec.txt"
    spec.write_text("synth = 20,3,0\nepochs\n")
    with pytest.raises(SystemExit) as err:
        main(["run", "--spec", str(spec), "--out", str(tmp_path / "results")])
    assert err.value.code == 2
    assert "without '='" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("flag, value", [
    ("--lambda", "nan"), ("--lambda", "-1"), ("--lambda", "inf"),
    ("--tol", "0"), ("--tol", "-1"), ("--tol", "nan"), ("--tol", "inf"),
    ("--synth", "0,3,0"), ("--synth", "50,0,0"), ("--synth", "50,3,-1"),
    ("--synth", "50,3,0,nan"), ("--synth", "50,3,0,-inf"),
])
def test_reference_out_of_range_values_are_usage_errors(capsys, flag, value):
    argv = ["reference", "--synth", "20,3,0", "--lambda", "1e-2", flag, value]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert flag.lstrip("-") in capsys.readouterr().err


@pytest.mark.parametrize("lines", [["epochs = 3", "epochs = 5"],
                                   ["epochs = 3", "# a comment", "Epochs = 3"]])
def test_repeated_spec_file_key_is_a_usage_error(tmp_path, capsys, lines):
    # before, the last line won: epochs = 3 then epochs = 5 ran 5 epochs
    spec = tmp_path / "spec.txt"
    spec.write_text("synth = 20,3,0\n" + "\n".join(lines) + "\n")
    with pytest.raises(SystemExit) as err:
        main(["run", "--spec", str(spec), "--out", str(tmp_path / "results")])
    assert err.value.code == 2
    assert "spec file repeats key 'epochs'" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


def test_run_prints_the_winner_s_gap_that_winners_csv_records(tmp_path, capsys):
    # the winner is chosen by the gap averaged over seeds; the printed gap
    # was the least over seeds
    out = tmp_path / "results"
    code = main(["run", "--synth", "80,5,0", "--methods", "SVRG", "--lambda", "1e-3",
                 "--grid", "0.5,0.05", "--seeds", "0,1,2", "--epochs", "3",
                 "--out", str(out), "--cache-dir", str(tmp_path / "cache")])
    assert code == 0
    printed = capsys.readouterr().out
    header, row = (out / "winners.csv").read_text().splitlines()
    gap = float(dict(zip(header.split(","), row.split(",")))["final_gap"])
    table = load_table(out)
    rows = table.winner_rows("SVRG", 1e-3)
    assert sorted(r.seed for r in rows) == [0, 1, 2]
    assert len({r.final_gap() for r in rows}) == 3
    assert gap == sum(r.final_gap() for r in rows) / 3
    assert f"final gap {gap:.3e}" in printed


@pytest.mark.parametrize("grid, every_step_diverged", [("1e8", True), ("1e8,0.1", False)])
def test_run_says_when_every_step_of_a_cell_diverged(tmp_path, capsys, grid,
                                                     every_step_diverged):
    # the winner pick and winners.csv stay: a cell whose every step diverged
    # names its least step, with final gap inf
    out = tmp_path / "results"
    code = main(["run", "--synth", "20,3,0", "--grid", grid, "--epochs", "2",
                 "--out", str(out), "--cache-dir", str(tmp_path / "cache")])
    assert code == 0
    printed = capsys.readouterr().out.splitlines()[1:]
    winners = [row.split(",") for row in (out / "winners.csv").read_text().splitlines()[1:]]
    assert len(printed) == len(winners) == 3
    for line, (method, lam, step, gap, _) in zip(printed, winners):
        assert line.lstrip().startswith(f"{method} lambda={float(lam):g}: ")
        if every_step_diverged:
            assert line.endswith(": every step diverged on some seed")
            assert (float(step), float(gap)) == (1e8, math.inf)
        else:
            assert line.endswith(f": best step 0.1, final gap {float(gap):.3e}")
            assert float(step) == 0.1 and math.isfinite(float(gap))


def test_reference_on_a_missing_file_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "missing.svm"
    assert main(["reference", "--data", str(path), "--lambda", "1e-3"]) == 3
    assert f"data error: cannot read {path}" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["logistic", "squared_hinge"])
def test_reference_on_a_file_matches_the_synthetic_data_it_holds(tmp_path, capsys, model):
    path = tmp_path / "synth.svm"
    path.write_text(write_libsvm(synth_binary(60, 4, 5, 0.8)))
    argv = ["--lambda", "1e-3", "--model", model]
    assert main(["reference", "--synth", "60,4,5,0.8", *argv]) == 0
    from_synth = capsys.readouterr().out
    assert main(["reference", "--data", str(path), *argv]) == 0
    from_file = capsys.readouterr().out
    assert from_synth.startswith("f_star=") and from_file == from_synth


def test_reference_out_writes_the_printed_solution_and_a_second_call_overwrites_it(
        tmp_path, capsys):
    path = tmp_path / "ref.bin"
    for synth, d in (("60,4,5", 4), ("40,3,1", 3)):
        assert main(["reference", "--synth", synth, "--lambda", "1e-3", "--out", str(path)]) == 0
        first, saved = capsys.readouterr().out.splitlines()
        sol = load_reference(path)
        f_star = float(first.split()[0].removeprefix("f_star="))
        assert sol.converged and sol.f_star.hex() == f_star.hex() and sol.w_star.size == d
        assert saved == f"saved to {path}"


@pytest.mark.parametrize("text", ["", "\n  \n\n"])
@pytest.mark.parametrize("command", ["run", "reference"])
def test_a_data_file_without_a_sample_is_a_data_error(tmp_path, capsys, text, command):
    # before, this exited 1 with "dataset must contain at least one sample"
    data = tmp_path / "empty.svm"
    data.write_text(text)
    argv = [command, "--data", str(data), "--lambda", "1e-2"]
    if command == "run":
        argv += ["--out", str(tmp_path / "out"), "--cache-dir", str(tmp_path / "cache")]
    assert main(argv) == 3
    assert f"data error: {data} holds no sample" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_svrg2bbs_with_every_row_empty_and_lambda_0_is_an_error(tmp_path, capsys):
    # L = 0, so the presets' first step 1/L does not exist; before, this
    # ended in a ZeroDivisionError traceback
    data = tmp_path / "empty_rows.svm"
    data.write_text("+1\n-1\n+1 \n")
    argv = ["run", "--data", str(data), "--methods", "SVRG2BBS-M2,SVRGBB", "--lambda", "0",
            "--out", str(tmp_path / "out"), "--cache-dir", str(tmp_path / "cache")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == ("error: SVRG2BBS-M2 pins its first step to 1/L, and L = 0: "
                   "lambda is 0 and every row's squared norm is 0\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("method", optimizer.METHODS)
def test_every_method_runs_on_data_without_a_feature(tmp_path, method):
    # d = 0: before, SVRG2D took the max of an empty array and exited 1
    data = tmp_path / "no_features.svm"
    data.write_text("+1\n-1\n+1\n")
    argv = ["run", "--data", str(data), "--methods", method, "--lambda", "1e-2",
            "--grid", "0.1", "--epochs", "2", "--out", str(tmp_path / "out"),
            "--cache-dir", str(tmp_path / "cache")]
    assert main(argv) == 0


@pytest.mark.parametrize("content, messages", [
    (b"+1 1:0.5\n-1 \xff:1\n", ["cannot read {path}: ", "codec can't decode byte 0xff"]),
    (f"+1 1:0.5\n-1 {2**70}:1\n".encode(), [f"line 2: index {2**70} above 2**63 - 1"]),
], ids=["byte-0xff", "index-2**70"])
@pytest.mark.parametrize("command", ["run", "reference"])
def test_an_undecodable_or_out_of_range_data_file_is_a_data_error(tmp_path, capsys, command,
                                                                   content, messages):
    # a UnicodeDecodeError is a ValueError, which main maps to exit 1 unless
    # it is taken as a data error
    data = tmp_path / "bad.svm"
    data.write_bytes(content)
    argv = [command, "--data", str(data), "--lambda", "1e-2"]
    if command == "run":
        argv += ["--out", str(tmp_path / "out"), "--cache-dir", str(tmp_path / "cache")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {messages[0].format(path=data)}")
    assert all(message in err for message in messages[1:])
    assert not (tmp_path / "out").exists()


def test_an_undecodable_spec_file_is_a_data_error(tmp_path, capsys):
    # as a missing spec file does
    spec = tmp_path / "spec.txt"
    spec.write_bytes(b"synth = 20,3,0\nepochs = \xff\n")
    assert main(["run", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "codec can't decode byte 0xff" in err
    assert not (tmp_path / "out").exists()


def test_a_second_run_into_a_directory_leaves_none_of_the_first_run_s_files(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    # files outside the layout that emit_csv and emit_plots write stay, those
    # whose names only share a prefix or a pattern with it among them
    others = {"notes.txt", "run_notes.txt", "summary.svg", "gap_vs_epoch.svg", "other.csv",
              "run_notes.csv", "gap_vs_epoch_lam0p001_annotated.svg"}
    for name in others:
        (out / name).write_text("kept\n")
    argv = ["run", "--synth", "50,3,0", "--epochs", "2", "--out", str(out), "--plots"]
    assert main(argv + ["--lambda", "1e-3,1e-4", "--grid", "0.1,1"]) == 0
    assert len({path.name for path in out.glob("run_*.csv")} - others) == 4
    assert len(list(out.glob("*_lam0p0001.svg"))) == 3
    assert main(argv + ["--lambda", "1e-3", "--grid", "0.1"]) == 0
    written = {"run_logistic_lam0.001_SVRG_step0.1_seed0.csv", "winners.csv", "metadata.json",
               "gap_vs_epoch_lam0p001.svg", "gap_vs_time_lam0p001.svg",
               "variance_vs_epoch_lam0p001.svg"}
    assert {path.name for path in out.iterdir()} == written | others
    assert all((out / name).read_text() == "kept\n" for name in others)
    assert load_table(out).metadata["lambdas"] == [1e-3]
    # plot --from rewrites the run's figures from its CSVs, the same bytes
    figures = {name: (out / name).read_bytes() for name in written if name.endswith(".svg")}
    assert main(["plot", "--from", str(out)]) == 0
    assert {name: (out / name).read_bytes() for name in figures} == figures
    assert {path.name for path in out.iterdir()} == written | others


def test_a_run_without_plots_deletes_an_earlier_run_s_figures(tmp_path):
    # before, the first run's figures of lambda 1e-3 stayed beside a
    # winners.csv that they do not show
    out = tmp_path / "out"
    argv = ["run", "--synth", "50,3,0", "--lambda", "1e-3", "--epochs", "2", "--out", str(out),
            "--cache-dir", str(tmp_path / "cache")]
    assert main(argv + ["--grid", "0.1,1", "--plots"]) == 0
    assert len(list(out.glob("*.svg"))) == 3
    assert main(argv + ["--grid", "0.01"]) == 0
    assert sorted(path.name for path in out.iterdir()) == [
        "metadata.json", "run_logistic_lam0.001_SVRG_step0.01_seed0.csv", "winners.csv"]


@pytest.mark.parametrize("step, earlier, code", [("1", False, 0), ("0.1", False, 3),
                                                 ("0.1", True, 3)],
                         ids=["not-written", "written", "named-by-the-earlier-run"])
def test_a_directory_named_like_a_run_csv(tmp_path, capsys, step, earlier, code):
    # is left alone, or is a one-line data error when the run would write
    # or delete a file of its name; before, both ended in a traceback
    out = tmp_path / "out"
    argv = ["run", "--synth", "50,3,0", "--lambda", "1e-3", "--grid", "0.1", "--epochs", "2",
            "--out", str(out), "--cache-dir", str(tmp_path / "cache")]
    blocker = out / f"run_logistic_lam0.001_SVRG_step{step}_seed0.csv"
    if earlier:
        assert main(argv) == 0
        blocker.unlink()
    blocker.mkdir(parents=True)
    capsys.readouterr()
    assert main(argv) == code
    assert blocker.is_dir()
    err = capsys.readouterr().err
    if code:
        assert err.startswith("data error: ") and err.count("\n") == 1 and str(blocker) in err


def test_a_failed_deletion_leaves_the_same_files_whatever_the_hash_seed(tmp_path):
    # before, the stale names were deleted in the order of a set of strings,
    # so the files left beside the one that could not be deleted depended
    # on PYTHONHASHSEED
    first = tmp_path / "first"
    assert main(["run", "--synth", "50,3,0", "--lambda", "1e-3,1e-4", "--grid", "0.1,1",
                 "--epochs", "2", "--out", str(first), "--plots"]) == 0
    blocker = "run_logistic_lam0.001_SVRG_step0.1_seed0.csv"     # the manifest's first
    (first / blocker).unlink()
    (first / blocker).mkdir()
    env = dict(os.environ, PYTHONPATH=str(Path(vrgrad.__file__).parents[1]))
    left = []
    for seed in ("0", "1"):
        out = tmp_path / f"seed{seed}"
        shutil.copytree(first, out)
        done = subprocess.run(
            [sys.executable, "-m", "vrgrad.cli", "run", "--synth", "50,3,0", "--lambda", "1e-3",
             "--grid", "0.1", "--epochs", "2", "--out", str(out)],
            env=dict(env, PYTHONHASHSEED=seed), capture_output=True, text=True)
        assert done.returncode == 3, done.stderr
        left.append(sorted(path.name for path in out.iterdir()))
    # winners.csv goes first, and the deletion stops at the blocker
    assert left[0] == left[1] == sorted(path.name for path in first.iterdir()
                                        if path.name != "winners.csv")


def _damage_header(out):
    run = next(out.glob("run_*.csv"))
    run.write_text("epoch,fval\n" + run.read_text().split("\n", 1)[1])
    return run


def _damage_row(out):
    run = next(out.glob("run_*.csv"))
    header, row, rest = run.read_text().split("\n", 2)
    run.write_text(f"{header}\n{row},1\n{rest}")
    return run


def _damage_json(out):
    (out / "metadata.json").write_text("{not json")
    return out / "metadata.json"


def _damage_lambdas(out):
    meta = _metadata(out)
    del meta["lambdas"]
    (out / "metadata.json").write_text(json.dumps(meta))
    return out / "metadata.json"


def _drop_run(out):
    run = next(out.glob("run_*.csv"))
    run.unlink()
    return run


def _rewrite_winners(out, edit):
    winners = out / "winners.csv"
    header, row = winners.read_text().splitlines()
    winners.write_text("\n".join([header, *edit(row)]) + "\n")
    return winners


def _drop_winner(out):
    return _rewrite_winners(out, lambda row: [])


def _add_winner(out):
    return _rewrite_winners(out, lambda row: [row, row.replace("SVRG", "SVRG2", 1)])


def _winner_off_the_grid(out):
    return _rewrite_winners(out, lambda row: [row.replace(",1.00000000000000006e-01,",
                                                          ",2.00000000000000011e-01,", 1)])


def _drop_counts(out):
    # a directory written before metadata.json recorded each run's count
    meta = _metadata(out)
    del meta["records"]
    meta["format"] = 1
    (out / "metadata.json").write_text(json.dumps(meta))
    return out / "metadata.json"


def _drop_model(out):
    meta = _metadata(out)
    del meta["model"]
    (out / "metadata.json").write_text(json.dumps(meta))
    return out / "metadata.json"


@pytest.mark.parametrize("damage", [_damage_header, _damage_row, _damage_json, _damage_lambdas,
                                    _drop_run, _drop_winner, _add_winner,
                                    _winner_off_the_grid, _drop_model, _drop_counts])
def test_plot_from_a_damaged_results_directory_is_a_data_error(tmp_path, capsys, damage):
    # before, the first four exited 1, and a missing "lambdas" with a
    # traceback; the last five exited 0 with a curve or a figure left out
    out = tmp_path / "results"
    assert main(["run", "--synth", "20,3,0", "--epochs", "2", "--lambda", "1e-2",
                 "--grid", "0.1", "--out", str(out),
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    path = damage(out)
    capsys.readouterr()
    assert main(["plot", "--from", str(out)]) == 3
    assert f"data error: {path} is malformed" in capsys.readouterr().err


def test_a_run_csv_cut_short_at_a_line_boundary_is_a_data_error(tmp_path, capsys):
    # before, it read back as a run that diverged after its first epoch
    out = tmp_path / "results"
    assert main(["run", "--synth", "50,3,0", "--lambda", "1e-3", "--grid", "0.1",
                 "--epochs", "3", "--out", str(out),
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    run = out / "run_logistic_lam0.001_SVRG_step0.1_seed0.csv"
    header, first, *rest = run.read_text().splitlines()
    assert len(rest) == 2
    run.write_text(f"{header}\n{first}\n")
    capsys.readouterr()
    assert main(["plot", "--from", str(out)]) == 3
    assert capsys.readouterr().err == (f"data error: {run} is malformed: ValueError: "
                                       "record count 1, the manifest's 3\n")


@pytest.mark.parametrize("in_file", [(), ("data", "synth"), ("synth",), ("data",)],
                         ids=["flags", "spec-file", "data-flag-synth-key",
                              "synth-flag-data-key"])
def test_run_rejects_a_second_data_source(tmp_path, capsys, in_file):
    data = tmp_path / "small.svm"
    data.write_text(write_libsvm(synth_binary(4, 3, 0)))
    values = {"data": str(data), "synth": "50,3,0"}
    spec = tmp_path / "spec.txt"
    spec.write_text("".join(f"{key} = {values[key]}\n" for key in in_file))
    out = tmp_path / "results"
    argv = ["run", "--spec", str(spec), "--epochs", "1", "--out", str(out)]
    for key, value in values.items():
        if key not in in_file:
            argv += [f"--{key}", value]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "not both" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["synth", "data", "spec"])
def test_run_metadata_names_its_data(tmp_path, source):
    seeds = [0]
    if source == "synth":
        argv, want = ["--synth", "20,3,0", "--scale"], {"synth": [20, 3, 0], "data_path": None}
    elif source == "data":
        path = tmp_path / "small.svm"
        path.write_text(write_libsvm(synth_binary(20, 3, 0)))
        argv, want = ["--data", str(path), "--scale"], {"synth": None, "data_path": str(path)}
    else:
        # the switch as a spec-file key, and two seeds
        seeds = [0, 1]
        spec = tmp_path / "spec.txt"
        spec.write_text("synth = 20,3,0\nscale = yes\nseeds = 0, 1\n")
        argv, want = ["--spec", str(spec)], {"synth": [20, 3, 0], "data_path": None}
    out = tmp_path / "results"
    code = main(["run", *argv, "--epochs", "1", "--lambda", "1e-2", "--grid", "0.1",
                 "--subsample", "15", "--out", str(out),
                 "--cache-dir", str(tmp_path / "cache")])
    assert code == 0
    meta = _metadata(out)
    assert {key: meta[key] for key in want} == want
    assert (meta["scale_features"], meta["subsample"], meta["reference_tol"], meta["n"],
            meta["seeds"]) == (True, 15, 1e-10, 15, seeds)
    table = load_table(out)
    assert table.metadata == {k: v for k, v in meta.items()
                              if k not in ("references", "records")}
    assert [(r.method, r.step_param, r.seed, len(r.records)) for r in table.rows] \
        == [("SVRG", 0.1, seed, 1) for seed in seeds]


@pytest.mark.parametrize("route", ["env", "flag"])
def test_an_empty_cache_dir_caches_nothing(tmp_path, monkeypatch, route):
    # "" is no cache, not the working directory that Path("") names: a run
    # on a data file, which would cache its parse and its reference, leaves
    # only its output directory and the file
    monkeypatch.chdir(tmp_path)
    Path("small.svm").write_text(write_libsvm(synth_binary(20, 3, 0)))
    argv = ["run", "--data", "small.svm", "--lambda", "1e-2", "--grid", "0.1",
            "--epochs", "1", "--out", "r"]
    if route == "env":
        monkeypatch.setenv(CACHE_ENV_VAR, "")
    else:
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        argv += ["--cache-dir", ""]
    assert main(argv) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == ["r", "small.svm"]
    assert load_table(tmp_path / "r").rows


def _wide_rows() -> str:
    """125 rows over d = 1000, three nonzeros each."""
    return "".join(f"{1 if i % 3 else -1:+d} {i}:0.{i % 9 + 1} {i + 1}:-0.{i % 7 + 1} {8 * i}:1\n"
                   for i in range(1, 126))


def _mixed_rows() -> str:
    """60 rows over d = 6: every third full, the others two nonzeros each."""
    return "".join(
        f"{1 if i % 4 else -1:+d} 1:0.{i % 9 + 1} 2:-0.{i % 7 + 1} 3:1 4:0.5 5:-1 6:0.{i % 5 + 1}\n"
        if i % 3 == 0 else f"{1 if i % 4 else -1:+d} {i % 5 + 1}:0.{i % 9 + 1} 6:-1\n"
        for i in range(1, 61))


def _ijcnn_rows() -> str:
    """150 ijcnn1-shaped rows, 13 of 22 columns each."""
    return "".join(
        f"{1 if i % 3 else -1:+d}"
        + "".join(f" {j}:{'-' if (i + 2 * j) % 5 == 0 else ''}0.{i * j % 9 + 1}"
                  for j in range(1, 23) if (i + j) % 22 < 13) + "\n"
        for i in range(1, 151))


@pytest.mark.parametrize("rows, sha256, spec, forms, untested_steps, diverged", [
    # every row is full: the dense step, and SVRG2D's diagonal step with no
    # catch-up; steps 300 and 1000 make some eta D_j >= 1, where the step has
    # no bound and tests w exactly, and one run diverges
    (None, None, "synth = 200,5,0\nmethods = SVRG2D\nepochs = 4\ngrid = 1, 300, 1000\n",
     {(_DenseIterate, None), (_DiagIterate, False)}, {300.0, 1000.0}, [(1e-3, 1000.0, 3)]),
    # wide rows: SVRG2 takes the Gram step
    (_wide_rows, "6ef2235c93a9a085", "data = {data}\nmethods = SVRG, SVRG2\nepochs = 3\n",
     {(_AffineIterate, None), (_GramIterate, None)}, set(), []),
    # nnz = 200 > d^2, so SVRG2 forms H; the short rows send SVRG and SVRG2BB
    # to the affine step and SVRG2D to its catch-up
    (_mixed_rows, "408b643687a020d3",
     "data = {data}\nmethods = SVRG, SVRG2, SVRG2D, SVRG2BB\nepochs = 3\n",
     {(_AffineIterate, None), (_FormedHessIterate, None), (_DiagIterate, True)}, set(), []),
    # rows with 13 of 22 columns: dense, but short, so the affine step
    (_ijcnn_rows, "3ecc02051144997b",
     "data = {data}\nmethods = SVRG, SVRG2BB, SVRG2BBS-M2\nlambda = 1e-3\ngrid = 0.1, 1\n"
     "epochs = 3\n", {(_AffineIterate, None)}, set(), []),
], ids=["full-rows-svrg2d", "wide", "mixed", "ijcnn"])
def test_a_seeded_run_writes_the_same_winners_twice(tmp_path, monkeypatch, rows, sha256, spec,
                                                     forms, untested_steps, diverged):
    # and takes the step forms its data calls for
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    step_class, iterates = optimizer.step_class, []

    def recorded(model, correction):
        form = step_class(model, correction)

        def make(*args):
            iterates.append(form(*args))
            return iterates[-1]
        return make

    monkeypatch.setattr(optimizer, "step_class", recorded)
    data = tmp_path / "data.svm"
    if rows is not None:
        data.write_text(rows())
        assert hashlib.sha256(data.read_bytes()).hexdigest().startswith(sha256)
    (tmp_path / "spec.txt").write_text(spec.format(data=data))
    for out in ("first", "second"):
        assert main(["run", "--spec", str(tmp_path / "spec.txt"),
                     "--out", str(tmp_path / out)]) == 0
    assert (tmp_path / "first" / "winners.csv").read_bytes() \
        == (tmp_path / "second" / "winners.csv").read_bytes()
    assert {(type(it), getattr(it, "lazy", None)) for it in iterates} == forms
    assert {it.eta for it in iterates if isinstance(it, _DiagIterate) and it.log_r is None} \
        == untested_steps
    assert [(r.lam, r.step_param, len(r.records))
            for r in load_table(tmp_path / "first").rows if r.diverged] == diverged
