import json

import pytest

from vrgrad.cli import _spec_from_args, build_parser, main
from vrgrad.harness import ExperimentSpec, load_table


def test_run_rejects_the_removed_step_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["run", "--synth", "20,3,0", "--epochs", "1", "--out", str(tmp_path),
              "--step", "constant:0.1", "--step", "epochbb:0.01"])
    assert err.value.code == 2
    assert "--step was removed" in capsys.readouterr().err
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
