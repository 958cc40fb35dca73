import pytest

from vrgrad.cli import main
from vrgrad.harness import load_table


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
