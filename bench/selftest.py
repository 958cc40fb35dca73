"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import spans  # noqa: E402
from vrgrad import (LossModel, harness, optimizer, parse_libsvm, solve_reference,  # noqa: E402
                    stepsize, synth_binary)
from workloads import sparse_libsvm_text  # noqa: E402


def test_sparse_generator_is_seeded_with_unit_norm_rows_of_fixed_support():
    text = sparse_libsvm_text(200, 5000, 20, seed=3)
    assert text == sparse_libsvm_text(200, 5000, 20, seed=3)
    assert text != sparse_libsvm_text(200, 5000, 20, seed=4)
    dataset = parse_libsvm(text)
    assert dataset.d == 5000
    X = dataset.features
    assert np.all(np.diff(X.indptr) == 20)
    norms = np.sqrt(np.asarray(X.multiply(X).sum(axis=1)).ravel())
    np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-12)


def test_uninstall_restores_every_original_by_identity():
    originals = [(owner, attr, spans._original(owner, attr))
                 for owner, attr, _, _ in spans.PATCHES]
    saved = spans.install(spans.Tracer())
    try:
        assert all(spans._original(owner, attr) is not orig
                   for owner, attr, orig in originals)
    finally:
        spans.uninstall(saved)
    for owner, attr, orig in originals:
        assert spans._original(owner, attr) is orig, f"{owner.__name__}.{attr}"


@pytest.fixture(scope="module")
def small_grid(tmp_path_factory):
    """A traced 4-method grid on a tiny problem, its CSV output and spans."""
    out = tmp_path_factory.mktemp("grid")
    spec = harness.ExperimentSpec(synth=(60, 5, 0), lambdas=(1e-2,),
                                  methods=("SVRG", "SVRG2", "SVRG2D", "SVRG2BBS-M2"),
                                  grid=(1e4, 0.3), epochs=3, m=40, seeds=(0, 1))
    tracer = spans.Tracer()
    saved = spans.install(tracer)
    try:
        table = harness.run_experiment(spec, out / "cache")
        harness.emit_csv(table, out / "csv")
        harness.emit_plots(table, out / "csv")
        reloaded = harness.load_table(out / "csv")
    finally:
        spans.uninstall(saved)
    return spec, table, reloaded, tracer


def test_child_spans_fit_inside_their_parent(small_grid):
    tracer = small_grid[3]
    s = tracer.arrays()
    dur = s["end"] - s["start"]
    child = np.flatnonzero(s["parent"] >= 0)
    assert child.size > 1000
    parent = s["parent"][child]
    assert np.all(s["start"][child] >= s["start"][parent])
    assert np.all(s["end"][child] <= s["end"][parent])
    own = spans.self_times(s)
    assert np.all(own >= 0.0)
    assert np.all(own[child] <= dur[parent])


def test_layer_metrics_match_benchmark_json(small_grid):
    tracer = small_grid[3]
    metrics = spans.layer_metrics(tracer, 0, 1, 1.0, 1.1, {}, {})
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [(m["name"], m["unit"]) for m in declared] == \
        [(name, unit) for name, (_, unit) in metrics.items()]
    assert metrics["optimizer.diverged_cells.count"][0] > 0
    assert 0.0 < metrics["optimizer.wasted_steps.share"][0] < 1.0


def test_grid_check_passes_then_fails_on_perturbed_results(small_grid):
    spec, table, reloaded, _ = small_grid
    n, m = 60, 40
    assert checks.check_grid(table, reloaded, spec, n, m, None) == {}

    bad = copy.deepcopy(reloaded)
    row = next(r for r in bad.rows if r.records)
    row.records[-1].fval += 1e-9
    assert list(checks.check_grid(table, bad, spec, n, m, None)) == \
        [checks.cell_key(row.method, row.lam, row.step_param, row.seed)]

    bad = copy.deepcopy(table)
    row = next(r for r in bad.rows if not r.diverged)
    row.records[0].grad_evals += 1
    assert checks.check_grid(bad, reloaded, spec, n, m, None)

    bad = copy.deepcopy(table)
    assert bad.winners[("SVRG", 1e-2)] == 0.3
    bad.winners[("SVRG", 1e-2)] = 1e4
    assert checks.check_grid(bad, bad, spec, n, m, None)

    bad = copy.deepcopy(table)
    bad.rows = bad.rows[1:]
    assert checks.check_grid(bad, bad, spec, n, m, None)


def test_grid_check_compares_with_the_stored_expectation(small_grid):
    spec, table, reloaded, _ = small_grid
    rows = {checks.cell_key(r.method, r.lam, r.step_param, r.seed): r for r in table.rows}
    expect = {
        "winners": {f"{mt}|{lam!r}": s for (mt, lam), s in table.winners.items()},
        "diverged": sorted(k for k, r in rows.items() if r.diverged),
        "final_fval": {k: r.records[-1].fval for k, r in rows.items() if r.records},
    }
    assert checks.check_grid(table, reloaded, spec, 60, 40, expect) == {}
    key = next(k for k, r in rows.items() if not r.diverged)
    wrong = copy.deepcopy(expect)
    wrong["final_fval"][key] *= 1 + 1e-8
    assert list(checks.check_grid(table, reloaded, spec, 60, 40, wrong)) == [key]
    wrong = copy.deepcopy(expect)
    wrong["diverged"] = wrong["diverged"][1:]
    assert checks.check_grid(table, reloaded, spec, 60, 40, wrong)


def test_ttg_check_fails_on_perturbed_runs():
    model = LossModel(synth_binary(60, 5, 0), 1e-2)
    w_star = solve_reference(model).w_star
    config = optimizer.RunConfig("SVRG", stepsize.constant(0.3), epochs=8, m=40,
                                 variance_mode="none")
    _, calib = optimizer.optimize(model, config, np.zeros(5), w_star)
    target = calib[4].gap
    k_star = next(r.epoch for r in calib if r.gap <= target)
    records = calib[:k_star]
    f_star = model.value(w_star)
    assert checks.check_ttg("SVRG", records, k_star, target, calib, f_star, None) == []
    assert checks.check_ttg("SVRG", calib[:k_star + 1], k_star, target, calib, f_star, None)
    assert checks.check_ttg("SVRG", records, k_star, target / 10, calib, f_star, None)
    bad = copy.deepcopy(records)
    bad[-1].fval = np.nextafter(bad[-1].fval, 1.0)
    assert checks.check_ttg("SVRG", bad, k_star, target, calib, f_star, None)
    expect = {"k_star": {"SVRG": k_star}, "ttg_fval": {"SVRG": records[-1].fval * (1 + 1e-8)}}
    assert checks.check_ttg("SVRG", records, k_star, target, calib, f_star, expect)


def test_alloc_count_repeats_exactly():
    model = LossModel(synth_binary(60, 500, 0), 1e-2)
    schedule = harness.schedule_for("SVRG2BBS-M2", 1.0, 60, 1e-2, model.smoothness())
    config = optimizer.RunConfig("SVRG2BBS-M2", schedule, epochs=2, m=16, variance_mode="none")

    def run():
        optimizer.optimize(model, config, np.zeros(500))

    originals = optimizer.schedule_step, optimizer.run_epoch
    first = spans.alloc_bytes_per_step(run)
    assert first > 500 * 8
    assert spans.alloc_bytes_per_step(run) == first
    assert (optimizer.schedule_step, optimizer.run_epoch) == originals


def test_speed_probe_does_fixed_work_without_the_program():
    import speed
    probe = speed.SpeedProbe(1000, 20, 50)
    assert probe.run() == probe.run()
    assert probe() > 0.0
    assert not any(getattr(v, "__module__", getattr(v, "__name__", "")).startswith("vrgrad")
                   for v in vars(speed).values())


def test_each_sample_is_scaled_by_the_median_of_the_probes_around_it(tmp_path):
    import run
    from workloads import WORKLOADS
    bench = run.Bench(WORKLOADS["dense-lowd"], 0, tmp_path)
    probes = iter([0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09])
    bench.probe = lambda: next(probes)
    for seconds in range(1, 9):
        bench.measure("op", lambda: float(seconds))
    bench.scale()
    ref = bench.wl.probe_ref_s
    assert bench.raw["op"] == [float(s) for s in range(1, 9)]
    # the first op has probes 0.01 before it and 0.02-0.04 after it; the
    # last has 0.06-0.08 before it and 0.09 after it
    assert bench.samples["op"][0] == pytest.approx(ref / 0.025)
    assert bench.samples["op"][-1] == pytest.approx(8.0 * ref / 0.075)


def test_merge_pools_the_parts_and_fails_a_missing_one():
    import run

    def part(samples):
        return {"attempted": 2, "failed": 0, "problems": [], "peak_rss_mb": 60.0 + samples[0],
                "samples": {"run_s": samples}}

    metrics, attempted, failed, _ = run.merge([part([1.0, 2.0]), part([3.0, 4.0, 5.0])])
    assert metrics == {"run_s": (3.0, "s"), "peak_rss_mb": (63.0, "MB")}
    assert (attempted, failed) == (4, 0)
    metrics, attempted, failed, problems = run.merge([part([1.0]), None])
    assert metrics == {} and failed == 1 and problems
