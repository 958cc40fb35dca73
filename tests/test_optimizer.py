import math

import numpy as np
import pytest

from vrgrad.correction import build_correction
from vrgrad.data import synth_binary
from vrgrad.losses import LossModel
from vrgrad.optimizer import (METHODS, DivergenceError, RunConfig, _within_guard,
                              direction, expected_grad_evals, measure_variance,
                              optimize, run_epoch)
from vrgrad.reference import solve_reference
from vrgrad.stepsize import EpochAnchors, constant, epoch_bb, preset

from oracle import plain_direction


@pytest.fixture(scope="module")
def small():
    ds = synth_binary(50, 6, seed=40)
    model = LossModel(ds, 1e-2, "logistic")
    ref = solve_reference(model, tol=1e-12)
    return model, ref


def _anchor_pair(model, rng, step=0.4):
    w_prev = rng.standard_normal(model.d)
    w_curr = w_prev - step * model.grad_full(w_prev)
    return w_curr, w_prev


# -- the corrected direction ---------------------------------------------------


def test_direction_at_anchor_is_full_gradient_exactly(small):
    model, _ = small
    rng = np.random.default_rng(41)
    w = rng.standard_normal(model.d)
    g = model.grad_full(w)
    for variant in ("none", "full_hessian", "diag_hessian", "bb_scalar"):
        corr = build_correction(variant, model, w, w - 0.1 * g)
        for i in (0, 17, 49):
            np.testing.assert_array_equal(plain_direction(model, corr, w, i), g)


def test_direction_none_matches_independent_svrg_oracle(small):
    # naive dense re-implementation of the uncorrected direction, against
    # the dense step's kernel on full rows, with its row view and buffers
    model, _ = small
    assert model.full_rows
    X = model.dataset.features.toarray()
    b = model.dataset.labels
    rows = model.dataset.features.data.reshape(model.n, model.d)
    buffers = tuple(np.empty(model.d) for _ in range(3))

    def naive_svrg_direction(w, w_anchor, g_anchor, i):
        def grad_i(w):
            margin = b[i] * (X[i] @ w)
            coef = -b[i] / (1.0 + np.exp(margin))
            return coef * X[i] + model.lam * w
        return grad_i(w) - grad_i(w_anchor) + g_anchor

    rng = np.random.default_rng(42)
    for _ in range(20):
        w = rng.standard_normal(model.d)
        w_anchor = rng.standard_normal(model.d)
        g_anchor = model.grad_full(w_anchor)
        corr = build_correction("none", model, w_anchor, g_curr=g_anchor)
        i = int(rng.integers(model.n))
        got = direction(model, corr, w, i, rows, buffers)
        want = naive_svrg_direction(w, w_anchor, g_anchor, i)
        np.testing.assert_allclose(got, want, atol=1e-14)


def test_direction_unbiased_for_every_variant(small):
    model, _ = small
    rng = np.random.default_rng(43)
    for variant in ("none", "full_hessian", "diag_hessian", "bb_scalar"):
        for _ in range(5):
            w_anchor, w_prev = _anchor_pair(model, rng)
            corr = build_correction(variant, model, w_anchor, w_prev)
            w = w_anchor + 0.3 * rng.standard_normal(model.d)
            mean = np.mean([plain_direction(model, corr, w, i)
                            for i in range(model.n)], axis=0)
            np.testing.assert_allclose(mean, model.grad_full(w), atol=1e-10,
                                       err_msg=variant)


# -- config validation -----------------------------------------------------------


def test_config_rejects_m_zero():
    with pytest.raises(ValueError):
        RunConfig(method="SVRG", schedule=constant(0.1), epochs=1, m=0)


def test_config_rejects_mismatched_schedule():
    with pytest.raises(ValueError):
        RunConfig(method="SVRGBB", schedule=constant(0.1), epochs=1)
    with pytest.raises(ValueError):
        RunConfig(method="SVRG2BBS-M1", schedule=constant(0.1), epochs=1)
    with pytest.raises(ValueError):
        RunConfig(method="SVRG", schedule=epoch_bb(0.1), epochs=1)


def test_config_rejects_unknown_method():
    with pytest.raises(ValueError):
        RunConfig(method="SAGA", schedule=constant(0.1), epochs=1)


# -- epochs and runs --------------------------------------------------------------


def test_optimize_zero_epochs_returns_w0(small):
    model, _ = small
    w0 = np.ones(model.d)
    cfg = RunConfig(method="SVRG", schedule=constant(0.1), epochs=0)
    w, records = optimize(model, cfg, w0)
    np.testing.assert_array_equal(w, w0)
    assert records == []


def test_single_epoch_decreases_objective_in_expectation():
    # Monte-Carlo over 50 seeds on a small instance
    model = LossModel(synth_binary(30, 2, seed=44), 1e-1, "logistic")
    w0 = np.array([2.0, -1.5])
    f0 = model.value(w0)
    finals = []
    for seed in range(50):
        cfg = RunConfig(method="SVRG", schedule=constant(0.05), epochs=1, seed=seed)
        w, _ = optimize(model, cfg, w0)
        finals.append(model.value(w))
    assert np.mean(finals) < f0


def test_trajectory_deterministic_by_seed(small):
    model, ref = small
    cfg = RunConfig(method="SVRG2BB", schedule=constant(0.3), epochs=6, seed=123)
    w1, recs1 = optimize(model, cfg, np.zeros(model.d), ref.w_star)
    w2, recs2 = optimize(model, cfg, np.zeros(model.d), ref.w_star)
    np.testing.assert_array_equal(w1, w2)
    assert [r.fval for r in recs1] == [r.fval for r in recs2]
    assert [r.variance for r in recs1] == [r.variance for r in recs2]
    assert [r.grad_evals for r in recs1] == [r.grad_evals for r in recs2]


def test_different_seeds_differ(small):
    model, _ = small
    cfg1 = RunConfig(method="SVRG", schedule=constant(0.3), epochs=2, seed=1)
    cfg2 = RunConfig(method="SVRG", schedule=constant(0.3), epochs=2, seed=2)
    w1, _ = optimize(model, cfg1, np.zeros(model.d))
    w2, _ = optimize(model, cfg2, np.zeros(model.d))
    assert not np.array_equal(w1, w2)


def test_option2_replay_oracle(small):
    # replay the documented draw order: anchor index first, then the sample
    # block, and check the promoted anchor is w_{t*}
    model, _ = small
    m = 8
    cfg = RunConfig(method="SVRG", schedule=constant(0.2), epochs=1, m=m,
                    anchor_option=2, seed=7, variance_mode="none")
    w0 = np.zeros(model.d)
    w_end, _ = optimize(model, cfg, w0)

    rng = np.random.default_rng(7)
    t_star = int(rng.integers(m))
    idx = rng.integers(0, model.n, size=m)
    corr = build_correction("none", model, w0)
    w = w0.copy()
    snapshot = None
    for t in range(m):
        if t == t_star:
            snapshot = w.copy()
        w = w - 0.2 * plain_direction(model, corr, w, int(idx[t]))
    np.testing.assert_array_equal(w_end, snapshot)


def test_option1_returns_last_iterate(small):
    model, _ = small
    m = 8
    cfg = RunConfig(method="SVRG", schedule=constant(0.2), epochs=1, m=m,
                    seed=7, variance_mode="none")
    w0 = np.zeros(model.d)
    w_end, _ = optimize(model, cfg, w0)

    rng = np.random.default_rng(7)
    idx = rng.integers(0, model.n, size=m)
    corr = build_correction("none", model, w0)
    w = w0.copy()
    for t in range(m):
        w = w - 0.2 * plain_direction(model, corr, w, int(idx[t]))
    np.testing.assert_array_equal(w_end, w)


def test_divergence_guard_carries_partial_records(small):
    model, ref = small
    cfg = RunConfig(method="SVRG", schedule=constant(1e6), epochs=5, seed=0,
                    variance_mode="none")
    with pytest.raises(DivergenceError) as err:
        optimize(model, cfg, np.zeros(model.d), ref.w_star)
    assert err.value.epoch >= 1
    assert isinstance(err.value.records, list)


def test_run_epoch_signature_direct(small):
    model, _ = small
    w0 = np.zeros(model.d)
    g0 = model.grad_full(w0)
    corr = build_correction("none", model, w0)
    cfg = RunConfig(method="SVRG", schedule=constant(0.2), epochs=1, m=5)
    summary = run_epoch(model, cfg, corr, None, 0, w0, g0,
                        np.random.default_rng(0), 5, norm_guard=1e8)
    assert summary.grad_evals == 10
    assert summary.last_step == 0.2
    assert summary.next_anchor.shape == (model.d,)


@pytest.mark.parametrize("last_bb_step, want", [(0.07, 0.07), (None, 0.3)])
def test_a_failed_secant_falls_back_on_every_step_of_the_epoch(small, last_bb_step, want):
    # s^T y < 0: every inner step takes the fallback, the last BB step or
    # else eta0, and the epoch matches a constant-step epoch at that value
    model, _ = small
    w0 = np.zeros(model.d)
    g0 = model.grad_full(w0)
    corr = build_correction("none", model, w0)
    anchors = EpochAnchors(w0, np.ones(model.d), g0, g0 - np.ones(model.d))
    runs = []
    for schedule in (epoch_bb(0.3), constant(want)):
        cfg = RunConfig(method="SVRGBB" if schedule.kind == "epoch_bb" else "SVRG",
                        schedule=schedule, epochs=2, m=6)
        runs.append(run_epoch(model, cfg, corr, anchors, 1, w0, g0,
                              np.random.default_rng(3), 6, norm_guard=1e8,
                              last_bb_step=last_bb_step))
    bb, const = runs
    assert bb.curvature_fallbacks == 6 and const.curvature_fallbacks == 0
    assert bb.last_step == want and bb.grad_evals == const.grad_evals == 12
    np.testing.assert_array_equal(bb.final_iterate, const.final_iterate)


# -- convergence behavior ---------------------------------------------------------


def test_svrg_linear_convergence_small(small):
    model, ref = small
    cfg = RunConfig(method="SVRG", schedule=constant(0.5), epochs=12, seed=0)
    _, recs = optimize(model, cfg, np.zeros(model.d), ref.w_star)
    assert recs[-1].gap <= 1e-9
    gaps = np.array([r.gap for r in recs])
    assert np.all(gaps >= -1e-12)


def test_svrg2bb_median_epoch_ratio_below_one(small):
    model, ref = small
    cfg = RunConfig(method="SVRG2BB", schedule=constant(0.5), epochs=10, seed=3)
    _, recs = optimize(model, cfg, np.zeros(model.d), ref.w_star)
    gaps = np.array([max(r.gap, 1e-17) for r in recs])
    ratios = gaps[1:] / gaps[:-1]
    assert np.median(ratios) < 1.0


def test_bb_step_methods_run(small):
    model, ref = small
    n = model.n
    for method, sched in [
        ("SVRGBB", epoch_bb(0.5)),
        ("SVRG2BBS-M1", preset("M1", n, c1=1.0, c2=0.0, eta0=1.0 / model.smoothness())),
        ("SVRG2BBS-M2", preset("M2", n, c1=0.1, c2=0.1 * model.lam, eta0=1.0 / model.smoothness())),
        ("SVRG2BBS-M3", preset("M3", n, c1=0.01, c2=0.01 * model.lam, eta0=1.0 / model.smoothness())),
    ]:
        cfg = RunConfig(method=method, schedule=sched, epochs=8, seed=0)
        _, recs = optimize(model, cfg, np.zeros(model.d), ref.w_star)
        assert recs[-1].gap < recs[0].gap
        assert all(np.isfinite(r.step_size) and r.step_size > 0 for r in recs)


def test_wall_time_nondecreasing(small):
    model, _ = small
    cfg = RunConfig(method="SVRG", schedule=constant(0.3), epochs=5, seed=0)
    _, recs = optimize(model, cfg, np.zeros(model.d))
    times = [r.wall_time for r in recs]
    assert all(a <= b for a, b in zip(times, times[1:]))


def test_wall_time_covers_the_full_gradient_pass(small, monkeypatch):
    # a slow grad_full shows in wall_time; slow variance telemetry does not
    import time

    import vrgrad.optimizer as optimizer
    from vrgrad.losses import LossModel

    model, _ = small
    real_grad_full = LossModel.grad_full

    def slow_grad_full(self, w):
        time.sleep(0.05)
        return real_grad_full(self, w)

    def slow_variance(*args, **kwargs):
        time.sleep(0.5)
        return 0.0

    monkeypatch.setattr(LossModel, "grad_full", slow_grad_full)
    monkeypatch.setattr(optimizer, "measure_variance", slow_variance)
    cfg = RunConfig(method="SVRG", schedule=constant(0.3), epochs=3, m=5, seed=0,
                    variance_mode="last")
    _, recs = optimize(model, cfg, np.zeros(model.d))
    steps = np.diff([0.0] + [r.wall_time for r in recs])
    assert np.all(steps >= 0.05)
    assert np.all(steps < 0.5)


# -- gradient-evaluation accounting ------------------------------------------------


def test_grad_eval_accounting_matches_closed_form(small):
    model, _ = small
    n = model.n
    m = 20
    for method in ("SVRG", "SVRG2", "SVRG2D", "SVRG2BB", "SVRGBB", "SVRG2BBS-M1"):
        if method == "SVRGBB":
            sched = epoch_bb(0.3)
        elif method == "SVRG2BBS-M1":
            sched = preset("M1", n, c1=1.0, c2=0.0, eta0=1.0 / model.smoothness())
        else:
            sched = constant(0.3)
        cfg = RunConfig(method=method, schedule=sched, epochs=4, m=m, seed=0,
                        variance_mode="none")
        _, recs = optimize(model, cfg, np.zeros(model.d))
        got = [r.grad_evals for r in recs]
        assert got == expected_grad_evals(method, n, m, 4), method


def test_coincident_anchors_run_uncorrected_and_fall_back(monkeypatch):
    # m = 1 with option-2 anchors snapshots t = 0, the anchor itself, so
    # every epoch after the first has s = 0
    import vrgrad.optimizer as optimizer

    model = LossModel(synth_binary(40, 6, seed=47), 1e-2, "logistic")
    n = model.n
    real_run_epoch = optimizer.run_epoch
    calls = []

    def spy(*args, **kwargs):
        summary = real_run_epoch(*args, **kwargs)
        calls.append((args[2], args[3], summary))
        return summary

    monkeypatch.setattr(optimizer, "run_epoch", spy)
    for method, sched in (
        ("SVRG2BB", constant(0.3)),
        ("SVRGBB", epoch_bb(0.3)),
        ("SVRG2BBS-M2", preset("M2", n, c1=0.1, c2=0.1 * model.lam,
                               eta0=1.0 / model.smoothness())),
    ):
        calls.clear()
        cfg = RunConfig(method=method, schedule=sched, epochs=4, m=1, anchor_option=2,
                        seed=0, variance_mode="none")
        _, recs = optimize(model, cfg, np.zeros(model.d))
        assert calls[0][1] is None
        for corr, pair, _ in calls[1:]:
            assert corr.variant == "none" and pair is not None, method
        if method == "SVRG2BB":
            # expected_grad_evals assumes corrected epochs: 42, 86, ...
            assert [r.grad_evals for r in recs] == [42, 84, 126, 168]
            assert expected_grad_evals(method, n, 1, 4)[1] == 86
        else:
            assert [s.curvature_fallbacks for _, _, s in calls] == [0, 1, 1, 1], method
            assert len({r.step_size for r in recs}) == 1, method


# -- variance telemetry ---------------------------------------------------------


def test_variance_zero_at_anchor(small):
    model, _ = small
    rng = np.random.default_rng(45)
    w_anchor, w_prev = _anchor_pair(model, rng)
    for variant in ("none", "full_hessian", "diag_hessian", "bb_scalar"):
        corr = build_correction(variant, model, w_anchor, w_prev)
        assert measure_variance(model, corr, w_anchor) == pytest.approx(0.0, abs=1e-24)


def test_variance_matches_independent_enumeration(small):
    model, _ = small
    rng = np.random.default_rng(46)
    w_anchor, w_prev = _anchor_pair(model, rng)
    w = w_anchor + 0.2 * rng.standard_normal(model.d)
    g_full = model.grad_full(w)
    for variant in ("none", "bb_scalar", "diag_hessian", "full_hessian"):
        corr = build_correction(variant, model, w_anchor, w_prev)
        naive = np.mean([
            float(np.sum((plain_direction(model, corr, w, i) - g_full) ** 2))
            for i in range(model.n)
        ])
        got = measure_variance(model, corr, w)
        assert got == pytest.approx(naive, abs=1e-10)


def test_full_hessian_variance_smaller_near_anchor(small):
    # second-order correction beats the first-order one for small displacements
    model, ref = small
    rng = np.random.default_rng(48)
    w_anchor = ref.w_star + rng.standard_normal(model.d)
    dist = np.linalg.norm(w_anchor - ref.w_star)
    corr2 = build_correction("full_hessian", model, w_anchor, ref.w_star)
    corr0 = build_correction("none", model, w_anchor, ref.w_star)
    wins = 0
    for _ in range(20):
        u = rng.standard_normal(model.d)
        u *= 1e-2 * dist / np.linalg.norm(u)
        w = w_anchor + u
        v2 = measure_variance(model, corr2, w)
        v0 = measure_variance(model, corr0, w)
        wins += int(v2 <= v0)
    assert wins >= 19


def test_variance_mode_none_records_nan(small):
    model, _ = small
    cfg = RunConfig(method="SVRG", schedule=constant(0.3), epochs=2, seed=0,
                    variance_mode="none")
    _, recs = optimize(model, cfg, np.zeros(model.d))
    assert all(np.isnan(r.variance) for r in recs)


def test_variance_mode_accepts_only_last_and_none():
    for mode in ("anchor", "sampled", ""):
        with pytest.raises(ValueError):
            RunConfig(method="SVRG", schedule=constant(0.3), epochs=1, variance_mode=mode)


def test_methods_tuple_complete():
    assert set(METHODS) == {"SVRG", "SVRG2", "SVRG2D", "SVRG2BB", "SVRGBB",
                            "SVRG2BBS-M1", "SVRG2BBS-M2", "SVRG2BBS-M3"}


# -- the divergence guard --------------------------------------------------------

_HUGE = [1e200, -1e200]     # finite, but w @ w overflows to inf


@pytest.mark.parametrize("w, limit, inside", [
    ([3.0, -4.0], 25.0, True), ([3.0, -4.0], 24.999, False),
    ([3.0, -4.0], math.inf, True), ([0.0, 0.0], 0.0, True),
    (_HUGE, math.inf, True), (_HUGE, 1e300, False),
    ([math.nan, 1.0], math.inf, False), ([math.nan, 1.0], 1e300, False),
    ([math.inf, 1.0], math.inf, False), ([-math.inf, 1.0], math.inf, False),
    ([math.inf, -math.inf], math.inf, False), ([-math.inf, 0.0], 1e300, False),
])
def test_divergence_guard_tests_finiteness_and_the_norm(w, limit, inside):
    w = np.array(w)
    with np.errstate(over="ignore", invalid="ignore"):
        assert _within_guard(w, limit) is inside
        # the test it replaced in the diagonal step gives the same answer
        assert (bool(np.isfinite(w).all()) and float(w @ w) <= limit) is inside
