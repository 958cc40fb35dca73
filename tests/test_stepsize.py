import numpy as np
import pytest

from vrgrad.stepsize import (CurvatureError, EpochAnchors, XiSchedule,
                             constant, epoch_bb, generalized_bb, preset, step,
                             xi)


def _anchors(dw, dg):
    z = np.zeros_like(dw)
    return EpochAnchors(w_prev2=z, w_prev1=dw, g_prev2=z, g_prev1=dg)


# -- xi schedules -----------------------------------------------------------


def test_xi_fixed_ignores_T():
    sched = XiSchedule("fixed", 1e-2)
    for T in (0, 1, 900, 10**6):
        assert xi(sched, T) == 1e-2


def test_xi_decay_at_zero_is_c1():
    assert xi(XiSchedule("decay", 0.1, 0.01), 0) == 0.1


def test_xi_decay_frozen_values():
    # c1/(1 + c2 T): 0.1/(1 + 0.01*900) = 0.01;  1/(1 + 0.5*2) = 0.5
    assert xi(XiSchedule("decay", 0.1, 0.01), 900) == pytest.approx(0.01, rel=1e-15)
    assert xi(XiSchedule("decay", 1.0, 0.5), 2) == pytest.approx(0.5, rel=1e-15)


def test_xi_decay_strictly_decreasing():
    sched = XiSchedule("decay", 1.0, 0.3)
    vals = [xi(sched, T) for T in range(50)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_xi_negative_T_rejected():
    with pytest.raises(ValueError):
        xi(XiSchedule("fixed", 1.0), -1)


def test_xi_bounds():
    sched = XiSchedule("decay", 1.0, 0.1)
    lo, hi = sched.bounds(100)
    assert hi == 1.0
    assert lo == pytest.approx(xi(sched, 99))


# -- presets -----------------------------------------------------------------


def test_preset_m1():
    sched = preset("M1", n=50, c1=0.1, c2=0.0)
    assert sched.m1 == 100
    assert sched.xi_schedule.mode == "fixed"


def test_preset_m2():
    sched = preset("M2", n=50, c1=0.1, c2=1e-3)
    assert sched.m1 == 50
    assert sched.xi_schedule.mode == "decay"


def test_preset_m3():
    sched = preset("M3", n=50, c1=0.1, c2=1e-3)
    assert sched.m1 == 1
    assert sched.xi_schedule.mode == "decay"


def test_preset_unknown_name():
    with pytest.raises(ValueError):
        preset("M4", n=10, c1=0.1, c2=0.0)


# -- step values ---------------------------------------------------------------


def test_constant_step_everywhere():
    sched = constant(0.1)
    for k, t in ((0, 0), (3, 17), (99, 0)):
        assert step(sched, None, k, t, m=100) == 0.1


def test_generalized_bb_identity_hessian_ratio():
    # dg = dw makes the secant ratio 1; fixed xi, m1 = 1 -> step = c1
    sched = generalized_bb(1, XiSchedule("fixed", 0.25))
    anchors = _anchors(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    assert step(sched, anchors, 5, 3, m=10) == pytest.approx(0.25, rel=1e-15)


def test_generalized_bb_decay_uses_global_iterate_index():
    sched = generalized_bb(1, XiSchedule("decay", 1.0, 1.0))
    anchors = _anchors(np.ones(2), np.ones(2))
    # T = k*m + t
    assert step(sched, anchors, 0, 0, m=10) == pytest.approx(1.0)
    assert step(sched, anchors, 2, 3, m=10) == pytest.approx(1.0 / 24.0)


def test_generalized_bb_fallback_scales_eta0():
    sched = generalized_bb(4, XiSchedule("fixed", 0.5), eta0=2.0)
    assert step(sched, None, 0, 0, m=10) == pytest.approx(0.5 / 4 * 2.0)


def test_generalized_bb_fallback_without_eta0_raises():
    sched = generalized_bb(4, XiSchedule("fixed", 0.5))
    with pytest.raises(ValueError):
        step(sched, None, 0, 0, m=10)


def test_epoch_bb_step_and_fallback():
    sched = epoch_bb(0.3)
    assert step(sched, None, 0, 0, m=10) == 0.3
    anchors = _anchors(np.array([2.0, 0.0]), np.array([1.0, 0.0]))
    # ratio = ||dw||^2/(dw.dg) = 4/2 = 2; step = ratio/m
    assert step(sched, anchors, 1, 7, m=10) == pytest.approx(0.2, rel=1e-15)


def test_epoch_bb_constant_within_epoch():
    sched = epoch_bb(0.3)
    anchors = _anchors(np.array([1.0, 1.0]), np.array([0.5, 2.0]))
    vals = {step(sched, anchors, 2, t, m=50) for t in range(50)}
    assert len(vals) == 1


def test_curvature_error():
    sched = epoch_bb(0.3)
    anchors = _anchors(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
    with pytest.raises(CurvatureError):
        step(sched, anchors, 1, 0, m=10)


def test_curvature_error_on_every_call():
    # the secant products are computed once per epoch; the error is not
    sched = epoch_bb(0.3)
    anchors = _anchors(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
    for t in range(3):
        with pytest.raises(CurvatureError):
            step(sched, anchors, 1, t, m=10)


def test_bb_ratio_matches_the_formula():
    rng = np.random.default_rng(34)
    w2, w1, g2, g1 = rng.standard_normal((4, 6))
    anchors = EpochAnchors(w2, w1, g2, g1 + 10.0 * (w1 - w2))
    dw, dg = w1 - w2, anchors.g_prev1 - g2
    assert anchors.bb_ratio() == float(dw @ dw) / float(dw @ dg)
    assert anchors.bb_ratio() == anchors.bb_ratio()


def test_steps_positive_and_finite():
    rng = np.random.default_rng(31)
    sched = generalized_bb(7, XiSchedule("decay", 0.9, 0.05), eta0=0.5)
    for k in range(4):
        for t in range(5):
            dw = rng.standard_normal(3)
            dg = dw * rng.uniform(0.5, 2.0)  # positive curvature
            s = step(sched, _anchors(dw, dg), k, t, m=20)
            assert np.isfinite(s) and s > 0


def test_generalized_bb_steps_within_theorem_bracket():
    # anchors from a strongly convex model keep the secant ratio in [1/L, 1/mu]
    from vrgrad.data import synth_binary
    from vrgrad.losses import LossModel

    model = LossModel(synth_binary(60, 5, seed=32), 1e-2, "logistic")
    mu, L = model.strong_convexity(), model.smoothness()
    rng = np.random.default_rng(33)
    sched = generalized_bb(11, XiSchedule("decay", 0.8, 1e-3), eta0=1.0 / L)
    m = 40
    total = 4 * m
    xi_lo, xi_hi = sched.xi_schedule.bounds(total)
    lo, hi = xi_lo / (11 * L), xi_hi / (11 * mu)

    for k in range(4):
        w_prev = rng.standard_normal(5)
        w_curr = w_prev - 0.2 * model.grad_full(w_prev)
        anchors = EpochAnchors(w_prev, w_curr, model.grad_full(w_prev),
                               model.grad_full(w_curr))
        for t in range(0, m, 7):
            s = step(sched, anchors, k, t, m)
            assert lo * (1 - 1e-12) <= s <= hi * (1 + 1e-12)


# -- schedule validation ---------------------------------------------------------


def test_schedule_validation():
    with pytest.raises(ValueError):
        constant(-0.1)
    with pytest.raises(ValueError):
        epoch_bb(0.0)
    with pytest.raises(ValueError):
        generalized_bb(0, XiSchedule("fixed", 0.1))
    with pytest.raises(ValueError):
        XiSchedule("fixed", -1.0)
    with pytest.raises(ValueError):
        XiSchedule("warmup", 1.0)
