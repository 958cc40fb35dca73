import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vrgrad.stepsize import (CurvatureError, EpochAnchors, StepSizeSchedule,
                             constant, epoch_bb, generalized_bb, preset, step)


def _anchors(dw, dg):
    z = np.zeros_like(dw)
    return EpochAnchors(w_prev2=z, w_prev1=dw, g_prev2=z, g_prev1=dg)


# -- the xi_T = c1 / (1 + c2 * T) factor, read through step() ----------------
#
# With dg = dw the secant ratio is exactly 1 and m1 = 1, so a
# generalized_bb step is xi_T itself, T = epoch * m + t.

_UNIT_SECANT = _anchors(np.array([1.0, 2.0]), np.array([1.0, 2.0]))


def _xi(c1, c2, T, m=10):
    return step(generalized_bb(1, c1, c2, eta0=1.0), _UNIT_SECANT, T // m, T % m, m)


@given(c1=st.floats(min_value=1e-300, max_value=1e300),
       T=st.integers(min_value=0, max_value=10**12))
def test_xi_fixed_ignores_T(c1, T):
    # c2 = 0: c1 / (1 + 0 * T) is c1 bit for bit
    assert _xi(c1, 0.0, T) == c1


def test_xi_decay_at_zero_is_c1():
    assert _xi(0.1, 0.01, 0) == 0.1


def test_xi_decay_frozen_values():
    # c1/(1 + c2 T): 0.1/(1 + 0.01*900) = 0.01;  1/(1 + 0.5*2) = 0.5
    assert _xi(0.1, 0.01, 900) == pytest.approx(0.01, rel=1e-15)
    assert _xi(1.0, 0.5, 2) == pytest.approx(0.5, rel=1e-15)


def test_xi_decay_strictly_decreasing():
    vals = [_xi(1.0, 0.3, T) for T in range(50)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_step_is_the_xi_expression_bit_for_bit():
    # c1 / (1 + c2 * T) / m1, in that order, times the secant ratio
    anchors = _anchors(np.array([2.0, 0.0]), np.array([1.0, 0.0]))
    for c1, c2, m1, k, t in ((0.3, 1e-3, 7, 2, 5), (1.7, 0.25, 3, 0, 9), (0.1, 0.0, 40, 5, 1)):
        sched = generalized_bb(m1, c1, c2, eta0=1.0)
        assert step(sched, anchors, k, t, m=10) == c1 / (1.0 + c2 * (k * 10 + t)) / m1 * 2.0


# -- presets -----------------------------------------------------------------


def test_preset_m1():
    # M1 holds xi at c1 whatever c2 is given
    sched = preset("M1", n=50, c1=0.1, c2=1e-3, eta0=0.5)
    assert sched.m1 == 100
    assert (sched.c1, sched.c2) == (0.1, 0.0)
    assert sched.eta0 == 0.5


def test_preset_m2():
    sched = preset("M2", n=50, c1=0.1, c2=1e-3, eta0=0.5)
    assert sched.m1 == 50
    assert (sched.c1, sched.c2) == (0.1, 1e-3)


def test_preset_m3():
    sched = preset("M3", n=50, c1=0.1, c2=1e-3, eta0=0.5)
    assert sched.m1 == 1
    assert (sched.c1, sched.c2) == (0.1, 1e-3)


def test_preset_unknown_name():
    with pytest.raises(ValueError):
        preset("M4", n=10, c1=0.1, c2=0.0, eta0=0.5)


# -- step values ---------------------------------------------------------------


def test_constant_step_everywhere():
    sched = constant(0.1)
    for k, t in ((0, 0), (3, 17), (99, 0)):
        assert step(sched, None, k, t, m=100) == 0.1


def test_generalized_bb_identity_hessian_ratio():
    # dg = dw makes the secant ratio 1; fixed xi, m1 = 1 -> step = c1
    sched = generalized_bb(1, 0.25, 0.0, eta0=1.0)
    assert step(sched, _UNIT_SECANT, 5, 3, m=10) == pytest.approx(0.25, rel=1e-15)


def test_generalized_bb_decay_uses_global_iterate_index():
    sched = generalized_bb(1, 1.0, 1.0, eta0=1.0)
    anchors = _anchors(np.ones(2), np.ones(2))
    # T = k*m + t
    assert step(sched, anchors, 0, 0, m=10) == pytest.approx(1.0)
    assert step(sched, anchors, 2, 3, m=10) == pytest.approx(1.0 / 24.0)


def test_generalized_bb_fallback_scales_eta0():
    sched = generalized_bb(4, 0.5, 0.0, eta0=2.0)
    assert step(sched, None, 0, 0, m=10) == pytest.approx(0.5 / 4 * 2.0)


@pytest.mark.parametrize("eta0", [None, 0.0, -1.0])
def test_generalized_bb_needs_eta0(eta0):
    with pytest.raises(ValueError, match="eta0"):
        generalized_bb(4, 0.5, 0.0, eta0)


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
    sched = generalized_bb(7, 0.9, 0.05, eta0=0.5)
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
    mu, L = model.lam, model.smoothness()
    rng = np.random.default_rng(33)
    sched = generalized_bb(11, 0.8, 1e-3, eta0=1.0 / L)
    m = 40
    total = 4 * m
    # xi decreases in T: its range over the run is [xi_{total-1}, c1]
    xi_lo, xi_hi = sched.c1 / (1.0 + sched.c2 * (total - 1)), sched.c1
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
        generalized_bb(0, 0.1, 0.0, eta0=1.0)


@pytest.mark.parametrize("c1, c2, message", [
    (0.0, 0.0, "c1 > 0"), (-1.0, 0.0, "c1 > 0"), (None, 0.0, "c1 > 0"), (float("nan"), 0.0, "c1 > 0"),
    (1.0, -0.5, "c2 >= 0"), (1.0, -5e-324, "c2 >= 0"), (1.0, float("nan"), "c2 >= 0"),
])
def test_generalized_bb_rejects_c1_not_positive_and_c2_negative(c1, c2, message):
    with pytest.raises(ValueError, match=message):
        generalized_bb(4, c1, c2, eta0=1.0)
    with pytest.raises(ValueError, match=message):
        StepSizeSchedule(kind="generalized_bb", m1=4, c1=c1, c2=c2, eta0=1.0)


@pytest.mark.parametrize("make, args, message", [
    (constant, (float("nan"),), "finite eta > 0"),
    (constant, (float("inf"),), "finite eta > 0"),
    (epoch_bb, (float("nan"),), "finite fallback eta0 > 0"),
    (epoch_bb, (float("inf"),), "finite fallback eta0 > 0"),
    (generalized_bb, (4, 1.0, 0.0, float("inf")), "finite fallback eta0 > 0"),
    (preset, ("M2", 50, 0.1, 1e-3, float("nan")), "finite fallback eta0 > 0"),
    (generalized_bb, (4, float("inf"), 0.0, 1.0), "finite c1 > 0"),
    (preset, ("M3", 50, float("inf"), 1e-3, 1.0), "finite c1 > 0"),
    (generalized_bb, (4, 1.0, float("inf"), 1.0), "finite c2 >= 0"),
], ids=["constant-nan", "constant-inf", "epoch_bb-nan", "epoch_bb-inf",
        "generalized_bb-eta0-inf", "M2-eta0-nan", "c1-inf", "M3-c1-inf", "c2-inf"])
def test_a_schedule_rejects_a_value_that_is_not_finite(make, args, message):
    # before, each of these constructed, and its steps were nan or inf
    with pytest.raises(ValueError, match=message):
        make(*args)
