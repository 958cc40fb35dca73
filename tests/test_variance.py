"""Exact variance telemetry and the empirical residual ratio against
per-sample loops as oracles.

``CorrectionOperator.sample_residuals``, which ``measure_variance`` and
``estimate_alpha_empirical`` call, expands each squared residual norm into
a few sparse matvecs.  The oracles here form every per-sample residual as a
dense vector, from the plain formula for v_t (``oracle.plain_direction``),
``grad_sample_delta`` and ``apply_sample``, and sum its squares.

The two agree to 1e-9 relative.  Where the exact value is below the
expansion's rounding floor (a residual that cancels to about 0), they agree
to within 1e-12 of the mean squared size of the residual's parts instead.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vrgrad.correction import VARIANTS, build_correction
from vrgrad.data import SparseDataset
from vrgrad.losses import KINDS, LossModel
from vrgrad.optimizer import measure_variance
from vrgrad.theory import estimate_alpha_empirical

from oracle import grad_sample, plain_direction

RTOL, FLOOR = 1e-9, 1e-12


def _sqnorm(v):
    return float(v @ v)


def loop_variance(model, corr, w):
    """(mean_i ||v_t(i) - grad F(w)||^2, mean squared size of its parts).

    The parts of v_t(i) - grad F(w) are grad f_i(w), grad f_i(anchor),
    g_anchor, A u, A_i u and grad F(w), with u = w - anchor.
    """
    u = w - corr.anchor
    g_full, a_mean = model.grad_full(w), corr.apply_mean(u)
    values, parts = [], []
    for i in range(model.n):
        v = plain_direction(model, corr, w, i)
        values.append(_sqnorm(v - g_full))
        parts.append(sum(_sqnorm(t) for t in (
            grad_sample(model, i, w), grad_sample(model, i, corr.anchor),
            corr.g_anchor, a_mean, corr.apply_sample(i, u), g_full)))
    return np.mean(values), np.mean(parts)


def loop_alpha_terms(model, corr, w):
    """Numerator and denominator of the residual ratio at w, each with the
    mean squared size of its parts."""
    u = w - corr.anchor
    num, den, num_parts, den_parts = [], [], [], []
    for i in range(model.n):
        delta = model.grad_sample_delta(i, w, corr.anchor)
        a_u = corr.apply_sample(i, u)
        num.append(_sqnorm(delta - a_u))
        den.append(_sqnorm(delta))
        grads = _sqnorm(grad_sample(model, i, w)) + _sqnorm(grad_sample(model, i, corr.anchor))
        den_parts.append(grads)
        num_parts.append(grads + _sqnorm(a_u))
    return np.mean(num), np.mean(num_parts), np.mean(den), np.mean(den_parts)


def assert_close(got, want, scale):
    assert got >= 0.0
    assert abs(got - want) <= RTOL * want + FLOOR * scale, (got, want, scale)


@st.composite
def problems(draw, variants=VARIANTS):
    """A random sparse problem with one correction (of ``variants``) and a
    point near its anchor: n and d from 1, empty rows, both losses, lam = 0
    included."""
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 8))
    density = draw(st.sampled_from([0.0, 0.25, 0.6, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.where(rng.random((n, d)) < density, rng.standard_normal((n, d)), 0.0)
    X[rng.random(n) < 0.2] = 0.0
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    dataset = SparseDataset(sp.csr_matrix(X), labels)
    model = LossModel(dataset, draw(st.sampled_from([0.0, 1e-3, 0.1])),
                      draw(st.sampled_from(KINDS)))
    anchor_prev = rng.standard_normal(d)
    anchor = anchor_prev + draw(st.sampled_from([1e-3, 1.0])) * rng.standard_normal(d)
    corr = build_correction(draw(st.sampled_from(variants)), model, anchor, anchor_prev)
    w = anchor + draw(st.sampled_from([0.0, 1e-6, 1e-2, 1.0])) * rng.standard_normal(d)
    return model, corr, w


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=75, deadline=None)
@given(data=st.data())
def test_sample_residuals_match_the_loop(variant, data):
    model, corr, w = data.draw(problems([variant]))
    assert corr.variant == variant
    scale_x = data.draw(st.sampled_from([0.0, 1e-3, 1.0]))
    x = scale_x * np.random.default_rng(data.draw(st.integers(0, 99))).standard_normal(model.d)
    u = w - corr.anchor
    got = corr.sample_residuals(w, x)
    assert got.shape == (model.n,)
    for i in range(model.n):
        a_u = corr.apply_sample(i, u)
        want = _sqnorm(x + model.grad_sample_delta(i, w, corr.anchor) - a_u)
        scale = sum(_sqnorm(t) for t in (x, grad_sample(model, i, w),
                                         grad_sample(model, i, corr.anchor), a_u))
        assert_close(got[i], want, scale)


@settings(max_examples=300, deadline=None)
@given(problems())
def test_variance_matches_the_loop(problem):
    model, corr, w = problem
    want, scale = loop_variance(model, corr, w)
    assert_close(measure_variance(model, corr, w), want, scale)


@settings(max_examples=300, deadline=None)
@given(problems())
def test_alpha_matches_the_loop(problem):
    model, corr, w = problem
    num, num_scale, den, den_scale = loop_alpha_terms(model, corr, w)
    assume(den > 1e-6 * den_scale)
    want = num / den
    got = estimate_alpha_empirical(model, corr, [w])
    assert got >= 0.0
    tol = 2 * RTOL * want + FLOOR * (num_scale + want * den_scale) / den
    assert abs(got - want) <= tol, (got, want)


@settings(max_examples=200, deadline=None)
@given(problems())
def test_mean_direction_is_the_gradient_plus_the_floor_bias(problem):
    model, corr, w = problem
    u = w - corr.anchor
    mean = np.mean([plain_direction(model, corr, w, i)
                    for i in range(model.n)], axis=0)
    bias = corr.bb_scalar - corr.bb_raw if corr.variant == "bb_scalar" else 0.0
    want = model.grad_full(w) + bias * u
    _, scale = loop_variance(model, corr, w)
    np.testing.assert_allclose(mean, want, rtol=0, atol=1e-12 * (1.0 + np.sqrt(scale)))


def test_floored_bb_scalar_biases_the_mean_direction():
    # Both margins stay above 1 at the anchors 10 and 11, so the squared hinge
    # is flat there: bb_raw = 0 is floored to 1e-8 * L = 4e-8.
    dataset = SparseDataset(sp.csr_matrix(np.array([[1.0], [2.0]])), np.ones(2))
    model = LossModel(dataset, 0.0, "squared_hinge")
    corr = build_correction("bb_scalar", model, np.array([11.0]), np.array([10.0]))
    assert corr.bb_raw == 0.0
    assert corr.bb_scalar == pytest.approx(4e-8)
    w = np.array([0.5])
    mean = np.mean([plain_direction(model, corr, w, i)
                    for i in range(model.n)], axis=0)
    np.testing.assert_allclose(mean - model.grad_full(w), 4e-8 * (w - corr.anchor),
                               rtol=1e-8)

