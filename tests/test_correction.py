import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vrgrad.correction import (VARIANTS, DegenerateAnchorError, build_correction,
                               default_delta_floor)
from vrgrad.data import SparseDataset, synth_binary
from vrgrad.losses import KINDS, LossModel
from vrgrad.stepsize import CurvatureError

from oracle import grad_delta, grad_sample


@pytest.fixture(scope="module")
def model():
    return LossModel(synth_binary(50, 6, seed=21), 1e-2, "logistic")


@pytest.fixture(scope="module")
def anchors(model):
    # a realistic anchor pair: one deterministic gradient step apart
    rng = np.random.default_rng(22)
    w_prev = rng.standard_normal(model.d)
    w_curr = w_prev - 0.5 * model.grad_full(w_prev)
    return w_curr, w_prev


def _build_all(model, w_curr, w_prev):
    return {
        variant: build_correction(variant, model, w_curr, w_prev)
        for variant in ("none", "full_hessian", "diag_hessian", "bb_scalar")
    }


# -- construction ----------------------------------------------------------


def test_none_variant_is_zero_operator(model, anchors):
    op = build_correction("none", model, anchors[0], anchors[1])
    u = np.ones(model.d)
    np.testing.assert_array_equal(op.apply_mean(u), np.zeros(model.d))
    np.testing.assert_array_equal(op.apply_sample(3, u), np.zeros(model.d))


def test_first_epoch_degrades_to_none(model, anchors):
    for variant in ("full_hessian", "diag_hessian", "bb_scalar"):
        op = build_correction(variant, model, anchors[0], None)
        assert op.variant == "none" and op.anchors is None


def test_bb_scalar_identity_hessian(model):
    # secant through gradients of (1/2)||w||^2: y = s, so the scalar is 1
    w_prev = np.zeros(model.d)
    w_curr = np.ones(model.d)
    op = build_correction("bb_scalar", model, w_curr, w_prev,
                          g_curr=w_curr.copy(), g_prev=w_prev.copy())
    assert op.bb_raw == pytest.approx(1.0, rel=1e-15)


def test_bb_scalar_diagonal_quadratic():
    # Hessian diag(1, 4), s = (1, 1): y = (1, 4), s.y = 5, ||s||^2 = 2 -> 2.5
    model = LossModel(synth_binary(5, 2, seed=1), 0.0, "logistic")
    s = np.array([1.0, 1.0])
    y = np.array([1.0, 4.0])
    op = build_correction("bb_scalar", model, s, np.zeros(2), g_curr=y,
                          g_prev=np.zeros(2))
    assert op.bb_raw == pytest.approx(2.5, rel=1e-15)


def test_bb_scalar_degenerate_anchor(model, anchors):
    with pytest.raises(DegenerateAnchorError):
        build_correction("bb_scalar", model, anchors[0], anchors[0].copy())


def test_bb_scalar_delta_floor(model):
    # force a floor bind by injecting a negative-curvature secant
    w_prev = np.zeros(model.d)
    w_curr = np.ones(model.d)
    op = build_correction("bb_scalar", model, w_curr, w_prev,
                          g_curr=-w_curr, g_prev=w_prev)
    assert op.bb_raw == pytest.approx(-1.0)
    assert op.bb_scalar == default_delta_floor(model)


@settings(deadline=None)
@given(variant=st.sampled_from(VARIANTS), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-8, 1e-3, 1.0, 1e8]))
def test_bb_scalar_and_bb_step_share_the_secant(model, variant, seed, scale):
    # every variant carries the pair; the BB scalar is s^T y / ||s||^2 and
    # the BB step reads ||s||^2 / s^T y from the same pair, bit for bit
    rng = np.random.default_rng(seed)
    w0, g0, dw, dg = rng.standard_normal((4, model.d))
    w1, g1 = w0 + scale * dw, g0 + dg
    corr = build_correction(variant, model, w1, w0, g_curr=g1, g_prev=g0)
    s = w1 - w0
    sq, sty = float(s @ s), float(s @ (g1 - g0))
    if variant == "bb_scalar":
        assert corr.bb_raw == sty / sq
    if sty > 0.0:
        assert corr.anchors.bb_ratio() == sq / sty
    else:
        with pytest.raises(CurvatureError):
            corr.anchors.bb_ratio()


def test_default_delta_floor(model):
    assert default_delta_floor(model) == 1e-8 * max(1.0, model.smoothness())


def test_unknown_variant(model, anchors):
    with pytest.raises(ValueError):
        build_correction("low_rank", model, anchors[0], anchors[1])


# -- operator behavior -------------------------------------------------------


def test_apply_zero_vector(model, anchors):
    for op in _build_all(model, *anchors).values():
        np.testing.assert_allclose(op.apply_mean(np.zeros(model.d)),
                                   np.zeros(model.d), atol=0)
        np.testing.assert_allclose(op.apply_sample(0, np.zeros(model.d)),
                                   np.zeros(model.d), atol=0)


def test_unbiasedness_by_enumeration(model, anchors):
    rng = np.random.default_rng(23)
    ops = _build_all(model, *anchors)
    for variant, op in ops.items():
        for _ in range(5):
            u = rng.standard_normal(model.d)
            mean = np.mean([op.apply_sample(i, u) for i in range(model.n)], axis=0)
            np.testing.assert_allclose(mean, op.apply_mean(u), atol=1e-10,
                                       err_msg=variant)


def test_diag_mean_is_elementwise_product(model, anchors):
    op = build_correction("diag_hessian", model, anchors[0], anchors[1])
    u = np.arange(1.0, model.d + 1)
    np.testing.assert_array_equal(op.apply_mean(u),
                                  model.mean_hess_diag(anchors[0]) * u)


def test_bb_mean_is_scalar_multiple(model, anchors):
    op = build_correction("bb_scalar", model, anchors[0], anchors[1])
    u = np.arange(1.0, model.d + 1)
    np.testing.assert_array_equal(op.apply_mean(u), op.bb_scalar * u)


# -- per-epoch data ---------------------------------------------------------


def test_epoch_data_matches_per_sample_oracles(model, anchors):
    w_curr, w_prev = anchors
    g = model.grad_full(w_curr)
    X = model.dataset.features.toarray()
    for variant, op in _build_all(model, w_curr, w_prev).items():
        np.testing.assert_allclose(op.anchor_dots, X @ w_curr, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(op.grad_dots, X @ g, rtol=1e-12, atol=1e-15)
        for i in range(model.n):
            # grad f_i(z) = c_i(z) a_i + lam z
            np.testing.assert_allclose(
                op.anchor_coefs[i] * X[i] + model.lam * w_curr,
                grad_sample(model, i, w_curr), rtol=1e-12, atol=1e-15, err_msg=variant)


def test_bb_sample_scalars_give_the_per_sample_operator(model, anchors):
    op = build_correction("bb_scalar", model, *anchors)
    u = np.ones(model.d)
    for i in range(model.n):
        np.testing.assert_allclose(op.apply_sample(i, u),
                                   (model.lam + op.sample_scalars[i]) * u, rtol=1e-12)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("rows", ["short", "full"])
def test_bb_apply_sample_is_the_secant_of_the_gradient_difference_bit_for_bit(rows, kind):
    # A_i u = s^T (grad f_i(z) - grad f_i(z_prev)) / ||s||^2 u, the
    # difference formed by the plain per-sample formula
    rng = np.random.default_rng(24)
    X = rng.standard_normal((30, 8))
    if rows == "short":
        X[rng.random(X.shape) < 0.5] = 0.0
    model = LossModel(SparseDataset.from_dense(X, rng.choice([-1.0, 1.0], 30)), 1e-2, kind)
    assert model.full_rows == (rows == "full")
    z_prev, z, u = rng.standard_normal((3, 8))
    op = build_correction("bb_scalar", model, z, z_prev)
    pair = op.anchors
    for i in range(model.n):
        scalar = float(pair.s @ grad_delta(model, i, z, z_prev)) / pair.secant[0]
        assert op.apply_sample(i, u).tobytes() == (scalar * u).tobytes()


def test_full_hessian_mean_uses_the_epoch_coefficients(model, anchors):
    # the coefficients are cached for the epoch; the product keeps its bits
    op = build_correction("full_hessian", model, *anchors)
    u = np.arange(1.0, model.d + 1)
    np.testing.assert_array_equal(op.apply_mean(u), model.mean_hess_vec(anchors[0], u))


def test_full_hessian_matches_dense_assembly():
    # dense-assembly oracle on a d=5 logistic instance
    ds = synth_binary(30, 5, seed=24)
    model = LossModel(ds, 1e-2, "logistic")
    rng = np.random.default_rng(25)
    anchor = rng.standard_normal(5)
    op = build_correction("full_hessian", model, anchor, np.zeros(5))

    dense = np.zeros((5, 5))
    for i in range(model.n):
        a = ds.features[i].toarray().ravel()
        margin = ds.labels[i] * (a @ anchor)
        s = 1.0 / (1.0 + np.exp(-margin))
        dense += s * (1 - s) * np.outer(a, a)
    dense = dense / model.n + model.lam * np.eye(5)

    for j in range(5):
        e = np.zeros(5)
        e[j] = 1.0
        np.testing.assert_allclose(op.apply_mean(e), dense[:, j], atol=1e-10)


def test_linearity(model, anchors):
    rng = np.random.default_rng(26)
    for variant, op in _build_all(model, *anchors).items():
        u = rng.standard_normal(model.d)
        v = rng.standard_normal(model.d)
        a, b = 0.7, -1.3
        np.testing.assert_allclose(
            op.apply_mean(a * u + b * v),
            a * op.apply_mean(u) + b * op.apply_mean(v), atol=1e-10)
        np.testing.assert_allclose(
            op.apply_sample(4, a * u + b * v),
            a * op.apply_sample(4, u) + b * op.apply_sample(4, v), atol=1e-10)


def test_dimension_mismatch(model, anchors):
    op = build_correction("bb_scalar", model, anchors[0], anchors[1])
    with pytest.raises(ValueError):
        op.apply_mean(np.zeros(model.d + 2))


# -- BB bounds on strongly convex models -------------------------------------


def test_bb_scalar_within_curvature_bounds():
    rng = np.random.default_rng(27)
    for trial in range(10):
        lam = 10.0 ** rng.uniform(-3, -1)
        model = LossModel(synth_binary(40, 5, seed=trial), lam, "logistic")
        w_prev = rng.standard_normal(5)
        w_curr = w_prev - 0.3 * model.grad_full(w_prev)
        op = build_correction("bb_scalar", model, w_curr, w_prev)
        assert lam - 1e-10 <= op.bb_raw <= model.smoothness() + 1e-10


# -- second-order residual (Taylor remainder) ---------------------------------


def _dense_hessian(model, i, w):
    H = np.zeros((model.d, model.d))
    for j in range(model.d):
        e = np.zeros(model.d)
        e[j] = 1.0
        H[:, j] = model.hess_vec_sample(i, w, e)
    return H


def test_taylor_residual_bounded_by_segment_lipschitz():
    # || grad f_i(w) - grad f_i(anchor) - hess f_i(anchor) u || <= (Lseg/2)||u||^2
    # with Lseg the numerically estimated Hessian Lipschitz constant on the
    # segment [anchor, w]
    ds = synth_binary(20, 6, seed=29)
    model = LossModel(ds, 1e-2, "logistic")
    rng = np.random.default_rng(30)
    for trial in range(5):
        i = int(rng.integers(model.n))
        anchor = rng.standard_normal(6)
        u = 0.5 * rng.standard_normal(6)
        w = anchor + u

        H0 = _dense_hessian(model, i, anchor)
        lip = 0.0
        for tau in np.linspace(0.02, 1.0, 64):
            H = _dense_hessian(model, i, anchor + tau * u)
            lip = max(lip, np.linalg.norm(H - H0, 2) / (tau * np.linalg.norm(u)))

        residual = model.grad_sample_delta(i, w, anchor) - model.hess_vec_sample(i, anchor, u)
        bound = 0.5 * lip * float(u @ u)
        assert np.linalg.norm(residual) <= bound * 1.05 + 1e-14
