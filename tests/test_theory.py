import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vrgrad.correction import build_correction
from vrgrad.data import SparseDataset, synth_binary
from vrgrad.losses import LossModel
from vrgrad.optimizer import RunConfig, measure_variance, optimize
from vrgrad.reference import solve_reference
from vrgrad.stepsize import constant
from vrgrad.theory import (ProblemConstants, alpha_bb_diag,
                           alpha_full_hessian, beta_theorem1,
                           empirical_variance_bound, estimate_alpha_empirical,
                           gamma_theorem2, gamma_theorem3)

# -- residual-ratio constants ----------------------------------------------------


def test_alpha_full_hessian_direct():
    c = ProblemConstants(mu=1.0, L=1.0, L_tilde=2.0, M=1.0)
    assert alpha_full_hessian(c) == pytest.approx(1.0)


def test_alpha_full_hessian_zero_displacement():
    c = ProblemConstants(mu=1.0, L=1.0, L_tilde=2.0, M=0.0)
    assert alpha_full_hessian(c) == 0.0


def test_alpha_full_hessian_mu_scaling():
    base = alpha_full_hessian(ProblemConstants(mu=1.0, L=4.0, L_tilde=2.0, M=1.0))
    doubled = alpha_full_hessian(ProblemConstants(mu=2.0, L=4.0, L_tilde=2.0, M=1.0))
    assert doubled == pytest.approx(base / 4.0)


def test_alpha_bb_diag_direct():
    assert alpha_bb_diag(ProblemConstants(mu=1.0, L=1.0)) == pytest.approx(4.0)


def test_alpha_bb_diag_conditioned():
    # L = mu: alpha = 4L
    for L in (0.5, 1.0, 3.0):
        assert alpha_bb_diag(ProblemConstants(mu=L, L=L)) == pytest.approx(4.0 * L)


def test_alpha_bb_diag_condition_number_scaling():
    a1 = alpha_bb_diag(ProblemConstants(mu=0.1, L=1.0))
    a2 = alpha_bb_diag(ProblemConstants(mu=0.1, L=2.0))
    assert a2 == pytest.approx(4.0 * a1)


def test_constants_validation():
    with pytest.raises(ValueError):
        ProblemConstants(mu=0.0, L=1.0)
    with pytest.raises(ValueError):
        ProblemConstants(mu=2.0, L=1.0)


# -- contraction factors ----------------------------------------------------------


@pytest.mark.parametrize("rate", [
    lambda mu, L: beta_theorem1(mu, L, 0.0, 0.1, 10),
    lambda mu, L: gamma_theorem2(mu, L, 0.0, 10.0, 2000),
    lambda mu, L: gamma_theorem3(mu, L, 0.0, 0.5, 0.5, 1, 2000),
], ids=["beta_theorem1", "gamma_theorem2", "gamma_theorem3"])
def test_rate_formulas_reject_mu_outside_0_L(rate):
    # unchecked, mu = 1 > L = 0.05 overflows base ** m in the gamma formulas,
    # and beta_theorem1 at mu = -1 gives beta = -1.11 marked feasible
    for mu, L in ((1.0, 0.05), (-1.0, 1.0), (0.0, 1.0), (math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="mu <= L"):
            rate(mu, L)


def test_beta_frozen_value():
    # mu = L = 1, alpha = 0, eta = 0.1, m = 100:
    # beta = 1 / (0.1 * 0.9 * 100) = 1/9
    est = beta_theorem1(1.0, 1.0, 0.0, 0.1, 100)
    assert est.value == pytest.approx(1.0 / 9.0, rel=1e-14)
    assert est.feasible


def test_beta_alpha_zero_drops_second_term():
    mu, L, eta, m = 0.5, 2.0, 0.05, 40
    est = beta_theorem1(mu, L, 0.0, eta, m)
    assert est.value == pytest.approx(1.0 / (mu * eta * (1 - eta * L) * m))


def test_beta_pole_is_infeasible():
    # eta at the pole 1/(L(2 alpha + 1))
    est = beta_theorem1(1.0, 1.0, 1.0, 1.0 / 3.0, 100)
    assert not est.feasible
    assert est.value == np.inf


def test_beta_increasing_in_alpha():
    vals = [beta_theorem1(0.1, 1.0, a, 0.05, 200).value for a in (0.0, 0.5, 1.0, 2.0)]
    assert all(x < y for x, y in zip(vals, vals[1:]))


def test_gamma2_frozen_value():
    # alpha = 0, mu = L = 1, eta = 0.1, m = 10: (1 - 0.2*0.9)^10 = 0.82^10
    est = gamma_theorem2(1.0, 1.0, 0.0, 0.1, 10)
    assert est.value == pytest.approx(0.82 ** 10, rel=1e-14)
    assert est.feasible


def test_gamma2_vanishes_for_large_m():
    est = gamma_theorem2(1.0, 1.0, 0.0, 0.1, 10_000)
    assert est.value < 1e-300 or est.value == 0.0


def test_gamma2_eta_zero_is_infeasible():
    est = gamma_theorem2(1.0, 1.0, 0.0, 0.0, 10)
    assert est.value == 1.0
    assert not est.feasible


def test_gamma2_increasing_in_alpha():
    vals = [gamma_theorem2(0.1, 1.0, a, 0.02, 500).value for a in (0.0, 0.3, 0.6)]
    assert all(x < y for x, y in zip(vals, vals[1:]))


def test_gamma3_reduces_to_gamma2_when_degenerate():
    # xi0 = xi1 and mu = L collapse the bracket to a single eta
    mu = L = 2.0
    xi, m1, m = 0.3, 5, 50
    eta = xi / (m1 * L)
    for alpha in (0.0, 0.4):
        g3 = gamma_theorem3(mu, L, alpha, xi, xi, m1, m)
        g2 = gamma_theorem2(mu, L, alpha, eta, m)
        assert g3.value == pytest.approx(g2.value, rel=1e-12)


def test_gamma3_dominates_gamma2_at_eta0():
    rng = np.random.default_rng(60)
    found = 0
    for _ in range(200):
        mu = 10.0 ** rng.uniform(-3, -0.5)
        L = mu * 10.0 ** rng.uniform(0.0, 1.5)
        alpha = rng.uniform(0.0, 2.0)
        m1 = int(rng.integers(1, 20))
        m = int(rng.integers(10, 500))
        xi0 = 10.0 ** rng.uniform(-3, -0.5)
        xi1 = xi0 * rng.uniform(1.0, 3.0)
        g3 = gamma_theorem3(mu, L, alpha, xi0, xi1, m1, m)
        if not np.isfinite(g3.value):
            continue
        g2 = gamma_theorem2(mu, L, alpha, g3.eta0, m)
        if not np.isfinite(g2.value):
            continue
        found += 1
        assert g3.value >= g2.value - 1e-12
    assert found > 50


def test_gamma3_infeasible_for_large_xi1():
    est = gamma_theorem3(0.01, 1.0, 1.0, 0.1, 1e4, 1, 100)
    assert not est.feasible


def test_gamma3_brackets():
    est = gamma_theorem3(0.5, 2.0, 0.1, 0.2, 0.4, 10, 50)
    assert est.eta0 == pytest.approx(0.2 / (10 * 2.0))
    assert est.eta1 == pytest.approx(0.4 / (10 * 0.5))


# -- empirical certification --------------------------------------------------------


def test_alpha_hat_zero_for_exact_hessian_on_quadratic():
    # squared hinge with all margins active is exactly quadratic, so the
    # full-Hessian correction removes the residual entirely
    ds = synth_binary(30, 5, seed=61)
    model = LossModel(ds, 1e-2, "squared_hinge")
    rng = np.random.default_rng(62)
    anchor = 0.01 * rng.standard_normal(5)
    points = [anchor + 0.01 * rng.standard_normal(5) for _ in range(5)]
    margins = ds.labels * (ds.features @ anchor)
    assert np.all(1.0 - margins > 0.1)  # active region, locally quadratic
    corr = build_correction("full_hessian", model, anchor, np.zeros(5))
    assert estimate_alpha_empirical(model, corr, points) <= 1e-20


def test_alpha_hat_is_one_for_no_correction():
    ds = synth_binary(30, 5, seed=63)
    model = LossModel(ds, 1e-2, "logistic")
    rng = np.random.default_rng(64)
    anchor = rng.standard_normal(5)
    corr = build_correction("none", model, anchor)
    points = [anchor + rng.standard_normal(5) for _ in range(3)]
    assert estimate_alpha_empirical(model, corr, points) <= 1.0 + 1e-12


def test_alpha_hat_skips_zero_denominator():
    ds = synth_binary(10, 3, seed=65)
    model = LossModel(ds, 1e-2, "logistic")
    anchor = np.zeros(3)
    corr = build_correction("none", model, anchor)
    with pytest.raises(ValueError):
        estimate_alpha_empirical(model, corr, [anchor])


def test_alpha_hat_bb_below_paper_bound():
    ds = synth_binary(80, 8, seed=66)
    model = LossModel(ds, 1e-2, "logistic")
    rng = np.random.default_rng(67)
    w_prev = rng.standard_normal(8)
    w_anchor = w_prev - 0.4 * model.grad_full(w_prev)
    corr = build_correction("bb_scalar", model, w_anchor, w_prev)
    points = [w_anchor + 0.1 * rng.standard_normal(8) for _ in range(5)]
    bound = alpha_bb_diag(ProblemConstants(model.lam, model.smoothness()))
    assert estimate_alpha_empirical(model, corr, points) <= bound


def test_alpha_hat_full_hessian_shrinks_toward_minimizer():
    # the full-Hessian residual ratio scales with the displacement bound
    ds = synth_binary(60, 6, seed=68)
    model = LossModel(ds, 1e-2, "logistic")
    sol = solve_reference(model, tol=1e-10)
    rng = np.random.default_rng(69)
    direction_vec = rng.standard_normal(6)
    direction_vec /= np.linalg.norm(direction_vec)

    def alpha_at(radius):
        anchor = sol.w_star + radius * direction_vec
        corr = build_correction("full_hessian", model, anchor, sol.w_star)
        points = [anchor + radius * 0.5 * rng.standard_normal(6) for _ in range(4)]
        return estimate_alpha_empirical(model, corr, points)

    far = alpha_at(2.0)
    near = alpha_at(0.02)
    assert near < far


# -- variance envelope and gradient-difference bound ---------------------------------


def test_gradient_difference_bound_at_minimizer():
    # (1/n) sum ||grad f_i(w) - grad f_i(w*)||^2 <= 2 L (F(w) - F(w*))
    ds = synth_binary(70, 6, seed=70)
    model = LossModel(ds, 1e-2, "logistic")
    sol = solve_reference(model, tol=1e-10)
    L = model.smoothness()
    rng = np.random.default_rng(71)
    for _ in range(10):
        w = sol.w_star + rng.standard_normal(6)
        mean_sq = np.mean([
            float(np.sum(model.grad_sample_delta(i, w, sol.w_star) ** 2))
            for i in range(model.n)
        ])
        assert mean_sq <= 2.0 * L * (model.value(w) - sol.f_star) * (1 + 1e-10)


def test_variance_envelope_holds_along_trajectory():
    # measured variance <= 4 alpha L (F(w) - F* + F(anchor) - F*) with the
    # certified alpha for BB and diagonal corrections
    ds = synth_binary(60, 6, seed=72)
    model = LossModel(ds, 1e-2, "logistic")
    sol = solve_reference(model, tol=1e-10)
    L = model.smoothness()
    alpha = alpha_bb_diag(ProblemConstants(model.lam, L))
    rng = np.random.default_rng(73)
    w_prev = rng.standard_normal(6)
    w_anchor = w_prev - 0.4 * model.grad_full(w_prev)
    for variant in ("bb_scalar", "diag_hessian"):
        corr = build_correction(variant, model, w_anchor, w_prev)
        for _ in range(5):
            w = w_anchor + 0.3 * rng.standard_normal(6)
            var = measure_variance(model, corr, w)
            bound = empirical_variance_bound(L, alpha, model.value(w),
                                             model.value(w_anchor), sol.f_star)
            assert var <= bound


# -- Monte-Carlo consistency with the contraction bound ------------------------------


def test_epoch_contraction_within_gamma_bound():
    # SVRG satisfies the residual-ratio assumption with alpha = 1 exactly
    # (its per-sample correction term is zero)
    ds = synth_binary(200, 10, seed=74)
    model = LossModel(ds, 1e-1, "logistic")
    sol = solve_reference(model, tol=1e-12)
    mu, L = model.lam, model.smoothness()
    eta, m = 0.02, 2 * model.n
    est = gamma_theorem2(mu, L, 1.0, eta, m)
    assert est.feasible

    w0 = np.ones(10) * 0.5
    base = float(np.sum((w0 - sol.w_star) ** 2))
    ratios = []
    for seed in range(30):
        cfg = RunConfig(method="SVRG", schedule=constant(eta), epochs=1,
                        seed=seed, variance_mode="none")
        w1, _ = optimize(model, cfg, w0, sol.w_star)
        ratios.append(float(np.sum((w1 - sol.w_star) ** 2)) / base)
    mean = np.mean(ratios)
    sem = np.std(ratios, ddof=1) / np.sqrt(len(ratios))
    assert mean <= est.value + 2 * sem


# -- Hessian-Lipschitz bound ------------------------------------------------------------


def probe_ratio(model, i, w, z, v):
    """||(hess f_i(w) - hess f_i(z)) v|| / (||w - z|| ||v||), a lower bound on
    the Lipschitz constant of hess f_i."""
    hv = model.hess_vec_sample(i, w, v) - model.hess_vec_sample(i, z, v)
    return float(np.linalg.norm(hv)) / (float(np.linalg.norm(w - z)) * float(np.linalg.norm(v)))


def probe_hessian_lipschitz(model, seed, n_pairs, radius=1.0):
    """The largest probe ratio over random samples, pairs (w, z) and
    directions v: a lower estimate of max_i Lip(hess f_i)."""
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(n_pairs):
        i = int(rng.integers(model.n))
        w, z, v = radius * rng.standard_normal((3, model.d))
        best = max(best, probe_ratio(model, i, w, z, v))
    return best


def test_hessian_lipschitz_estimate_bounds():
    ds = synth_binary(40, 5, seed=75)
    model = LossModel(ds, 1e-2, "logistic")
    est = probe_hessian_lipschitz(model, seed=0, n_pairs=100)
    assert est > 0
    # analytic ceiling: max third-derivative of the margin loss is 1/(6 sqrt 3)
    row_norms = np.sqrt(np.asarray(
        ds.features.multiply(ds.features).sum(axis=1)).ravel())
    ceiling = row_norms.max() ** 3 / (6 * np.sqrt(3))
    assert model.hessian_lipschitz() == pytest.approx(ceiling, rel=1e-14)
    assert est <= model.hessian_lipschitz() * (1 + 1e-9)


def test_hessian_lipschitz_zero_for_pure_quadratic_region():
    # squared hinge Hessian is piecewise constant; probes inside one branch
    # see zero Lipschitz modulus almost always, never a negative one, while
    # the jump at the kink makes the bound infinite
    ds = synth_binary(40, 5, seed=76)
    model = LossModel(ds, 1e-2, "squared_hinge")
    est = probe_hessian_lipschitz(model, seed=1, n_pairs=20, radius=1e-3)
    assert est >= 0.0
    assert model.hessian_lipschitz() == math.inf


# a feature is 0 or at least 0.1 in magnitude, so a nonzero row's bound
# stays far above the rounding of the probe's Hessian difference
_ENTRY = st.one_of(st.just(0.0), st.floats(0.1, 2.0), st.floats(-2.0, -0.1))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["logistic", "squared_hinge"]),
       lam=st.sampled_from([0.0, 1e-2]))
def test_no_probe_ratio_exceeds_the_hessian_lipschitz_bound(data, kind, lam):
    n = data.draw(st.integers(1, 5), label="n")
    d = data.draw(st.integers(1, 4), label="d")
    X = np.array(data.draw(st.lists(_ENTRY, min_size=n * d, max_size=n * d),
                           label="X")).reshape(n, d)
    empty = data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="empty rows")
    X[np.array(empty)] = 0.0
    labels = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n),
                       label="labels")
    model = LossModel(SparseDataset(sp.csr_matrix(X), labels), lam, kind)
    bound = model.hessian_lipschitz()
    assert not math.isnan(bound)
    vec = st.lists(st.floats(-4.0, 4.0), min_size=d, max_size=d).map(np.array)
    w, z, v = (data.draw(vec, label=name) for name in "wzv")
    if np.linalg.norm(w - z) < 0.1 or np.linalg.norm(v) < 0.1:
        return
    for i in range(n):
        assert probe_ratio(model, i, w, z, v) <= bound * (1 + 1e-9)


def test_hessian_lipschitz_is_reached_by_one_row_at_the_peak_of_phi3():
    # |phi'''| of the logistic link peaks at sigma(m) = 1/2 + 1/(2 sqrt 3);
    # margins m* -/+ h along a give the central difference quotient of phi''
    a = np.array([0.6, -1.2, 0.8])
    model = LossModel(SparseDataset.from_dense(a[None, :], [1.0]), 1e-2, "logistic")
    s = 0.5 + 0.5 / math.sqrt(3.0)
    peak, h = math.log(s / (1.0 - s)), 1e-5
    along = a / float(a @ a)             # a^T (t * along) = t
    w, z = (peak + h) * along, (peak - h) * along
    assert probe_ratio(model, 0, w, z, a) == pytest.approx(model.hessian_lipschitz(),
                                                           rel=1e-9)


def test_squared_hinge_hessian_lipschitz_is_inf_or_zero_never_nan():
    X = sp.csr_matrix(np.array([[0.0, 0.0], [0.5, 0.0]]))
    hinge = LossModel(SparseDataset(X, [1.0, -1.0]), 1e-2, "squared_hinge")
    assert hinge.hessian_lipschitz() == math.inf
    empty = LossModel(SparseDataset(sp.csr_matrix((2, 2)), [1.0, -1.0]), 1e-2,
                      "squared_hinge")
    assert empty.hessian_lipschitz() == 0.0
    assert LossModel(empty.dataset, 1e-2, "logistic").hessian_lipschitz() == 0.0


@pytest.mark.parametrize("L_tilde, M, want", [
    (0.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, math.inf, 0.0),
    (3.0, 0.0, 0.0), (math.inf, 0.0, 0.0),
    (3.0, 2.0, 9.0 * 2.0 / (4.0 * 0.25)),
    (math.inf, 2.0, math.inf), (3.0, math.inf, math.inf),
    (math.inf, math.inf, math.inf)])
def test_alpha_full_hessian_is_never_nan(L_tilde, M, want):
    alpha = alpha_full_hessian(ProblemConstants(mu=0.5, L=1.0, L_tilde=L_tilde, M=M))
    assert alpha == pytest.approx(want, rel=1e-15)


def test_constants_reject_a_nan_curvature_bound():
    for L_tilde, M in ((math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError):
            ProblemConstants(mu=0.5, L=1.0, L_tilde=L_tilde, M=M)


def test_alpha_full_hessian_from_the_model_bound():
    ds = synth_binary(40, 5, seed=77)
    for kind, finite in (("logistic", True), ("squared_hinge", False)):
        model = LossModel(ds, 1e-2, kind)
        c = ProblemConstants(model.lam, model.smoothness(), model.hessian_lipschitz(), M=1.0)
        alpha = alpha_full_hessian(c)
        assert math.isfinite(alpha) == finite and alpha > 0.0


@settings(max_examples=300, deadline=None)
@given(mu=st.floats(1e-4, 1.0), kappa=st.floats(1.0, 1e3), alpha=st.floats(0.0, 10.0),
       eta_scale=st.floats(1e-4, 2.0), m=st.integers(1, 2000))
# gamma is subnormal here, and the two sides round it one grid spacing apart
@example(mu=1.0, kappa=1.0, alpha=2.2250738585e-313, eta_scale=0.75, m=1529)
def test_gamma2_is_the_two_term_formula(mu, kappa, alpha, eta_scale, m):
    # L/mu < 1 is outside the theorem and rejected (see
    # test_rate_formulas_reject_mu_outside_0_L)
    L = mu * kappa
    eta = eta_scale / L
    est = gamma_theorem2(mu, L, alpha, eta, m)
    denom = 1.0 - eta * L * (2.0 * alpha + 1.0)
    if denom <= 0.0:
        assert est.value == math.inf and not est.feasible
        return
    base = 1.0 - 2.0 * eta * mu * denom
    want = base ** m + 2.0 * alpha * eta * L ** 2 / (mu * denom)
    # below the smallest normal float, 2.2e-308, the spacing of the grid is
    # 4.9e-324 and rel=1e-12 asks for less than one; abs=1e-320 is below
    # rel=1e-12 of every normal float, so it loosens nothing above that
    assert est.value == pytest.approx(want, rel=1e-12, abs=1e-320)
    assert est.feasible == ((0.0 <= base < 1.0) and want < 1.0)
