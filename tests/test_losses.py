import numpy as np
import pytest

from vrgrad.data import SparseDataset, synth_binary
from vrgrad.losses import _LINKS, KINDS, LossModel

# -- independent oracles -------------------------------------------------------


def naive_value(model, w):
    """Brute-force objective: per-sample dense math, no shared code paths."""
    X = model.dataset.features.toarray()
    b = model.dataset.labels
    total = 0.0
    for i in range(model.n):
        margin = b[i] * float(X[i] @ w)
        if model.kind == "logistic":
            total += np.log1p(np.exp(-margin))
        else:
            total += 0.5 * max(0.0, 1.0 - margin) ** 2
    return total / model.n + 0.5 * model.lam * float(w @ w)


def fd_grad_sample(model, i, w, h=1e-6):
    g = np.zeros(model.d)
    for j in range(model.d):
        e = np.zeros(model.d)
        e[j] = h
        g[j] = (model.value_sample(i, w + e) - model.value_sample(i, w - e)) / (2 * h)
    return g


def fd_hess_vec(model, i, w, v, h=1e-6):
    return (model.grad_sample(i, w + h * v) - model.grad_sample(i, w - h * v)) / (2 * h)


@pytest.fixture(scope="module")
def instances():
    out = []
    for kind in ("logistic", "squared_hinge"):
        ds = synth_binary(40, 8, seed=2)
        out.append(LossModel(ds, 1e-2, kind))
    return out


# -- objective values ----------------------------------------------------------


def test_logistic_value_at_zero_is_log2():
    ds = synth_binary(25, 5, seed=0)
    model = LossModel(ds, 0.0, "logistic")
    assert model.value(np.zeros(5)) == pytest.approx(np.log(2), rel=1e-14)


def test_squared_hinge_value_at_zero_is_half():
    ds = synth_binary(25, 5, seed=0)
    model = LossModel(ds, 0.0, "squared_hinge")
    assert model.value(np.zeros(5)) == pytest.approx(0.5, rel=1e-14)


def test_value_matches_naive_summation(instances):
    rng = np.random.default_rng(3)
    for model in instances:
        for _ in range(5):
            w = rng.standard_normal(model.d)
            assert model.value(w) == pytest.approx(naive_value(model, w), rel=1e-12)


def test_value_is_mean_of_value_samples(instances):
    rng = np.random.default_rng(4)
    for model in instances:
        w = rng.standard_normal(model.d)
        mean = np.mean([model.value_sample(i, w) for i in range(model.n)])
        assert model.value(w) == pytest.approx(mean, rel=1e-12)


def test_dimension_mismatch_raises(instances):
    for model in instances:
        with pytest.raises(ValueError):
            model.value(np.zeros(model.d + 1))
        with pytest.raises(ValueError):
            model.grad_sample(0, np.zeros(model.d - 1))


def test_logistic_stable_for_large_logits():
    ds = synth_binary(10, 3, seed=1)
    model = LossModel(ds, 0.0, "logistic")
    w = 1e4 * np.ones(3)
    assert np.isfinite(model.value(w))
    assert np.isfinite(model.grad_full(w)).all()


# -- gradients -------------------------------------------------------------


def test_grad_sample_at_zero_logistic():
    ds = synth_binary(20, 6, seed=5)
    model = LossModel(ds, 0.0, "logistic")
    for i in (0, 7, 19):
        expected = -0.5 * ds.labels[i] * ds.features[i].toarray().ravel()
        np.testing.assert_allclose(model.grad_sample(i, np.zeros(6)), expected,
                                   rtol=0, atol=1e-15)


def test_grad_sample_at_zero_squared_hinge():
    ds = synth_binary(20, 6, seed=5)
    model = LossModel(ds, 0.0, "squared_hinge")
    for i in (0, 7, 19):
        expected = -ds.labels[i] * ds.features[i].toarray().ravel()
        np.testing.assert_allclose(model.grad_sample(i, np.zeros(6)), expected,
                                   rtol=0, atol=1e-15)


def test_grad_sample_matches_finite_differences(instances):
    rng = np.random.default_rng(6)
    for model in instances:
        for _ in range(20):
            i = int(rng.integers(model.n))
            w = rng.standard_normal(model.d)
            g = model.grad_sample(i, w)
            g_fd = fd_grad_sample(model, i, w)
            rel = np.linalg.norm(g - g_fd) / max(np.linalg.norm(g), 1e-12)
            assert rel <= 1e-6


def test_grad_sample_delta_consistent(instances):
    rng = np.random.default_rng(7)
    for model in instances:
        w = rng.standard_normal(model.d)
        z = rng.standard_normal(model.d)
        for i in (0, model.n // 2):
            lhs = model.grad_sample_delta(i, w, z)
            rhs = model.grad_sample(i, w) - model.grad_sample(i, z)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_grad_full_is_mean_of_samples(instances):
    rng = np.random.default_rng(8)
    for model in instances:
        w = rng.standard_normal(model.d)
        mean = np.mean([model.grad_sample(i, w) for i in range(model.n)], axis=0)
        np.testing.assert_allclose(model.grad_full(w), mean, atol=1e-12)


def test_grad_full_small_at_reference_minimizer():
    from vrgrad.reference import solve_reference
    ds = synth_binary(60, 6, seed=9)
    model = LossModel(ds, 1e-2, "logistic")
    sol = solve_reference(model, tol=1e-10)
    assert np.linalg.norm(model.grad_full(sol.w_star)) <= 1e-10


def test_grad_full_zero_on_balanced_symmetric_data():
    # (a, +1) and (a, -1) cancel at w = 0 for the logistic loss
    import scipy.sparse as sp
    a = np.array([0.3, -1.2, 0.7])
    X = sp.csr_matrix(np.vstack([a, a]))
    ds = SparseDataset(X, [1.0, -1.0])
    model = LossModel(ds, 0.5, "logistic")
    np.testing.assert_allclose(model.grad_full(np.zeros(3)), np.zeros(3), atol=1e-16)


# -- curvature ------------------------------------------------------------


def test_hess_vec_zero_vector(instances):
    for model in instances:
        w = np.ones(model.d)
        np.testing.assert_array_equal(model.hess_vec_sample(0, w, np.zeros(model.d)),
                                      np.zeros(model.d))


def test_hess_vec_matches_directional_differences(instances):
    rng = np.random.default_rng(10)
    for model in instances:
        for _ in range(20):
            i = int(rng.integers(model.n))
            w = rng.standard_normal(model.d)
            v = rng.standard_normal(model.d)
            hv = model.hess_vec_sample(i, w, v)
            hv_fd = fd_hess_vec(model, i, w, v)
            rel = np.linalg.norm(hv - hv_fd) / max(np.linalg.norm(hv), 1e-12)
            assert rel <= 1e-5


def test_hess_vec_inactive_hinge_is_regularizer_only():
    ds = synth_binary(20, 5, seed=11)
    model = LossModel(ds, 0.3, "squared_hinge")
    # push w far along b_i * a_i so the margin 1 - b a^T w goes negative
    i = 0
    a = ds.features[i].toarray().ravel()
    w = 10.0 * ds.labels[i] * a / (a @ a)
    assert 1.0 - ds.labels[i] * (a @ w) < 0
    v = np.arange(1.0, 6.0)
    np.testing.assert_array_equal(model.hess_vec_sample(i, w, v), 0.3 * v)


def test_hess_diag_at_zero_logistic():
    ds = synth_binary(15, 4, seed=12)
    model = LossModel(ds, 1e-3, "logistic")
    for i in (0, 14):
        expected = 0.25 * ds.features[i].toarray().ravel() ** 2 + 1e-3
        np.testing.assert_allclose(model.hess_diag_sample(i, np.zeros(4)), expected,
                                   rtol=1e-14)


def test_hess_diag_matches_basis_probes(instances):
    rng = np.random.default_rng(13)
    for model in instances:
        i = int(rng.integers(model.n))
        w = rng.standard_normal(model.d)
        diag = model.hess_diag_sample(i, w)
        for j in range(model.d):
            e = np.zeros(model.d)
            e[j] = 1.0
            probe = model.hess_vec_sample(i, w, e)[j]
            assert diag[j] == pytest.approx(probe, abs=1e-12)


def test_hess_diag_inactive_hinge_is_constant_lambda():
    ds = synth_binary(20, 5, seed=11)
    model = LossModel(ds, 0.3, "squared_hinge")
    i = 0
    a = ds.features[i].toarray().ravel()
    w = 10.0 * ds.labels[i] * a / (a @ a)
    np.testing.assert_array_equal(model.hess_diag_sample(i, w), np.full(5, 0.3))


def test_mean_hess_vec_is_mean_of_samples(instances):
    rng = np.random.default_rng(14)
    for model in instances:
        w = rng.standard_normal(model.d)
        v = rng.standard_normal(model.d)
        mean = np.mean([model.hess_vec_sample(i, w, v) for i in range(model.n)], axis=0)
        np.testing.assert_allclose(model.mean_hess_vec(w, v), mean, atol=1e-12)


def test_mean_hess_vec_from_writes_the_same_bits_into_out(instances):
    rng = np.random.default_rng(16)
    for model in instances:
        coefs = model.curvature_at(rng.standard_normal(model.d))
        v = rng.standard_normal(model.d)
        want = model.dataset.features.T @ (coefs * (model.dataset.features @ v)) \
            / model.n + model.lam * v
        out = np.full(model.d, np.nan)
        assert model.mean_hess_vec_from(coefs, v, out=out) is out
        np.testing.assert_array_equal(out, want)
        np.testing.assert_array_equal(model.mean_hess_vec_from(coefs, v), want)


def test_mean_hessian_from_is_the_mean_of_the_sample_hessians(instances):
    rng = np.random.default_rng(17)
    for model in instances:
        w = rng.standard_normal(model.d)
        H = model.mean_hessian_from(model.curvature_at(w))
        for j in range(model.d):
            e = np.zeros(model.d)
            e[j] = 1.0
            mean = np.mean([model.hess_vec_sample(i, w, e) for i in range(model.n)], axis=0)
            np.testing.assert_allclose(H[:, j], mean, atol=1e-12)


def test_mean_hess_diag_is_mean_of_samples(instances):
    rng = np.random.default_rng(15)
    for model in instances:
        w = rng.standard_normal(model.d)
        mean = np.mean([model.hess_diag_sample(i, w) for i in range(model.n)], axis=0)
        np.testing.assert_allclose(model.mean_hess_diag(w), mean, atol=1e-12)


# -- spectral invariants ----------------------------------------------------


def transposes_built(monkeypatch, X):
    """Every transpose of X's class built from now on."""
    built = []
    real = type(X).transpose

    def transpose(self, *args, **kwargs):
        built.append(self.shape)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(type(X), "transpose", transpose)
    return built


def test_dataset_oracles_build_no_transpose(monkeypatch, instances):
    # X^T is built with the model and (X o X)^T on the first mean_hess_diag,
    # which only SVRG2D calls; the results are the bits of the products with
    # a transpose built on each call
    for shared in instances:
        model = LossModel(shared.dataset, shared.lam, shared.kind)
        X = model.dataset.features
        rng = np.random.default_rng(3)
        w, v = rng.standard_normal(model.d), rng.standard_normal(model.d)
        coefs = model.curvature_at(w)
        built = transposes_built(monkeypatch, X)
        got = [model.grad_full(w), model.grad_full(w), model.mean_hess_vec_from(coefs, v)]
        assert built == [] and model._X_sq_T is None
        got += [model.mean_hess_diag(w), model.mean_hess_diag(w)]
        assert built == [X.shape]
        monkeypatch.undo()
        hv = X.T @ (coefs * (X @ v)) / model.n
        diag = np.asarray(X.multiply(X).T @ coefs / model.n).ravel() + model.lam
        want = [X.T @ model.margin_coefs(X @ w) / model.n + model.lam * w] * 2 + [
            model.lam * v + hv, diag, diag]
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


def test_hessian_symmetry_proxy(instances):
    rng = np.random.default_rng(16)
    for model in instances:
        for _ in range(10):
            i = int(rng.integers(model.n))
            w = rng.standard_normal(model.d)
            u = rng.standard_normal(model.d)
            v = rng.standard_normal(model.d)
            lhs = v @ model.hess_vec_sample(i, w, u)
            rhs = u @ model.hess_vec_sample(i, w, v)
            assert lhs == pytest.approx(rhs, abs=1e-10)


def test_strong_convexity_floor(instances):
    rng = np.random.default_rng(17)
    for model in instances:
        lam = model.lam
        for _ in range(20):
            i = int(rng.integers(model.n))
            w = rng.standard_normal(model.d)
            v = rng.standard_normal(model.d)
            quad = v @ model.hess_vec_sample(i, w, v)
            assert quad >= lam * (v @ v) - 1e-12


def test_smoothness_ceiling(instances):
    rng = np.random.default_rng(18)
    for model in instances:
        Ls = model.per_sample_smoothness()
        for _ in range(20):
            i = int(rng.integers(model.n))
            w = rng.standard_normal(model.d)
            v = rng.standard_normal(model.d)
            quad = v @ model.hess_vec_sample(i, w, v)
            assert quad <= Ls[i] * (v @ v) * (1 + 1e-12)


def test_constants(instances):
    for model in instances:
        assert model.strong_convexity() == model.lam
        assert model.smoothness() == model.per_sample_smoothness().max()


def test_label_validation():
    ds = synth_binary(10, 3, seed=1)
    bad = SparseDataset(ds.features, np.ones(10) * 2.0)
    with pytest.raises(ValueError):
        LossModel(bad, 0.1, "logistic")


@pytest.mark.parametrize("lam", [-1e-3, -np.inf, np.inf, np.nan])
def test_lambda_must_be_finite_and_nonnegative(lam):
    with pytest.raises(ValueError, match="lam must be finite"):
        LossModel(synth_binary(10, 3, seed=1), lam)


def test_kind_aliases():
    ds = synth_binary(10, 3, seed=1)
    assert LossModel(ds, 0.1, "svm").kind == "squared_hinge"
    with pytest.raises(ValueError):
        LossModel(ds, 0.1, "huber")


# -- the link: phi, phi' and phi'' of the margin, per kind ---------------------

# 0, the hinge kink m = 1 and its neighbours, and margins far out
LINK_MARGINS = [-1e3, -745.0, -50.0, -40.5, -1.0, -1e-9, 0.0, 1e-9, 0.5,
                np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 2.0, 36.0, 40.5, 50.0,
                745.0, 1e3]


def margin_model(kind, margins, lam):
    """A d = 1 model whose margins at w = [1] are ``margins`` exactly: row i
    holds |m_i| and its label is the sign of m_i (+1 at 0)."""
    m = np.asarray(margins, dtype=np.float64)
    return LossModel(SparseDataset.from_dense(np.abs(m)[:, None], np.where(m < 0, -1.0, 1.0)),
                     lam, kind)


@pytest.mark.parametrize("kind", KINDS)
def test_link_float_and_array_forms_agree_bit_for_bit(kind):
    margins = np.concatenate([LINK_MARGINS, np.random.default_rng(40).standard_normal(40) * 5])
    model = margin_model(kind, margins, lam=0.1)
    w = np.ones(1)
    dots = model.dataset.features @ w
    np.testing.assert_array_equal(model.dataset.labels * dots, margins)
    coefs, curvs = model.margin_coefs(dots), model.curvature_coefs(dots)
    for i in range(model.n):
        assert float(model.margin_coef_at(i, float(dots[i]))).hex() == float(coefs[i]).hex()
        # phi'' has one form: the per-sample oracles call it on one np.float64
        c = model._curv_coef(i, w)
        assert isinstance(c, np.float64) and c.hex() == float(curvs[i]).hex()
        # with a_i = [a] and v = [1]: lam v + c (a_i.v) a_i and lam + c a^2
        a = float(dots[i])
        assert model.hess_vec_sample(i, w, np.ones(1))[0].hex() == (model.lam + c * a * a).hex()
        assert model.hess_diag_sample(i, w)[0].hex() == (model.lam + c * a * a).hex()
        alone = LossModel(model.dataset.subsample([i]), model.lam, kind)
        assert float(model.value_sample(i, w)).hex() == alone.value(w).hex()


@pytest.mark.parametrize("kind", KINDS)
def test_link_derivatives_match_central_differences(kind):
    link = _LINKS[kind]
    # away from the hinge kink at m = 1
    m = np.array([-1e3, -5.0, -1.0, -0.3, 0.0, 0.4, 0.9, 1.1, 2.0, 5.0, 1e3])
    h = 1e-5
    np.testing.assert_allclose(link.dphi(m), (link.phi(m + h) - link.phi(m - h)) / (2 * h),
                               rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(link.d2phi(m), (link.dphi(m + h) - link.dphi(m - h)) / (2 * h),
                               rtol=1e-6, atol=1e-8)
    # sup phi'' is attained at m = 0
    assert link.d2phi(m).max() == link.d2phi(np.zeros(1))[0] == link.sup_d2phi


def test_hinge_curvature_at_the_kink_is_the_inactive_branch():
    model = margin_model("squared_hinge", [1.0], lam=0.0)
    assert model._curv_coef(0, np.ones(1)) == 0.0
    assert model.margin_coef_at(0, 1.0) == 0.0
