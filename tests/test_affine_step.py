"""The O(nnz_i) affine inner step against the dense inner step as oracle.

Every run here uses data whose mean row has at most d/4 nonzeros, so
``optimize`` takes the affine step for the ``none`` and ``bb_scalar``
corrections.  The oracle is the same run with the affine step switched off,
which takes the dense step: the plain formula for v_t on a dense w.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import vrgrad.optimizer as optimizer
from vrgrad.correction import build_correction
from vrgrad.data import SparseDataset
from vrgrad.harness import schedule_for
from vrgrad.losses import LossModel
from vrgrad.optimizer import (METHODS, DivergenceError, RunConfig,
                              affine_step_applies, optimize)
from vrgrad.stepsize import CurvatureError, EpochAnchors, constant

RTOL = 1e-10


def sparse_dataset(n, d, nnz, seed, empty_rows=()):
    """n rows with ``nnz`` distinct random columns each (none in
    ``empty_rows``), unit-norm rows, random +-1 labels."""
    rng = np.random.default_rng(seed)
    indptr, indices, values = [0], [], []
    for i in range(n):
        k = 0 if i in empty_rows else nnz
        indices.extend(np.sort(rng.choice(d, k, replace=False)))
        vals = rng.uniform(0.5, 1.5, k)
        values.extend(vals / np.linalg.norm(vals) if k else vals)
        indptr.append(len(indices))
    X = sp.csr_matrix((values, indices, indptr), shape=(n, d))
    return SparseDataset(X, np.where(rng.random(n) < 0.5, 1.0, -1.0))


def run_both(monkeypatch, model, config, w0=None):
    """(records, summaries) of the affine-step run, then of the dense-step
    run; a run that diverged gives its DivergenceError instead of records."""
    w0 = np.zeros(model.d) if w0 is None else w0
    real_run_epoch = optimizer.run_epoch
    out = []
    for affine in (True, False):
        summaries = []

        def spy(*args, **kwargs):
            summary = real_run_epoch(*args, **kwargs)
            summaries.append(summary)
            return summary

        with monkeypatch.context() as patch:
            patch.setattr(optimizer, "run_epoch", spy)
            if not affine:
                patch.setattr(optimizer, "affine_step_applies", lambda *a: False)
            try:
                _, records = optimize(model, config, w0)
            except DivergenceError as err:
                records = err
        out.append((records, summaries))
    return out


def assert_same_run(monkeypatch, model, config, w0=None):
    (fast, fast_sums), (dense, dense_sums) = run_both(monkeypatch, model, config, w0)
    assert not isinstance(fast, DivergenceError) and not isinstance(dense, DivergenceError)
    assert len(fast) == len(dense) == config.epochs
    for a, b in zip(fast, dense):
        assert a.fval == pytest.approx(b.fval, rel=RTOL, abs=0.0)
        assert a.grad_evals == b.grad_evals
        assert a.step_size == pytest.approx(b.step_size, rel=RTOL)
    assert ([s.curvature_fallbacks for s in fast_sums]
            == [s.curvature_fallbacks for s in dense_sums])
    for a, b in zip(fast_sums, dense_sums):
        np.testing.assert_allclose(a.next_anchor, b.next_anchor, rtol=1e-8, atol=1e-12)
    return fast


# a grid parameter per method at which no run here diverges: eta for the
# constant-step methods, eta0 for SVRGBB, c1 for the generalized-BB presets
STEP = {"SVRG": 0.5, "SVRG2": 0.5, "SVRG2D": 0.5, "SVRG2BB": 0.5, "SVRGBB": 0.5,
        "SVRG2BBS-M1": 2.0, "SVRG2BBS-M2": 1.0, "SVRG2BBS-M3": 0.01}


def config_for(method, model, step=None, epochs=4, anchor_option=1, seed=5, m=None):
    step = STEP[method] if step is None else step
    schedule = schedule_for(method, step, model.n, model.lam, model.smoothness())
    return RunConfig(method=method, schedule=schedule, epochs=epochs, m=m,
                     anchor_option=anchor_option, seed=seed, variance_mode="none")


@pytest.fixture(scope="module")
def data():
    return sparse_dataset(60, 80, 6, seed=11)


# -- the rule ----------------------------------------------------------------------


def test_rule_takes_short_rows_and_scalar_corrections_only(data):
    model = LossModel(data, 1e-2)
    w = np.zeros(model.d)
    g = model.grad_full(w)
    for variant, want in (("none", True), ("bb_scalar", True),
                          ("full_hessian", False), ("diag_hessian", False)):
        corr = build_correction(variant, model, w, w - 0.1 * g - 0.01, g_curr=g)
        assert affine_step_applies(model, corr) is want, variant
    # d/4 is the boundary: 20 of 80 columns per row is short, 21 is not
    short = LossModel(sparse_dataset(10, 80, 20, seed=1), 1e-2)
    long = LossModel(sparse_dataset(10, 80, 21, seed=1), 1e-2)
    assert affine_step_applies(short, build_correction("none", short, w))
    assert not affine_step_applies(long, build_correction("none", long, w))


# -- full runs against the dense step ------------------------------------------------


@pytest.mark.parametrize("kind", ["logistic", "squared_hinge"])
@pytest.mark.parametrize("anchor_option", [1, 2])
@pytest.mark.parametrize("method", METHODS)
def test_full_runs_match_dense_step(monkeypatch, data, kind, anchor_option, method):
    model = LossModel(data, 1e-2, kind)
    assert_same_run(monkeypatch, model,
                    config_for(method, model, epochs=5, anchor_option=anchor_option))


def test_curvature_fallbacks_match(monkeypatch, data):
    model = LossModel(data, 1e-2)

    def no_curvature(self):
        raise CurvatureError("forced")

    monkeypatch.setattr(EpochAnchors, "bb_ratio", no_curvature)
    for method in ("SVRGBB", "SVRG2BBS-M2"):
        assert_same_run(monkeypatch, model, config_for(method, model))


def test_divergence_raises_in_the_same_epoch(monkeypatch, data):
    model = LossModel(data, 1e-2)
    # gamma = 1 - 2.1: the first two diverge in their second epoch
    for method, step in (("SVRG", 210.0), ("SVRG2BB", 210.0), ("SVRGBB", 250.0),
                         ("SVRG", 1e6)):
        (fast, _), (dense, _) = run_both(monkeypatch, model,
                                         config_for(method, model, step, epochs=6))
        assert isinstance(fast, DivergenceError) and isinstance(dense, DivergenceError)
        assert fast.epoch == dense.epoch
        assert [r.fval for r in fast.records] == pytest.approx(
            [r.fval for r in dense.records], rel=RTOL)


# -- edge cases --------------------------------------------------------------------------


def count_folds(monkeypatch):
    calls = []
    real_fold = optimizer._AffineIterate._fold

    def fold(self):
        calls.append(self.sigma)
        real_fold(self)

    monkeypatch.setattr(optimizer._AffineIterate, "_fold", fold)
    return calls


def test_gamma_zero_resets_the_scaled_part(monkeypatch, data):
    # SVRG with eta * lam = 1: every step has gamma = 0
    model = LossModel(data, 0.5)
    folds = count_folds(monkeypatch)
    assert_same_run(monkeypatch, model, RunConfig(
        method="SVRG", schedule=constant(2.0), epochs=3, seed=2, variance_mode="none"))
    assert folds and all(sigma == 0.0 for sigma in folds)


def test_sigma_underflow_folds(monkeypatch, data):
    # gamma = 1 - eta * lam is about 1e-15, so sigma leaves [1e-100, 1e100]
    # within a few steps
    model = LossModel(data, 0.5)
    folds = count_folds(monkeypatch)
    assert_same_run(monkeypatch, model, RunConfig(
        method="SVRG", schedule=constant(2.0 - 1e-15), epochs=3, seed=2,
        variance_mode="none"))
    assert folds and all(0.0 < abs(sigma) < 1e-100 for sigma in folds)


def test_forced_folds_on_every_method(monkeypatch, data):
    model = LossModel(data, 1e-2)
    folds = count_folds(monkeypatch)
    monkeypatch.setattr(optimizer._AffineIterate, "SIGMA_RANGE", (0.999, 1.001))
    for method in ("SVRG", "SVRG2BB", "SVRG2BBS-M1"):
        assert_same_run(monkeypatch, model, config_for(method, model, anchor_option=2))
    assert len(folds) > 100


@pytest.mark.parametrize("kind", ["logistic", "squared_hinge"])
def test_empty_rows(monkeypatch, kind):
    model = LossModel(sparse_dataset(30, 40, 4, seed=3, empty_rows={0, 7, 8, 29}), 1e-2, kind)
    for method in ("SVRG", "SVRG2BB"):
        assert_same_run(monkeypatch, model, config_for(method, model))


@pytest.mark.parametrize("kind", ["logistic", "squared_hinge"])
def test_single_sample(monkeypatch, kind):
    model = LossModel(sparse_dataset(1, 12, 3, seed=4), 1e-2, kind)
    for method in ("SVRG", "SVRGBB", "SVRG2BB", "SVRG2BBS-M3"):
        assert_same_run(monkeypatch, model, config_for(method, model, m=7))


def test_hinge_kink(monkeypatch):
    # unit-vector rows and w0 = b_j e_j: every margin starts exactly at 1,
    # where the squared hinge switches branch
    n = d = 16
    labels = np.where(np.arange(n) % 3 == 0, -1.0, 1.0)
    model = LossModel(SparseDataset(sp.identity(n, format="csr"), labels),
                      1e-2, "squared_hinge")
    w0 = labels.copy()
    assert np.all(labels * (model.dataset.features @ w0) == 1.0)
    for method in ("SVRG", "SVRG2BB", "SVRG2BBS-M2"):
        assert_same_run(monkeypatch, model, config_for(method, model), w0)


# -- determinism ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 12), d=st.integers(4, 40), data_seed=st.integers(0, 2**16),
       seed=st.integers(0, 2**16), method=st.sampled_from(METHODS),
       kind=st.sampled_from(["logistic", "squared_hinge"]),
       anchor_option=st.sampled_from([1, 2]))
def test_affine_runs_are_seeded(n, d, data_seed, seed, method, kind, anchor_option):
    ds = sparse_dataset(n, d, max(1, d // 4), data_seed)
    model = LossModel(ds, 1e-2, kind)
    assert affine_step_applies(model, build_correction("none", model, np.zeros(d)))
    config = config_for(method, model, epochs=3, anchor_option=anchor_option, seed=seed)
    w1, recs1 = optimize(model, config, np.zeros(d))
    w2, recs2 = optimize(model, config, np.zeros(d))
    np.testing.assert_array_equal(w1, w2)
    assert recs1 and [(r.fval, r.grad_evals, r.step_size) for r in recs1] \
        == [(r.fval, r.grad_evals, r.step_size) for r in recs2]
