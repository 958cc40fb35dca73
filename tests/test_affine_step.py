"""Every inner step form against the plain formula, and the dense step
against it bit for bit.

Unless a test says otherwise, the data has a short row (nnz_i < d), so
``optimize`` takes the affine step for the ``none`` and ``bb_scalar``
corrections; it takes the diagonal step for every ``diag_hessian`` epoch and
the full-Hessian or the Gram step, as ``hessian_form`` picks, for every
``full_hessian`` epoch.  On data whose every row is full, the ``none`` and
``bb_scalar`` epochs take the dense step.  The reference is the same run
with ``step_class``, the one selector, patched to ``PlainIterate`` of
:mod:`oracle`: the plain formula for v_t on a dense w.

The dense step serves the ``none`` and ``bb_scalar`` epochs of data whose
every row is full, and its bit-for-bit tests run on such data: a run
through it, and its kernel ``direction`` called with the row view and
buffers it hands it.  It reads c_i(anchor) and the BB per-sample scalar
from the epoch's correction, which computes each once per sample.
``PlainIterate`` computes both on every step, as the plain formula does;
the two must give the same bits.
"""

import gc
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import vrgrad.optimizer as optimizer
from vrgrad.correction import DegenerateAnchorError, build_correction
from vrgrad.data import SparseDataset, synth_binary
from vrgrad.harness import schedule_for
from vrgrad.losses import KINDS, LossModel
from vrgrad.optimizer import (METHODS, DivergenceError, RunConfig, direction, hessian_form,
                              optimize, step_class)
from vrgrad.stepsize import CurvatureError, EpochAnchors, constant

from oracle import PlainIterate, coef, grad_delta, plain_direction

RTOL = 1e-10


def sparse_dataset(n, d, nnz, seed, empty_rows=(), full_rows=()):
    """n rows with ``nnz`` distinct random columns each (none in
    ``empty_rows``, all d in ``full_rows``), unit-norm rows, random +-1
    labels."""
    rng = np.random.default_rng(seed)
    indptr, indices, values = [0], [], []
    for i in range(n):
        k = 0 if i in empty_rows else d if i in full_rows else nnz
        indices.extend(np.sort(rng.choice(d, k, replace=False)))
        vals = rng.uniform(0.5, 1.5, k)
        values.extend(vals / np.linalg.norm(vals) if k else vals)
        indptr.append(len(indices))
    X = sp.csr_matrix((values, indices, indptr), shape=(n, d))
    return SparseDataset(X, np.where(rng.random(n) < 0.5, 1.0, -1.0))


def run_both(monkeypatch, model, config, w0=None):
    """(records, summaries) of the run through the step forms ``step_class``
    picks, then of the run through ``PlainIterate``; a run that diverged
    gives its DivergenceError instead of records."""
    w0 = np.zeros(model.d) if w0 is None else w0
    real_run_epoch = optimizer.run_epoch
    out = []
    for fast in (True, False):
        summaries = []

        def spy(*args, **kwargs):
            summary = real_run_epoch(*args, **kwargs)
            summaries.append(summary)
            return summary

        with monkeypatch.context() as patch:
            patch.setattr(optimizer, "run_epoch", spy)
            if not fast:
                patch.setattr(optimizer, "step_class", lambda *a: PlainIterate)
            try:
                _, records = optimize(model, config, w0)
            except DivergenceError as err:
                records = err
        out.append((records, summaries))
    return out


def assert_same_run(monkeypatch, model, config, w0=None):
    (fast, fast_sums), (plain, plain_sums) = run_both(monkeypatch, model, config, w0)
    assert not isinstance(fast, DivergenceError) and not isinstance(plain, DivergenceError)
    assert len(fast) == len(plain) == config.epochs
    for a, b in zip(fast, plain):
        assert a.fval == pytest.approx(b.fval, rel=RTOL, abs=0.0)
        assert a.grad_evals == b.grad_evals
        assert a.step_size == pytest.approx(b.step_size, rel=RTOL)
    assert ([s.curvature_fallbacks for s in fast_sums]
            == [s.curvature_fallbacks for s in plain_sums])
    for a, b in zip(fast_sums, plain_sums):
        np.testing.assert_allclose(a.next_anchor, b.next_anchor, rtol=1e-8, atol=1e-12)
    return fast


# a grid parameter per method at which no run here diverges: eta for the
# constant-step methods, eta0 for SVRGBB, c1 for the generalized-BB presets
STEP = {"SVRG": 0.5, "SVRG2": 0.5, "SVRG2D": 0.5, "SVRG2BB": 0.5, "SVRGBB": 0.5,
        "SVRG2BBS-M1": 2.0, "SVRG2BBS-M2": 1.0, "SVRG2BBS-M3": 0.01}


def config_for(method, model, step=None, epochs=4, anchor_option=1, seed=5, m=None,
               variance_mode="none"):
    step = STEP[method] if step is None else step
    schedule = schedule_for(method, step, model.n, model.lam, model.smoothness())
    return RunConfig(method=method, schedule=schedule, epochs=epochs, m=m,
                     anchor_option=anchor_option, seed=seed, variance_mode=variance_mode)


@pytest.fixture(scope="module")
def data():
    return sparse_dataset(60, 80, 6, seed=11)


# -- the rule ----------------------------------------------------------------------


def epoch_of(variant, model):
    """A ``variant`` operator at 0, with a previous anchor off 0."""
    w = np.zeros(model.d)
    g = model.grad_full(w)
    return build_correction(variant, model, w, w - 0.1 * g - 0.01, g_curr=g)


# the rows of STEP_TABLE: short rows; dense rows (d^2 < nnz, every row
# full); every row of 80 full, and all of them but one; short rows whose
# mean is above d/4; and wide rows (Gram)
STEP_DATA = {
    "short": lambda: sparse_dataset(60, 80, 6, seed=11),
    "dense": lambda: dense_rows(),
    "80 of 80": lambda: sparse_dataset(10, 80, 80, seed=1),
    "79 of 80 once": lambda: sparse_dataset(10, 80, 79, seed=1, full_rows=set(range(1, 10))),
    "21 of 80": lambda: sparse_dataset(10, 80, 21, seed=1),
    "wide": lambda: wide_rows(),
}
# rows -> the step class of a none, bb_scalar, diag_hessian and full_hessian
# epoch, and whether the diagonal step catches columns up (lazy)
STEP_TABLE = {
    "short": ("_AffineIterate", "_AffineIterate", "_DiagIterate", "_HessIterate", True),
    "dense": ("_DenseIterate", "_DenseIterate", "_DiagIterate", "_FormedHessIterate", False),
    "80 of 80": ("_DenseIterate", "_DenseIterate", "_DiagIterate", "_HessIterate", False),
    "79 of 80 once": ("_AffineIterate", "_AffineIterate", "_DiagIterate", "_HessIterate", True),
    "21 of 80": ("_AffineIterate", "_AffineIterate", "_DiagIterate", "_HessIterate", True),
    "wide": ("_AffineIterate", "_AffineIterate", "_DiagIterate", "_GramIterate", True),
}


def test_rule_takes_short_rows_and_scalar_corrections_only():
    # step_class alone picks the form; one short row is enough to send the
    # none and bb_scalar epochs to the affine step, and the diagonal step
    # to its catch-up
    for rows, want in STEP_TABLE.items():
        for kind in ("logistic", "squared_hinge"):
            model = LossModel(STEP_DATA[rows](), 1e-2, kind)
            assert model.full_rows == (not want[-1]), (rows, kind)
            got = tuple(step_class(model, epoch_of(variant, model)).__name__
                        for variant in ("none", "bb_scalar", "diag_hessian", "full_hessian"))
            diag = epoch_of("diag_hessian", model)
            lazy = optimizer._DiagIterate(model, diag, diag.anchor, diag.g_anchor).lazy
            assert got + (lazy,) == want, (rows, kind)
            # a first, uncorrected epoch takes the none form
            first = build_correction("full_hessian", model, np.zeros(model.d))
            assert step_class(model, first).__name__ == want[0], (rows, kind)


# -- full runs against the plain formula --------------------------------------------


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
        (fast, _), (plain, _) = run_both(monkeypatch, model,
                                         config_for(method, model, step, epochs=6))
        assert isinstance(fast, DivergenceError) and isinstance(plain, DivergenceError)
        assert fast.epoch == plain.epoch
        assert [r.fval for r in fast.records] == pytest.approx(
            [r.fval for r in plain.records], rel=RTOL)


@pytest.mark.parametrize("zz", [math.nan, math.inf, "past"])
def test_affine_step_tests_w_when_its_estimate_is_not_below_the_guard(data, zz):
    # z.z is corrupted so that the running estimate of ||w||^2 reads NaN, inf
    # or twice the limit while w is far inside: the step must test w itself
    # and pass, not let the estimate decide alone
    model = LossModel(data, 1e-2)
    corr = epoch_correction(model, variant="none")
    affine = optimizer._AffineIterate(model, corr, corr.anchor, corr.g_anchor)
    assert affine.step(3, 0.5, math.inf)
    w = affine.current()
    limit = 1e6 * (1.0 + float(w @ w))
    affine.zz = 2.0 * limit if zz == "past" else zz
    assert affine.step(4, 0.5, limit)
    # a w that is truly outside still fails
    w = affine.current()
    assert not affine.step(5, 0.5, 1e-6 * float(w @ w))


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
    for method in METHODS:
        for anchor_option in (1, 2):
            assert_same_run(monkeypatch, model, config_for(method, model,
                                                           anchor_option=anchor_option))


def check_single_sample(monkeypatch, kind, form):
    model = LossModel(sparse_dataset(1, 12, 3, seed=4), 1e-2, kind)
    # one row: d^2 >= nnz, and sum_j nnz_j^2 = nnz < nnz + d, so the gate
    # picks the Gram step
    assert hessian_form(model) == "gram"
    monkeypatch.setattr(optimizer, "hessian_form", lambda model: form)
    built = hess_iterates(monkeypatch)
    for method in ("SVRG", "SVRGBB", "SVRG2BB", "SVRG2D", "SVRG2", "SVRG2BBS-M3"):
        assert_same_run(monkeypatch, model, config_for(method, model, m=7))
    assert built and all(form_of(it) == form for it in built)


@pytest.mark.parametrize("kind", ["logistic", "squared_hinge"])
def test_single_sample(monkeypatch, kind):
    check_single_sample(monkeypatch, kind, "gram")


@pytest.mark.parametrize("kind", ["logistic", "squared_hinge"])
def test_single_sample_matrix_free(monkeypatch, kind):
    check_single_sample(monkeypatch, kind, "matrix_free")


def check_hinge_kink(monkeypatch, form):
    # unit-vector rows and w0 = b_j e_j: every margin starts exactly at 1,
    # where the squared hinge switches branch.  The gate picks the Gram
    # step: sum_j nnz_j^2 = 16 < nnz + d = 32
    n = d = 16
    labels = np.where(np.arange(n) % 3 == 0, -1.0, 1.0)
    model = LossModel(SparseDataset(sp.identity(n, format="csr"), labels),
                      1e-2, "squared_hinge")
    w0 = labels.copy()
    assert np.all(labels * (model.dataset.features @ w0) == 1.0)
    assert hessian_form(model) == "gram"
    monkeypatch.setattr(optimizer, "hessian_form", lambda model: form)
    built = hess_iterates(monkeypatch)
    for method in ("SVRG", "SVRG2BB", "SVRG2D", "SVRG2", "SVRG2BBS-M2"):
        assert_same_run(monkeypatch, model, config_for(method, model), w0)
    assert built and all(form_of(it) == form for it in built)


def test_hinge_kink(monkeypatch):
    check_hinge_kink(monkeypatch, "gram")


def test_hinge_kink_matrix_free(monkeypatch):
    check_hinge_kink(monkeypatch, "matrix_free")


# -- the diagonal step ----------------------------------------------------------------------


def diag_iterates(monkeypatch, lazy=None):
    """Every diagonal iterate ``optimize`` builds from now on, in order; with
    ``lazy`` given, each takes the lazy step or not whatever its rows."""
    built = []

    class Recorded(optimizer._DiagIterate):
        def __init__(self, *args):
            super().__init__(*args)
            if lazy is not None:
                self.lazy = lazy
            built.append(self)

    monkeypatch.setattr(optimizer, "_DiagIterate", Recorded)
    return built


@pytest.mark.parametrize("kind", ["logistic", "squared_hinge"])
@pytest.mark.parametrize("anchor_option", [1, 2])
def test_diag_step_on_dense_rows(monkeypatch, kind, anchor_option):
    # no density rule: dense rows take the diagonal step too
    model = LossModel(synth_binary(40, 8, seed=3, separability=0.8), 1e-2, kind)
    built = diag_iterates(monkeypatch)
    assert_same_run(monkeypatch, model,
                    config_for("SVRG2D", model, epochs=5, anchor_option=anchor_option))
    assert len(built) == 4 and all(it.log_r is not None for it in built)


@pytest.mark.parametrize("kind", ["logistic", "squared_hinge"])
@pytest.mark.parametrize("anchor_option", [1, 2])
@pytest.mark.parametrize("lam, step, exact", [(1e-2, 0.5, False), (1.0, 1.2, True)])
def test_diag_step_on_full_rows_is_the_lazy_step_bit_for_bit(monkeypatch, kind, anchor_option,
                                                             lam, step, exact):
    # every row full: the step moves all of u in place; forced to the lazy
    # step, it catches each column up by k = 0 steps.  At lam = 1, step 1.2
    # every eta D_j is in [1.2, 1.5), and every step tests w exactly
    model = LossModel(dense_rows(), lam, kind)
    config = config_for("SVRG2D", model, step, epochs=5, anchor_option=anchor_option,
                        variance_mode="last")
    runs = []
    for lazy in (None, True):
        with monkeypatch.context() as patch:
            built = diag_iterates(patch, lazy)
            w, records = optimize(model, config, np.zeros(model.d))
        assert len(built) == 4 and all(it.lazy == bool(lazy) for it in built)
        assert all((it.log_r is None) == exact for it in built)
        runs.append((w.tobytes(), [record_bits(r) for r in records]))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("kind", ["logistic", "squared_hinge"])
def test_diag_step_lambda_zero_with_an_empty_column(monkeypatch, kind):
    ds = sparse_dataset(30, 40, 4, seed=3)
    X = ds.features.tolil()
    X[:, 5] = 0.0
    model = LossModel(SparseDataset(X.tocsr(), ds.labels), 0.0, kind)
    built = diag_iterates(monkeypatch)
    assert_same_run(monkeypatch, model, config_for("SVRG2D", model, anchor_option=2))
    assert built and all(it.diag[5] == 0.0 and it.E[5] == 0.0 for it in built)


@pytest.mark.parametrize("margin", [-800.0, -700.0, -30.0])
def test_diag_step_where_curvature_vanishes(monkeypatch, margin):
    # lam = 0 and column 0 only in row 0, whose logistic margin starts at
    # ``margin``: D_0 is 0 (-800), below rounding against 1 / eta (-700),
    # or 1e-13 to 3e-12 with |u*_0| 1e11 to 2e12 (-30), while g_0 is near -1/3
    X = sp.csr_matrix(np.array([[1.0, 0, 0], [0, 1.0, 0.5], [0, 0.5, 1.0]]))
    model = LossModel(SparseDataset(X, np.array([1.0, 1.0, -1.0])), 0.0)
    built = diag_iterates(monkeypatch)
    assert_same_run(monkeypatch, model, config_for("SVRG2D", model, m=9),
                    w0=np.array([margin, 0.3, -0.2]))
    assert built and all(it.diag[0] < 1e-11 for it in built)
    if margin < -100.0:
        assert all(it.drift is not None for it in built)
    else:
        assert all(it.drift is None and abs(it.ustar[0]) > 1e10 for it in built)


def test_diag_step_negative_ratio(monkeypatch):
    # eta * lam = 1.5 with unit rows: every r_j is in [-1, -0.5), so every
    # step brings all columns up and tests w
    model = LossModel(sparse_dataset(60, 80, 6, seed=11), 1.0)
    built = diag_iterates(monkeypatch)
    assert_same_run(monkeypatch, model, config_for("SVRG2D", model, step=1.5))
    assert built and all(it.log_r is None and 1.5 <= it.E.min() < it.E.max() <= 2.0
                         for it in built)


def step_both(model, correction, idx, eta, limit, fast_cls=optimizer._DiagIterate):
    """Step a ``fast_cls`` and a plain iterate of one epoch through ``idx``;
    both must pass or fail the guard together.  Returns the step at which
    they fail (None if neither does) and the ``fast_cls`` iterate."""
    fast, plain = (cls(model, correction, correction.anchor, correction.g_anchor)
                   for cls in (fast_cls, PlainIterate))
    failed = None
    for t, i in enumerate(idx):
        ok = fast.step(i, eta, limit)
        assert ok == plain.step(i, eta, limit), t
        if not ok:
            failed = t + 1
            break
    w = plain.current()
    np.testing.assert_allclose(fast.current(), w, rtol=0.0, atol=RTOL * np.linalg.norm(w))
    return failed, fast


def epoch_correction(model, seed=0, variant="diag_hessian"):
    """A ``variant`` operator at a point one gradient step from 0."""
    rng = np.random.default_rng(seed)
    z_prev = 0.1 * rng.standard_normal(model.d)
    z = z_prev - model.grad_full(z_prev)
    return build_correction(variant, model, z, z_prev)


@pytest.mark.parametrize("kind, eta_d, limit_factor",
                         [("logistic", 0.1, 30.0), ("squared_hinge", 0.5, 1e5)])
def test_diag_step_guard_bound_fires_with_the_dense_guard(data, kind, eta_d, limit_factor):
    # every eta D_j < 1, so the running bound decides when w is tested; the
    # iterate crosses the guard tens of steps in
    model = LossModel(data, 1e-2, kind)
    corr = epoch_correction(model)
    eta = eta_d / corr.diag_mean.max()
    limit = limit_factor * float(corr.anchor @ corr.anchor)
    idx = np.random.default_rng(1).integers(0, model.n, 400).tolist()
    failed, diag = step_both(model, corr, idx, eta, limit)
    assert diag.log_r is not None and failed is not None and failed > 20


def test_diag_step_exact_guard_when_a_ratio_leaves_the_unit_interval(data):
    # eta D_j > 2 for some j: the guard tests w on every step
    model = LossModel(data, 1e-2)
    corr = epoch_correction(model)
    eta = 2.5 / corr.diag_mean.max()
    assert eta * corr.diag_mean.min() < 2.0
    idx = np.random.default_rng(2).integers(0, model.n, 300).tolist()
    failed, diag = step_both(model, corr, idx, eta, limit=1e12)
    assert diag.log_r is None and failed is not None


def test_diag_step_long_epoch_matches(data):
    # no guard event; many columns wait hundreds of steps
    for kind in ("logistic", "squared_hinge"):
        model = LossModel(data, 1e-3, kind)
        corr = epoch_correction(model, seed=3)
        idx = np.random.default_rng(3).integers(0, model.n, 1000).tolist()
        failed, diag = step_both(model, corr, idx, 0.5, limit=1e16)
        assert failed is None and diag.log_r is not None


def test_diag_step_divergence_raises_at_the_same_step(monkeypatch, data):
    # eta * lam = 2.1 makes every r_j < -1: the second, corrected epoch
    # diverges, under the exact guard
    model = LossModel(data, 1e-2)
    built = diag_iterates(monkeypatch)
    (fast, _), (plain, _) = run_both(monkeypatch, model,
                                     config_for("SVRG2D", model, 210.0, epochs=6))
    assert isinstance(fast, DivergenceError) and isinstance(plain, DivergenceError)
    assert (fast.epoch, fast.step) == (plain.epoch, plain.step)
    assert fast.epoch >= 2 and built and built[0].log_r is None
    assert [r.fval for r in fast.records] == pytest.approx(
        [r.fval for r in plain.records], rel=RTOL)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 12), d=st.integers(1, 30), density=st.floats(0.05, 1.0),
       data_seed=st.integers(0, 2**16), seed=st.integers(0, 2**16),
       lam=st.sampled_from([0.0, 1e-2]), kind=st.sampled_from(["logistic", "squared_hinge"]),
       anchor_option=st.sampled_from([1, 2]))
def test_diag_runs_are_seeded(n, d, density, data_seed, seed, lam, kind, anchor_option):
    ds = sparse_dataset(n, d, max(1, round(density * d)), data_seed)
    model = LossModel(ds, lam, kind)
    config = config_for("SVRG2D", model, epochs=3, anchor_option=anchor_option, seed=seed)
    w1, recs1 = optimize(model, config, np.zeros(d))
    w2, recs2 = optimize(model, config, np.zeros(d))
    np.testing.assert_array_equal(w1, w2)
    assert recs1 and [(r.fval, r.grad_evals) for r in recs1] \
        == [(r.fval, r.grad_evals) for r in recs2]


# -- the full-Hessian step ------------------------------------------------------------------


# each full-Hessian step class -> the form of ``hessian_form`` it implements
FORMS = {optimizer._FormedHessIterate: "formed", optimizer._GramIterate: "gram",
         optimizer._HessIterate: "matrix_free"}


def form_of(iterate):
    """The form a full-Hessian iterate (or one recorded by
    :func:`hess_iterates`) takes."""
    return next(FORMS[cls] for cls in type(iterate).__mro__ if cls in FORMS)


def hess_iterates(monkeypatch):
    """Every full-Hessian and Gram iterate ``optimize`` builds from now on,
    in order."""
    built = []
    for name in ("_HessIterate", "_FormedHessIterate", "_GramIterate"):

        class Recorded(getattr(optimizer, name)):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(optimizer, name, Recorded)
    return built


def dense_rows(n=40, d=8, seed=3):
    """Dense rows: d^2 < nnz, so the full-Hessian step forms H."""
    return synth_binary(n, d, seed=seed, separability=0.8)


def wide_rows():
    """Three nonzeros in each of 60 rows over 250 columns: d^2 >= nnz and
    sum_j nnz_j^2 = 288 < nnz + d = 430, so the step takes the Gram form;
    K has 108 nonzeros off its diagonal."""
    return sparse_dataset(60, 250, 3, seed=11)


# the form the gate picks -> a dataset it picks it for: d^2 = 64 < nnz = 320
# forms H; the ``data`` fixture's d^2 = 6400 >= nnz = 360 and its
# sum_j nnz_j^2 = 1918 >= nnz + d = 440 keep the matrix-free product
BRANCHES = {"formed": dense_rows,
            "matrix_free": lambda: sparse_dataset(60, 80, 6, seed=11),
            "gram": wide_rows}


@pytest.mark.parametrize("kind", ["logistic", "squared_hinge"])
@pytest.mark.parametrize("anchor_option", [1, 2])
def test_hess_step_on_dense_rows(monkeypatch, kind, anchor_option):
    # the matrix-free branch runs in test_full_runs_match_dense_step
    model = LossModel(dense_rows(), 1e-2, kind)
    built = hess_iterates(monkeypatch)
    assert_same_run(monkeypatch, model,
                    config_for("SVRG2", model, epochs=5, anchor_option=anchor_option))
    assert len(built) == 4 and all(form_of(it) == "formed" for it in built)


@pytest.mark.parametrize("kind", ["logistic", "squared_hinge"])
@pytest.mark.parametrize("anchor_option", [1, 2])
def test_gram_step_on_wide_rows(monkeypatch, kind, anchor_option):
    model = LossModel(wide_rows(), 1e-2, kind)
    built = hess_iterates(monkeypatch)
    assert_same_run(monkeypatch, model,
                    config_for("SVRG2", model, epochs=5, anchor_option=anchor_option))
    assert len(built) == 4 and all(form_of(it) == "gram" for it in built)


@pytest.mark.parametrize("kind", ["logistic", "squared_hinge"])
@pytest.mark.parametrize("branch", list(BRANCHES))
def test_hess_step_lambda_zero(monkeypatch, branch, kind):
    make = BRANCHES[branch]
    model = LossModel(make(), 0.0, kind)
    built = hess_iterates(monkeypatch)
    assert_same_run(monkeypatch, model, config_for("SVRG2", model, anchor_option=2))
    assert built and all(form_of(it) == branch for it in built)


@pytest.mark.parametrize("branch", list(BRANCHES))
@pytest.mark.parametrize("step", [150.0, 210.0])
def test_hess_step_divergence_raises_at_the_same_step(monkeypatch, branch, step):
    # eta * lam = 1.5 or 2.1: the first epoch passes and a corrected one
    # grows until the guard
    make = BRANCHES[branch]
    model = LossModel(make(), 1e-2)
    built = hess_iterates(monkeypatch)
    (fast, _), (plain, _) = run_both(monkeypatch, model,
                                     config_for("SVRG2", model, step, epochs=6))
    assert isinstance(fast, DivergenceError) and isinstance(plain, DivergenceError)
    assert (fast.epoch, fast.step) == (plain.epoch, plain.step) and fast.epoch >= 2
    assert [r.fval for r in fast.records] == pytest.approx(
        [r.fval for r in plain.records], rel=RTOL)
    assert built and all(form_of(it) == branch for it in built)


@pytest.mark.parametrize("kind", ["logistic", "squared_hinge"])
@pytest.mark.parametrize("branch", list(BRANCHES))
def test_hess_step_guard_fires_with_the_dense_guard(branch, kind):
    make = BRANCHES[branch]
    # eta = 2.2 / lambda_max(H): the iterate grows along the top eigenvector
    # and crosses the guard tens to hundreds of steps in
    model = LossModel(make(), 1e-2, kind)
    corr = epoch_correction(model, variant="full_hessian")
    top = np.linalg.eigvalsh(model.mean_hessian_from(corr.curvature_coefs)).max()
    limit = 1e4 * float(corr.anchor @ corr.anchor)
    idx = np.random.default_rng(1).integers(0, model.n, 400).tolist()
    failed, hess = step_both(model, corr, idx, 2.2 / top, limit,
                             fast_cls=step_class(model, corr))
    assert failed is not None and failed > 10 and form_of(hess) == branch


@pytest.mark.parametrize("branch", list(BRANCHES))
def test_hess_step_guard_with_an_infinite_limit(branch):
    # ||w||^2 <= inf cannot fail: both steps pass until w overflows to a
    # non-finite value, then both fail
    make = BRANCHES[branch]
    model = LossModel(make(), 1e-2)
    corr = epoch_correction(model, variant="full_hessian")
    fast, plain = (cls(model, corr, corr.anchor, corr.g_anchor)
                   for cls in (step_class(model, corr), PlainIterate))
    assert form_of(fast) == branch
    results = []
    with np.errstate(all="ignore"):
        for i in np.random.default_rng(4).integers(0, model.n, 20).tolist():
            ok = fast.step(i, 1e100, math.inf)
            assert ok == plain.step(i, 1e100, math.inf), len(results)
            results.append(ok)
            if not ok:
                break
    assert results[0] and not results[-1]


@pytest.mark.parametrize("kind", ["logistic", "squared_hinge"])
def test_hess_step_empty_rows_with_h_formed(monkeypatch, kind):
    model = LossModel(sparse_dataset(60, 6, 3, seed=3, empty_rows={0, 7, 59}), 1e-2, kind)
    built = hess_iterates(monkeypatch)
    assert_same_run(monkeypatch, model, config_for("SVRG2", model))
    assert built and all(form_of(it) == "formed" for it in built)


@pytest.mark.parametrize("kind", ["logistic", "squared_hinge"])
def test_gram_step_empty_rows_and_columns(monkeypatch, kind):
    # 300 columns for 171 nonzeros: most columns are empty
    model = LossModel(sparse_dataset(60, 300, 3, seed=3, empty_rows={0, 7, 59}), 1e-2, kind)
    built = hess_iterates(monkeypatch)
    assert_same_run(monkeypatch, model, config_for("SVRG2", model, anchor_option=2))
    assert built and all(form_of(it) == "gram" for it in built)


def test_hess_step_hinge_kink_with_h_formed(monkeypatch):
    # five copies of the 4 x 4 identity (d^2 = 16 < nnz = 20), labels by
    # column and w0 = the column labels: every margin starts exactly at 1
    d = 4
    pattern = np.array([1.0, -1.0, -1.0, 1.0])
    X = sp.vstack([sp.identity(d, format="csr")] * 5, format="csr")
    model = LossModel(SparseDataset(X, np.tile(pattern, 5)), 1e-2, "squared_hinge")
    w0 = pattern.copy()
    assert np.all(model.dataset.labels * (model.dataset.features @ w0) == 1.0)
    built = hess_iterates(monkeypatch)
    assert_same_run(monkeypatch, model, config_for("SVRG2", model), w0)
    assert built and all(form_of(it) == "formed" for it in built)


@pytest.mark.parametrize("n, nnz_per_row, formed", [(5, 5, False), (13, 2, True)])
def test_hess_step_gate_at_d_squared_equal_nnz(monkeypatch, n, nnz_per_row, formed):
    # d = 5: nnz = 25 = d^2 keeps the matrix-free product (sum_j nnz_j^2 =
    # 125 >= nnz + d), 26 forms H
    model = LossModel(sparse_dataset(n, 5, nnz_per_row, seed=2), 1e-2)
    assert model.dataset.features.nnz == 25 + formed
    built = hess_iterates(monkeypatch)
    assert_same_run(monkeypatch, model, config_for("SVRG2", model))
    form = "formed" if formed else "matrix_free"
    assert built and all(form_of(it) == form for it in built)


@pytest.mark.parametrize("d, form", [(6, "matrix_free"), (7, "gram")])
def test_hess_step_gate_at_column_squares_equal_nnz_plus_d(monkeypatch, d, form):
    # column 0 in all three rows, columns 1-3 in one each: nnz = 6 and
    # sum_j nnz_j^2 = 9 + 3 = 12.  With d = 6 that is nnz + d, which keeps
    # the matrix-free product; one more (empty) column takes the Gram step
    X = sp.csr_matrix(([1.0, 0.5, -0.5, 1.0, 0.75, -1.0], [0, 1, 0, 2, 0, 3], [0, 2, 4, 6]),
                      shape=(3, d))
    model = LossModel(SparseDataset(X, np.array([1.0, -1.0, 1.0])), 1e-2)
    assert hessian_form(model) == form
    built = hess_iterates(monkeypatch)
    assert_same_run(monkeypatch, model, config_for("SVRG2", model, anchor_option=2))
    assert built and all(form_of(it) == form for it in built)


@pytest.mark.parametrize("every", [1, 2])
def test_hess_step_dense_column_keeps_wide_data_matrix_free(monkeypatch, every):
    # a bias column (in every row) or a common term (in every other row)
    # makes K dense or half dense: sum_j nnz_j^2 >= (n / every)^2
    ds = wide_rows()
    column = sp.csr_matrix(np.arange(ds.n)[:, None] % every == 0, dtype=np.float64)
    model = LossModel(SparseDataset(sp.hstack([ds.features, column], format="csr"),
                                    ds.labels), 1e-2)
    assert hessian_form(LossModel(ds, 1e-2)) == "gram"
    assert hessian_form(model) == "matrix_free"
    built = hess_iterates(monkeypatch)
    assert_same_run(monkeypatch, model, config_for("SVRG2", model))
    assert built and all(form_of(it) == "matrix_free" for it in built)


@pytest.mark.parametrize("rho", [math.inf, math.nan])
def test_gram_step_tests_w_when_the_estimate_is_not_finite(rho):
    # a non-finite rho makes w and the estimate of ||w||^2 non-finite; even
    # against an infinite limit the step must then fail
    model = LossModel(wide_rows(), 1e-2)
    corr = epoch_correction(model, variant="full_hessian")
    gram = optimizer._GramIterate(model, corr, corr.anchor, corr.g_anchor)
    gram.rho, gram.q[:] = rho, corr.grad_dots
    with np.errstate(invalid="ignore"):
        assert not math.isfinite(gram.sq_norm())
        assert not gram.step(0, 0.5, math.inf)


def test_gram_step_forms_w_only_at_the_snapshot_and_the_end(monkeypatch):
    # far from the guard, every step tests the O(n) estimate of ||w||^2
    model = LossModel(wide_rows(), 1e-2)
    formed = []
    real_current = optimizer._GramIterate.current

    def current(self):
        formed.append(self.rho)
        return real_current(self)

    monkeypatch.setattr(optimizer._GramIterate, "current", current)
    monkeypatch.setattr(optimizer, "_within_guard", None)
    optimize(model, config_for("SVRG2", model, epochs=3, anchor_option=2), np.zeros(model.d))
    assert len(formed) == 4


def test_gram_matrix_is_formed_once_per_model_and_not_at_construction(monkeypatch):
    model = LossModel(wide_rows(), 1e-2)
    model.grad_full(np.zeros(model.d))
    assert model._gram is None
    config = config_for("SVRG2", model, epochs=3)
    optimize(model, config, np.zeros(model.d))
    K = model._gram
    optimize(model, config, np.zeros(model.d))
    assert model.gram is K
    X = model.dataset.features.toarray()
    np.testing.assert_allclose(K.toarray(), X @ X.T, rtol=1e-15, atol=1e-15)


def test_hess_step_block_rows_not_dividing_n(monkeypatch):
    # 40 rows in blocks of 7: five full blocks and one of 5
    monkeypatch.setattr(LossModel, "HESSIAN_BLOCK_ROWS", 7)
    model = LossModel(dense_rows(), 1e-2)
    built = hess_iterates(monkeypatch)
    assert_same_run(monkeypatch, model, config_for("SVRG2", model, anchor_option=2))
    assert built and all(form_of(it) == "formed" for it in built)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 15), d=st.integers(1, 40), density=st.floats(0.02, 1.0),
       data_seed=st.integers(0, 2**16), empty_rows=st.sets(st.integers(0, 14), max_size=4),
       lam=st.sampled_from([0.0, 1e-3]), kind=st.sampled_from(["logistic", "squared_hinge"]),
       eta_scale=st.floats(0.05, 3.0), limit_factor=st.sampled_from([1e2, 1e6, math.inf]),
       draws=st.lists(st.integers(0, 2**16), min_size=1, max_size=40))
def test_gram_step_tracks_the_matrix_free_step(n, d, density, data_seed, empty_rows, lam,
                                               kind, eta_scale, limit_factor, draws):
    # one more, empty, column; eta up to 3 / lambda_max(H) makes some
    # iterates grow until the guard
    ds = sparse_dataset(n, d, max(1, round(density * d)), data_seed, empty_rows)
    X = sp.hstack([ds.features, sp.csr_matrix((n, 1))], format="csr")
    model = LossModel(SparseDataset(X, ds.labels), lam, kind)
    corr = epoch_correction(model, seed=data_seed, variant="full_hessian")
    top = np.linalg.eigvalsh(model.mean_hessian_from(corr.curvature_coefs)).max()
    eta = eta_scale / max(top, 1e-3)
    limit = limit_factor * (1.0 + float(corr.anchor @ corr.anchor))
    gram = optimizer._GramIterate(model, corr, corr.anchor, corr.g_anchor)
    hess = optimizer._HessIterate(model, corr, corr.anchor, corr.g_anchor)
    z_norm = np.linalg.norm(corr.anchor)
    for t, draw in enumerate(draws):
        ok = gram.step(draw % n, eta, limit)
        assert ok == hess.step(draw % n, eta, limit), t
        # relative to ||z|| + ||w||: w = z + u can cancel to far below z
        w = hess.current()
        scale = z_norm + np.linalg.norm(w)
        assert gram.sq_norm() == pytest.approx(w @ w, rel=0.0, abs=1e-10 * scale ** 2), t
        if not ok:
            break
    np.testing.assert_allclose(gram.current(), w, rtol=0.0, atol=1e-12 * scale)


@pytest.mark.parametrize("block_rows", [1, 7, 40, 1000])
def test_mean_hessian_is_formed_block_by_block(monkeypatch, block_rows):
    model = LossModel(dense_rows(), 1e-2)
    X = model.dataset.features
    coefs = model.curvature_at(np.linspace(-1.0, 1.0, model.d))
    made_dense = []
    real_toarray = sp.csr_matrix.toarray

    def toarray(self, *args, **kwargs):
        made_dense.append(self.shape)
        return real_toarray(self, *args, **kwargs)

    monkeypatch.setattr(sp.csr_matrix, "toarray", toarray)
    monkeypatch.setattr(LossModel, "HESSIAN_BLOCK_ROWS", block_rows)
    H = model.mean_hessian_from(coefs)
    monkeypatch.undo()
    dense = X.toarray()
    want = dense.T @ (coefs[:, None] * dense) / model.n + model.lam * np.eye(model.d)
    np.testing.assert_allclose(H, want, rtol=1e-13, atol=1e-15)
    rows = [shape[0] for shape in made_dense]
    assert sum(rows) == model.n and max(rows) == min(block_rows, model.n)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 30), d=st.integers(1, 12), density=st.floats(0.05, 1.0),
       data_seed=st.integers(0, 2**16), block_rows=st.integers(1, 40),
       lam=st.sampled_from([0.0, 1e-3, 1.0]), kind=st.sampled_from(["logistic", "squared_hinge"]),
       scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_formed_hessian_product_matches_the_matrix_free_one(n, d, density, data_seed,
                                                            block_rows, lam, kind, scale):
    model = LossModel(sparse_dataset(n, d, max(1, round(density * d)), data_seed), lam, kind)
    rng = np.random.default_rng(data_seed)
    coefs = model.curvature_at(rng.standard_normal(d))
    u = scale * rng.standard_normal(d)
    model.HESSIAN_BLOCK_ROWS = block_rows
    H = model.mean_hessian_from(coefs)
    want = model.mean_hess_vec_from(coefs, u)
    # each entry is a sum of terms no larger than (max_i c_i ||a_i||^2 + lam) |u|
    size = (float(np.max(coefs * model.row_sq_norms)) + lam) * float(np.abs(u).sum())
    np.testing.assert_allclose(H @ u, want, rtol=0.0, atol=1e-14 * size + 1e-300)


# -- determinism ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 12), d=st.integers(4, 40), data_seed=st.integers(0, 2**16),
       seed=st.integers(0, 2**16), method=st.sampled_from(METHODS),
       kind=st.sampled_from(["logistic", "squared_hinge"]),
       anchor_option=st.sampled_from([1, 2]))
def test_affine_runs_are_seeded(n, d, data_seed, seed, method, kind, anchor_option):
    ds = sparse_dataset(n, d, max(1, d // 4), data_seed)
    model = LossModel(ds, 1e-2, kind)
    assert step_class(model, build_correction("none", model, np.zeros(d))) \
        is optimizer._AffineIterate
    config = config_for(method, model, epochs=3, anchor_option=anchor_option, seed=seed)
    w1, recs1 = optimize(model, config, np.zeros(d))
    w2, recs2 = optimize(model, config, np.zeros(d))
    np.testing.assert_array_equal(w1, w2)
    assert recs1 and [(r.fval, r.grad_evals, r.step_size) for r in recs1] \
        == [(r.fval, r.grad_evals, r.step_size) for r in recs2]


# -- the dense step against the plain formula ------------------------------------------


def dense_runs(monkeypatch, model, config, w0=None):
    """The run with its ``none`` and ``bb_scalar`` epochs through the dense
    step, then through ``PlainIterate``; in both, the Hessian epochs of
    SVRG2 and SVRG2D take the form ``step_class`` picks.  For each,
    (final iterate, records, divergence (epoch, step) or None)."""
    w0 = np.zeros(model.d) if w0 is None else w0
    real_step_class = optimizer.step_class
    out = []
    for iterate_cls in (optimizer._DenseIterate, PlainIterate):
        def pick(model, correction, iterate_cls=iterate_cls):
            if correction.variant in ("none", "bb_scalar"):
                return iterate_cls
            return real_step_class(model, correction)

        with monkeypatch.context() as patch:
            patch.setattr(optimizer, "step_class", pick)
            try:
                w, records = optimize(model, config, w0)
                out.append((w, records, None))
            except DivergenceError as err:
                out.append((None, err.records, (err.epoch, err.step)))
    return out


def record_bits(record):
    """Every field of an epoch record but the wall time, floats as hex."""
    return (record.epoch, record.grad_evals) + tuple(
        float(x).hex() for x in (record.fval, record.gap, record.variance, record.step_size))


def assert_same_bits(monkeypatch, model, config, w0=None):
    """The dense step's run equals the plain formula's bit for bit; returns
    the divergence point, None when neither run diverged."""
    (w, records, diverged), (w_plain, records_plain, diverged_plain) = \
        dense_runs(monkeypatch, model, config, w0)
    assert diverged == diverged_plain
    assert [record_bits(r) for r in records] == [record_bits(r) for r in records_plain]
    if diverged is None:
        np.testing.assert_array_equal(w, w_plain)
    return diverged


@pytest.mark.parametrize("lam", [0.0, 1e-3])
@pytest.mark.parametrize("kind", ["logistic", "squared_hinge"])
@pytest.mark.parametrize("anchor_option", [1, 2])
@pytest.mark.parametrize("method", METHODS)
def test_dense_step_is_the_plain_formula_bit_for_bit(monkeypatch, method, anchor_option,
                                                     kind, lam):
    # dense rows (d^2 < nnz) and wider full rows (d^2 > nnz); every none and
    # bb_scalar epoch takes the dense step, the first epoch of SVRG2 and
    # SVRG2D included
    for dataset in (dense_rows(), synth_binary(60, 80, seed=11, separability=0.8)):
        model = LossModel(dataset, lam, kind)
        config = config_for(method, model, anchor_option=anchor_option, variance_mode="last")
        assert assert_same_bits(monkeypatch, model, config) is None


@pytest.mark.parametrize("kind", ["logistic", "squared_hinge"])
def test_dense_step_bits_with_empty_rows(monkeypatch, kind):
    # full rows and empty rows.  An empty row is a short row: the dense step
    # refuses the data, and the run must match the plain formula at RTOL.
    # On the full rows alone, the dense step must give its bits
    empty = {0, 7, 8, 29}
    dataset = sparse_dataset(30, 40, 4, seed=3, empty_rows=empty,
                             full_rows=set(range(30)) - empty)
    model = LossModel(dataset, 1e-2, kind)
    corr = epoch_of("none", model)
    with pytest.raises(ValueError, match="every row full"):
        optimizer._DenseIterate(model, corr, corr.anchor, corr.g_anchor)
    full = LossModel(full_rows_of(dataset), 1e-2, kind)
    assert full.n == 26 and full.full_rows
    for method in METHODS:
        assert_same_run(monkeypatch, model,
                        config_for(method, model, anchor_option=2, variance_mode="last"))
        config = config_for(method, full, anchor_option=2, variance_mode="last")
        assert assert_same_bits(monkeypatch, full, config) is None


def test_dense_step_bits_when_the_run_diverges(monkeypatch):
    # eta * lam = 2.1 (or 2.5 for SVRGBB's eta0), and c1 = 1e3 for M1: the
    # plain formula and the dense step leave the guard at the same step,
    # the last two in a corrected epoch
    model = LossModel(dense_rows(), 1e-2)
    for method, step in (("SVRG", 1e6), ("SVRG", 210.0), ("SVRGBB", 250.0),
                         ("SVRG2BB", 210.0), ("SVRG2BBS-M1", 1e3)):
        config = config_for(method, model, step, epochs=6, variance_mode="last")
        diverged = assert_same_bits(monkeypatch, model, config)
        assert diverged is not None, method
    assert diverged[0] >= 2


def test_dense_step_bits_on_the_degenerate_anchor_fallback(monkeypatch):
    # m = 1 with option-2 anchors: the snapshot is the anchor itself, the
    # pair coincides, and the BB correction falls back to ``none``
    model = LossModel(dense_rows(), 1e-3)
    raised = []
    real_build = optimizer.build_correction

    def build(variant, *args, **kwargs):
        try:
            return real_build(variant, *args, **kwargs)
        except DegenerateAnchorError:
            raised.append(variant)
            raise

    monkeypatch.setattr(optimizer, "build_correction", build)
    for method in ("SVRG2BB", "SVRG2BBS-M1", "SVRG2BBS-M3"):
        config = config_for(method, model, epochs=5, anchor_option=2, m=1, variance_mode="last")
        assert_same_bits(monkeypatch, model, config)
    assert raised and set(raised) == {"bb_scalar"}


def mixed_rows(n=30, d=12, seed=7, empty_rows=(1, 13, 29)):
    """Every third row full (nnz_i = d), the rows in ``empty_rows`` empty and
    row i of the rest short, 1 + i mod (d - 1) random columns; unit-norm
    rows, random +-1 labels.  The mean row has more than d/4 nonzeros, but
    some rows are short, so ``none`` and ``bb_scalar`` epochs take the
    affine step."""
    rng = np.random.default_rng(seed)
    X = np.zeros((n, d))
    for i in range(n):
        k = d if i % 3 == 0 else 0 if i in empty_rows else 1 + i % (d - 1)
        vals = rng.uniform(0.5, 1.5, k) * rng.choice([-1.0, 1.0], k)
        X[i, rng.choice(d, k, replace=False)] = vals / np.linalg.norm(vals) if k else vals
    return SparseDataset.from_dense(X, np.where(rng.random(n) < 0.5, 1.0, -1.0))


def full_rows_of(dataset):
    """The rows of ``dataset`` that hold every column, with their labels."""
    X = dataset.features
    keep = np.flatnonzero(np.diff(X.indptr) == dataset.d)
    return SparseDataset(X[keep], dataset.labels[keep])


@pytest.mark.parametrize("kind", ["logistic", "squared_hinge"])
@pytest.mark.parametrize("anchor_option", [1, 2])
@pytest.mark.parametrize("method", METHODS)
def test_dense_step_bits_with_full_short_and_empty_rows(monkeypatch, method, anchor_option,
                                                        kind):
    # a full row is read and added without a gather or scatter, a short one
    # with them.  Short rows send the run to the affine step, which must
    # match the plain formula at RTOL; the dense step serves full rows only,
    # and on the full rows alone it must give the plain formula's bits
    model = LossModel(mixed_rows(), 1e-3, kind)
    # every row length from 0 to d, so d - 1 next to d
    assert set(np.diff(model.dataset.features.indptr)) == set(range(model.d + 1))
    for variant in ("none", "bb_scalar"):
        assert step_class(model, epoch_of(variant, model)) is optimizer._AffineIterate
    config = config_for(method, model, anchor_option=anchor_option, variance_mode="last")
    assert_same_run(monkeypatch, model, config)
    full = LossModel(full_rows_of(mixed_rows()), 1e-3, kind)
    assert full.n == 10 and full.full_rows
    config = config_for(method, full, anchor_option=anchor_option, variance_mode="last")
    assert assert_same_bits(monkeypatch, full, config) is None


def test_dense_step_refuses_a_short_row():
    # and, on full rows, a Hessian epoch, which step_class never sends it
    for rows, variant, message in (("79 of 80 once", "none", "every row full"),
                                   ("80 of 80", "full_hessian", "no full_hessian epoch"),
                                   ("80 of 80", "diag_hessian", "no diag_hessian epoch")):
        model = LossModel(STEP_DATA[rows](), 1e-2)
        corr = epoch_of(variant, model)
        assert corr.variant == variant
        with pytest.raises(ValueError, match=message):
            optimizer._DenseIterate(model, corr, corr.anchor, corr.g_anchor)


@pytest.mark.parametrize("variant", ["none", "bb_scalar"])
def test_dense_step_allocates_no_vector(variant):
    # once every sample has filled the memos, a step writes into the
    # per-epoch buffers: the peak above the starting level stays below one
    # O(d) array.  An upper bound holds whether or not a collection runs
    model = LossModel(synth_binary(50, 400, seed=2, separability=0.8), 1e-3)
    corr = epoch_of(variant, model)
    iterate = optimizer._DenseIterate(model, corr, corr.anchor, corr.g_anchor)
    limit = 1e16
    for i in range(model.n):
        assert iterate.step(i, 1e-3, limit)
    idx = np.random.default_rng(0).integers(model.n, size=200).tolist()
    gc.disable()
    try:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for i in idx:
                assert iterate.step(i, 1e-3, limit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    finally:
        gc.enable()
    assert peak - base < 8 * model.d


@pytest.mark.parametrize("kind", ["logistic", "squared_hinge"])
@pytest.mark.parametrize("anchor_option", [1, 2])
@pytest.mark.parametrize("method", ["SVRG2", "SVRG2D"])
def test_hess_and_diag_steps_with_full_short_and_empty_rows(monkeypatch, method,
                                                            anchor_option, kind):
    # the formed-H step reads and adds full rows directly and short rows by
    # gather and scatter; the diagonal step takes the lazy step on every
    # row, full rows too, since short rows leave columns behind
    model = LossModel(mixed_rows(), 1e-3, kind)
    assert hessian_form(model) == "formed"
    built = hess_iterates(monkeypatch) if method == "SVRG2" else diag_iterates(monkeypatch)
    assert_same_run(monkeypatch, model, config_for(method, model, anchor_option=anchor_option))
    assert len(built) == 3
    if method == "SVRG2":
        assert all(form_of(it) == "formed" for it in built)
    else:
        assert all(it.lazy for it in built)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 8), d=st.integers(1, 12), seed=st.integers(0, 2**16),
       lam=st.sampled_from([0.0, 1e-3]), kind=st.sampled_from(KINDS),
       variant=st.sampled_from(["none", "bb_scalar"]))
def test_direction_is_the_plain_formula_bit_for_bit(n, d, seed, lam, kind, variant):
    # the dense step's kernel on what it serves: full rows, the row view and
    # buffers the step hands it, and a none or bb_scalar epoch; each sample
    # twice, the second time from the correction's per-sample memos
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.5, 2.0, (n, d)) * rng.choice([-1, 1], (n, d))
    model = LossModel(SparseDataset.from_dense(X, rng.choice([-1.0, 1.0], n)), lam, kind)
    assert model.full_rows
    rows = model.dataset.features.data.reshape(n, d)
    buffers = tuple(np.empty(d) for _ in range(3))
    z_prev, z, w = rng.standard_normal((3, d))
    corr = build_correction(variant, model, z, z_prev)
    assert corr.variant == variant
    for i in [*range(n)] * 2:
        assert direction(model, corr, w, i, rows, buffers).tobytes() \
            == plain_direction(model, corr, w, i).tobytes()


# rows -> (data, the form of a full_hessian epoch): most rows are short, so
# none and bb_scalar epochs take the affine step.  Three full rows keep the
# matrix-free product; with one full row of 60 and eleven rows of 2,
# sum_j nnz_j^2 = 134 < nnz + d = 142
FEW_FULL_ROWS = {
    "matrix_free": (lambda: sparse_dataset(40, 40, 3, seed=5, full_rows={0, 17, 33}),
                    "matrix_free"),
    "gram": (lambda: sparse_dataset(12, 60, 2, seed=1, full_rows={4}), "gram"),
}


@pytest.mark.parametrize("kind", ["logistic", "squared_hinge"])
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("rows", list(FEW_FULL_ROWS))
def test_row_steps_with_a_few_full_rows(monkeypatch, rows, method, kind):
    # the full-row read inside the affine, matrix-free and Gram steps, against
    # the plain formula
    make, form = FEW_FULL_ROWS[rows]
    model = LossModel(make(), 1e-3, kind)
    lengths = np.diff(model.dataset.features.indptr)
    assert (lengths == model.d).any() and not model.full_rows
    assert hessian_form(model) == form
    for variant in ("none", "bb_scalar"):
        assert step_class(model, epoch_of(variant, model)) is optimizer._AffineIterate
    built = hess_iterates(monkeypatch)
    assert_same_run(monkeypatch, model, config_for(method, model, anchor_option=2))
    assert all(form_of(it) == form for it in built)
    assert bool(built) == (method == "SVRG2")


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 12), d=st.integers(1, 20), density=st.floats(0.05, 1.0),
       data_seed=st.integers(0, 2**16), lam=st.sampled_from([0.0, 1e-3]),
       kind=st.sampled_from(["logistic", "squared_hinge"]),
       draws=st.lists(st.integers(0, 2**16), min_size=1, max_size=30))
def test_memoized_per_sample_values_are_the_on_demand_ones(n, d, density, data_seed, lam,
                                                          kind, draws):
    model = LossModel(sparse_dataset(n, d, max(1, round(density * d)), data_seed), lam, kind)
    rng = np.random.default_rng(data_seed)
    z = rng.standard_normal(d)
    z_prev = z + 0.5 * rng.standard_normal(d)
    corr = build_correction("bb_scalar", model, z, z_prev)
    pair = corr.anchors
    for draw in draws:
        i = draw % n
        scalar = float(pair.s @ grad_delta(model, i, z, z_prev)) / pair.secant[0]
        assert float(corr.anchor_coef_at(i)).hex() == float(coef(model, i, z)).hex()
        assert float(corr.sample_scalar_at(i)).hex() == float(scalar).hex()
