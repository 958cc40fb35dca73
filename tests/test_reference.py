import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vrgrad.data import SparseDataset, synth_binary
from vrgrad.losses import LossModel
from vrgrad.optimizer import RunConfig, optimize
from vrgrad.reference import (cached_reference, cache_path, dataset_fingerprint,
                              load_reference, save_reference, solve_reference)
from vrgrad.stepsize import constant


class Quadratic:
    """F(w) = 0.5 ||w - c||^2; the simplest strongly convex test objective."""

    def __init__(self, c):
        self.c = np.asarray(c, dtype=np.float64)
        self.d = self.c.size

    def value(self, w):
        r = w - self.c
        return 0.5 * float(r @ r)

    def grad_full(self, w):
        return w - self.c

    def curvature_at(self, w):
        return None

    def mean_hess_vec_from(self, curvature, v):
        return v


def test_quadratic_converges_fast():
    c = np.array([3.0, -1.0, 0.5, 2.0, -4.0])
    sol = solve_reference(Quadratic(c), tol=1e-14)
    assert sol.converged
    assert sol.iterations <= c.size + 5
    np.testing.assert_allclose(sol.w_star, c, atol=1e-13)


def test_logistic_reaches_tight_tolerance_and_matches_gd():
    ds = synth_binary(500, 10, seed=50)
    model = LossModel(ds, 1e-2, "logistic")
    sol = solve_reference(model, tol=1e-12)
    assert sol.converged
    assert np.linalg.norm(model.grad_full(sol.w_star)) <= 1e-12

    # independent oracle: long plain gradient-descent run
    w = np.zeros(10)
    eta = 1.0 / model.smoothness()
    for _ in range(8000):
        w -= eta * model.grad_full(w)
    assert sol.f_star == pytest.approx(model.value(w), abs=1e-10)
    assert sol.f_star <= model.value(w) + 1e-12


def test_squared_hinge_f_star_lower_bounds_stochastic_runs():
    ds = synth_binary(120, 8, seed=51)
    model = LossModel(ds, 1e-2, "squared_hinge")
    sol = solve_reference(model, tol=1e-10)
    cfg = RunConfig(method="SVRG", schedule=constant(0.2), epochs=8, seed=0)
    _, recs = optimize(model, cfg, np.zeros(8), sol.w_star)
    assert all(r.fval >= sol.f_star - 1e-12 for r in recs)
    assert all(r.gap >= -1e-12 for r in recs)


def test_squared_hinge_small_lambda_converges_at_1e_10():
    model = LossModel(synth_binary(500, 20, 54, 0.9), 1e-5, "squared_hinge")
    sol = solve_reference(model, tol=1e-10)
    assert sol.converged
    assert sol.grad_norm <= 1e-10


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["logistic", "squared_hinge"]),
       lam=st.floats(min_value=1e-6, max_value=1.0),
       n=st.integers(1, 30), d=st.integers(1, 8), seed=st.integers(0, 2**16))
# a margin lands at the hinge kink, and every Newton step along p activates it:
# ||grad F|| grows for every alpha while F still decreases
@example(kind="squared_hinge", lam=1e-6, n=8, d=7, seed=14558)
def test_solution_is_a_converged_local_minimum(kind, lam, n, d, seed):
    model = LossModel(synth_binary(n, d, seed, 0.8), lam, kind)
    sol = solve_reference(model, tol=1e-10)
    assert sol.converged
    assert sol.grad_norm == np.linalg.norm(model.grad_full(sol.w_star))
    assert sol.f_star == model.value(sol.w_star)
    # strong convexity: F(w* + delta) - F* >= lam/2 ||delta||^2 - ||g|| ||delta||,
    # which is >= 5e-11 - 1e-12 > 0 at ||delta|| = 1e-2 and lam >= 1e-6
    rng = np.random.default_rng(seed)
    for _ in range(5):
        delta = rng.standard_normal(d)
        delta *= 1e-2 / np.linalg.norm(delta)
        assert sol.f_star <= model.value(sol.w_star + delta)


@pytest.mark.parametrize("kind", ["logistic", "squared_hinge"])
def test_lambda_zero_on_separable_data_reaches_zero_curvature(kind):
    # margins grow without bound (logistic) or up to 1 (squared hinge); either
    # way every phi'' is exactly 0 at the end, so CG meets a direction of zero
    # curvature (logistic) or the gradient vanishes (squared hinge)
    ds = SparseDataset.from_dense(np.array([[1.0], [-1.0]]), np.array([1.0, -1.0]))
    model = LossModel(ds, 0.0, kind)
    sol = solve_reference(model, tol=1e-30, max_iter=200)
    assert np.all(model.curvature_coefs(ds.features @ sol.w_star) == 0.0)
    assert np.isfinite(sol.f_star)
    assert sol.converged == (sol.grad_norm <= 1e-30)
    assert sol.iterations < 200   # a stalled line search ends the solve


def test_nonconvergence_is_flagged():
    ds = synth_binary(100, 8, seed=53)
    model = LossModel(ds, 1e-4, "logistic")
    sol = solve_reference(model, tol=1e-13, max_iter=2)
    assert not sol.converged
    assert sol.grad_norm > 1e-13


def test_invalid_tol():
    for tol in (0.0, -1e-10, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tol"):
            solve_reference(Quadratic(np.ones(2)), tol=tol)


def test_deterministic():
    ds = synth_binary(60, 5, seed=54)
    model = LossModel(ds, 1e-2, "logistic")
    a = solve_reference(model, tol=1e-10)
    b = solve_reference(model, tol=1e-10)
    np.testing.assert_array_equal(a.w_star, b.w_star)
    assert a.f_star == b.f_star


class PerStepCurvature:
    """A loss model whose Hessian products recompute the curvature at w on
    every call, through ``mean_hess_vec``."""

    def __init__(self, model):
        self.model = model
        self.d = model.d
        self.value, self.grad_full = model.value, model.grad_full
        self.curvature_calls = 0

    def curvature_at(self, w):
        self.curvature_calls += 1
        return w.copy()

    def mean_hess_vec_from(self, w, v):
        return self.model.mean_hess_vec(w, v)


@pytest.mark.parametrize("kind", ["logistic", "squared_hinge"])
def test_curvature_taken_once_per_iteration(kind):
    model = LossModel(synth_binary(300, 20, seed=56, separability=0.9), 1e-5, kind)
    per_step = PerStepCurvature(model)
    a = solve_reference(model)
    b = solve_reference(per_step)
    assert a.converged and per_step.curvature_calls == b.iterations
    np.testing.assert_array_equal(a.w_star, b.w_star)
    assert (a.f_star, a.grad_norm, a.iterations) == (b.f_star, b.grad_norm, b.iterations)


class TestCache:
    def test_save_load_bit_exact(self, tmp_path):
        ds = synth_binary(40, 5, seed=55)
        model = LossModel(ds, 1e-2, "logistic")
        sol = solve_reference(model, tol=1e-10)
        path = tmp_path / "ref.bin"
        save_reference(path, sol)
        back = load_reference(path)
        assert back.w_star.tobytes() == sol.w_star.tobytes()
        assert back.f_star == sol.f_star
        assert back.grad_norm == sol.grad_norm
        assert back.tol == sol.tol
        assert back.iterations == sol.iterations
        assert back.converged == sol.converged

    def test_cached_reference_hit(self, tmp_path):
        ds = synth_binary(40, 5, seed=55)
        model = LossModel(ds, 1e-2, "logistic")
        first = cached_reference(model, tol=1e-10, cache_dir=tmp_path)
        path = cache_path(tmp_path, ds, model.kind, model.lam, 1e-10)
        assert path.exists()
        second = cached_reference(model, tol=1e-10, cache_dir=tmp_path)
        assert second.w_star.tobytes() == first.w_star.tobytes()
        assert ((second.f_star, second.grad_norm, second.iterations, second.converged,
                 second.tol) == (first.f_star, first.grad_norm, first.iterations,
                                 first.converged, first.tol))

    def test_non_converged_entry_is_a_miss(self, tmp_path):
        ds = synth_binary(40, 5, seed=55)
        model = LossModel(ds, 1e-2, "logistic")
        path = cache_path(tmp_path, ds, model.kind, model.lam, 1e-10)
        stalled = solve_reference(model, tol=1e-10, max_iter=1)
        assert not stalled.converged
        save_reference(path, stalled)
        sol = cached_reference(model, tol=1e-10, cache_dir=tmp_path)
        assert sol.converged
        assert load_reference(path).converged

    def test_non_converged_solve_is_not_saved(self, tmp_path):
        model = LossModel(synth_binary(40, 5, seed=55), 1e-2, "logistic")
        sol = cached_reference(model, tol=1e-300, cache_dir=tmp_path)
        assert not sol.converged
        assert not list(tmp_path.iterdir())

    def test_cache_key_separates_lambda_and_kind(self, tmp_path):
        ds = synth_binary(40, 5, seed=55)
        p1 = cache_path(tmp_path, ds, "logistic", 1e-2, 1e-10)
        p2 = cache_path(tmp_path, ds, "logistic", 1e-3, 1e-10)
        p3 = cache_path(tmp_path, ds, "squared_hinge", 1e-2, 1e-10)
        assert len({p1, p2, p3}) == 3

    def test_env_var_cache_dir(self, tmp_path, monkeypatch):
        from vrgrad.reference import CACHE_ENV_VAR
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        ds = synth_binary(30, 4, seed=56)
        model = LossModel(ds, 1e-2, "logistic")
        cached_reference(model, tol=1e-8)
        assert list(tmp_path.glob("ref-*.bin"))

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"not a cache file")
        with pytest.raises(ValueError):
            load_reference(path)

    @pytest.mark.parametrize("damage", ["cut-payload", "garbage", "header-without-tol",
                                        "flipped-byte"])
    def test_damaged_entry_is_a_miss_and_is_overwritten(self, tmp_path, damage):
        # before, the first three raised out of cached_reference, and the key
        # failed until the file was deleted; a flipped byte of w_star loaded as a hit
        model = LossModel(synth_binary(40, 5, seed=55), 1e-2, "logistic")
        fresh = solve_reference(model, tol=1e-10)
        path = cache_path(tmp_path, model.dataset, model.kind, model.lam, 1e-10)
        save_reference(path, fresh)
        whole = path.read_bytes()
        magic, _, header, payload = whole.split(b"\n", 3)

        def sealed(header, payload):
            # a right checksum line, so that the layout checks must tell
            body = header + b"\n" + payload
            return b"\n".join([magic, hashlib.sha256(body).hexdigest().encode(), body])

        if damage == "cut-payload":
            path.write_bytes(sealed(header, payload[:len(payload) // 2 - 3]))  # not 8k bytes
        elif damage == "garbage":
            path.write_bytes(b"\x93\x00garbage" * 7)
        elif damage == "header-without-tol":
            without_tol = {k: v for k, v in json.loads(header).items() if k != "tol"}
            path.write_bytes(sealed(json.dumps(without_tol).encode(), payload))
        else:
            path.write_bytes(whole[:-1] + bytes([whole[-1] ^ 1]))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_reference(path)
        sol = cached_reference(model, tol=1e-10, cache_dir=tmp_path)
        assert sol.w_star.tobytes() == fresh.w_star.tobytes()
        assert ((sol.f_star, sol.grad_norm, sol.iterations, sol.converged, sol.tol)
                == (fresh.f_star, fresh.grad_norm, fresh.iterations, fresh.converged,
                    fresh.tol))
        assert path.read_bytes() == whole
        assert load_reference(path).w_star.tobytes() == fresh.w_star.tobytes()


_ENTRIES = (0.0, 0.5, -1.0, 3.0, 1e-300)


@st.composite
def dataset_pairs(draw):
    """A dataset, and an equal copy or one that differs in one label, in one
    entry, or only in d (an empty last column)."""
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    X = np.array(draw(st.lists(st.sampled_from(_ENTRIES), min_size=n * d, max_size=n * d)))
    X = X.reshape(n, d)
    labels = np.array(draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=n, max_size=n)))
    a = SparseDataset.from_dense(X, labels)
    change = draw(st.sampled_from(("none", "label", "entry", "d")))
    X2, labels2 = X.copy(), labels.copy()
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, d - 1))
    if change == "label":
        labels2[i] = -labels2[i]
    elif change == "entry":
        X2[i, j] = draw(st.sampled_from(_ENTRIES).filter(lambda v: v != X[i, j]))
    elif change == "d":
        X2 = np.hstack([X2, np.zeros((n, 1))])
    return a, SparseDataset.from_dense(X2, labels2), change


@settings(max_examples=200, deadline=None)
@given(dataset_pairs())
def test_fingerprint_is_equal_exactly_for_equal_datasets(pair):
    a, b, change = pair
    assert (a == b) == (change == "none")
    assert (dataset_fingerprint(a) == dataset_fingerprint(b)) == (a == b)


def test_fingerprint_does_not_depend_on_the_index_dtype():
    narrow, wide = synth_binary(6, 4, seed=1), synth_binary(6, 4, seed=1)
    wide.features.indptr = wide.features.indptr.astype(np.int64)
    wide.features.indices = wide.features.indices.astype(np.int64)
    assert narrow.features.indices.dtype == np.int32
    assert wide.features.indices.dtype == np.int64 and wide == narrow
    assert dataset_fingerprint(wide) == dataset_fingerprint(narrow)


def test_fingerprint_of_a_fixed_dataset_is_pinned():
    # a new digest here re-keys every reference cache entry
    ds = SparseDataset.from_dense([[1.0, 0.0, -2.5], [0.0, 0.0, 0.0], [0.5, 3.0, 0.0]],
                                  [1.0, -1.0, 1.0])
    assert dataset_fingerprint(ds) == (
        "b62030261ac4da04982f29fd6bd371b6c0f13ae2bc525cc6c111ae54e0f3720f")
