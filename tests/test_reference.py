import numpy as np
import pytest

from vrgrad.data import synth_binary
from vrgrad.losses import LossModel
from vrgrad.optimizer import RunConfig, optimize
from vrgrad.reference import (cached_reference, cache_path, load_reference,
                              save_reference, solve_reference)
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


def test_monotone_decrease_on_accepted_steps():
    # tolerance coarse enough that every accepted decrease is representable
    # in float64 (strict monotonicity is an exact-arithmetic statement)
    ds = synth_binary(80, 6, seed=52)
    model = LossModel(ds, 1e-3, "logistic")
    history = []
    solve_reference(model, tol=1e-6, history=history)
    assert len(history) >= 2
    assert all(a > b for a, b in zip(history, history[1:]))


def test_accepted_steps_never_increase_f_and_can_leave_it_equal():
    # near the minimum the Armijo test accepts steps whose decrease rounds
    # to zero in float64, so F is non-increasing, not strictly decreasing
    model = LossModel(synth_binary(500, 20, 54, 0.9), 1e-5, "squared_hinge")
    history = []
    solve_reference(model, tol=1e-10, max_iter=40, history=history)
    steps = list(zip(history, history[1:]))
    assert all(after <= before for before, after in steps)
    assert any(after == before for before, after in steps)


def test_nonconvergence_is_flagged():
    ds = synth_binary(100, 8, seed=53)
    model = LossModel(ds, 1e-4, "logistic")
    sol = solve_reference(model, tol=1e-13, max_iter=2)
    assert not sol.converged
    assert sol.grad_norm > 1e-13


def test_invalid_tol():
    with pytest.raises(ValueError):
        solve_reference(Quadratic(np.ones(2)), tol=0.0)


def test_deterministic():
    ds = synth_binary(60, 5, seed=54)
    model = LossModel(ds, 1e-2, "logistic")
    a = solve_reference(model, tol=1e-10)
    b = solve_reference(model, tol=1e-10)
    np.testing.assert_array_equal(a.w_star, b.w_star)
    assert a.f_star == b.f_star


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
        assert second.f_star == first.f_star

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
