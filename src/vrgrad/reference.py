"""High-accuracy deterministic reference minimizer for gap reporting.

A limited-memory quasi-Newton solver (two-loop recursion, Armijo
backtracking with halving) drives ||grad F|| below the requested tolerance.
Solutions for loss models can be cached to disk in a small versioned
binary format; cache hits reproduce the solution bit-exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import SparseDataset, write_libsvm
from .losses import LossModel

_ARMIJO_C1 = 1e-4
_MAX_BACKTRACKS = 60
_MEMORY = 10          # (s, y) pairs kept by the two-loop recursion


@dataclass
class ReferenceSolution:
    w_star: np.ndarray
    f_star: float
    grad_norm: float
    iterations: int
    converged: bool
    tol: float


def solve_reference(model, tol: float = 1e-10, max_iter: int = 1000,
                    history: list | None = None) -> ReferenceSolution:
    """Minimize ``model`` (anything with .d, .value(w), .grad_full(w)) from 0.

    Deterministic given its inputs; F never increases on an accepted step
    (pass a ``history`` list to collect the accepted values).  It can stay
    equal: near the minimum the Armijo test accepts a step whose decrease
    rounds to zero.  When max_iter runs out the best iterate is returned
    flagged ``converged=False``.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    w = np.zeros(model.d)
    f = model.value(w)
    g = model.grad_full(w)
    if history is not None:
        history.append(f)

    s_hist: deque[np.ndarray] = deque(maxlen=_MEMORY)
    y_hist: deque[np.ndarray] = deque(maxlen=_MEMORY)
    rho_hist: deque[float] = deque(maxlen=_MEMORY)

    iterations = 0
    for iterations in range(1, max_iter + 1):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tol:
            return ReferenceSolution(w, f, gnorm, iterations - 1, True, tol)

        p = -_two_loop(g, s_hist, y_hist, rho_hist)
        gtp = float(g @ p)
        if gtp >= 0.0:
            # quasi-Newton direction lost descent (numerically); restart on -g
            s_hist.clear(); y_hist.clear(); rho_hist.clear()
            p = -g
            gtp = -gnorm * gnorm

        alpha = 1.0 if s_hist else min(1.0, 1.0 / gnorm)
        f_new = None
        for _ in range(_MAX_BACKTRACKS):
            w_new = w + alpha * p
            f_try = model.value(w_new)
            if np.isfinite(f_try) and f_try <= f + _ARMIJO_C1 * alpha * gtp:
                f_new = f_try
                break
            alpha *= 0.5
        if f_new is None:
            break  # line search stalled at float resolution; report best effort

        g_new = model.grad_full(w_new)
        s = w_new - w
        y = g_new - g
        sty = float(s @ y)
        if sty > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            s_hist.append(s)
            y_hist.append(y)
            rho_hist.append(1.0 / sty)
        w, f, g = w_new, f_new, g_new
        if history is not None:
            history.append(f)

    gnorm = float(np.linalg.norm(g))
    return ReferenceSolution(w, f, gnorm, iterations, gnorm <= tol, tol)


def _two_loop(g, s_hist, y_hist, rho_hist) -> np.ndarray:
    """H @ g with the limited history; H0 = (s^T y / y^T y) * I."""
    q = g.copy()
    alphas = []
    for s, y, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    if s_hist:
        y_last = y_hist[-1]
        gamma = (1.0 / rho_hist[-1]) / float(y_last @ y_last)
        q *= gamma
    for (s, y, rho), a in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
        b = rho * float(y @ q)
        q += (a - b) * s
    return q


# -- disk cache --------------------------------------------------------------

_MAGIC = b"vrgrad-ref 1\n"
CACHE_ENV_VAR = "VRGRAD_CACHE_DIR"


def dataset_fingerprint(dataset: SparseDataset) -> str:
    payload = f"{dataset.n} {dataset.d}\n".encode() + write_libsvm(dataset).encode()
    return hashlib.sha256(payload).hexdigest()


def cache_path(cache_dir, dataset: SparseDataset, kind: str, lam: float, tol: float) -> Path:
    key = f"{dataset_fingerprint(dataset)}-{kind}-{lam.hex()}-{tol.hex()}"
    digest = hashlib.sha256(key.encode()).hexdigest()[:32]
    return Path(cache_dir) / f"ref-{digest}.bin"


def save_reference(path, sol: ReferenceSolution, header_extra: dict | None = None) -> None:
    header = {
        "d": int(sol.w_star.size),
        "f_star": sol.f_star.hex(),
        "grad_norm": sol.grad_norm.hex(),
        "iterations": sol.iterations,
        "converged": sol.converged,
        "tol": sol.tol.hex(),
    }
    if header_extra:
        header.update(header_extra)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(np.ascontiguousarray(sol.w_star, dtype="<f8").tobytes())


def load_reference(path) -> ReferenceSolution:
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a reference cache file")
        header = json.loads(fh.readline().decode())
        w = np.frombuffer(fh.read(), dtype="<f8").copy()
    if w.size != header["d"]:
        raise ValueError(f"{path}: truncated vector payload")
    return ReferenceSolution(
        w_star=w,
        f_star=float.fromhex(header["f_star"]),
        grad_norm=float.fromhex(header["grad_norm"]),
        iterations=int(header["iterations"]),
        converged=bool(header["converged"]),
        tol=float.fromhex(header["tol"]),
    )


def cached_reference(model: LossModel, tol: float = 1e-10,
                     cache_dir=None) -> ReferenceSolution:
    """solve_reference with a bit-exact disk cache keyed by
    (dataset hash, model kind, lambda, tol)."""
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_ENV_VAR)
    if cache_dir is None:
        return solve_reference(model, tol=tol)
    path = cache_path(cache_dir, model.dataset, model.kind, float(model.lam), float(tol))
    if path.exists():
        return load_reference(path)
    sol = solve_reference(model, tol=tol)
    save_reference(path, sol, header_extra={"kind": model.kind, "lam": float(model.lam).hex()})
    return sol
