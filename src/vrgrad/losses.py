"""Finite-sum loss models with per-sample derivative oracles.

Two model families over a :class:`~vrgrad.data.SparseDataset`:

* ``"logistic"``:      f_i(w) = log(1 + exp(-b_i a_i^T w)) + (lam/2) ||w||^2
* ``"squared_hinge"``: f_i(w) = (1/2) max(0, 1 - b_i a_i^T w)^2 + (lam/2) ||w||^2

so that F(w) = (1/n) sum_i f_i(w) carries the l2 term exactly once.  At the
hinge kink (margin exactly 0) the curvature oracles use the inactive branch
(lam * I); the event has measure zero and the smaller curvature is the
conservative choice.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from .data import SparseDataset

KINDS = ("logistic", "squared_hinge")
_ALIASES = {"svm": "squared_hinge", "squared-hinge": "squared_hinge", "lr": "logistic"}


class LossModel:
    """Immutable loss model; every oracle is pure given (model, w)."""

    def __init__(self, dataset: SparseDataset, lam: float, kind: str = "logistic"):
        kind = _ALIASES.get(kind, kind)
        if kind not in KINDS:
            raise ValueError(f"unknown loss kind {kind!r}; expected one of {KINDS}")
        if lam < 0:
            raise ValueError("lam must be >= 0")
        if dataset.n < 1:
            raise ValueError("dataset must contain at least one sample")
        if not np.all(np.isin(dataset.labels, (-1.0, 1.0))):
            raise ValueError("classification labels must be in {-1, +1}")
        self.dataset = dataset
        self.lam = float(lam)
        self.kind = kind
        X = dataset.features
        self._indptr = X.indptr
        self._indices = X.indices
        self._data = X.data
        self.row_sq_norms = np.asarray(X.multiply(X).sum(axis=1)).ravel()

    # -- shapes ------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.dataset.n

    @property
    def d(self) -> int:
        return self.dataset.d

    def _check_dim(self, v: np.ndarray, name: str = "w") -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.d,):
            raise ValueError(f"{name} has shape {v.shape}, expected ({self.d},)")
        return v

    def _row(self, i: int):
        sl = slice(self._indptr[i], self._indptr[i + 1])
        return self._indices[sl], self._data[sl]

    # -- objective ----------------------------------------------------------

    def value(self, w: np.ndarray) -> float:
        """F(w) = (1/n) sum_i f_i(w)."""
        w = self._check_dim(w)
        margins = self.dataset.labels * (self.dataset.features @ w)
        reg = 0.5 * self.lam * float(w @ w)
        if self.kind == "logistic":
            return float(np.mean(np.logaddexp(0.0, -margins))) + reg
        act = np.maximum(0.0, 1.0 - margins)
        return 0.5 * float(np.mean(act * act)) + reg

    def value_sample(self, i: int, w: np.ndarray) -> float:
        """f_i(w), including this sample's share of the regularizer."""
        w = self._check_dim(w)
        idx, vals = self._row(i)
        margin = self.dataset.labels[i] * float(vals @ w[idx])
        reg = 0.5 * self.lam * float(w @ w)
        if self.kind == "logistic":
            return float(np.logaddexp(0.0, -margin)) + reg
        act = max(0.0, 1.0 - margin)
        return 0.5 * act * act + reg

    # -- gradients ----------------------------------------------------------

    def margin_coef_at(self, i: int, dot: float) -> float:
        """The scalar c with grad f_i(w) = c * a_i + lam * w, given a_i^T w."""
        b = self.dataset.labels[i]
        m = b * dot
        if self.kind == "logistic":
            return float(-b * expit(-m))
        return float(-b * max(0.0, 1.0 - m))

    def margin_coefs(self, dots: np.ndarray) -> np.ndarray:
        """:meth:`margin_coef_at` for every sample, given ``X @ w``."""
        b = self.dataset.labels
        margins = b * dots
        if self.kind == "logistic":
            return -b * expit(-margins)
        return -b * np.maximum(0.0, 1.0 - margins)

    def _margin_coef(self, i: int, w: np.ndarray) -> float:
        idx, vals = self._row(i)
        return self.margin_coef_at(i, float(vals @ w[idx]))

    def grad_sample(self, i: int, w: np.ndarray) -> np.ndarray:
        w = self._check_dim(w)
        idx, vals = self._row(i)
        g = self.lam * w
        g[idx] += self._margin_coef(i, w) * vals
        return g

    def grad_sample_delta(self, i: int, w: np.ndarray, z: np.ndarray) -> np.ndarray:
        """grad f_i(w) - grad f_i(z) in one pass over the sample's support."""
        w = self._check_dim(w)
        z = self._check_dim(z, "z")
        idx, vals = self._row(i)
        g = self.lam * (w - z)
        g[idx] += (self._margin_coef(i, w) - self._margin_coef(i, z)) * vals
        return g

    def grad_full(self, w: np.ndarray) -> np.ndarray:
        """(1/n) sum_i grad f_i(w), computed in one dataset pass."""
        w = self._check_dim(w)
        coefs = self.margin_coefs(self.dataset.features @ w)
        return self.dataset.features.T @ coefs / self.n + self.lam * w

    # -- curvature ----------------------------------------------------------

    def _curv_coef(self, i: int, w: np.ndarray) -> float:
        """Scalar c with hess f_i = c * a_i a_i^T + lam * I."""
        b = self.dataset.labels[i]
        idx, vals = self._row(i)
        m = b * float(vals @ w[idx])
        if self.kind == "logistic":
            s = expit(m)
            return float(s * (1.0 - s))
        return 1.0 if (1.0 - m) > 0.0 else 0.0

    def hess_vec_sample(self, i: int, w: np.ndarray, v: np.ndarray) -> np.ndarray:
        """hess f_i(w) @ v."""
        w = self._check_dim(w)
        v = self._check_dim(v, "v")
        idx, vals = self._row(i)
        out = self.lam * v
        c = self._curv_coef(i, w)
        if c != 0.0:
            out[idx] += c * float(vals @ v[idx]) * vals
        return out

    def hess_diag_sample(self, i: int, w: np.ndarray) -> np.ndarray:
        """Diagonal of hess f_i(w) as a vector."""
        w = self._check_dim(w)
        idx, vals = self._row(i)
        out = np.full(self.d, self.lam)
        c = self._curv_coef(i, w)
        if c != 0.0:
            out[idx] += c * vals * vals
        return out

    def curvature_coefs(self, dots: np.ndarray) -> np.ndarray:
        """The scalars c_i with hess f_i(w) = c_i * a_i a_i^T + lam * I,
        given ``X @ w``."""
        margins = self.dataset.labels * dots
        if self.kind == "logistic":
            s = expit(margins)
            return s * (1.0 - s)
        return ((1.0 - margins) > 0.0).astype(np.float64)

    def mean_hess_vec(self, w: np.ndarray, v: np.ndarray) -> np.ndarray:
        """(1/n) sum_i hess f_i(w) @ v via two sparse matvecs (no Hessian formed)."""
        w = self._check_dim(w)
        return self.mean_hess_vec_from(self.curvature_coefs(self.dataset.features @ w), v)

    def mean_hess_vec_from(self, coefs: np.ndarray, v: np.ndarray) -> np.ndarray:
        """:meth:`mean_hess_vec` from the point's :meth:`curvature_coefs`."""
        v = self._check_dim(v, "v")
        X = self.dataset.features
        return X.T @ (coefs * (X @ v)) / self.n + self.lam * v

    def mean_hess_diag(self, w: np.ndarray) -> np.ndarray:
        """Diagonal of the mean Hessian at w."""
        w = self._check_dim(w)
        X = self.dataset.features
        coefs = self.curvature_coefs(X @ w)
        diag = X.multiply(X).T @ coefs / self.n
        return np.asarray(diag).ravel() + self.lam

    # -- constants for the rate machinery ------------------------------------

    def per_sample_smoothness(self) -> np.ndarray:
        """L_i: 0.25 ||a_i||^2 + lam (logistic) or ||a_i||^2 + lam (hinge)."""
        scale = 0.25 if self.kind == "logistic" else 1.0
        return scale * self.row_sq_norms + self.lam

    def smoothness(self) -> float:
        """L = max_i L_i."""
        return float(self.per_sample_smoothness().max())

    def strong_convexity(self) -> float:
        """mu = lam (each f_i is lam-strongly convex)."""
        return self.lam
