"""Finite-sum loss models with per-sample derivative oracles.

Both kinds are margin losses over a :class:`~vrgrad.data.SparseDataset`:
f_i(w) = phi(m_i) + (lam/2) ||w||^2 with the margin m_i = b_i a_i^T w, so
that F(w) = (1/n) sum_i f_i(w) carries the l2 term exactly once.

* ``"logistic"``:      phi(m) = log(1 + exp(-m)),       sup phi'' = 1/4
* ``"squared_hinge"``: phi(m) = (1/2) max(0, 1 - m)^2,  sup phi'' = 1

Each kind is one link in ``_LINKS``: phi, phi', phi'', sup phi'' and sup |phi'''|
(1/(6 sqrt 3) for logistic; inf for squared hinge, whose phi'' jumps at the kink).
Every oracle reads it: grad f_i(w) = b_i phi'(m_i) a_i + lam w,
hess f_i(w) = phi''(m_i) a_i a_i^T + lam I, L_i = sup phi'' ||a_i||^2 + lam, and
L_tilde = sup |phi'''| max_i ||a_i||^3 bounds (not estimates) every Lip(hess f_i).
phi' comes in an array form and a float form, which runs on every inner step
and so makes no ufunc call; it returns the same bits.  phi'' has one form, on
arrays; the per-sample oracles call it on one np.float64 (the squared
hinge's calls ``.astype``, which a Python float lacks).
At the hinge kink (m = 1) phi'' takes the inactive branch, 0: the event has
measure zero and the smaller curvature is the conservative choice.

The model gives F and grad F over the dataset and, per sample, the
gradient difference grad f_i(w) - grad f_i(z) and the Hessian's products.
f_i(w) and grad f_i(w) alone serve only the tests, whose reference
(``tests/oracle.py``) builds them from the row methods; each f_i is
``lam``-strongly convex.

:meth:`LossModel.row_dot` gives a_i^T x and :meth:`LossModel.row_add` does
out += c a_i in place; both find the row through
:attr:`LossModel.row_bounds`, X's row pointers as Python ints, and every
per-sample oracle reads row i of X through them.  A
:class:`~vrgrad.data.SparseDataset` keeps sorted, unique, nonzero entries,
so a full row (nnz_i = d) holds columns 0, ..., d-1 in order and is read
and added directly; a shorter one is gathered with ``take`` and scattered
with ``put``.  Both ways make the same products and sums in the same order,
so they give the same bits.  Whether every row is full (nnz = n d) is
:attr:`LossModel.full_rows`, decided once, with the model.

A model builds two views of X once, with the model, and copies nothing:
X^T, a CSC view that shares X's CSR arrays, and, when every row is full,
:attr:`LossModel.rows`, X's values as an n x d array, whose rows the dense
step reads and whose blocks :meth:`LossModel.mean_hessian_from` sums.  The
copies the size of X or more are the element-wise powers X^2, X^3 and X^4
(:meth:`LossModel.power`), which the diagonal variance reads, and the Gram
matrix K = X X^T (:attr:`LossModel.gram`), which only the Gram step reads;
each is formed the first time it is read and kept for the model's life, as
is the view (X^2)^T that only :meth:`LossModel.mean_hess_diag` reads.  The
products give the bits they gave when each was built on every call.  No
dense copy of X is made: on data with a short row,
:meth:`LossModel.mean_hessian_from` makes one block of rows dense at a
time.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np
from scipy.special import expit

from .data import LabelError, SparseDataset


def _expit_at(m: float) -> float:
    """scipy's ``expit(m)`` = 1 / (1 + exp(-m)) on a float, bit for bit."""
    try:
        return 1.0 / (1.0 + math.exp(-m))
    except OverflowError:   # exp(-m) = inf
        return 0.0


# phi, phi', phi'' on arrays; phi' on a float (suffix _at)
_Link = namedtuple("_Link", "phi dphi d2phi dphi_at sup_d2phi sup_d3phi")
_LINKS = {
    "logistic": _Link(
        phi=lambda m: np.logaddexp(0.0, -m),
        dphi=lambda m: -expit(-m),
        d2phi=lambda m: (s := expit(m)) * (1.0 - s),
        dphi_at=lambda m: -_expit_at(-m),
        sup_d2phi=0.25,
        sup_d3phi=1.0 / (6.0 * math.sqrt(3.0))),
    "squared_hinge": _Link(
        phi=lambda m: 0.5 * np.square(np.maximum(0.0, 1.0 - m)),
        dphi=lambda m: -np.maximum(0.0, 1.0 - m),
        d2phi=lambda m: ((1.0 - m) > 0.0).astype(np.float64),
        dphi_at=lambda m: -max(0.0, 1.0 - m),
        sup_d2phi=1.0,
        sup_d3phi=math.inf),
}
KINDS = tuple(_LINKS)
_ALIASES = {"svm": "squared_hinge", "squared-hinge": "squared_hinge", "lr": "logistic"}


def loss_kind(name: str) -> str:
    """The kind ``name`` gives, itself or through an alias ("svm", "lr")."""
    kind = _ALIASES.get(name, name)
    if kind not in KINDS:
        raise ValueError(f"unknown loss kind {name!r}; expected one of {(*KINDS, *_ALIASES)}")
    return kind


class LossModel:
    """Immutable loss model; every oracle is pure given (model, w)."""

    # rows of X summed at a time by :meth:`mean_hessian_from`: made dense
    # when some row is short, sliced from :attr:`rows` when every row is full
    HESSIAN_BLOCK_ROWS = 128

    def __init__(self, dataset: SparseDataset, lam: float, kind: str = "logistic"):
        kind = loss_kind(kind)
        if not 0.0 <= lam < math.inf:
            raise ValueError(f"lam must be finite and >= 0, got {lam}")
        if dataset.n < 1:
            raise ValueError("dataset must contain at least one sample")
        if not np.all(np.isin(dataset.labels, (-1.0, 1.0))):
            raise LabelError("classification labels must be in {-1, +1}")
        self.dataset = dataset
        self.lam = float(lam)
        self.kind = kind
        self._link = _LINKS[kind]
        # for the per-step oracles, as Python floats and ints: the labels, and
        # the row bounds, row i being X's entries row_bounds[i]:row_bounds[i + 1]
        self._b = dataset.labels.tolist()
        X = dataset.features
        self.row_bounds = X.indptr.tolist()
        # every row full (nnz_i = d); a SparseDataset stores no zero entry.
        # Then X's values are X as an n x d array, a view: canonical CSR
        # holds a full row's columns 0, ..., d-1 in order
        self.full_rows = X.nnz == dataset.n * dataset.d
        self.rows = X.data.reshape(dataset.n, dataset.d) if self.full_rows else None
        self._indices, self._data = X.indices, X.data
        self.XT = X.T
        # formed on first read.  Not functools.cached_property: it writes
        # through the instance __dict__, and once that is read CPython takes
        # a slower path for every attribute read on the model
        self._gram = self._X_sq_T = None
        self._powers = {}                   # exponent k -> X^k, element-wise
        self.row_sq_norms = np.asarray(self.power(2).sum(axis=1)).ravel()

    # -- shapes ------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.dataset.n

    @property
    def d(self) -> int:
        return self.dataset.d

    def check_dim(self, v: np.ndarray, name: str = "w") -> np.ndarray:
        """v as a float64 array; ValueError, naming it ``name``, unless of shape (d,)."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.d,):
            raise ValueError(f"{name} has shape {v.shape}, expected ({self.d},)")
        return v

    # -- rows --------------------------------------------------------------

    def row_dot(self, i: int, x: np.ndarray) -> float:
        """a_i^T x; a full row is read against x directly."""
        lo, hi = self.row_bounds[i], self.row_bounds[i + 1]
        x_row = x if hi - lo == len(x) else x.take(self._indices[lo:hi])
        return float(self._data[lo:hi].dot(x_row))

    def row_add(self, i: int, c: float, out: np.ndarray) -> None:
        """out += c * a_i, in place; a full row is added to out directly."""
        lo, hi = self.row_bounds[i], self.row_bounds[i + 1]
        vals = self._data[lo:hi]
        if hi - lo == len(out):
            out += c * vals
        else:
            cols = self._indices[lo:hi]
            out.put(cols, out.take(cols) + c * vals)

    # -- objective ----------------------------------------------------------

    def value(self, w: np.ndarray) -> float:
        """F(w) = (1/n) sum_i f_i(w)."""
        w = self.check_dim(w)
        margins = self.dataset.labels * (self.dataset.features @ w)
        return float(np.mean(self._link.phi(margins))) + 0.5 * self.lam * float(w @ w)

    # -- gradients ----------------------------------------------------------

    def margin_coef_at(self, i: int, dot: float) -> float:
        """The scalar c with grad f_i(w) = c * a_i + lam * w, given a_i^T w."""
        b = self._b[i]
        return b * self._link.dphi_at(b * dot)

    def margin_coefs(self, dots: np.ndarray) -> np.ndarray:
        """:meth:`margin_coef_at` for every sample, given ``X @ w``."""
        b = self.dataset.labels
        return b * self._link.dphi(b * dots)

    def grad_sample_delta(self, i: int, w: np.ndarray, z: np.ndarray) -> np.ndarray:
        """grad f_i(w) - grad f_i(z) in one pass over the sample's support."""
        w = self.check_dim(w)
        z = self.check_dim(z, "z")
        g = self.lam * (w - z)
        c_w = self.margin_coef_at(i, self.row_dot(i, w))
        self.row_add(i, c_w - self.margin_coef_at(i, self.row_dot(i, z)), g)
        return g

    def grad_full(self, w: np.ndarray) -> np.ndarray:
        """(1/n) sum_i grad f_i(w), computed in one dataset pass."""
        w = self.check_dim(w)
        coefs = self.margin_coefs(self.dataset.features @ w)
        return self.XT @ coefs / self.n + self.lam * w

    # -- curvature ----------------------------------------------------------

    def _curv_coef(self, i: int, w: np.ndarray) -> float:
        """Scalar c with hess f_i = c * a_i a_i^T + lam * I."""
        return self._link.d2phi(np.float64(self._b[i] * self.row_dot(i, w)))

    def hess_vec_sample(self, i: int, w: np.ndarray, v: np.ndarray) -> np.ndarray:
        """hess f_i(w) @ v."""
        w = self.check_dim(w)
        v = self.check_dim(v, "v")
        out = self.lam * v
        c = self._curv_coef(i, w)
        if c != 0.0:
            self.row_add(i, c * self.row_dot(i, v), out)
        return out

    def hess_diag_sample(self, i: int, w: np.ndarray) -> np.ndarray:
        """Diagonal of hess f_i(w) as a vector."""
        w = self.check_dim(w)
        out = np.full(self.d, self.lam)
        c = self._curv_coef(i, w)
        if c != 0.0:
            row = slice(self.row_bounds[i], self.row_bounds[i + 1])
            vals = self._data[row]
            out[self._indices[row]] += c * vals * vals
        return out

    def curvature_coefs(self, dots: np.ndarray) -> np.ndarray:
        """The scalars c_i with hess f_i(w) = c_i * a_i a_i^T + lam * I,
        given ``X @ w``."""
        return self._link.d2phi(self.dataset.labels * dots)

    def curvature_at(self, w: np.ndarray) -> np.ndarray:
        """:meth:`curvature_coefs` at w."""
        w = self.check_dim(w)
        return self.curvature_coefs(self.dataset.features @ w)

    def mean_hess_vec(self, w: np.ndarray, v: np.ndarray) -> np.ndarray:
        """(1/n) sum_i hess f_i(w) @ v via two sparse matvecs (no Hessian formed)."""
        return self.mean_hess_vec_from(self.curvature_at(w), v)

    def mean_hess_vec_from(self, coefs: np.ndarray, v: np.ndarray,
                           out: np.ndarray | None = None) -> np.ndarray:
        """:meth:`mean_hess_vec` from the point's :meth:`curvature_at`,
        written into ``out`` (not ``v``) when given."""
        v = self.check_dim(v, "v")
        hv = self.XT @ (coefs * (self.dataset.features @ v))
        hv /= self.n
        out = np.multiply(v, self.lam, out=out)
        out += hv
        return out

    def mean_hessian_from(self, coefs: np.ndarray) -> np.ndarray:
        """The mean Hessian X^T diag(coefs) X / n + lam I as a dense d x d
        array, from the point's :meth:`curvature_at`.  It is summed over
        blocks of ``HESSIAN_BLOCK_ROWS`` rows.  When every row is full, a
        block is a view of :attr:`rows` and no dense copy of X is made;
        otherwise each block is made dense in turn, so the only dense copy
        of X is one block's.  Both give a block the same values and layout,
        so H the same bits."""
        X, step = self.dataset.features, self.HESSIAN_BLOCK_ROWS
        H = np.zeros((self.d, self.d))
        for lo in range(0, self.n, step):
            block = X[lo:lo + step].toarray() if self.rows is None else self.rows[lo:lo + step]
            H += block.T @ (coefs[lo:lo + step, None] * block)
        H /= self.n
        H.flat[::self.d + 1] += self.lam
        return H

    @property
    def gram(self):
        """K = X X^T, the n x n Gram matrix of the rows, as CSR."""
        if self._gram is None:
            self._gram = (self.dataset.features @ self.XT).tocsr()
        return self._gram

    def power(self, k: int):
        """X^k, the k-th element-wise power of X, as CSR."""
        if k not in self._powers:
            Xk = self.dataset.features.power(k)
            # no entry that underflowed to 0, as X.multiply(X) leaves none:
            # the entries a row sum adds up, and so its bits, are the same
            Xk.eliminate_zeros()
            self._powers[k] = Xk
        return self._powers[k]

    def mean_hess_diag(self, w: np.ndarray) -> np.ndarray:
        """Diagonal of the mean Hessian at w."""
        if self._X_sq_T is None:
            self._X_sq_T = self.power(2).T
        diag = self._X_sq_T @ self.curvature_at(w) / self.n
        return np.asarray(diag).ravel() + self.lam

    # -- constants for the rate machinery ------------------------------------

    def per_sample_smoothness(self) -> np.ndarray:
        """L_i = sup phi'' ||a_i||^2 + lam."""
        return self._link.sup_d2phi * self.row_sq_norms + self.lam

    def smoothness(self) -> float:
        """L = max_i L_i."""
        return float(self.per_sample_smoothness().max())

    def hessian_lipschitz(self) -> float:
        """L_tilde = sup |phi'''| max_i ||a_i||^3, a bound on the Lipschitz
        constant of every hess f_i; 0 when every row is empty."""
        cube = float(self.row_sq_norms.max()) ** 1.5
        return self._link.sup_d3phi * cube if cube else 0.0
