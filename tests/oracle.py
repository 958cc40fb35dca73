"""The plain formula of every method, the tests' one reference.

Every method shares one stochastic direction,

    v_t = grad f_i(w) - grad f_i(z) + g + (A - A_i)(w - z),

with z the epoch's anchor, g = grad F(z) and (A, A_i) the epoch's
correction.  :func:`plain_direction` computes it as written, every
per-sample term on every call: the gradient difference gathers row i by
its column indices and scatters into a dense vector, and the ``bb_scalar``
A_i's scalar is formed from that difference at the anchor pair.
:class:`PlainIterate` steps w by it, and takes the place of a step form of
:mod:`vrgrad.optimizer` when a test patches ``step_class``.

:func:`grad_sample` and :func:`value_sample` are f_i's gradient and value,
read through the model's :meth:`~vrgrad.losses.LossModel.row_dot` and
:meth:`~vrgrad.losses.LossModel.row_add`.

:func:`mean_hessian` forms the mean Hessian from blocks of rows that scipy
makes dense, whatever the rows; the model's
:meth:`~vrgrad.losses.LossModel.mean_hessian_from` slices its blocks from
a view of X when every row is full, and must give the same bits.
"""

import numpy as np

from vrgrad.losses import _LINKS


def row(model, i):
    """Row i of X: its column indices and values."""
    X = model.dataset.features
    lo, hi = X.indptr[i], X.indptr[i + 1]
    return X.indices[lo:hi], X.data[lo:hi]


def coef(model, i, w):
    """c_i(w), with grad f_i(w) = c_i(w) a_i + lam w, from the row dot."""
    cols, vals = row(model, i)
    return model.margin_coef_at(i, float(vals @ w[cols]))


def grad_delta(model, i, w, z):
    """grad f_i(w) - grad f_i(z)."""
    cols, vals = row(model, i)
    g = model.lam * (w - z)
    g[cols] += (coef(model, i, w) - coef(model, i, z)) * vals
    return g


def plain_direction(model, correction, w, i):
    """v_t for sample i at w, in the epoch of ``correction``; u = w - z."""
    z = correction.anchor
    v = grad_delta(model, i, w, z)
    v += correction.g_anchor
    if correction.variant != "none":
        u = w - z
        v += correction.apply_mean(u)
        if correction.variant == "bb_scalar":
            pair = correction.anchors
            diff = grad_delta(model, i, z, pair.w_prev2)
            v -= float(pair.s @ diff) / pair.secant[0] * u
        else:
            v -= correction.apply_sample(i, u)
    return v


class PlainIterate:
    """An inner iterate that steps w -= eta * :func:`plain_direction`, with
    the constructor and methods of the step forms of :mod:`vrgrad.optimizer`."""

    def __init__(self, model, correction, w_anchor, g_anchor):
        self.model, self.correction = model, correction
        self.w = w_anchor.copy()

    def current(self):
        return self.w.copy()

    def step(self, i, eta, limit):
        w = self.w
        w -= eta * plain_direction(self.model, self.correction, w, i)
        return bool(np.isfinite(w).all()) and float(w @ w) <= limit


def grad_sample(model, i, w):
    """grad f_i(w)."""
    g = model.lam * w
    model.row_add(i, model.margin_coef_at(i, model.row_dot(i, w)), g)
    return g


def value_sample(model, i, w):
    """f_i(w), including this sample's share of the regularizer."""
    margin = model.dataset.labels[i] * model.row_dot(i, w)
    return float(_LINKS[model.kind].phi(margin)) + 0.5 * model.lam * float(w @ w)


def mean_hessian(model, coefs):
    """X^T diag(coefs) X / n + lam I, summed over blocks of
    ``model.HESSIAN_BLOCK_ROWS`` rows, each made dense by ``toarray``."""
    X, step = model.dataset.features, model.HESSIAN_BLOCK_ROWS
    H = np.zeros((model.d, model.d))
    for lo in range(0, model.n, step):
        block = X[lo:lo + step].toarray()
        H += block.T @ (coefs[lo:lo + step, None] * block)
    H /= model.n
    H.flat[::model.d + 1] += model.lam
    return H
