"""Curvature-correction operator pairs (A, A_i) for variance reduction.

Each variant supplies a mean operator ``apply_mean`` and a per-sample
operator ``apply_sample`` with E_i[apply_sample(i, u)] == apply_mean(u):

* ``none``          A = A_i = 0 (plain variance-reduced gradient)
* ``full_hessian``  A = mean hessian at the anchor, A_i = hess f_i
* ``diag_hessian``  diagonal of the above
* ``bb_scalar``     the secant ratio s^T y / ||s||^2 as a scalar surrogate,
                    with per-sample scalars from per-sample gradient
                    differences at the two most recent anchor points

From the second epoch on every operator carries that anchor pair as
``anchors`` (:class:`~vrgrad.stepsize.EpochAnchors`); the BB steps read it too.
The BB scalar is floored at delta > 0 as a non-convexity remedy; the floor
applies to the mean scalar only, never to the per-sample scalars.

An operator is one epoch's data, immutable once built.  Its ``apply_*``
are the reference products: ``apply_sample`` forms A_i u from the
per-sample oracles of :class:`~vrgrad.losses.LossModel` on every call --
the ``bb_scalar`` scalar as s^T (grad f_i(z) - grad f_i(z_prev)) / ||s||^2
from ``grad_sample_delta`` -- and ``apply_mean`` from the epoch's vectors.
Those vectors serve the inner steps of :mod:`vrgrad.optimizer` and the
variance, each computed at most once per epoch, on first use: the anchor
products ``X @ z`` and ``X @ g_anchor``, the anchor's margin coefficients
c_i(z) (grad f_i(z) = c_i(z) a_i + lam z), the full-Hessian curvature
coefficients, the mean diagonal D (``diag_mean``), and for ``bb_scalar``
the per-sample scalars

    kappa_i = (c_i(z) - c_i(z_prev)) (a_i^T s) / ||s||^2,

so that A_i = (lam + kappa_i) I.  Formed by matvecs, they can differ from
the per-sample oracles' values in the last bits.

From the same data, ``sample_parts`` gives every A_i at once as n-vectors
(p, q, h), A_i u = p_i u + q_i a_i + h_i (a_i o a_i o u) with o the
element-wise product: ``none`` (0, 0, -), ``bb_scalar`` (lam + kappa_i, 0, -),
``full_hessian`` (lam, c_i a_i^T u, -), ``diag_hessian`` (lam, 0, c_i), with
c_i the curvature coefficients.  ``sample_residuals`` turns them into every
per-sample squared residual norm in a few sparse matvecs.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .losses import LossModel
from .stepsize import EpochAnchors

VARIANTS = ("none", "full_hessian", "diag_hessian", "bb_scalar")


class DegenerateAnchorError(ValueError):
    """The two anchor points coincide; no secant information exists."""


def default_delta_floor(model: LossModel) -> float:
    """delta = 1e-8 * max(1, L-hat); the remedy needs only delta > 0."""
    return 1e-8 * max(1.0, model.smoothness())


class CorrectionOperator:
    """Immutable (A, A_i) pair anchored at a snapshot point, with the
    epoch's vectors.

    Built via :func:`build_correction`; ``apply_*`` are pure, and no
    attribute is set after construction but the ``cached_property`` vectors.
    """

    def __init__(self, variant, model, anchor, g_anchor, *, anchors=None,
                 bb_raw=None, bb_scalar=None):
        self.variant = variant
        self.model = model
        self.anchor = anchor
        self.g_anchor = g_anchor
        self.anchors = anchors        # EpochAnchors, None in the first epoch
        self.bb_raw = bb_raw          # unfloored secant ratio
        self.bb_scalar = bb_scalar    # floored; used by apply_mean

    # -- per-epoch data, computed on first use --------------------------------

    @cached_property
    def anchor_dots(self) -> np.ndarray:
        """X @ anchor."""
        return self.model.dataset.features @ self.anchor

    @cached_property
    def grad_dots(self) -> np.ndarray:
        """X @ g_anchor."""
        return self.model.dataset.features @ self.g_anchor

    @cached_property
    def anchor_coefs(self) -> np.ndarray:
        """c_i(anchor), with grad f_i(anchor) = c_i a_i + lam * anchor."""
        return self.model.margin_coefs(self.anchor_dots)

    @cached_property
    def curvature_coefs(self) -> np.ndarray:
        """The mean Hessian's per-sample coefficients at the anchor."""
        return self.model.curvature_coefs(self.anchor_dots)

    @cached_property
    def diag_mean(self) -> np.ndarray:
        """D, the mean Hessian diagonal at the anchor (lam included)."""
        return self.model.mean_hess_diag(self.anchor)

    @cached_property
    def sample_scalars(self) -> np.ndarray:
        """kappa_i (``bb_scalar`` only): A_i = (lam + kappa_i) I."""
        X, pair = self.model.dataset.features, self.anchors
        change = self.anchor_coefs - self.model.margin_coefs(X @ pair.w_prev2)
        return change * (X @ pair.s) / pair.secant[0]

    def sample_parts(self, u_dots: np.ndarray):
        """(p, q, h) with A_i u = p_i u + q_i a_i + h_i (a_i o a_i o u) for
        every i, given ``u_dots`` = X @ u; h is None unless ``diag_hessian``."""
        n, lam = self.model.n, self.model.lam
        if self.variant == "none":
            return np.zeros(n), np.zeros(n), None
        if self.variant == "bb_scalar":
            return lam + self.sample_scalars, np.zeros(n), None
        if self.variant == "full_hessian":
            return np.full(n, lam), self.curvature_coefs * u_dots, None
        return np.full(n, lam), np.zeros(n), self.curvature_coefs

    def sample_residuals(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        """||x + grad f_i(w) - grad f_i(anchor) - A_i u||^2 for every i, with
        u = w - anchor.

        With (p, q, h) from :meth:`sample_parts`, the residual is
        x + (lam - p_i) u + beta_i a_i - h_i (a_i o a_i o u) with
        beta_i = c_i(w) - c_i(anchor) - q_i (lam - p_i cancels lam u in the
        coefficient rather than in the sum), and :func:`residual_sqnorms`
        expands its squared norm.
        """
        X = self.model.dataset.features
        u = w - self.anchor
        u_dots = X @ u
        p, q, h = self.sample_parts(u_dots)
        beta = self.model.margin_coefs(X @ w) - self.anchor_coefs - q
        return residual_sqnorms(self.model, x, u, u_dots, self.model.lam - p, beta, h)

    def apply_sample(self, i: int, u: np.ndarray) -> np.ndarray:
        """A_i @ u for sample i."""
        u = self.model.check_dim(u, "u")
        if self.variant == "none":
            return np.zeros_like(u)
        if self.variant == "full_hessian":
            return self.model.hess_vec_sample(i, self.anchor, u)
        if self.variant == "diag_hessian":
            return self.model.hess_diag_sample(i, self.anchor) * u
        pair = self.anchors
        diff = self.model.grad_sample_delta(i, self.anchor, pair.w_prev2)
        return float(pair.s @ diff) / pair.secant[0] * u

    def apply_mean(self, u: np.ndarray) -> np.ndarray:
        """A @ u."""
        u = self.model.check_dim(u, "u")
        if self.variant == "none":
            return np.zeros_like(u)
        if self.variant == "full_hessian":
            return self.model.mean_hess_vec_from(self.curvature_coefs, u)
        if self.variant == "diag_hessian":
            return self.diag_mean * u
        return self.bb_scalar * u

    def __repr__(self):
        if self.variant == "bb_scalar":
            return f"CorrectionOperator(bb_scalar={self.bb_scalar:g})"
        return f"CorrectionOperator({self.variant})"


def build_correction(variant: str, model: LossModel, w_curr: np.ndarray,
                     w_prev: np.ndarray | None = None,
                     g_curr: np.ndarray | None = None,
                     g_prev: np.ndarray | None = None) -> CorrectionOperator:
    """Build the epoch's correction operator anchored at ``w_curr``.

    ``g_curr`` and ``g_prev`` are the full gradients at the two anchors
    (computed when omitted); the per-epoch data is taken at ``w_curr``.
    With no previous anchor (``w_prev is None``, the first epoch) every
    variant degrades to the zero operator.  Otherwise ``anchors`` holds the
    pair, and the ``bb_scalar`` mean scalar is s^T y / ||s||^2 with
    s = w_curr - w_prev, y = g_curr - g_prev, floored at
    :func:`default_delta_floor`.

    Raises
    ------
    DegenerateAnchorError
        bb_scalar with coinciding anchors; callers fall back to ``none``
        for that epoch.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown correction variant {variant!r}")
    w_curr = np.asarray(w_curr, dtype=np.float64)
    if g_curr is None:
        g_curr = model.grad_full(w_curr)
    if w_prev is None:
        return CorrectionOperator("none", model, w_curr, g_curr)
    w_prev = np.asarray(w_prev, dtype=np.float64)
    if g_prev is None:
        g_prev = model.grad_full(w_prev)
    pair = EpochAnchors(w_prev, w_curr, g_prev, g_curr)

    if variant == "bb_scalar":
        s_sqnorm, sty = pair.secant
        if s_sqnorm == 0.0:
            raise DegenerateAnchorError("anchor displacement is zero; no BB scalar")
        raw = sty / s_sqnorm
        return CorrectionOperator("bb_scalar", model, w_curr, g_curr, anchors=pair,
                                  bb_raw=raw, bb_scalar=max(raw, default_delta_floor(model)))
    return CorrectionOperator(variant, model, w_curr, g_curr, anchors=pair)


def residual_sqnorms(model: LossModel, x: np.ndarray, u: np.ndarray,
                     u_dots: np.ndarray, gamma, beta, h=None) -> np.ndarray:
    """||x + gamma_i u + beta_i a_i - h_i (a_i o a_i o u)||^2 for every i,
    in O(nnz + d), given ``u_dots`` = X @ u (gamma, beta, h: n-vectors or
    scalars).  The expansion reads ``X @ x``, ``u_dots`` and the row norms;
    the diagonal term (``h`` given) adds products with X^2, X^3 and X^4,
    which the model keeps (:meth:`~vrgrad.losses.LossModel.power`).
    Values are clamped at 0, which the expansion can round just below.
    """
    X = model.dataset.features
    out = (float(x @ x) + gamma * gamma * float(u @ u)
           + beta * beta * model.row_sq_norms + 2.0 * gamma * float(x @ u)
           + 2.0 * beta * (X @ x) + 2.0 * gamma * beta * u_dots)
    if h is not None:
        X2 = model.power(2)
        uu = u * u
        out = out + h * (h * (model.power(4) @ uu) - 2.0 * (X2 @ (x * u))
                         - 2.0 * gamma * (X2 @ uu) - 2.0 * beta * (model.power(3) @ u))
    return np.maximum(out, 0.0)
