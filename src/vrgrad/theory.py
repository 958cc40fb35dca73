"""Closed-form convergence-rate constants and empirical certification.

The rate machinery needs four problem constants: the strong-convexity
modulus mu (= lambda by construction), the max per-sample gradient-smoothness
L, a bound L_tilde on the Lipschitz constant of every per-sample Hessian
(``LossModel.hessian_lipschitz``, closed form; inf for the squared hinge), and
a bound M on the squared anchor displacement along a trajectory.  From these:

* full-Hessian correction satisfies the residual-ratio bound with
  alpha = L_tilde^2 * M / (4 mu^2);
* BB-scalar and diagonal corrections satisfy it with alpha = 4 L^2 / mu;
* the per-epoch contraction factors beta (random-anchor option),
  gamma (last-iterate option) and gamma_tilde (generalized BB steps)
  follow in closed form, each with an explicit feasibility region.

``estimate_alpha_empirical`` certifies the residual-ratio bound on actual
trajectory points, exactly over all samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correction import CorrectionOperator
from .losses import LossModel


@dataclass(frozen=True)
class ProblemConstants:
    mu: float
    L: float
    L_tilde: float = 0.0
    M: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.mu <= self.L):
            raise ValueError("need 0 < mu <= L")
        if not (self.L_tilde >= 0 and self.M >= 0):
            raise ValueError("L_tilde and M must be >= 0")


@dataclass(frozen=True)
class RateEstimate:
    value: float
    feasible: bool
    eta0: float | None = None
    eta1: float | None = None


def alpha_full_hessian(constants: ProblemConstants) -> float:
    """Residual-ratio constant for the exact-Hessian correction:
    L_tilde^2 * M / (4 mu^2), or 0 when L_tilde or M is 0 (never NaN)."""
    if constants.L_tilde == 0.0 or constants.M == 0.0:
        return 0.0
    return constants.L_tilde ** 2 * constants.M / (4.0 * constants.mu ** 2)


def alpha_bb_diag(constants: ProblemConstants) -> float:
    """Residual-ratio constant for BB-scalar and diagonal corrections:
    4 L^2 / mu."""
    return 4.0 * constants.L ** 2 / constants.mu


def beta_theorem1(mu: float, L: float, alpha: float, eta: float, m: int) -> RateEstimate:
    """Contraction of E[F - F*] per epoch under the random-anchor option:

        beta = 1 / (mu eta (1 - eta L (2 alpha + 1)) m)
               + 2 L eta alpha / (1 - eta L (2 alpha + 1)).

    Feasible iff the denominator is positive and beta < 1.
    """
    ProblemConstants(mu, L)     # 0 < mu <= L
    if eta <= 0 or m < 1:
        raise ValueError("need eta > 0 and m >= 1")
    denom = 1.0 - eta * L * (2.0 * alpha + 1.0)
    if denom <= 0.0:
        return RateEstimate(float("inf"), False)
    beta = 1.0 / (mu * eta * denom * m) + 2.0 * L * eta * alpha / denom
    return RateEstimate(beta, beta < 1.0)


def _gamma(mu: float, L: float, alpha: float, eta0: float, eta1: float,
           m: int) -> RateEstimate:
    """Theorem 3's gamma~ for steps in [eta0, eta1], and Theorem 2's at eta0 = eta1."""
    denom = 1.0 - eta1 * L * (2.0 * alpha + 1.0)
    if denom <= 0.0:
        return RateEstimate(float("inf"), False, eta0, eta1)
    base = 1.0 - 2.0 * eta0 * mu * denom
    gamma = base ** m + 2.0 * alpha * eta1 ** 2 * L ** 2 / (eta0 * mu * denom)
    return RateEstimate(gamma, (0.0 <= base < 1.0) and gamma < 1.0, eta0, eta1)


def gamma_theorem2(mu: float, L: float, alpha: float, eta: float, m: int) -> RateEstimate:
    """Contraction of E||w - w*||^2 per epoch under the last-iterate option:

        gamma = (1 - 2 eta mu (1 - eta L (2 alpha + 1)))^m
                + 2 alpha eta L^2 / (mu (1 - eta L (2 alpha + 1))).
    """
    ProblemConstants(mu, L)     # 0 < mu <= L
    if m < 1:
        raise ValueError("need m >= 1")
    if eta == 0.0:
        return RateEstimate(1.0, False)
    if eta < 0:
        raise ValueError("need eta >= 0")
    return _gamma(mu, L, alpha, eta, eta, m)


def gamma_theorem3(mu: float, L: float, alpha: float, xi0: float, xi1: float,
                   m1: int, m: int) -> RateEstimate:
    """Contraction for the generalized BB step with xi_t in [xi0, xi1]:
    the step brackets are eta0 = xi0/(m1 L), eta1 = xi1/(m1 mu), and

        gamma~ = (1 - 2 eta0 mu (1 - eta1 L (2 alpha + 1)))^m
                 + 2 alpha eta1^2 L^2 / (eta0 mu (1 - eta1 L (2 alpha + 1))).
    """
    ProblemConstants(mu, L)     # 0 < mu <= L
    if not (0.0 < xi0 <= xi1):
        raise ValueError("need 0 < xi0 <= xi1")
    if m1 < 1 or m < 1:
        raise ValueError("need m1 >= 1 and m >= 1")
    return _gamma(mu, L, alpha, xi0 / (m1 * L), xi1 / (m1 * mu), m)


def estimate_alpha_empirical(model: LossModel, correction, points) -> float:
    """Empirical residual-ratio constant on trajectory points.

    For each point w (with u = w - anchor of the correction) the ratio

        mean_i ||grad f_i(w) - grad f_i(anchor) - A_i u||^2
        / mean_i ||grad f_i(w) - grad f_i(anchor)||^2

    is computed exactly, both terms by ``sample_residuals`` with x = 0, the
    denominator's on the ``none`` operator at the same anchor; the max over
    points is returned.  Points with a zero denominator are skipped.
    """
    plain = CorrectionOperator("none", model, correction.anchor, correction.g_anchor)
    zero = np.zeros(model.d)
    best = None
    for w in points:
        w = np.asarray(w, dtype=np.float64)
        rhs = float(np.mean(plain.sample_residuals(w, zero)))
        if rhs == 0.0:
            continue
        lhs = float(np.mean(correction.sample_residuals(w, zero)))
        best = lhs / rhs if best is None else max(best, lhs / rhs)
    if best is None:
        raise ValueError("no usable points: every denominator was zero")
    return best


def empirical_variance_bound(L: float, alpha: float, f_curr: float, f_anchor: float,
                             f_star: float) -> float:
    """The variance envelope 4 alpha L (F(w) - F* + F(anchor) - F*)."""
    return 4.0 * alpha * L * ((f_curr - f_star) + (f_anchor - f_star))
