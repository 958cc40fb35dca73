"""The epoch/inner-loop optimizer with variance-corrected search directions.

One run executes K epochs.  Each epoch snapshots the full gradient at the
anchor, builds the method's correction operator -- the epoch's per-sample
data, see :mod:`vrgrad.correction` -- from the current and previous
anchors, then takes m stochastic inner steps

    w_t = w_{t-1} - eta * v_t,
    v_t = grad f_i(w_{t-1}) - grad f_i(anchor) + g_anchor
          + (A - A_i)(w_{t-1} - anchor),

and finally promotes either the last inner iterate (option 1) or a
uniformly random one (option 2) to the next anchor.  Method names:

    SVRG          no correction, constant step
    SVRG2         full-Hessian correction (matrix-free), constant step
    SVRG2D        diagonal-Hessian correction, constant step
    SVRG2BB       BB-scalar correction, constant step
    SVRGBB        no correction, per-epoch BB step
    SVRG2BBS-M1/2/3  BB-scalar correction, generalized BB step presets

An inner step takes one of two forms:

* the dense step keeps w as a vector and costs O(d) per step;
* the affine step, for the ``none`` and ``bb_scalar`` corrections (so also
  the first, uncorrected epoch of SVRG2 and SVRG2D), costs O(nnz_i).  Both corrections make every dense term of v_t a scalar times
  u = w - anchor or times g_anchor:  v_t = k_i u + (c_i(w) - c_i(z)) a_i + g
  with k_i = lam (``none``) or bb_scalar - kappa_i (``bb_scalar``).  So the
  step holds u = sigma * y + rho * g_anchor, rescales the two scalars and
  writes y only on the row's support, takes margins from the epoch's
  ``X @ anchor`` and ``X @ g_anchor``, and tracks ||w||^2 for the divergence
  guard from ||y||^2, y.anchor and y.g_anchor.

The affine step runs when rows are short: the mean row has at most d/4
nonzeros.  Elsewhere the dense step runs; its arithmetic is the plain
formula above.  The two agree up to rounding.

Variance telemetry (``variance_mode="last"``) is exact at any n and costs a
few sparse matvecs per epoch (:func:`measure_variance`); it draws no
random number and leaves the trajectory unchanged.

Reproducibility: the draw order per epoch is (option-2 anchor index if
applicable, then the m sample indices in one block), all from the run's
single seeded generator, so (seed, config, dataset) fully determine the
trajectory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .correction import DegenerateAnchorError, build_correction, residual_sqnorms
from .losses import LossModel
from .stepsize import CurvatureError, EpochAnchors, StepSizeSchedule
from .stepsize import step as schedule_step

# method -> (correction variant, step schedule kind)
_FORMS = {
    "SVRG": ("none", "constant"),
    "SVRG2": ("full_hessian", "constant"),
    "SVRG2D": ("diag_hessian", "constant"),
    "SVRG2BB": ("bb_scalar", "constant"),
    "SVRGBB": ("none", "epoch_bb"),
    "SVRG2BBS-M1": ("bb_scalar", "generalized_bb"),
    "SVRG2BBS-M2": ("bb_scalar", "generalized_bb"),
    "SVRG2BBS-M3": ("bb_scalar", "generalized_bb"),
}
METHODS = tuple(_FORMS)


class DivergenceError(RuntimeError):
    """An iterate left the divergence guard; carries (epoch, step, records)."""

    def __init__(self, message, epoch, step, records=None):
        super().__init__(message)
        self.epoch = epoch
        self.step = step
        self.records = records or []


@dataclass(frozen=True)
class RunConfig:
    method: str
    schedule: StepSizeSchedule
    epochs: int
    m: int | None = None          # inner length; None resolves to 2n
    anchor_option: int = 1
    seed: int = 0
    variance_mode: str = "last"   # "last" (exact, at the epoch's last iterate) | "none"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.m is not None and self.m < 1:
            raise ValueError("inner length m must be >= 1")
        if self.anchor_option not in (1, 2):
            raise ValueError("anchor_option must be 1 or 2")
        if self.variance_mode not in ("last", "none"):
            raise ValueError(f"unknown variance mode {self.variance_mode!r}")
        want = _FORMS[self.method][1]
        if self.schedule.kind != want:
            raise ValueError(
                f"method {self.method} requires a {want!r} schedule, "
                f"got {self.schedule.kind!r}")

    def resolve_m(self, n: int) -> int:
        return self.m if self.m is not None else 2 * n


@dataclass
class EpochRecord:
    """Telemetry for one completed epoch (1-based epoch index)."""

    epoch: int
    fval: float
    gap: float          # fval - f_star; nan when no reference supplied
    wall_time: float    # cumulative seconds in full-gradient passes,
                        # correction builds and inner loops (no telemetry)
    variance: float     # mean_i ||v_t(i) - grad F||^2 at the last iterate; nan when off
    step_size: float    # step used at the final inner iteration
    grad_evals: int     # cumulative per-sample gradient evaluations


@dataclass
class InnerSummary:
    final_iterate: np.ndarray
    next_anchor: np.ndarray
    last_step: float
    grad_evals: int
    curvature_fallbacks: int = 0


def direction(model: LossModel, correction, w_curr: np.ndarray,
              w_anchor: np.ndarray, g_anchor: np.ndarray, i: int) -> np.ndarray:
    """The corrected stochastic direction v_t for sample i.

    With the zero correction this is the plain variance-reduced gradient
    grad f_i(w) - grad f_i(anchor) + g_anchor; the correction adds
    (A - A_i)(w - anchor).  E_i[v_t] = grad F(w_curr), except that
    ``bb_scalar`` floors its mean scalar only, which adds
    (bb_scalar - bb_raw)(w_curr - anchor) when the floor is active.
    """
    v = model.grad_sample_delta(i, w_curr, w_anchor)
    v += g_anchor
    if correction.variant != "none":
        u = w_curr - w_anchor
        v += correction.apply_mean(u)
        v -= correction.apply_sample(i, u)
    return v


def affine_step_applies(model: LossModel, correction) -> bool:
    """Whether the epoch takes the O(nnz_i) affine step: the correction is
    ``none`` or ``bb_scalar`` and the mean row has at most d/4 nonzeros."""
    return (correction.variant in ("none", "bb_scalar")
            and 4 * model.dataset.features.nnz <= model.n * model.d)


class _DenseIterate:
    """The inner iterate as a dense vector; a step costs O(d)."""

    def __init__(self, model, correction, w_anchor, g_anchor):
        self.model, self.correction = model, correction
        self.w_anchor, self.g_anchor = w_anchor, g_anchor
        self.w = w_anchor.copy()
        self.v = None

    def current(self) -> np.ndarray:
        return self.w.copy()

    def step(self, i: int, eta: float, limit: float) -> bool:
        """w -= eta * v_t(i); False when w is non-finite or ||w||^2 > limit."""
        w = self.w
        # v lives until the next step replaces it.  Freed at once, the step's
        # O(d) temporaries all return to the top of the heap, glibc trims it,
        # and the next step faults the pages in again.
        self.v = direction(self.model, self.correction, w, self.w_anchor,
                           self.g_anchor, i)
        w -= eta * self.v
        return bool(np.isfinite(w).all()) and float(w @ w) <= limit


class _AffineIterate:
    """The inner iterate as w = z + sigma * y + rho * g, with z the anchor and
    g its full gradient; a step costs O(nnz_i) (module docstring)."""

    # sigma is folded into y when |sigma| leaves this range (or gamma = 0)
    SIGMA_RANGE = (1e-100, 1e100)

    def __init__(self, model, correction, w_anchor, g_anchor):
        X = model.dataset.features
        self.indptr, self.indices, self.data = X.indptr, X.indices, X.data
        self.margin_coef_at = model.margin_coef_at
        self.z, self.g = w_anchor, g_anchor
        # per-sample epoch data as Python floats, for scalar arithmetic
        self.z_dots = correction.anchor_dots.tolist()
        self.g_dots = correction.grad_dots.tolist()
        self.z_coefs = correction.anchor_coefs.tolist()
        self.row_sq = model.row_sq_norms.tolist()
        if correction.variant == "bb_scalar":
            self.k = (correction.bb_scalar - correction.sample_scalars).tolist()
        else:
            self.k = [model.lam] * model.n
        self.y = np.zeros(model.d)
        self.sigma, self.rho = 1.0, 0.0
        self.yy = self.yz = self.yg = 0.0       # y.y, y.z, y.g
        self.zz = float(w_anchor @ w_anchor)
        self.zg = float(w_anchor @ g_anchor)
        self.gg = float(g_anchor @ g_anchor)

    def current(self) -> np.ndarray:
        return self.z + self.sigma * self.y + self.rho * self.g

    def _fold(self) -> None:
        y = self.y
        y *= self.sigma
        self.sigma = 1.0
        self.yy, self.yz, self.yg = float(y @ y), float(y @ self.z), float(y @ self.g)

    def step(self, i: int, eta: float, limit: float) -> bool:
        """w -= eta * v_t(i); False when ||w||^2 is non-finite or > limit."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        cols, vals = self.indices[lo:hi], self.data[lo:hi]
        y = self.y
        ay = float(vals @ y[cols])
        z_dot, g_dot = self.z_dots[i], self.g_dots[i]
        dc = self.margin_coef_at(i, z_dot + self.sigma * ay + self.rho * g_dot) \
            - self.z_coefs[i]
        # u <- gamma * u - eta * g - eta * dc * a_i
        gamma = 1.0 - eta * self.k[i]
        self.sigma *= gamma
        self.rho = gamma * self.rho - eta
        if not self.SIGMA_RANGE[0] <= abs(self.sigma) <= self.SIGMA_RANGE[1]:
            ay *= self.sigma
            self._fold()
        sigma, rho = self.sigma, self.rho
        if dc != 0.0:
            alpha = -eta * dc / sigma
            y[cols] += alpha * vals
            self.yy += alpha * (2.0 * ay + alpha * self.row_sq[i])
            self.yz += alpha * z_dot
            self.yg += alpha * g_dot
        ww = (self.zz + sigma * sigma * self.yy + rho * rho * self.gg
              + 2.0 * (sigma * self.yz + rho * self.zg + sigma * rho * self.yg))
        return ww <= limit


def run_epoch(model: LossModel, config: RunConfig, correction,
              schedule_anchors: EpochAnchors | None, epoch: int,
              w_anchor: np.ndarray, g_anchor: np.ndarray,
              rng: np.random.Generator, m: int,
              norm_guard: float, last_bb_step: float | None = None) -> InnerSummary:
    """Run the m inner iterations of one (0-based) epoch.

    ``correction`` must be built at (``w_anchor``, ``g_anchor``).  The step
    form follows :func:`affine_step_applies`.  Raises
    :class:`DivergenceError` when an iterate exceeds the norm guard or turns
    non-finite.  Curvature failures in BB schedules fall back to the last
    valid BB step, else the schedule's eta0.
    """
    iterate_cls = _AffineIterate if affine_step_applies(model, correction) else _DenseIterate
    iterate = iterate_cls(model, correction, w_anchor, g_anchor)
    option2_t = int(rng.integers(m)) if config.anchor_option == 2 else None
    idx = rng.integers(0, model.n, size=m).tolist()
    limit = norm_guard * norm_guard
    snapshot = None
    gevals = 0
    fallbacks = 0
    eta = float("nan")
    # grad_sample_delta counts as two per-sample gradient evaluations;
    # the BB per-sample scalar recomputes two more at the anchors
    per_direction = 4 if correction.variant == "bb_scalar" else 2

    for t in range(m):
        if t == option2_t:
            snapshot = iterate.current()
        try:
            eta = schedule_step(config.schedule, schedule_anchors, epoch, t, m)
        except CurvatureError:
            fallbacks += 1
            if last_bb_step is not None:
                eta = last_bb_step
            elif config.schedule.eta0 is not None:
                eta = config.schedule.eta0
            else:
                raise
        if config.schedule.kind != "constant":
            last_bb_step = eta
        gevals += per_direction
        if not iterate.step(idx[t], eta, limit):
            raise DivergenceError(
                f"iterate diverged at epoch {epoch + 1}, inner step {t + 1}",
                epoch + 1, t + 1)

    w = iterate.current()
    next_anchor = snapshot if option2_t is not None else w
    return InnerSummary(final_iterate=w, next_anchor=next_anchor.copy(),
                        last_step=eta, grad_evals=gevals,
                        curvature_fallbacks=fallbacks)


def measure_variance(model: LossModel, correction, w: np.ndarray) -> float:
    """mean_i ||v_t(i) - grad F(w)||^2, exactly, in O(nnz + d).

    With u = w - anchor and the correction's ``sample_parts`` (p, q, h),
    v_t(i) - grad F(w) = x + (lam - p_i) u + beta_i a_i - h_i (a_i o a_i o u),
    x = g_anchor - grad F(w) + A u, beta_i = c_i(w) - c_i(anchor) - q_i.
    (lam - p_i cancels lam u in the coefficient rather than in the sum.)
    """
    X = model.dataset.features
    u = w - correction.anchor
    u_dots = X @ u
    p, q, h = correction.sample_parts(u_dots)
    x = correction.g_anchor - model.grad_full(w) + correction.apply_mean(u)
    beta = model.margin_coefs(X @ w) - correction.anchor_coefs - q
    return float(np.mean(residual_sqnorms(model, x, u, u_dots, model.lam - p, beta, h)))


def optimize(model: LossModel, config: RunConfig, w0: np.ndarray,
             w_star: np.ndarray | None = None) -> tuple[np.ndarray, list[EpochRecord]]:
    """Run K epochs from w0; returns the final anchor and per-epoch telemetry.

    Per epoch: one full-gradient snapshot, the correction build from the
    (current, previous) anchor pair, m inner steps, then the anchor update.
    Wall-time telemetry covers the whole epoch -- the full-gradient pass,
    the correction build with its per-epoch data, and the inner loop; the
    variance and objective telemetry are computed outside the timer.  Gradient-evaluation accounting per epoch:
    n + 2m for plain directions, n + 4m when the BB per-sample scalar is
    active (its two extra anchor gradients per step), and the first epoch
    of every correction method runs uncorrected (no previous anchor).
    SVRG2 additionally performs m*(n+1) Hessian-vector sample products per
    corrected epoch (computed as matrix-free matvecs); these are not
    gradient evaluations and are not included in ``grad_evals``.

    Divergence aborts the run with the completed epochs' records attached
    to the raised :class:`DivergenceError`.
    """
    w0 = np.asarray(w0, dtype=np.float64)
    if w0.shape != (model.d,) or not np.isfinite(w0).all():
        raise ValueError("w0 must be a finite vector of length d")
    n = model.n
    m = config.resolve_m(n)
    rng = np.random.default_rng(config.seed)
    f_star = model.value(w_star) if w_star is not None else None
    norm_guard = 1e8 * (1.0 + float(np.linalg.norm(w0)))
    variant = _FORMS[config.method][0]

    records: list[EpochRecord] = []
    anchor = w0.copy()
    anchor_prev = None
    g_prev = None
    cum_time = 0.0
    cum_gevals = 0
    last_bb_step = None

    for epoch in range(config.epochs):
        tic = time.perf_counter()
        g_anchor = model.grad_full(anchor)
        cum_gevals += n

        try:
            corr = build_correction(variant, model, anchor, anchor_prev,
                                    g_curr=g_anchor, g_prev=g_prev)
        except DegenerateAnchorError:
            corr = build_correction("none", model, anchor, g_curr=g_anchor)
        sched_anchors = None
        if anchor_prev is not None:
            sched_anchors = EpochAnchors(anchor_prev, anchor, g_prev, g_anchor)

        try:
            summary = run_epoch(model, config, corr, sched_anchors, epoch,
                                anchor, g_anchor, rng, m, norm_guard,
                                last_bb_step)
        except DivergenceError as err:
            err.records = records
            raise
        cum_time += time.perf_counter() - tic
        cum_gevals += summary.grad_evals
        if config.schedule.kind != "constant" and np.isfinite(summary.last_step):
            last_bb_step = summary.last_step

        var = float("nan")
        if config.variance_mode == "last":
            var = measure_variance(model, corr, summary.final_iterate)

        anchor_prev, g_prev = anchor, g_anchor
        anchor = summary.next_anchor
        fval = model.value(anchor)
        if not np.isfinite(fval):
            raise DivergenceError(f"objective non-finite after epoch {epoch + 1}",
                                  epoch + 1, m, records)
        records.append(EpochRecord(
            epoch=epoch + 1,
            fval=fval,
            gap=(fval - f_star) if f_star is not None else float("nan"),
            wall_time=cum_time,
            variance=var,
            step_size=summary.last_step,
            grad_evals=cum_gevals,
        ))

    return anchor, records


def expected_grad_evals(method: str, n: int, m: int, epochs: int) -> list[int]:
    """Closed-form cumulative gradient-evaluation counts per epoch.

    Every epoch pays the full pass n plus 2m inner gradients; methods with
    the BB per-sample scalar pay 2m more from their second epoch on (the
    first epoch runs uncorrected).
    """
    bb = _FORMS[method][0] == "bb_scalar"
    out, total = [], 0
    for epoch in range(epochs):
        total += n + 2 * m
        if bb and epoch >= 1:
            total += 2 * m
        out.append(total)
    return out
