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
    SVRG2         full-Hessian correction, constant step
    SVRG2D        diagonal-Hessian correction, constant step
    SVRG2BB       BB-scalar correction, constant step
    SVRGBB        no correction, per-epoch BB step
    SVRG2BBS-M1/2/3  BB-scalar correction, generalized BB step presets

An inner step takes one of five forms, each described on its class:

* :class:`_DenseIterate`, for the ``none`` and ``bb_scalar`` corrections
  when every row is full, w as a vector, O(d); its kernel
  :func:`direction` serves it alone, and its bits are the plain formula's;
* :class:`_AffineIterate`, for the ``none`` and ``bb_scalar`` corrections
  when some row is short, O(nnz_i);
* :class:`_DiagIterate`, for ``diag_hessian``, O(nnz_i), with per-column
  catch-up when some row is short;
* :class:`_HessIterate`, for ``full_hessian``, one row dot and one H u by
  the matrix-free product, or, in :class:`_FormedHessIterate`, by a matvec
  with H formed (d^2 < nnz);
* :class:`_GramIterate`, for ``full_hessian`` on wide sparse data
  (sum_j nnz_j^2 < nnz + d, nnz_j the nonzeros of column j), O(n) and one
  product with K = X X^T.

The affine and full-Hessian steps read the drawn row through the model
alone: one :meth:`LossModel.row_dot` and one :meth:`LossModel.row_add` a
step, which read and add a full row (nnz_i = d) directly.  The dense step
reads no row through the model: it hands :func:`direction` X's values laid
out as an n x d array, whose row i it reads and adds.  The diagonal step
reads the row's values itself and applies them to u or, on data with short
rows, to the row's columns of u, which it gathers with the per-column
arrays of its catch-up and scatters back.  The Gram step reads no row:
a_i.u is an entry of X u, which it keeps.

One function, :func:`step_class`, picks an epoch's form: ``diag_hessian``
takes the diagonal step, ``full_hessian`` the form :func:`hessian_form` picks
by cost, and the others, the first epoch of SVRG2 and SVRG2D among them, the
dense step when every row is full (:attr:`LossModel.full_rows`, nnz = n d)
and the affine step otherwise.  All five agree up to rounding.

A run diverges when an iterate is not finite or ||w||^2 exceeds the square of
the guard 1e8 (1 + ||w0||).  The dense and full-Hessian steps form w and test
it (:func:`_within_guard`).  The affine, diagonal and Gram steps estimate
||w||^2 and follow one rule, :meth:`_RowIterate._guard`: the estimate decides
when it is finite and below the guard less ``GUARD_SLACK``; otherwise w
itself is tested.

Variance telemetry (``variance_mode="last"``) is exact at any n and costs a
few sparse matvecs per epoch (:func:`measure_variance`); it draws no
random number and leaves the trajectory unchanged.

Reproducibility: the draw order per epoch is (option-2 anchor index if
applicable, then the m sample indices in one block), all from the run's
single seeded generator, so (seed, config, dataset) fully determine the
trajectory.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .correction import DegenerateAnchorError, build_correction
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
# correction variant -> the per-sample gradient evaluations an inner step
# counts, by the paper's accounting: two for grad f_i(w) - grad f_i(z), and
# two more at the anchors for the BB per-sample scalar
_STEP_GRAD_EVALS = {"none": 2, "full_hessian": 2, "diag_hessian": 2, "bb_scalar": 4}


class DivergenceError(RuntimeError):
    """An iterate left the divergence guard; carries (epoch, step, records)."""

    def __init__(self, message, epoch, step, records=None):
        super().__init__(message)
        self.epoch = epoch
        self.step = step
        self.records = records or []


def check_run_options(methods, epochs, m, anchor_option, variance_mode) -> None:
    """Raise ValueError on a bad run option; :class:`RunConfig` and the
    experiment spec both call it, so each option has one message."""
    for meth in methods:
        if meth not in METHODS:
            raise ValueError(f"unknown method {meth!r}; choose from {', '.join(METHODS)}")
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    if m is not None and m < 1:
        raise ValueError(f"inner length m must be >= 1 or None (2n), got {m}")
    if anchor_option not in (1, 2):
        raise ValueError(f"anchor_option must be 1 or 2, got {anchor_option!r}")
    if variance_mode not in ("last", "none"):
        raise ValueError(f"variance_mode must be 'last' or 'none', got {variance_mode!r}")


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
        check_run_options((self.method,), self.epochs, self.m, self.anchor_option,
                          self.variance_mode)
        want = _FORMS[self.method][1]
        if self.schedule.kind != want:
            raise ValueError(
                f"method {self.method} requires a {want!r} schedule, "
                f"got {self.schedule.kind!r}")

    def resolve_m(self, n: int) -> int:
        return self.m if self.m is not None else 2 * n


@dataclass
class EpochRecord:
    """Telemetry for one completed epoch (1-based epoch index).

    The fields are a run CSV's columns, in order; a column is named after
    its field unless the field's metadata names it.
    """

    epoch: int
    # cumulative seconds in full-gradient passes, correction builds and
    # inner loops (no telemetry)
    wall_time: float = field(metadata={"column": "wall_time_sec"})
    fval: float
    gap: float          # fval - f_star; nan when no reference supplied
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


def direction(model: LossModel, correction, w_curr: np.ndarray, i: int,
              rows: np.ndarray, out: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """The dense step's v_t for sample i at ``w_curr``, in a ``none`` or
    ``bb_scalar`` epoch of ``correction``, whose anchor z and gradient g it
    reads; called once a step, with the correction second, so that
    ``bench/spans.py`` can wrap it by name and count the steps by it.

    ``rows`` is X's values as an n x d array (every row is full), and
    ``out`` three length-d arrays (u, v, t) that u, v and each term added to
    v are written into; v is returned.

    Its bits are the plain formula's, grad_sample_delta(i, w, z) + g
    + A u - A_i u with u = w - z, in that order.  u is formed once, row i
    is read once against w and added once into v, and c_i(z) and the
    ``bb_scalar`` A_i's scalar come from the correction, which computes
    each by the per-sample oracles' expression the first time sample i is
    drawn in the epoch.  E_i[v_t] = grad F(w_curr), except that
    ``bb_scalar`` floors its mean scalar only, which adds
    (bb_scalar - bb_raw)(w_curr - z) when the floor is active.
    """
    u, v, t = out
    np.subtract(w_curr, correction.anchor, out=u)
    row = rows[i]
    dc = model.margin_coef_at(i, float(row.dot(w_curr))) - correction.anchor_coef_at(i)
    np.multiply(u, model.lam, out=v)
    np.multiply(row, dc, out=t)
    v += t
    v += correction.g_anchor
    if correction.variant == "bb_scalar":
        np.multiply(u, correction.bb_scalar, out=t)
        v += t
        np.multiply(u, correction.sample_scalar_at(i), out=t)
        v -= t
    return v


def _within_guard(w: np.ndarray, limit: float) -> bool:
    """Whether w is finite and ||w||^2 <= limit."""
    ww = float(w.dot(w))    # the ndarray method skips matmul's dispatch
    # ||w||^2 is finite exactly when w is, unless the sum overflows
    return ww <= limit and (ww < math.inf or bool(np.isfinite(w).all()))


class _DenseIterate:
    """The inner iterate of a ``none`` or ``bb_scalar`` epoch as a dense
    vector, for data whose every row is full (:attr:`LossModel.full_rows`);
    a step costs O(d).

    A step calls its kernel :func:`direction` with X's values as an n x d
    array and per-epoch buffers: its bits are the plain formula's and it
    allocates no O(d) array.  :func:`step_class` sends it no other epoch.
    """

    def __init__(self, model, correction, w_anchor, g_anchor):
        if not model.full_rows:
            raise ValueError("the dense step needs every row full (nnz_i = d)")
        if correction.variant not in ("none", "bb_scalar"):
            raise ValueError(f"the dense step takes no {correction.variant} epoch")
        self.model, self.correction = model, correction
        # canonical CSR: a full row holds columns 0, ..., d-1 in order
        self.rows = model.dataset.features.data.reshape(model.n, model.d)
        self.buffers = tuple(np.empty(model.d) for _ in range(3))
        self.w = w_anchor.copy()

    def current(self) -> np.ndarray:
        return self.w.copy()

    def step(self, i: int, eta: float, limit: float) -> bool:
        """w -= eta * v_t(i); False when w is non-finite or ||w||^2 > limit."""
        w = self.w
        v = direction(self.model, self.correction, w, i, self.rows, self.buffers)
        v *= eta
        w -= v
        return _within_guard(w, limit)


class _RowIterate:
    """The epoch data of a step form that reads the drawn row alone: the
    model's :meth:`~LossModel.row_dot` and :meth:`~LossModel.row_add`, the
    anchor z and its full gradient g, z.z, z.g and g.g, and X @ z and c_i(z)
    as Python floats, for scalar arithmetic.

    A form that estimates ||w||^2 (or a bound on it) instead of forming w
    tests the divergence guard by one rule, :meth:`_guard`: the estimate
    decides when it is finite and below the guard less ``GUARD_SLACK``;
    otherwise w itself goes through :func:`_within_guard`.
    """

    # an estimate of ||w||^2 decides only below this share of the guard; the
    # slack covers the estimate's rounding
    GUARD_SLACK = 1e-3

    def __init__(self, model, correction, w_anchor, g_anchor):
        self.row_dot, self.row_add = model.row_dot, model.row_add
        self.margin_coef_at = model.margin_coef_at
        self.z, self.g = w_anchor, g_anchor
        self.zz = float(w_anchor @ w_anchor)
        self.zg = float(w_anchor @ g_anchor)
        self.gg = float(g_anchor @ g_anchor)
        self.z_dots = correction.anchor_dots.tolist()
        self.z_coefs = correction.anchor_coefs.tolist()

    def _guard(self, ww: float, limit: float) -> bool:
        """Whether w is within the guard, given ww, an estimate of ||w||^2."""
        if ww < math.inf and ww <= limit * (1.0 - self.GUARD_SLACK):
            return True
        return _within_guard(self.current(), limit)


class _AffineIterate(_RowIterate):
    """The inner iterate as w = z + sigma * y + rho * g; a step costs O(nnz_i).

    The ``none`` and ``bb_scalar`` corrections make every dense term of v_t
    a scalar times u = w - z or times g:  v_t = k_i u + (c_i(w) - c_i(z)) a_i
    + g with k_i = lam (``none``) or bb_scalar - kappa_i (``bb_scalar``).  So
    a step rescales sigma and rho and writes y only on the row's support,
    takes margins from the epoch's ``X @ z`` and ``X @ g``, and estimates
    ||w||^2 for the divergence guard from running sums of y.y, y.z and y.g.
    """

    # sigma is folded into y when |sigma| leaves this range (or gamma = 0)
    SIGMA_RANGE = (1e-100, 1e100)

    def __init__(self, model, correction, w_anchor, g_anchor):
        super().__init__(model, correction, w_anchor, g_anchor)
        self.g_dots = correction.grad_dots.tolist()
        self.row_sq = model.row_sq_norms.tolist()
        if correction.variant == "bb_scalar":
            self.k = (correction.bb_scalar - correction.sample_scalars).tolist()
        else:
            self.k = [model.lam] * model.n
        self.y = np.zeros(model.d)
        self.sigma, self.rho = 1.0, 0.0
        self.yy = self.yz = self.yg = 0.0       # y.y, y.z, y.g

    def current(self) -> np.ndarray:
        return self.z + self.sigma * self.y + self.rho * self.g

    def _fold(self) -> None:
        y = self.y
        y *= self.sigma
        self.sigma = 1.0
        self.yy, self.yz, self.yg = float(y @ y), float(y @ self.z), float(y @ self.g)

    def step(self, i: int, eta: float, limit: float) -> bool:
        """w -= eta * v_t(i); False when w is non-finite or ||w||^2 > limit."""
        y = self.y
        ay = self.row_dot(i, y)
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
            self.row_add(i, alpha, y)
            self.yy += alpha * (2.0 * ay + alpha * self.row_sq[i])
            self.yz += alpha * z_dot
            self.yg += alpha * g_dot
        ww = (self.zz + sigma * sigma * self.yy + rho * rho * self.gg
              + 2.0 * (sigma * self.yz + rho * self.zg + sigma * rho * self.yg))
        return self._guard(ww, limit)


class _DiagIterate(_RowIterate):
    """The inner iterate of a ``diag_hessian`` epoch as u = w - z; a step
    costs O(nnz_i).

    With D the mean Hessian diagonal (lam included) and h_i the anchor's
    curvature coefficients, a step is
    u <- (1 - eta D) o u - eta g - eta (c_i(w) - c_i(z)) a_i
    + eta h_i (a_i o a_i o u).  Off the row's support column j follows
    u_j <- u*_j + r_j (u_j - u*_j), with r_j = 1 - eta D_j and
    u*_j = -g_j / D_j, so k steps of it move u_j by (r_j^k - 1)(u_j - u*_j).
    Where 1 - eta D_j rounds to 1 (D_j = 0 needs lam = 0), the column drifts
    by -eta g_j per step instead.

    When some row is short (``lazy``), each column is brought up to date
    only when a step reads it: a step gathers the row's columns, brings
    them up from the step each was last written at, moves them and
    scatters them back, and the end of the epoch and the option-2 snapshot
    bring up all d columns.  When every row is full
    (:attr:`LossModel.full_rows`), every step writes every column, so no
    column waits and the step moves the whole of u in place.  Both take the
    margin from ``X @ z`` + a_i.u and apply one update.  A full row in data
    with short rows still needs its catch-up, so the choice is the
    dataset's, not the row's.

    When every eta D_j < 1, r^k - 1 is expm1(k log1p(-eta D_j)), which keeps
    its precision when |u*_j| is far larger than |u_j|, and the divergence
    guard runs on a bound: a column that waits k steps moves at most
    k |eta D_j u_j + eta g_j|, so
    ||w|| <= ||z|| + ||u|| + k (max_j eta D_j ||u|| + eta ||g||), with u the
    written values, ||u||^2 a running sum over the written columns and k the
    steps since all columns were last brought up.  The bound's square is the
    estimate of :meth:`_RowIterate._guard`; when some eta D_j >= 1 there is
    no bound, and every step brings up all columns and tests w exactly.
    """

    def __init__(self, model, correction, w_anchor, g_anchor):
        super().__init__(model, correction, w_anchor, g_anchor)
        # the one step form that reads rows itself (module docstring)
        X = model.dataset.features
        self.bounds, self.indices, self.data = model.row_bounds, X.indices, X.data
        self.lazy = not model.full_rows
        self.diag = correction.diag_mean
        # h_i a_ij^2 for every nonzero a_ij
        self.h_sq = np.repeat(correction.curvature_coefs, np.diff(X.indptr)) * self.data ** 2
        self.znorm = math.sqrt(self.zz)
        self.u = np.zeros(model.d)      # u_j as of step stamp_j
        self.stamp = np.zeros(model.d)  # read only when lazy
        self.t = 0                      # steps taken
        self.eta = None

    def _set_eta(self, eta: float) -> None:
        """Take steps of size ``eta``, set once by the first step: only SVRG2D
        takes this step, and its schedule is constant (:class:`RunConfig`)."""
        self.eta = eta
        E = eta * self.diag                         # 1 - r
        self.eta_g = eta * self.g
        # where 1 - eta D_j rounds to 1, u_j <- u_j - eta g_j: r_j = 1, u*_j = 0
        # and a drift (D_j = 0 needs lam = 0 and no curvature through column j)
        flat = E < 2.0 ** -53
        self.E = np.where(flat, 0.0, E)
        self.ustar = np.divide(-self.eta_g, E, out=np.zeros_like(E), where=~flat)
        self.drift = np.where(flat, self.eta_g, 0.0) if np.any(self.g[flat]) else None
        # every r_j > 0: a catch-up takes r^k - 1 as expm1(k log r), which
        # keeps its precision however close r_j is to 1.  Otherwise every
        # step brings all columns up, so k <= 1 and r^k - 1 = -k eta D.
        self.log_r = np.log1p(-self.E) if E.max(initial=0.0) < 1.0 else None
        # a step on row i multiplies u_j by 1 - eta D_j + eta h_i a_ij^2
        self.row_coef = 1.0 - self.E[self.indices] + eta * self.h_sq
        self.move_scale = (float(self.E.max(initial=0.0)), eta * math.sqrt(self.gg))
        self._reset_bound()

    @staticmethod
    def _caught_up(u, k, rk_m1, ustar, drift):
        """u after k more steps off the support, u_j <- u*_j + r_j (u_j - u*_j)
        - drift_j each, given rk_m1 = r^k - 1."""
        u = u + rk_m1 * (u - ustar)
        if drift is not None:
            u -= k * drift
        return u

    def _sync(self) -> None:
        """Bring every column up to step t."""
        if self.eta is not None:
            if self.lazy:
                k = self.t - self.stamp
                rk_m1 = -k * self.E if self.log_r is None else np.expm1(k * self.log_r)
                self.u = self._caught_up(self.u, k, rk_m1, self.ustar, self.drift)
                self.stamp.fill(self.t)
            self._reset_bound()

    def _reset_bound(self) -> None:
        self.usq = float(self.u @ self.u)   # ||u||^2 of the stored columns
        self.t0 = self.t                    # every stamp is at least t0

    def current(self) -> np.ndarray:
        self._sync()
        return self.z + self.u

    def step(self, i: int, eta: float, limit: float) -> bool:
        """w -= eta * v_t(i); False when w is non-finite or ||w||^2 > limit."""
        if self.eta is None:
            self._set_eta(eta)
        lo, hi = self.bounds[i], self.bounds[i + 1]
        if self.lazy:
            cols = self.indices[lo:hi]
            u_old = self.u.take(cols)
        else:
            u_old = self.u      # every column is up to step t
        old_sq = u_old.dot(u_old)
        u = u_old           # with no bound, the exact test brought all columns up
        if self.lazy and self.log_r is not None:
            k = self.t - self.stamp.take(cols)
            u = self._caught_up(u_old, k, np.expm1(k * self.log_r.take(cols)),
                                self.ustar.take(cols),
                                None if self.drift is None else self.drift.take(cols))
        vals = self.data[lo:hi]
        dc = self.margin_coef_at(i, self.z_dots[i] + float(vals.dot(u))) - self.z_coefs[i]
        # u <- (1 - eta D) o u - eta g - eta dc a_i + eta h_i (a_i o a_i o u),
        # in place on u or on the row's gathered columns
        u *= self.row_coef[lo:hi]
        u -= self.eta_g.take(cols) if self.lazy else self.eta_g
        u -= (eta * dc) * vals
        self.t += 1
        if self.lazy:
            self.u.put(cols, u)
            self.stamp.put(cols, self.t)
        if self.log_r is None:
            return _within_guard(self.current(), limit)    # no bound: test w
        # a column waiting k steps moves at most k |eta D_j u_j + eta g_j|
        self.usq += float(u.dot(u) - old_sq)
        u_norm = math.sqrt(abs(self.usq))
        e_max, g_move = self.move_scale
        bound = self.znorm + u_norm + (self.t - self.t0) * (e_max * u_norm + g_move)
        return self._guard(bound * bound, limit)


def hessian_form(model: LossModel) -> str:
    """How a ``full_hessian`` epoch applies H to u, by cost:

    * ``"formed"`` when d^2 < nnz: H as a dense d x d array, whose matvec
      costs less than two sparse matvecs over X;
    * ``"gram"`` when sum_j nnz_j^2 < nnz + d, with nnz_j the nonzeros of
      column j: u in the span of g and the rows, through K = X X^T, whose
      nnz is at most that sum, so K is never larger than X
      (:class:`_GramIterate`);
    * ``"matrix_free"`` otherwise, two sparse matvecs over X.

    The sum grows with the square of the most frequent columns' counts.  A
    bias column, or Zipf-distributed column counts as in text data, make K
    dense or nearly so, and a product with it costs O(n^2) against the
    matrix-free O(nnz + d); such data takes the matrix-free step.
    """
    X = model.dataset.features
    if model.d * model.d < X.nnz:
        return "formed"
    col_nnz = np.bincount(X.indices, minlength=model.d)
    if int(col_nnz @ col_nnz) < X.nnz + model.d:
        return "gram"
    return "matrix_free"


class _HessIterate(_RowIterate):
    """The inner iterate of a ``full_hessian`` epoch as u = w - z; a step
    costs one row dot, one H u and O(d) in-place updates.

    lam u cancels between grad f_i(w) - grad f_i(z) and A_i u, so with H the
    mean Hessian at the anchor (lam included) and h_i its curvature
    coefficients, v_t = g + H u + (c_i(w) - c_i(z) - h_i a_i.u) a_i.  A step
    reads a_i.u with :meth:`LossModel.row_dot`, adds the row term into v
    with :meth:`LossModel.row_add`, writes into per-epoch buffers and tests
    w exactly.  H u is the matrix-free product, two sparse matvecs over X.
    """

    def __init__(self, model, correction, w_anchor, g_anchor):
        super().__init__(model, correction, w_anchor, g_anchor)
        coefs = correction.curvature_coefs
        self.h = coefs.tolist()
        # hess_vec(u, out=v) writes H u into v
        self.hess_vec = partial(model.mean_hess_vec_from, coefs)
        # per-epoch buffers: a step writes into them and allocates no O(d) array
        self.u = np.zeros(model.d)
        self.v = np.empty(model.d)
        self.w = np.empty(model.d)

    def current(self) -> np.ndarray:
        return self.z + self.u

    def step(self, i: int, eta: float, limit: float) -> bool:
        """w -= eta * v_t(i); False when w is non-finite or ||w||^2 > limit."""
        u, v, w = self.u, self.v, self.w
        au = self.row_dot(i, u)
        dc = self.margin_coef_at(i, self.z_dots[i] + au) - self.z_coefs[i]
        # v = H u + g + (dc - h_i a_i.u) a_i
        self.hess_vec(u, out=v)
        v += self.g
        self.row_add(i, dc - self.h[i] * au, v)
        v *= eta
        u -= v
        np.add(self.z, u, out=w)
        return _within_guard(w, limit)


class _FormedHessIterate(_HessIterate):
    """:class:`_HessIterate` with H formed once per epoch as a dense d x d
    array, summed over blocks of rows, so that H u is one matvec."""

    def __init__(self, model, correction, w_anchor, g_anchor):
        super().__init__(model, correction, w_anchor, g_anchor)
        self.hess_vec = partial(np.matmul, model.mean_hessian_from(correction.curvature_coefs))


class _GramIterate(_RowIterate):
    """The inner iterate of a ``full_hessian`` epoch in Gram form; a step
    costs O(n) and one product with K = X X^T.

    With H = X^T diag(h) X / n + lam I, a step moves u = w - z by
    -eta (lam u + g + X^T t), with
    t = h o (X u) / n + (c_i(w) - c_i(z) - h_i a_i.u) e_i
    (see :class:`_HessIterate`).  From u = 0 every iterate stays in
    span{g} + row-span(X), so the step keeps u = rho g + X^T q with q in R^n,
    and r = X u; with gamma = 1 - eta lam,

        rho <- gamma rho - eta,  q <- gamma q - eta t,
        r <- gamma r - eta X g - eta K t,

    and a_i.u is r_i.  With X z and X g from the epoch, ||w||^2 is
    z.z + 2 rho z.g + rho^2 g.g + 2 (X z).q + rho (X g).q + q.r in O(n)
    (:meth:`sq_norm`), the estimate of :meth:`_RowIterate._guard`.  w itself
    is formed only where that rule tests it, at the option-2 snapshot and at
    the epoch's end.
    """

    def __init__(self, model, correction, w_anchor, g_anchor):
        super().__init__(model, correction, w_anchor, g_anchor)
        self.XT, self.K, self.lam = model.XT, model.gram, model.lam
        self.h = correction.curvature_coefs.tolist()
        self.h_n = correction.curvature_coefs / model.n
        self.z_dot_vec, self.g_dot_vec = correction.anchor_dots, correction.grad_dots
        self.rho = 0.0
        self.q = np.zeros(model.n)
        self.r = np.zeros(model.n)
        self.t = np.empty(model.n)

    def current(self) -> np.ndarray:
        return self.z + self.rho * self.g + self.XT @ self.q

    def step(self, i: int, eta: float, limit: float) -> bool:
        """w -= eta * v_t(i); False when w is non-finite or ||w||^2 > limit."""
        q, r, t = self.q, self.r, self.t
        r_i = float(r[i])
        dc = self.margin_coef_at(i, self.z_dots[i] + r_i) - self.z_coefs[i]
        # eta t, with t = h o r / n + (dc - h_i r_i) e_i
        np.multiply(self.h_n, r, out=t)
        t[i] += dc - self.h[i] * r_i
        t *= eta
        gamma = 1.0 - eta * self.lam
        self.rho = gamma * self.rho - eta
        q *= gamma
        q -= t
        r *= gamma
        r -= eta * self.g_dot_vec
        r -= self.K @ t
        return self._guard(self.sq_norm(), limit)

    def sq_norm(self) -> float:
        """||w||^2, estimated in O(n) from rho, q and r."""
        rho, q = self.rho, self.q
        return (self.zz + rho * (2.0 * self.zg + rho * self.gg)
                + 2.0 * float(self.z_dot_vec @ q) + rho * float(self.g_dot_vec @ q)
                + float(q @ self.r))


def step_class(model: LossModel, correction) -> type:
    """The inner-step form of the epoch of ``correction``, chosen here alone
    (module docstring); ``none`` and ``bb_scalar`` alone take the dense step,
    when every row is full, and the affine step otherwise."""
    if correction.variant == "diag_hessian":
        return _DiagIterate
    if correction.variant == "full_hessian":
        return {"formed": _FormedHessIterate, "gram": _GramIterate,
                "matrix_free": _HessIterate}[hessian_form(model)]
    return _DenseIterate if model.full_rows else _AffineIterate


def run_epoch(model: LossModel, config: RunConfig, correction,
              schedule_anchors: EpochAnchors | None, epoch: int,
              w_anchor: np.ndarray, g_anchor: np.ndarray,
              rng: np.random.Generator, m: int,
              norm_guard: float, last_bb_step: float | None = None) -> InnerSummary:
    """Run the m inner iterations of one (0-based) epoch.

    ``correction`` must be built at (``w_anchor``, ``g_anchor``), with
    ``schedule_anchors`` its ``anchors``; it picks the step form (module
    docstring).  Raises :class:`DivergenceError` when an iterate exceeds
    the norm guard or turns non-finite.  Curvature failures in BB schedules
    fall back to the last valid BB step, else the schedule's eta0.
    """
    iterate = step_class(model, correction)(model, correction, w_anchor, g_anchor)
    option2_t = int(rng.integers(m)) if config.anchor_option == 2 else None
    idx = rng.integers(0, model.n, size=m).tolist()
    limit = norm_guard * norm_guard
    snapshot = None
    fallbacks = 0
    eta = float("nan")
    # one secant per epoch: a BB step fails on every inner step or on none
    fallback = last_bb_step if last_bb_step is not None else config.schedule.eta0

    for t in range(m):
        if t == option2_t:
            snapshot = iterate.current()
        try:
            eta = schedule_step(config.schedule, schedule_anchors, epoch, t, m)
        except CurvatureError:
            fallbacks += 1
            eta = fallback
        if not iterate.step(idx[t], eta, limit):
            raise DivergenceError(
                f"iterate diverged at epoch {epoch + 1}, inner step {t + 1}",
                epoch + 1, t + 1)

    w = iterate.current()
    next_anchor = snapshot if option2_t is not None else w
    return InnerSummary(final_iterate=w, next_anchor=next_anchor.copy(),
                        last_step=eta, grad_evals=m * _STEP_GRAD_EVALS[correction.variant],
                        curvature_fallbacks=fallbacks)


def measure_variance(model: LossModel, correction, w: np.ndarray) -> float:
    """mean_i ||v_t(i) - grad F(w)||^2, exactly, in O(nnz + d).

    v_t(i) - grad F(w) = x + grad f_i(w) - grad f_i(anchor) - A_i u with
    u = w - anchor and x = g_anchor - grad F(w) + A u, so this is the mean
    of ``correction.sample_residuals(w, x)``.
    """
    x = correction.g_anchor - model.grad_full(w) + correction.apply_mean(w - correction.anchor)
    return float(np.mean(correction.sample_residuals(w, x)))


def optimize(model: LossModel, config: RunConfig, w0: np.ndarray,
             w_star: np.ndarray | None = None) -> tuple[np.ndarray, list[EpochRecord]]:
    """Run K epochs from w0; returns the final anchor and per-epoch telemetry.

    Per epoch: one full-gradient snapshot, the correction build from the
    (current, previous) anchor pair, m inner steps, then the anchor update.
    Wall-time telemetry covers the whole epoch -- the full-gradient pass,
    the correction build with its per-epoch data, and the inner loop; the
    variance and objective telemetry are computed outside the timer.

    Gradient-evaluation accounting per epoch: n for the full gradient plus
    m times the count ``_STEP_GRAD_EVALS`` gives the epoch's correction.
    The first epoch of every correction method runs uncorrected (no
    previous anchor), so it counts as ``none``.  A corrected SVRG2 step also
    applies the mean Hessian: one product with H, formed or matrix-free, or
    in Gram form one product with K = X X^T; these are not gradient
    evaluations and are not included in ``grad_evals``.  This accounting is
    the paper's and counts more than the oracle work done: no step form
    recomputes grad f_i(anchor) or the BB per-sample scalar on every step.
    The dense step computes each once per sample drawn in the epoch; the
    other forms read them from the epoch's sparse matvecs.

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
            # the pair stays: a BB step on it fails and falls back
            corr = build_correction("none", model, anchor, anchor_prev,
                                    g_curr=g_anchor, g_prev=g_prev)

        try:
            summary = run_epoch(model, config, corr, corr.anchors, epoch,
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

    Every epoch pays the full pass n plus m times its correction's count in
    ``_STEP_GRAD_EVALS``; the first epoch runs uncorrected, as ``none``.
    The counts assume that no later epoch degrades to ``none``: an epoch
    whose anchors coincide pays n + 2m.
    """
    first, later = (n + m * _STEP_GRAD_EVALS[v] for v in ("none", _FORMS[method][0]))
    return [first + later * k for k in range(epochs)]
