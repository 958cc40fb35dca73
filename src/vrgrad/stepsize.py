"""Inner-iteration step-size schedules.

Three kinds:

* ``constant``        eta, independent of (epoch, t)
* ``epoch_bb``        (1/m) * ||dw||^2 / (dw^T dg) from the two most recent
                      anchor points, held constant within the epoch
* ``generalized_bb``  (xi_t / m1) * ||dw||^2 / (dw^T dg) with xi_t either
                      fixed at c1 or decaying c1 / (1 + c2 * T), T = k*m + t

Epochs are indexed from 0 here; anchors exist from epoch 1 on, and epoch 0
uses the eta0 fallback (plain eta0 for epoch_bb, (xi_t/m1)*eta0 for
generalized_bb).  The M1/M2/M3 presets change m1 and the xi mode only,
never the epoch length m.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np


class CurvatureError(ArithmeticError):
    """dw^T dg <= 0; impossible for strongly convex F but reachable in floats."""


@dataclass(frozen=True)
class XiSchedule:
    mode: str  # "fixed" | "decay"
    c1: float
    c2: float = 0.0

    def __post_init__(self):
        if self.mode not in ("fixed", "decay"):
            raise ValueError(f"unknown xi mode {self.mode!r}")
        if self.c1 <= 0:
            raise ValueError("c1 must be > 0")
        if self.mode == "decay" and self.c2 < 0:
            raise ValueError("c2 must be >= 0")

    def bounds(self, total_steps: int) -> tuple[float, float]:
        """(xi_min, xi_max) over T in [0, total_steps)."""
        if self.mode == "fixed":
            return self.c1, self.c1
        return xi(self, total_steps - 1), self.c1


def xi(schedule: XiSchedule, T: int) -> float:
    """xi_T for the given schedule; decay is c1 / (1 + c2 * T)."""
    if T < 0:
        raise ValueError("T must be >= 0")
    if schedule.mode == "fixed":
        return schedule.c1
    return schedule.c1 / (1.0 + schedule.c2 * T)


@dataclass(frozen=True)
class StepSizeSchedule:
    kind: str  # "constant" | "epoch_bb" | "generalized_bb"
    eta: float | None = None
    eta0: float | None = None
    m1: int | None = None
    xi_schedule: XiSchedule | None = None

    def __post_init__(self):
        if self.kind == "constant":
            if self.eta is None or self.eta <= 0:
                raise ValueError("constant schedule needs eta > 0")
        elif self.kind == "epoch_bb":
            if self.eta0 is None or self.eta0 <= 0:
                raise ValueError("epoch_bb schedule needs a fallback eta0 > 0")
        elif self.kind == "generalized_bb":
            if self.m1 is None or self.m1 < 1:
                raise ValueError("generalized_bb schedule needs m1 >= 1")
            if self.xi_schedule is None:
                raise ValueError("generalized_bb schedule needs a xi schedule")
            if self.eta0 is not None and self.eta0 <= 0:
                raise ValueError("eta0 must be > 0 when given")
        else:
            raise ValueError(f"unknown schedule kind {self.kind!r}")

    def with_eta0(self, eta0: float) -> "StepSizeSchedule":
        return replace(self, eta0=eta0)


def constant(eta: float) -> StepSizeSchedule:
    return StepSizeSchedule(kind="constant", eta=eta)


def epoch_bb(eta0: float) -> StepSizeSchedule:
    return StepSizeSchedule(kind="epoch_bb", eta0=eta0)


def generalized_bb(m1: int, xi_schedule: XiSchedule, eta0: float | None = None) -> StepSizeSchedule:
    return StepSizeSchedule(kind="generalized_bb", m1=m1, xi_schedule=xi_schedule, eta0=eta0)


PRESETS = ("M1", "M2", "M3")


def preset(name: str, n: int, c1: float, c2: float, eta0: float | None = None) -> StepSizeSchedule:
    """Generalized-BB presets: M1 (m1=2n, fixed xi), M2 (m1=n, decay),
    M3 (m1=1, decay)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if name == "M1":
        return generalized_bb(2 * n, XiSchedule("fixed", c1), eta0)
    if name == "M2":
        return generalized_bb(n, XiSchedule("decay", c1, c2), eta0)
    if name == "M3":
        return generalized_bb(1, XiSchedule("decay", c1, c2), eta0)
    raise ValueError(f"unknown preset {name!r}; expected one of {PRESETS}")


@dataclass(frozen=True)
class EpochAnchors:
    """The two most recent anchor points and their full gradients."""

    w_prev2: np.ndarray
    w_prev1: np.ndarray
    g_prev2: np.ndarray
    g_prev1: np.ndarray

    @cached_property
    def _secant(self) -> tuple[float, float]:
        # (||dw||^2, dw^T dg), computed once per epoch rather than per step
        dw = self.w_prev1 - self.w_prev2
        dg = self.g_prev1 - self.g_prev2
        return float(dw @ dw), float(dw @ dg)

    def bb_ratio(self) -> float:
        """||dw||^2 / (dw^T dg); raises on non-positive curvature, on every call."""
        sq, denom = self._secant
        if denom <= 0.0:
            raise CurvatureError(f"non-positive anchor curvature {denom:g}")
        return sq / denom


def step(schedule: StepSizeSchedule, anchors: EpochAnchors | None,
         epoch: int, t: int, m: int) -> float:
    """Step size for inner iteration t of the given (0-based) epoch.

    Raises :class:`CurvatureError` when a BB kind sees dw^T dg <= 0;
    callers substitute their fallback and log the event.
    """
    if schedule.kind == "constant":
        return schedule.eta
    if schedule.kind == "epoch_bb":
        if anchors is None:
            return schedule.eta0
        return anchors.bb_ratio() / m
    # generalized_bb
    xi_t = xi(schedule.xi_schedule, epoch * m + t)
    if anchors is None:
        if schedule.eta0 is None:
            raise ValueError("generalized_bb schedule used before anchors exist "
                             "but no fallback eta0 was configured")
        return (xi_t / schedule.m1) * schedule.eta0
    return (xi_t / schedule.m1) * anchors.bb_ratio()
