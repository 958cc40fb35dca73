"""Inner-iteration step-size schedules.

Three kinds, with s = w_k - w_{k-1} and y = grad F(w_k) - grad F(w_{k-1})
the secant of the epoch's two most recent anchors:

* ``constant``        eta, independent of (epoch, t)
* ``epoch_bb``        (1/m) * ||s||^2 / (s^T y), held constant within the epoch
* ``generalized_bb``  (xi_T / m1) * ||s||^2 / (s^T y), xi_T = c1 / (1 + c2 * T)
                      with T = k*m + t (c2 = 0 holds xi at c1); the schedule
                      carries c1 and c2 itself

A schedule's eta, eta0 and c1 are finite and > 0, and its c2 finite and >= 0.

One :class:`EpochAnchors` per epoch holds the secant.  It comes from
:func:`vrgrad.correction.build_correction`, whose BB scalar s^T y / ||s||^2
reads the same pair.

Epochs are indexed from 0 here; anchors exist from epoch 1 on, and epoch 0
uses the eta0 fallback (plain eta0 for epoch_bb, (xi_T/m1)*eta0 for
generalized_bb).  The M1/M2/M3 presets change m1 and c2 only, never the
epoch length m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class CurvatureError(ArithmeticError):
    """s^T y <= 0; impossible for strongly convex F but reachable in floats."""


@dataclass(frozen=True)
class StepSizeSchedule:
    kind: str  # "constant" | "epoch_bb" | "generalized_bb"
    eta: float | None = None
    eta0: float | None = None
    m1: int | None = None
    c1: float | None = None   # xi_T = c1 / (1 + c2 * T), generalized_bb only
    c2: float = 0.0

    def __post_init__(self):
        if self.kind == "constant":
            if not _positive(self.eta):
                raise ValueError(f"constant schedule needs a finite eta > 0, got {self.eta}")
            return
        if self.kind not in ("epoch_bb", "generalized_bb"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not _positive(self.eta0):
            raise ValueError(f"{self.kind} schedule needs a finite fallback eta0 > 0, "
                             f"got {self.eta0}")
        if self.kind == "generalized_bb":
            if self.m1 is None or self.m1 < 1:
                raise ValueError("generalized_bb schedule needs m1 >= 1")
            if not _positive(self.c1):
                raise ValueError(f"generalized_bb schedule needs a finite c1 > 0, got {self.c1}")
            if not 0.0 <= self.c2 < math.inf:
                raise ValueError(f"generalized_bb schedule needs a finite c2 >= 0, got {self.c2}")


def _positive(x) -> bool:
    """x is a finite number > 0."""
    return x is not None and 0.0 < x < math.inf


def constant(eta: float) -> StepSizeSchedule:
    return StepSizeSchedule(kind="constant", eta=eta)


def epoch_bb(eta0: float) -> StepSizeSchedule:
    return StepSizeSchedule(kind="epoch_bb", eta0=eta0)


def generalized_bb(m1: int, c1: float, c2: float, eta0: float) -> StepSizeSchedule:
    return StepSizeSchedule(kind="generalized_bb", m1=m1, c1=c1, c2=c2, eta0=eta0)


PRESETS = ("M1", "M2", "M3")


def preset(name: str, n: int, c1: float, c2: float, eta0: float) -> StepSizeSchedule:
    """Generalized-BB presets: M1 (m1=2n, c2 = 0 whatever is given),
    M2 (m1=n) and M3 (m1=1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if name == "M1":
        return generalized_bb(2 * n, c1, 0.0, eta0)
    if name == "M2":
        return generalized_bb(n, c1, c2, eta0)
    if name == "M3":
        return generalized_bb(1, c1, c2, eta0)
    raise ValueError(f"unknown preset {name!r}; expected one of {PRESETS}")


@dataclass(frozen=True)
class EpochAnchors:
    """The two most recent anchor points and their full gradients: the
    epoch's secant s = w_prev1 - w_prev2, y = g_prev1 - g_prev2."""

    w_prev2: np.ndarray
    w_prev1: np.ndarray
    g_prev2: np.ndarray
    g_prev1: np.ndarray

    @cached_property
    def s(self) -> np.ndarray:
        return self.w_prev1 - self.w_prev2

    @cached_property
    def secant(self) -> tuple[float, float]:
        """(||s||^2, s^T y), computed once per epoch rather than per step."""
        s = self.s
        return float(s @ s), float(s @ (self.g_prev1 - self.g_prev2))

    def bb_ratio(self) -> float:
        """||s||^2 / (s^T y); raises on non-positive curvature, on every call."""
        sq, denom = self.secant
        if denom <= 0.0:
            raise CurvatureError(f"non-positive anchor curvature {denom:g}")
        return sq / denom


def step(schedule: StepSizeSchedule, anchors: EpochAnchors | None,
         epoch: int, t: int, m: int) -> float:
    """Step size for inner iteration t of the given (0-based) epoch.

    Raises :class:`CurvatureError` when a BB kind sees s^T y <= 0;
    callers substitute their fallback and log the event.
    """
    if schedule.kind == "constant":
        return schedule.eta
    if schedule.kind == "epoch_bb":
        return schedule.eta0 if anchors is None else anchors.bb_ratio() / m
    scale = schedule.c1 / (1.0 + schedule.c2 * (epoch * m + t)) / schedule.m1
    return scale * (schedule.eta0 if anchors is None else anchors.bb_ratio())
