"""Variance-reduced stochastic gradient methods with curvature corrections.

A numpy/scipy library for finite-sum empirical-risk minimization with the
epoch-snapshot family of variance-reduced methods: plain variance reduction,
second-order corrections (full Hessian, diagonal, Barzilai-Borwein scalar),
BB step-size schedules, closed-form convergence-rate constants, a reference
solver, and a grid-search experiment harness.
"""

from .correction import CorrectionOperator, DegenerateAnchorError, build_correction
from .data import (LabelError, LibsvmParseError, SparseDataset, parse_libsvm,
                   synth_binary, write_libsvm)
from .losses import LossModel
from .optimizer import (METHODS, DivergenceError, EpochRecord, RunConfig,
                        direction, expected_grad_evals, measure_variance,
                        optimize, run_epoch)
from .reference import ReferenceSolution, cached_reference, solve_reference
from .stepsize import (CurvatureError, EpochAnchors, StepSizeSchedule,
                       constant, epoch_bb, generalized_bb, preset, step)
from .theory import (ProblemConstants, RateEstimate, alpha_bb_diag,
                     alpha_full_hessian, beta_theorem1,
                     estimate_alpha_empirical, gamma_theorem2, gamma_theorem3)

__version__ = "0.1.0"

__all__ = [
    "CorrectionOperator", "DegenerateAnchorError", "build_correction",
    "LabelError", "LibsvmParseError", "SparseDataset", "parse_libsvm",
    "synth_binary", "write_libsvm",
    "LossModel", "METHODS", "DivergenceError", "EpochRecord", "RunConfig",
    "direction", "expected_grad_evals", "measure_variance", "optimize",
    "run_epoch", "ReferenceSolution", "cached_reference", "solve_reference",
    "CurvatureError", "EpochAnchors", "StepSizeSchedule", "constant",
    "epoch_bb", "generalized_bb", "preset", "step",
    "ProblemConstants", "RateEstimate", "alpha_bb_diag", "alpha_full_hessian",
    "beta_theorem1", "estimate_alpha_empirical", "gamma_theorem2",
    "gamma_theorem3",
]
