"""Spans recorded around calls into vrgrad, from outside the package.

:func:`install` replaces each traced name where its caller looks it up (a
module global or a class attribute) with a wrapper that records a span:
name, start, end, parent span, whether the call raised, and an optional
number taken from the call (steps, iterations, bytes).  :func:`uninstall`
puts the original objects back.  Spans live in compact arrays until the run
ends and :meth:`Tracer.save` writes them out.
"""

from __future__ import annotations

import functools
import math
import time
import tracemalloc
from array import array
from pathlib import Path

import numpy as np

import vrgrad.harness as harness
import vrgrad.optimizer as optimizer
import vrgrad.reference as reference
import vrgrad.svgplot as svgplot
from vrgrad.correction import CorrectionOperator
from vrgrad.losses import LossModel

LOSS_FNS = ("grad_sample_delta", "grad_full", "value", "mean_hess_vec",
            "mean_hess_diag", "hess_vec_sample", "hess_diag_sample")
APPLY_VARIANTS = ("full_hessian", "diag_hessian", "bb_scalar")
DIRECTION_VARIANTS = ("none",) + APPLY_VARIANTS
STEP_KINDS = ("constant", "epoch_bb", "generalized_bb")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.failed = array("b")
        self.note = array("d")
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(math.nan)
        self.failed.append(0)
        self.note.append(math.nan)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int, failed: bool) -> None:
        self.end[idx] = time.perf_counter()
        self.failed[idx] = failed
        self._open.pop()

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "failed": np.frombuffer(self.failed, dtype=np.int8).astype(bool),
            "note": np.frombuffer(self.note, dtype=np.float64).copy(),
        }

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def _traced(tracer: Tracer, fn, label, note=None):
    """Wrap ``fn``; ``label`` is a span name or a function of the call's args."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(label if isinstance(label, str) else label(args))
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.finish(idx, True)
            raise
        tracer.finish(idx, False)
        if note is not None:
            tracer.note[idx] = note(args, result)
        return result

    return wrapper


def _variant(correction) -> str:
    return "none" if correction is None else correction.variant


def _csv_bytes(args, paths) -> float:
    return float(sum(p.stat().st_size for p in paths))


# (owner, attribute, span name or name function, note function)
PATCHES = (
    [(harness, "synth_binary", "data.synth_binary", None),
     (harness, "parse_libsvm", "data.parse_libsvm", None),
     (reference, "write_libsvm", "data.write_libsvm", None)]
    + [(LossModel, fn, f"losses.{fn}", None) for fn in LOSS_FNS]
    + [(optimizer, "build_correction", "correction.build_correction", None),
       (CorrectionOperator, "apply_sample", lambda a: f"correction.apply_sample.{a[0].variant}", None),
       (CorrectionOperator, "apply_mean", lambda a: f"correction.apply_mean.{a[0].variant}", None),
       (optimizer, "schedule_step", lambda a: f"stepsize.step.{a[0].kind}", None),
       (optimizer, "direction", lambda a: f"optimizer.direction.{_variant(a[1])}", None),
       (optimizer, "run_epoch", lambda a: f"optimizer.run_epoch.{a[1].method}", lambda a, r: a[8]),
       (optimizer, "measure_variance", "optimizer.measure_variance", None),
       (optimizer, "optimize", "optimizer.optimize", None),
       (harness, "optimize", "optimizer.optimize", None),
       (harness, "cached_reference", "reference.cached_reference", None),
       (reference, "solve_reference", "reference.solve_reference", lambda a, r: r.iterations),
       (reference, "dataset_fingerprint", "reference.dataset_fingerprint", None),
       (reference, "load_reference", "reference.load_reference", None),
       (harness, "run_experiment", "harness.run_experiment", None),
       (harness, "emit_csv", "harness.emit_csv", _csv_bytes),
       (harness, "emit_plots", "harness.emit_plots", None),
       (harness, "load_table", "harness.load_table", None),
       (svgplot, "line_chart", "svgplot.line_chart", None)]
)


def _original(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def install(tracer: Tracer, only: tuple = ()) -> list:
    """Patch every traced name (or those whose owner.attr is in ``only``).

    Returns the saved originals for :func:`uninstall`.
    """
    saved = []
    for owner, attr, label, note in PATCHES:
        if only and f"{owner.__name__}.{attr}" not in only:
            continue
        original = _original(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, _traced(tracer, original, label, note))
    return saved


def uninstall(saved: list) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def self_times(spans: dict) -> np.ndarray:
    """Each span's duration minus the time its direct children cover."""
    dur = spans["end"] - spans["start"]
    has_parent = spans["parent"] >= 0
    covered = np.bincount(spans["parent"][has_parent], weights=dur[has_parent],
                          minlength=dur.size)
    return dur - covered


def alloc_bytes_per_step(run) -> float:
    """Mean over the inner steps of epoch index 1 of the bytes allocated above
    the step's starting level at its peak, as tracemalloc counts them.

    ``run`` is a no-argument callable that runs ``optimize`` for two epochs.
    The second epoch is the first one with a correction in place.
    """
    orig_step, orig_epoch = optimizer.schedule_step, optimizer.run_epoch
    peaks: list[int] = []
    base = [0]

    def close_step():
        current, peak = tracemalloc.get_traced_memory()
        peaks.append(peak - base[0])

    def step_hook(schedule, anchors, epoch, t, m):
        if epoch == 1:
            if t > 0:
                close_step()
            tracemalloc.reset_peak()
            base[0] = tracemalloc.get_traced_memory()[0]
        return orig_step(schedule, anchors, epoch, t, m)

    def epoch_hook(*args):
        result = orig_epoch(*args)
        if args[4] == 1:
            close_step()
        return result

    optimizer.schedule_step, optimizer.run_epoch = step_hook, epoch_hook
    tracemalloc.start()
    try:
        run()
    finally:
        tracemalloc.stop()
        optimizer.schedule_step, optimizer.run_epoch = orig_step, orig_epoch
    return float(np.mean(peaks))


def _median_and_tail(values: np.ndarray) -> tuple[float, float]:
    """The tail is the highest of p99.9/p99/p90 with at least 10 samples
    beyond it, else the median."""
    n = values.size
    if n == 0:
        return 0.0, 0.0
    level = next((p for p in (99.9, 99.0, 90.0) if n * (100.0 - p) / 100.0 >= 10), 50.0)
    return float(np.median(values)), float(np.percentile(values, level))


def layer_metrics(tracer: Tracer, round_start: int, rounds: int, run_s_untraced: float,
                  run_s_traced: float, us_per_step: dict, alloc_per_step: dict) -> dict:
    """Per-layer metrics, name -> (value, unit).

    The spans before index ``round_start`` come from one traced set-up, the
    rest from ``rounds`` traced rounds of the same work.  Timings are per call
    over all spans; counts are per round, from the rounds' spans only.
    """
    spans = tracer.arrays()
    name_of = np.array(tracer.names + [""])[spans["name_id"]]
    in_rounds = np.arange(name_of.size) >= round_start
    dur = spans["end"] - spans["start"]
    own = self_times(spans)
    failed = spans["failed"]
    out: dict = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    def sel(span):
        return name_of == span

    def median_s(span):
        d = dur[sel(span)]
        return float(np.median(d)) if d.size else 0.0

    def per_round(mask):
        return np.count_nonzero(mask & in_rounds) / rounds

    def timing(prefix, span, suffix=""):
        med, tail = _median_and_tail(dur[sel(span)] * 1e6)
        put(f"{prefix}.us{suffix}", med, "us")
        put(f"{prefix}.us_tail{suffix}", tail, "us")
        put(f"{prefix}.calls{suffix}", per_round(sel(span)), "count")

    def share(num, den):
        return num / den if den > 0 else 0.0

    for fn in ("parse_libsvm", "write_libsvm", "synth_binary"):
        put(f"data.{fn}.s", median_s(f"data.{fn}"), "s")
    for fn in LOSS_FNS:
        timing(f"losses.{fn}", f"losses.{fn}")
    timing("correction.build_correction", "correction.build_correction")
    put("correction.degenerate_anchor.count",
        per_round(sel("correction.build_correction") & failed), "count")
    for op in ("apply_sample", "apply_mean"):
        for v in APPLY_VARIANTS:
            timing(f"correction.{op}", f"correction.{op}.{v}", f".{v}")
    steps = np.char.startswith(name_of, "stepsize.step.")
    for kind in STEP_KINDS:
        timing("stepsize.step", f"stepsize.step.{kind}", f".{kind}")
    put("stepsize.step.calls", per_round(steps), "count")
    put("stepsize.curvature_error.count", per_round(steps & failed), "count")

    directions = np.char.startswith(name_of, "optimizer.direction.")
    for v in DIRECTION_VARIANTS:
        timing("optimizer.direction", f"optimizer.direction.{v}", f".{v}")
    for method in optimizer.METHODS:
        put(f"optimizer.run_epoch.us_per_step.{method}", us_per_step.get(method, 0.0), "us")
    for method in optimizer.METHODS:
        put(f"optimizer.run_epoch.alloc_bytes_per_step.{method}",
            alloc_per_step.get(method, 0.0), "bytes")
    optimizes = sel("optimizer.optimize")
    optimize_s = dur[optimizes].sum()
    variance = sel("optimizer.measure_variance")
    put("optimizer.measure_variance.s", median_s("optimizer.measure_variance"), "s")
    put("optimizer.measure_variance.share", share(dur[variance].sum(), optimize_s), "share")
    put("optimizer.epoch_overhead.share", share(own[optimizes].sum(), optimize_s), "share")
    # direction -> run_epoch -> optimize: a step is wasted when its run diverged
    run_of_step = spans["parent"][spans["parent"][directions]]
    put("optimizer.inner_steps.count", per_round(directions), "count")
    put("optimizer.diverged_cells.count", per_round(optimizes & failed), "count")
    put("optimizer.wasted_steps.share",
        share(np.count_nonzero(failed[run_of_step]), np.count_nonzero(directions)), "share")

    put("reference.solve_reference.s", median_s("reference.solve_reference"), "s")
    put("reference.iterations.count", np.nansum(spans["note"][sel("reference.solve_reference")]), "count")
    put("reference.dataset_fingerprint.s", median_s("reference.dataset_fingerprint"), "s")
    put("reference.cache_hit.share", share(np.count_nonzero(sel("reference.load_reference")),
                                           np.count_nonzero(sel("reference.cached_reference"))), "share")

    runs = own[sel("harness.run_experiment")]
    put("harness.run_experiment.self_s", float(np.median(runs)) if runs.size else 0.0, "s")
    put("harness.emit_csv.s", median_s("harness.emit_csv"), "s")
    csv_bytes = spans["note"][sel("harness.emit_csv")]
    put("harness.emit_csv.bytes", float(np.median(csv_bytes)) if csv_bytes.size else 0.0, "bytes")
    put("harness.emit_plots.s", median_s("harness.emit_plots"), "s")
    put("harness.load_table.s", median_s("harness.load_table"), "s")
    timing("svgplot.line_chart", "svgplot.line_chart")
    put("trace.overhead.share", run_s_traced / run_s_untraced - 1.0, "share")
    return out
