"""Benchmark of the vrgrad library: time to a gap, grid wall time and set-up.

Run from the root of a source checkout:

    python3 bench/run.py --workload dense-lowd --seed 0 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 0 only when every operation passed its output
check.  An untraced run measures in ``PARTS`` fresh processes, one after
another.  A JSON report with the environment and every sample goes to
``.bench_out/``.  The workloads, metrics and their layers are described in
``bench/NOTES.md``.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
if __name__ == "__main__" and not (SRC / "vrgrad" / "__init__.py").is_file():
    sys.exit(f"error: {SRC / 'vrgrad'} not found; run from the root of a vrgrad checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402  (after the thread pinning above)
import scipy  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from vrgrad import DivergenceError, LossModel, harness, optimizer  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import MAX_CAP_FACTOR, WORKLOADS  # noqa: E402

# The untraced run is split over PARTS processes, one after another.  How
# fast an O(d) loop runs depends on where the process's allocator places
# its arrays, which differs from process to process (one SVRG2 ttg run on
# sparse-highd took from 0.10 to 0.23 s); pooling the samples of several
# processes averages that out.
PARTS = 3
SETUP_MIN_REPS, SETUP_MIN_SECONDS, SETUP_MAX_REPS = 5, 0.5, 50
TTG_SAMPLE_SECONDS = 0.1   # a ttg sample repeats its run for at least this long
PROBE_WINDOW = 3           # probe runs on each side of a sample that scale it
TRACED_ROUNDS = 3
METHOD_PASS_STEPS = 1000   # inner steps timed per method in the traced run
METHOD_PASSES = 3
ALLOC_PASS_STEPS = 64      # inner steps per method under tracemalloc


def median(samples: list) -> float:
    """The median of the repetitions that completed."""
    done = [s for s in samples if s is not None]
    return float(np.median(done)) if done else float("nan")


class Bench:
    """One workload on one seed: its inputs, set-up state and failure count."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.wl = workload
        self.workdir = workdir
        self.spec = workload.spec(seed, workdir)
        self.expect = checks.load_expectation(workload.name, seed)
        self.probe = SpeedProbe(*workload.probe)
        self.probe_times: list[float] = []
        self.probe_fresh = False   # the last probe ran right before the next op
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._serial = 0
        self.cache_dir = None
        self.target = None
        self.ttg: dict = {}
        self.samples: dict = {}
        self.raw: dict = {}
        self.probe_after: dict = {}   # per sample, the index of the probe run after it

    # -- bookkeeping ------------------------------------------------------------

    def fresh_dir(self, tag: str) -> Path:
        self._serial += 1
        return self.workdir / f"{tag}-{self._serial}"

    def account(self, attempted: int, problems: dict) -> None:
        self.attempted += attempted
        self.failed += len(problems)
        for key, msgs in problems.items():
            self.messages.extend(f"{key}: {msg}" for msg in msgs)

    def fail(self, attempted: int, what: str) -> None:
        """Count ``attempted`` operations as failed by one error."""
        self.attempted += attempted
        self.failed += attempted
        self.messages.append(f"{what}: {traceback.format_exc()}")

    def measure(self, name: str, op) -> None:
        """Run ``op``, which returns its seconds or None, between two probe
        runs; the probe after one op is the probe before the next."""
        if not self.probe_fresh:
            self.probe_times.append(self.probe())
        seconds = op()
        self.probe_times.append(self.probe())
        self.probe_fresh = True
        self.raw.setdefault(name, []).append(seconds)
        self.probe_after.setdefault(name, []).append(len(self.probe_times) - 1)

    def scale(self) -> None:
        """Each sample at the probe's reference speed: its seconds times
        ``probe_ref_s`` / (median of the ``PROBE_WINDOW`` probe runs on each
        side of it).  One probe run is short enough to catch a passing
        stall; the window's median follows the machine's speed."""
        probes = self.probe_times
        for name, values in self.raw.items():
            self.samples[name] = [
                None if seconds is None else seconds * self.wl.probe_ref_s / float(
                    np.median(probes[max(0, j - PROBE_WINDOW):j + PROBE_WINDOW]))
                for seconds, j in zip(values, self.probe_after[name])]

    @staticmethod
    def timed(op):
        """Run ``op``; return its result and the seconds it took."""
        t0 = time.perf_counter()
        result = op()
        return result, time.perf_counter() - t0

    def grid_cells(self) -> int:
        s = self.spec
        return len(s.methods) * len(s.lambdas) * len(s.grid) * len(s.seeds)

    # -- operations -------------------------------------------------------------

    def set_up(self):
        """load_dataset, a LossModel and a cold cached_reference per lambda."""
        old_cache, cache = self.cache_dir, self.fresh_dir("cache")

        def op():
            dataset = harness.load_dataset(self.spec)
            models = [LossModel(dataset, lam, self.spec.model) for lam in self.spec.lambdas]
            refs = [harness.cached_reference(mod, tol=self.spec.reference_tol, cache_dir=cache)
                    for mod in models]
            return dataset, models, refs

        (dataset, self.models, self.refs), sample = self.timed(op)
        if old_cache is not None:
            shutil.rmtree(old_cache, ignore_errors=True)
        self.cache_dir = cache
        self.n, self.d = dataset.n, dataset.d
        self.m = self.spec.m if self.spec.m is not None else 2 * dataset.n
        return sample

    def run_grid(self, keep: bool = False):
        """What ``vrgrad run --plots`` does, on the warm reference cache."""
        out = self.fresh_dir("results")

        def op():
            table = harness.run_experiment(self.spec, self.cache_dir)
            harness.emit_csv(table, out)
            harness.emit_plots(table, out)
            return table

        try:
            table, sample = self.timed(op)
        except Exception:
            self.fail(self.grid_cells(), "run_experiment")
            return None
        problems = checks.check_grid(table, harness.load_table(out), self.spec,
                                     self.n, self.m, self.expect)
        self.account(self.grid_cells(), problems)
        shutil.rmtree(out, ignore_errors=True)
        if keep:
            self.last_table = table
        return sample

    def ttg_config(self, run, epochs: int):
        return self.wl.ttg_config(run, self.n, self.m, self.models[0].smoothness(), epochs)

    def optimize(self, config):
        return optimizer.optimize(self.models[0], config, np.zeros(self.d), self.refs[0].w_star)

    def calibrate(self) -> None:
        """Find k* per ttg method with untimed runs.

        The target gap is ``target_slack`` times the gap of the first run
        (SVRG) at ``target_epoch``; k* is the first epoch at or below it.
        """
        for run in self.wl.ttg:
            cap = run.cap if self.target is not None else max(run.cap, self.wl.target_epoch)
            k_star, records = None, []
            try:
                while True:
                    _, records = self.optimize(self.ttg_config(run, cap))
                    if self.target is None:
                        self.target = self.wl.target_slack * records[self.wl.target_epoch - 1].gap
                    k_star = next((r.epoch for r in records if r.gap <= self.target), None)
                    if k_star is not None or cap >= run.cap * MAX_CAP_FACTOR:
                        break
                    cap *= 2
            except DivergenceError:
                pass
            if self.target is None or self.target <= 0.0:
                raise RuntimeError(f"no positive target gap from {run.method}")
            self.ttg[run.method] = (run, k_star, records)

    def run_ttg(self, method: str):
        run, k_star, calibration = self.ttg[method]
        if k_star is None:
            self.account(1, {method: [f"target {self.target:.3e} not reached in calibration"]})
            return None
        config = self.ttg_config(run, k_star)
        try:
            (_, records), sample = self.timed(lambda: self.optimize(config))
        except Exception:
            self.fail(1, method)
            return None
        problems = checks.check_ttg(method, records, k_star, self.target, calibration,
                                    self.refs[0].f_star, self.expect)
        self.account(1, {method: problems} if problems else {})
        return sample

    def ttg_sample(self, method: str, min_seconds: float):
        """Mean seconds of ``method``'s ttg run, repeated until the repetitions
        took ``min_seconds`` (at least once); None if one failed."""
        spent, reps = 0.0, 0
        while reps == 0 or spent < min_seconds:
            seconds = self.run_ttg(method)
            if seconds is None:
                return None
            spent, reps = spent + seconds, reps + 1
        return spent / reps

    def round(self, record, keep: bool = False,
              ttg_seconds: float = TTG_SAMPLE_SECONDS) -> None:
        """One grid run, then one sample of each ttg run, each passed to
        ``record(name, op)``."""
        record("run_s", lambda: self.run_grid(keep))
        for run in self.wl.ttg:
            record(f"ttg_s.{run.method}", lambda: self.ttg_sample(run.method, ttg_seconds))

    # -- the two kinds of run ---------------------------------------------------

    def untraced(self, seconds: float, record: bool) -> dict:
        """Set-ups, calibration, then rounds for ``seconds``; returns this
        process's part of an untraced run (see :func:`merge`)."""
        t0 = time.perf_counter()
        setups = self.raw.setdefault("setup_s", [])
        while len(setups) < SETUP_MAX_REPS and (
                len(setups) < SETUP_MIN_REPS or time.perf_counter() - t0 < SETUP_MIN_SECONDS):
            self.measure("setup_s", self.set_up)
        self.calibrate()
        self.probe_fresh = False
        t0 = time.perf_counter()
        while True:
            r0 = time.perf_counter()
            self.round(self.measure, keep=record)
            now = time.perf_counter()
            # start another round only if it is expected to end by
            # ``seconds`` plus half a round
            if now - t0 + (now - r0) / 2 > seconds:
                break
        self.scale()
        return {
            "attempted": self.attempted, "failed": self.failed,
            "problems": self.messages[:50], "target_gap": self.target,
            "k_star": {m: k for m, (_, k, _) in self.ttg.items()},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "samples": self.samples, "raw_s": self.raw, "probe_s": self.probe_times,
        }

    def traced(self, seconds: float) -> dict:
        """One traced set-up, then ``TRACED_ROUNDS`` traced rounds (one run of
        each operation) alternating with untraced grid runs."""
        tracer = spans.Tracer()
        saved = spans.install(tracer)
        try:
            self.set_up()
        finally:
            spans.uninstall(saved)
        round_start = len(tracer.start)
        self.calibrate()
        t0 = time.perf_counter()
        untraced, traced = [], {}

        def record(name, op):
            traced.setdefault(name, []).append(op())

        for _ in range(TRACED_ROUNDS):
            untraced.append(self.run_grid())
            saved = spans.install(tracer)
            try:
                self.round(record, ttg_seconds=0.0)
            finally:
                spans.uninstall(saved)
        while time.perf_counter() - t0 < seconds:
            untraced.append(self.run_grid())

        us_per_step, alloc = self.method_passes()
        tracer.save(OUT / f"spans-{self.wl.name}.npz")
        self.samples = {"untraced_run_s": untraced, **{f"traced_{k}": v for k, v in traced.items()}}
        if None in untraced or None in traced["run_s"]:
            return {}
        return spans.layer_metrics(tracer, round_start, TRACED_ROUNDS,
                                   median(untraced), median(traced["run_s"]),
                                   us_per_step, alloc)

    def method_passes(self) -> tuple[dict, dict]:
        """us/step of each method's first corrected epoch (only run_epoch
        wrapped; the fastest of ``METHOD_PASSES``), then its allocation per
        step under tracemalloc."""
        model, lam = self.models[0], self.spec.lambdas[0]
        step = self.wl.pass_step

        def config(method, m):
            schedule = harness.schedule_for(method, step, self.n, lam, model.smoothness())
            return optimizer.RunConfig(method=method, schedule=schedule, epochs=2, m=m,
                                       anchor_option=self.wl.anchor_option,
                                       variance_mode="none")

        steps = min(self.m, METHOD_PASS_STEPS)
        tracer = spans.Tracer()
        saved = spans.install(tracer, only=("vrgrad.optimizer.run_epoch",))
        try:
            for _ in range(METHOD_PASSES):
                for method in optimizer.METHODS:
                    self.optimize(config(method, steps))
        finally:
            spans.uninstall(saved)
        arrays = tracer.arrays()
        # two run_epoch spans per optimize call, in METHODS order; keep the second
        second = (arrays["end"] - arrays["start"])[1::2].reshape(METHOD_PASSES, -1)
        us_per_step = {method: second[:, i].min() * 1e6 / steps
                       for i, method in enumerate(optimizer.METHODS)}
        alloc = {method: spans.alloc_bytes_per_step(
                     lambda: self.optimize(config(method, ALLOC_PASS_STEPS)))
                 for method in optimizer.METHODS}
        return us_per_step, alloc

    def expectation(self) -> dict:
        table = self.last_table
        return {
            "winners": {f"{m}|{lam!r}": step for (m, lam), step in sorted(table.winners.items())},
            "diverged": sorted(checks.cell_key(r.method, r.lam, r.step_param, r.seed)
                               for r in table.rows if r.diverged),
            "final_fval": {checks.cell_key(r.method, r.lam, r.step_param, r.seed): r.records[-1].fval
                           for r in table.rows if r.records},
            "k_star": {m: k for m, (_, k, _) in self.ttg.items()},
            "ttg_fval": {m: recs[k - 1].fval for m, (_, k, recs) in self.ttg.items()},
        }


def environment() -> dict:
    src_files = sorted(SRC.rglob("*.py"))
    bench_files = sorted([*BENCH.glob("*.py"), *BENCH.glob("*.json")])
    return {
        "git_sha": _git_sha(),
        "src_sha256": _sha256(src_files, SRC),
        "bench_sha256": _sha256(bench_files, BENCH),
        "src_lines": sum(len(p.read_text().splitlines()) for p in src_files),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": np.__config__.CONFIG["Build Dependencies"]["blas"].get("name"),
        "blas_threads": _blas_threads(),
    }


def _sha256(paths: list, base: Path) -> str:
    """One digest over the relative names and contents of ``paths``."""
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.relative_to(base).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, if it can be found."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            try:
                getter = getattr(ctypes.CDLL(str(lib)), fn)
            except (OSError, AttributeError):
                continue
            getter.restype = ctypes.c_int
            return getter()
    return None


def record_expectation(name: str, seed: int, entry: dict) -> None:
    data = json.loads(checks.EXPECT_PATH.read_text()) if checks.EXPECT_PATH.exists() else {}
    data.setdefault(name, {})[str(seed)] = entry
    checks.EXPECT_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def run_parts(args) -> list:
    """The untraced run: ``PARTS`` fresh processes, one after another, each
    measuring for an equal share of ``--seconds``.  A part that crashed or
    timed out is None."""
    parts = []
    for i in range(PARTS):
        path = OUT / f"part-{os.getpid()}-{i}.json"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds / PARTS),
               "--part", str(path)]
        if args.record_expect and i == 0:
            cmd.append("--record-expect")
        try:
            subprocess.run(cmd, timeout=20 + 2 * args.seconds / PARTS)
            parts.append(json.loads(path.read_text()))
        except (subprocess.TimeoutExpired, OSError, ValueError):
            parts.append(None)
        path.unlink(missing_ok=True)
    return parts


def merge(parts: list) -> tuple[dict, int, int, list]:
    """Metrics, attempted, failed and problems of the parts of an untraced
    run.  Each time is the median of the samples of every part."""
    done = [p for p in parts if p is not None]
    attempted = sum(p["attempted"] for p in done) or 1
    failed = sum(p["failed"] for p in done) + len(parts) - len(done)
    problems = [msg for p in done for msg in p["problems"]]
    problems += ["a part of the run crashed or timed out"] * (len(parts) - len(done))
    if len(done) < len(parts):
        return {}, attempted, failed, problems
    pooled: dict = {}
    for part in done:
        for name, values in part["samples"].items():
            pooled.setdefault(name, []).extend(values)
    metrics = {name: (median(values), "s") for name, values in pooled.items()}
    metrics["peak_rss_mb"] = (max(p["peak_rss_mb"] for p in done), "MB")
    return metrics, attempted, failed, problems


def run_here(args) -> tuple[dict, dict, int, int, list]:
    """One traced run or one part of an untraced run, in this process:
    its metrics (none for a part), report fields, attempted, failed and
    problems."""
    workdir = OUT / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, workdir)
        if args.record_expect:
            bench.expect = None
        if args.trace:
            metrics = bench.traced(args.seconds)
            fields = {"target_gap": bench.target,
                      "k_star": {m: k for m, (_, k, _) in bench.ttg.items()},
                      "samples": bench.samples, "problems": bench.messages[:50]}
        else:
            metrics, fields = {}, bench.untraced(args.seconds, args.record_expect)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.record_expect and bench.failed == 0 and not args.trace:
        record_expectation(args.workload, args.seed, bench.expectation())
    return metrics, fields, bench.attempted, bench.failed, bench.messages


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expect", action="store_true",
                        help="store this seed's winners, diverged set, k* and final "
                             "values in bench/expect.json (untraced runs only)")
    parser.add_argument("--part", type=Path,
                        help="measure one part of an untraced run and write it, as "
                             "JSON, to this file")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.part:
        _, fields, _, _, _ = run_here(args)
        args.part.write_text(json.dumps(fields) + "\n")
        return 0
    if args.trace:
        metrics, fields, attempted, failed, problems = run_here(args)
    else:
        parts = run_parts(args)
        metrics, attempted, failed, problems = merge(parts)
        fields = {"parts": parts}

    correct = failed == 0 and bool(metrics)
    metrics = {k: v for k, v in metrics.items() if math.isfinite(v[0])}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), **fields,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    for msg in problems[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    print("environment: " + json.dumps(report["environment"], sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
