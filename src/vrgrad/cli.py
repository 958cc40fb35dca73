"""Command-line front end: ``run``, ``plot`` and ``reference`` subcommands.

Exit codes: 0 success, 2 usage error (a bad flag or spec-file value), 3 data error,
4 reference-solver failure, 5 divergence, 1 anything else.  The reference
cache directory comes from --cache-dir or the VRGRAD_CACHE_DIR env var.

Config files for ``run --spec`` are flat ``key = value`` text; list values
are comma-separated.  A flag and its spec key share one converter.
Precedence: CLI flag > spec file > :class:`~vrgrad.harness.ExperimentSpec`'s
defaults.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .data import LabelError, LibsvmParseError, parse_libsvm, synth_binary
from .harness import (DataSourceError, ExperimentSpec, ReferenceError,
                      emit_csv, emit_plots, load_table, run_experiment)
from .losses import LossModel
from .optimizer import METHODS, DivergenceError
from .reference import save_reference, solve_reference

EXIT_DATA = 3
EXIT_REFERENCE = 4
EXIT_DIVERGENCE = 5


def _parse_floats(text: str) -> tuple:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _parse_ints(text: str) -> tuple:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _parse_methods(text: str) -> tuple:
    """Comma-separated names; blanks around a name and empty items are dropped."""
    methods = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    for name in methods or ("",):
        if name not in METHODS:
            raise argparse.ArgumentTypeError(
                f"unknown method {name!r}; choose from {', '.join(METHODS)}")
    return methods


def _parse_synth(text: str) -> tuple:
    parts = [tok.strip() for tok in text.split(",")]
    if len(parts) not in (3, 4):
        raise argparse.ArgumentTypeError("--synth expects n,d,seed[,separability]")
    n, d, seed = int(parts[0]), int(parts[1]), int(parts[2])
    if len(parts) == 4:
        return (n, d, seed, float(parts[3]))
    return (n, d, seed)


def _parse_m(text: str) -> int | None:
    """Inner length: '2n' (or empty) is None, else an integer >= 1."""
    if text.strip() in ("2n", ""):
        return None
    m = int(text)
    if m < 1:
        raise argparse.ArgumentTypeError(f"inner length m must be >= 1 or '2n', got {m}")
    return m


class _RemovedStepFlag(argparse.Action):
    """``run --step`` was removed: it applied every value to every method,
    whatever family it named."""

    def __call__(self, parser, namespace, values, option_string=None):
        parser.error("--step was removed; pin step parameters with --grid "
                     "(e.g. --grid 0.1); they apply to every method")


def read_spec_file(path) -> dict:
    """Flat key = value config; '#' starts a comment line."""
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"spec file line without '=': {line!r}")
        key, _, val = line.partition("=")
        values[key.strip().lower()] = val.strip()
    return values


# ExperimentSpec field -> (spec-file key and ``run`` flag dest, converter of
# the key's text); the flag parses with the same converter (--scale is a switch)
_RUN_FIELDS = {
    "data_path": ("data", str),
    "synth": ("synth", _parse_synth),
    "model": ("model", str),
    "lambdas": ("lambda", _parse_floats),
    "methods": ("methods", _parse_methods),
    "grid": ("grid", _parse_floats),
    "epochs": ("epochs", int),
    "m": ("m", _parse_m),
    "seeds": ("seeds", _parse_ints),
    "out_dir": ("out", str),
    "scale_features": ("scale", lambda s: s.lower() in ("1", "true", "yes")),
    "subsample": ("subsample", int),
}


def _spec_from_args(args) -> ExperimentSpec:
    """The flags and spec-file keys given; ExperimentSpec has the defaults."""
    file_vals = read_spec_file(args.spec) if args.spec else {}
    given = {}
    for field, (key, convert) in _RUN_FIELDS.items():
        if hasattr(args, key):
            given[field] = getattr(args, key)
        elif key in file_vals:
            try:
                given[field] = convert(file_vals[key])
            except ValueError as err:
                raise argparse.ArgumentTypeError(f"spec file {key}: {err}") from None
    return ExperimentSpec(**given)


def cmd_run(args) -> int:
    spec = _spec_from_args(args)
    table = run_experiment(spec, cache_dir=args.cache_dir)
    paths = emit_csv(table, spec.out_dir)
    if args.plots:
        paths += emit_plots(table, spec.out_dir)
    print(f"wrote {len(paths)} files to {spec.out_dir}")
    for (method, lam), step in sorted(table.winners.items()):
        rows = table.winner_rows(method, lam)
        gap = min(r.final_gap() for r in rows)
        print(f"  {method:>12s} lambda={lam:g}: best step {step:g}, final gap {gap:.3e}")
    return 0


def cmd_plot(args) -> int:
    table = load_table(args.from_dir)
    out = args.out or args.from_dir
    paths = emit_plots(table, out)
    print(f"wrote {len(paths)} figures to {out}")
    return 0


def cmd_reference(args) -> int:
    if args.data:
        with open(args.data) as fh:
            dataset = parse_libsvm(fh)
    else:
        dataset = synth_binary(*args.synth)
    model = LossModel(dataset, args.lam, args.model)
    sol = solve_reference(model, tol=args.tol)
    if not sol.converged:
        print(f"reference did not converge: ||grad||={sol.grad_norm:.3e} "
              f"after {sol.iterations} iterations", file=sys.stderr)
        return EXIT_REFERENCE
    print(f"f_star={sol.f_star!r} ||grad||={sol.grad_norm:.3e} "
          f"iterations={sol.iterations}")
    if args.out:
        save_reference(args.out, sol)
        print(f"saved to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vrgrad",
        description="Variance-reduced stochastic gradient experiment driver")
    sub = parser.add_subparsers(dest="command", required=True)

    # a flag of _RUN_FIELDS is in the namespace only when given
    run_p = sub.add_parser("run", help="run a grid-search experiment",
                           argument_default=argparse.SUPPRESS)
    run_p.add_argument("--spec", default=None, help="flat key=value spec file")
    run_p.add_argument("--data", help="LIBSVM text file")
    run_p.add_argument("--synth", type=_parse_synth, help="n,d,seed[,separability]")
    run_p.add_argument("--model", choices=("logistic", "svm"))
    run_p.add_argument("--lambda", type=_parse_floats,
                       help="comma-separated regularization weights")
    run_p.add_argument("--methods", type=_parse_methods,
                       help=f"comma-separated from {', '.join(METHODS)}")
    run_p.add_argument("--epochs", type=int)
    run_p.add_argument("--m", type=_parse_m, help="inner length (integer or '2n')")
    run_p.add_argument("--seeds", type=_parse_ints)
    run_p.add_argument("--grid", type=_parse_floats, help="step-parameter grid")
    run_p.add_argument("--step", nargs="?", action=_RemovedStepFlag,
                       help=argparse.SUPPRESS)
    run_p.add_argument("--out", help="output directory")
    run_p.add_argument("--scale", action="store_true",
                       help="per-feature max-abs scaling")
    run_p.add_argument("--subsample", type=int, help="random subsample size")
    run_p.add_argument("--plots", action="store_true", default=False,
                       help="also write SVG figures")
    run_p.add_argument("--cache-dir", default=None, help="reference cache directory")
    run_p.set_defaults(func=cmd_run)

    plot_p = sub.add_parser("plot", help="regenerate figures from emitted CSVs")
    plot_p.add_argument("--from", dest="from_dir", required=True,
                        help="directory with run CSVs + metadata.json")
    plot_p.add_argument("--out", help="figure directory (default: same)")
    plot_p.set_defaults(func=cmd_plot)

    ref_p = sub.add_parser("reference", help="solve one reference minimizer")
    source = ref_p.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", help="LIBSVM text file")
    source.add_argument("--synth", type=_parse_synth, help="n,d,seed[,separability]")
    ref_p.add_argument("--model", choices=("logistic", "svm"), default="logistic")
    ref_p.add_argument("--lambda", dest="lam", type=float, required=True)
    ref_p.add_argument("--tol", type=float, default=1e-10)
    ref_p.add_argument("--out", help="write the solution cache file here")
    ref_p.set_defaults(func=cmd_reference)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except argparse.ArgumentTypeError as err:   # a bad value in a --spec file
        parser.error(str(err))
    except (LibsvmParseError, LabelError, DataSourceError, FileNotFoundError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except ReferenceError as err:
        print(f"reference error: {err}", file=sys.stderr)
        return EXIT_REFERENCE
    except DivergenceError as err:
        print(f"divergence: {err}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
