"""Command-line front end: ``run``, ``plot`` and ``reference`` subcommands.

Exit codes: 0 success, 2 usage error (a bad flag or spec-file value), 3 data
error (a missing, undecodable or malformed file, a results directory missing
a file or a winner, a label outside {-1, +1}, or an output path that cannot
be written), 4 reference-solver failure, 1 anything else.  A run whose
iterates diverge is not an error: ``run`` records it as diverged and exits
0, and says so for a (method, lambda) cell in which every step diverged.
``run``'s cache directory, from --cache-dir or the VRGRAD_CACHE_DIR env
var, holds reference solutions and parsed LIBSVM files, both keyed by
content: a run on the same data solves and parses nothing again, and its
results are the same.  An empty value counts as not given, and with
neither value nothing is cached (``VRGRAD_CACHE_DIR=`` and ``--cache-dir
""`` do not cache in the working directory).

Config files for ``run --spec`` are flat ``key = value`` text; list values
are comma-separated, and a key that is not a ``run`` flag is a usage error.
``_RUN_FIELDS`` declares each ``run`` flag once, and the flag and its spec
key share its converter (``--scale`` is a switch; the key takes 1/true/yes
or 0/false/no).  Converters only parse text: the value checks, and the
mapping of a loss alias to its kind, are
:class:`~vrgrad.harness.ExperimentSpec`'s.  Precedence: CLI flag > spec
file > ExperimentSpec's defaults; ``data`` and ``synth`` are two sources of
one input, so giving both, by any route, is a usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .data import LabelError, LibsvmParseError
from .harness import (DataSourceError, ExperimentSpec, ReferenceError,
                      emit_csv, emit_plots, load_dataset, load_table,
                      run_experiment)
from .losses import LossModel
from .optimizer import METHODS
from .reference import DEFAULT_TOL, save_reference, solve_reference

EXIT_DATA = 3
EXIT_REFERENCE = 4


def _parse_list(convert):
    """A converter of comma-separated items, each by ``convert``; blanks
    around an item and empty items are dropped."""
    def parse(text: str) -> tuple:
        return tuple(convert(tok.strip()) for tok in text.split(",") if tok.strip())
    parse.__name__ = f"{convert.__name__} list"     # argparse's "invalid ... value"
    return parse


def _parse_synth(text: str) -> tuple:
    parts = [tok.strip() for tok in text.split(",")]
    if len(parts) not in (3, 4):
        raise argparse.ArgumentTypeError("--synth expects n,d,seed[,separability]")
    return (int(parts[0]), int(parts[1]), int(parts[2]), *map(float, parts[3:]))


_parse_synth.__name__ = "n,d,seed[,separability]"     # argparse's "invalid ... value"


def _parse_switch(text: str) -> bool:
    word = text.strip().lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise argparse.ArgumentTypeError(f"expected 1/true/yes or 0/false/no, got {text!r}")
    return word in ("1", "true", "yes")


def _parse_m(text: str) -> int | None:
    """Inner length: '2n' (or empty) is None, else an integer."""
    return None if text.strip() in ("2n", "") else int(text)


_parse_m.__name__ = "integer or '2n'"     # argparse's "invalid ... value"


def read_spec_file(path) -> dict:
    """Flat key = value config; '#' starts a comment line.  Keys are
    case-insensitive, and each may appear once."""
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise argparse.ArgumentTypeError(f"spec file line without '=': {line!r}")
        key, _, val = line.partition("=")
        key = key.strip().lower()
        if key in values:
            raise argparse.ArgumentTypeError(f"spec file repeats key {key!r}")
        values[key] = val.strip()
    return values


# ExperimentSpec field -> (spec-file key and ``run`` flag, converter of the
# key's text, flag help); the flag parses with the same converter, except
# that --scale is a switch
_RUN_FIELDS = {
    "data_path": ("data", str, "LIBSVM text file"),
    "synth": ("synth", _parse_synth, "n,d,seed[,separability]"),
    "model": ("model", str.strip, "loss kind or alias"),
    "lambdas": ("lambda", _parse_list(float), "comma-separated regularization weights"),
    "methods": ("methods", _parse_list(str), f"comma-separated from {', '.join(METHODS)}"),
    "grid": ("grid", _parse_list(float), "step-parameter grid"),
    "epochs": ("epochs", int, "number of epochs"),
    "m": ("m", _parse_m, "inner length (integer or '2n')"),
    "seeds": ("seeds", _parse_list(int), "comma-separated seeds"),
    "out_dir": ("out", str, "output directory"),
    "scale_features": ("scale", _parse_switch, "per-feature max-abs scaling"),
    "subsample": ("subsample", int, "random subsample size"),
}


def _spec_from_args(args) -> ExperimentSpec:
    """The flags and spec-file keys given; ExperimentSpec has the defaults
    and the range checks."""
    file_vals = read_spec_file(args.spec) if args.spec else {}
    keys = [key for key, _, _ in _RUN_FIELDS.values()]
    unknown = [key for key in file_vals if key not in keys]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown spec file key {unknown[0]!r}; expected one of {', '.join(keys)}")
    given = {}
    for field, (key, convert, _) in _RUN_FIELDS.items():
        if hasattr(args, key):
            given[field] = getattr(args, key)
        elif key in file_vals:
            try:
                given[field] = convert(file_vals[key])
            except (ValueError, argparse.ArgumentTypeError) as err:
                raise argparse.ArgumentTypeError(f"spec file {key}: {err}") from None
    return _checked_spec(**given)


def _checked_spec(**given) -> ExperimentSpec:
    """ExperimentSpec(**given); a value it rejects is a usage error."""
    try:
        return ExperimentSpec(**given)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def cmd_run(args) -> int:
    spec = _spec_from_args(args)
    table = run_experiment(spec, cache_dir=args.cache_dir)
    paths = emit_csv(table, spec.out_dir)
    if args.plots:
        paths += emit_plots(table, spec.out_dir)
    print(f"wrote {len(paths)} files to {spec.out_dir}")
    for (method, lam), step in sorted(table.winners.items()):
        gap = table.mean_gap(method, lam)
        # the winner's mean gap is the cell's least: inf only when every
        # step diverged on some seed
        outcome = ("every step diverged on some seed" if gap == math.inf
                   else f"best step {step:g}, final gap {gap:.3e}")
        print(f"  {method:>12s} lambda={lam:g}: {outcome}")
    return 0


def cmd_plot(args) -> int:
    table = load_table(args.from_dir)
    out = args.out or args.from_dir
    paths = emit_plots(table, out)
    print(f"wrote {len(paths)} figures to {out}")
    return 0


def cmd_reference(args) -> int:
    spec = _checked_spec(data_path=args.data, synth=args.synth, model=args.model,
                         lambdas=(args.lam,), reference_tol=args.tol)
    model = LossModel(load_dataset(spec), args.lam, spec.model)
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
    for key, convert, help_text in _RUN_FIELDS.values():
        if convert is _parse_switch:
            run_p.add_argument(f"--{key}", action="store_true", help=help_text)
        else:
            run_p.add_argument(f"--{key}", type=convert, help=help_text)
    run_p.add_argument("--plots", action="store_true", default=False,
                       help="also write SVG figures")
    run_p.add_argument("--cache-dir", default=None,
                       help="cache of reference solutions and parsed LIBSVM files, "
                            "both keyed by content (default: $VRGRAD_CACHE_DIR)")
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
    ref_p.add_argument("--model", type=str.strip, default="logistic")
    ref_p.add_argument("--lambda", dest="lam", type=float, required=True)
    ref_p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    ref_p.add_argument("--out", help="write the solution cache file here")
    ref_p.set_defaults(func=cmd_reference)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except argparse.ArgumentTypeError as err:   # a bad flag or spec-file value
        parser.error(str(err))
    # OSError: a missing spec file or an output path that cannot be written;
    # UnicodeDecodeError: an undecodable spec file
    except (LibsvmParseError, LabelError, DataSourceError, OSError,
            UnicodeDecodeError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except ReferenceError as err:
        print(f"reference error: {err}", file=sys.stderr)
        return EXIT_REFERENCE
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
