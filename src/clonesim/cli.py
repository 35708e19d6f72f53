"""Command-line experiment runner.

One subcommand per experiment kind; reports go to stdout or ``--out``.
The parser is built once per process and reused by every :func:`main`
call; parsing reads only its ``argv``, so no call carries options into the
next.  Exit codes: 0 success, 1 report written but a check failed, 2 unparseable
config, 3 domain violation, 4 dimension or validation failure, or an
``--out`` path that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .errors import ConfigError, DimensionMismatchError, DomainViolationError
from .experiments import (
    EXPERIMENT_KINDS,
    OUTPUT_FORMATS,
    ExperimentSpec,
    render_report,
    run,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_DOMAIN_VIOLATION = 3
EXIT_VALIDATION_ERROR = 4


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clonesim",
        description="State-dependent quantum copying experiments",
    )
    subparsers = parser.add_subparsers(dest="kind", required=True)
    for kind in EXPERIMENT_KINDS:
        sub = subparsers.add_parser(kind, help=f"run the {kind} experiment")
        sub.add_argument("--config", type=str, default=None, metavar="PATH",
                         help="atomic-system config file (JSON)")
        sub.add_argument("--state", type=str, default=None,
                         help="input state: comma amplitudes like '0.7+0.7i,0', or a preset (plus, basisK)")
        sub.add_argument("--seed", type=int, default=0,
                         help="seed for random-state generation (default 0)")
        sub.add_argument("--format", type=str, default="json", choices=OUTPUT_FORMATS,
                         help="report format (default json)")
        sub.add_argument("--out", type=str, default=None, metavar="PATH",
                         help="write the report here instead of stdout")
        if kind in ("clone-demo", "fixed-ancilla"):
            sub.add_argument("--dim", type=int, default=2,
                             help="dimension for random input states (default 2)")
        if kind == "fixed-ancilla":
            sub.add_argument("--ancilla-index", type=int, default=0,
                             help="which basis ancilla to hold fixed (default 0)")
        if kind == "no-cloning-witness":
            sub.add_argument("--overlap", type=float, default=None,
                             help="single overlap to test; default sweeps 0.00..1.00")
        if kind == "spontaneous":
            sub.add_argument("--excited-state", type=str, default=None,
                             help="amplitudes over the excited manifold; default isotropic ensemble")
            sub.add_argument("--modes", type=str, default=None,
                             help="comma-separated polarization labels restricting the output space")
    return parser


def spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    modes = None
    if getattr(args, "modes", None) is not None:
        modes = tuple(label.strip() for label in args.modes.split(","))
    return ExperimentSpec(
        kind=args.kind,
        config_path=args.config,
        state=args.state,
        seed=args.seed,
        output_format=args.format,
        dim=getattr(args, "dim", 2),
        ancilla_index=getattr(args, "ancilla_index", 0),
        overlap=getattr(args, "overlap", None),
        excited_state=getattr(args, "excited_state", None),
        modes=modes,
    )


def _emit_error(kind: str, exc: Exception) -> None:
    print(f"clonesim: {kind}: {exc}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = spec_from_args(args)
        report, rows = run(spec)
        rendered = render_report(report, rows, spec.output_format)
    except ConfigError as exc:
        _emit_error("config error", exc)
        return EXIT_CONFIG_ERROR
    except DomainViolationError as exc:
        _emit_error("domain violation", exc)
        return EXIT_DOMAIN_VIOLATION
    except DimensionMismatchError as exc:
        _emit_error("dimension mismatch", exc)
        return EXIT_VALIDATION_ERROR
    except (ValueError, KeyError, IndexError) as exc:
        _emit_error("invalid input", exc)
        return EXIT_VALIDATION_ERROR

    if args.out is None:
        sys.stdout.write(rendered)
    else:
        try:
            Path(args.out).write_text(rendered)
        except OSError as exc:
            _emit_error("cannot write report", exc)
            return EXIT_VALIDATION_ERROR
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
