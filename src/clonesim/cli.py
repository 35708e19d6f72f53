"""Command-line experiment runner.

One subcommand per experiment kind, taking an option per parameter of its
runner (``experiments.EXPERIMENT_INPUTS``), read as its annotation's type;
reports go to stdout or ``--out``.  The parser is built once per process and
reused by every :func:`main` call; parsing reads only its ``argv``, so no
call carries options into the next.  An argv that starts with a kind is read
directly from the options ``build_parser`` recorded for that kind when every
token is an exact ``--flag value`` or ``--flag=value`` of them and every
value passes the option's converter and choices (:func:`_read_options`);
otherwise (help, an abbreviation, an unknown option, a bad value, a missing
required option) it is parsed by that kind's own parser alone, in one
argparse pass, so an option it does not read, or ``--flag=--`` (read as a list
or as ``--``), is reported with the subcommand's usage.  Both paths
give the same fields.  The top-level parser only routes, and parses every
other argv (none, ``-h``, an unknown kind, an option before the kind).  Exit
codes: 0 success, 1 report written but a check failed, 2 unparseable command
line (returned, not raised) or config, 3 domain violation, 4 dimension or
validation failure, an ``--out`` path that cannot be written, or a report
whose text stdout cannot encode (JSON writes non-ASCII text unescaped).
``--out`` files are UTF-8, as configs are.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import ConfigError, DimensionMismatchError, DomainViolationError
from .experiments import (
    EXPERIMENT_INPUTS,
    EXPERIMENT_KINDS,
    OUTPUT_FORMATS,
    _input_type,
    render_report,
    run,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_DOMAIN_VIOLATION = 3
EXIT_VALIDATION_ERROR = 4

#: The option of each runner parameter.  A subcommand takes its runner's, any
#: other is an argparse error (exit 2); one not given is left out, so the
#: runner's default applies, and one without a default is required.
_OPTIONS = {
    "config_path": ("--config", {"metavar": "PATH", "help": "atomic-system config file (JSON)"}),
    "state": ("--state", {"help": "input state: comma amplitudes like '0.7+0.7i,0', or a preset (plus, basisK); "
                                  "write a leading minus sign as --state=-1,0"}),
    "seed": ("--seed", {"help": "seed for random-state generation"}),
    "dim": ("--dim", {"help": "dimension for random input states"}),
    "ancilla_index": ("--ancilla-index", {"help": "which basis ancilla to hold fixed"}),
    "overlap": ("--overlap", {"help": "single overlap to test; default sweeps 0.00..1.00; "
                                      "write a leading minus sign as --overlap=-1e-12"}),
    "excited_state": ("--excited-state", {"help": "amplitudes over the excited manifold; default isotropic ensemble; "
                                                  "write a leading minus sign as --excited-state=-0.6,0.8,0"}),
    "modes": ("--modes", {"help": "comma-separated polarization labels restricting the output space"}),
}


#: Each subcommand parser's options by flag, as ``build_parser`` adds them: (dest, converter, choices, required).
_FLAGS: dict[argparse.ArgumentParser, dict[str, tuple]] = {}


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each kind's own parser by kind, built once per process."""
    parser = argparse.ArgumentParser(
        prog="clonesim",
        description="State-dependent quantum copying experiments",
    )
    subparsers = parser.add_subparsers(dest="kind", required=True)
    for kind in EXPERIMENT_KINDS:
        sub = subparsers.add_parser(kind, help=f"run the {kind} experiment", argument_default=argparse.SUPPRESS)
        flags = _FLAGS[sub] = {}
        for name, parameter in EXPERIMENT_INPUTS[kind].parameters.items():
            flag, arguments = _OPTIONS[name]
            required = parameter.default is parameter.empty
            if not required and parameter.default is not None:
                arguments = {**arguments, "help": f"{arguments['help']} (default {parameter.default})"}
            _, _, convert, _ = _input_type(parameter.annotation)
            flags[flag] = (name, convert, None, required)
            sub.add_argument(flag, dest=name, required=required, type=convert, **arguments)
        flags |= {"--format": ("format", str, OUTPUT_FORMATS, False), "--out": ("out", str, None, False)}
        sub.add_argument("--format", type=str, choices=OUTPUT_FORMATS, help="report format (default json)")
        sub.add_argument("--out", type=str, metavar="PATH", help="write the report here instead of stdout")
    return parser, subparsers.choices


def _read_options(sub: argparse.ArgumentParser, args: list[str]) -> dict | None:
    """``vars(sub.parse_args(args))`` read straight from ``_FLAGS[sub]``, or
    None where argparse must run: any token but an exact ``--flag value`` or
    ``--flag=value`` of an option of ``sub`` (an abbreviation, ``-h``,
    ``--``, a positional, a non-``str``), a space-separated value that is
    missing or starts with ``-`` (argparse may read it as an option), a value
    its converter refuses or outside its choices, or a missing required
    option.  A later repeat wins, as in argparse."""
    flags = _FLAGS[sub]
    fields = {}
    tokens = iter(args)
    for token in tokens:
        if not isinstance(token, str) or not token.startswith("--"):
            return None
        flag, equals, value = token.partition("=")
        option = flags.get(flag)
        if option is None:  # unknown, abbreviated, or help
            return None
        if not equals:
            value = next(tokens, None)
            if not isinstance(value, str) or value.startswith("-"):
                return None
        elif value == "--":  # some argparse versions drop it from an option's values
            return None
        dest, convert, choices, _ = option
        try:
            value = convert(value)
        except (TypeError, ValueError):
            return None
        if choices is not None and value not in choices:
            return None
        fields[dest] = value
    if any(required and dest not in fields for dest, _, _, required in flags.values()):
        return None
    return fields


def _emit_error(kind: str, exc: Exception) -> None:
    print(f"clonesim: {kind}: {exc}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser, kinds = build_parser()
    try:
        if argv and argv[0] in kinds:
            sub = kinds[argv[0]]
            options = _read_options(sub, argv[1:])
            if options is None:
                options = vars(sub.parse_args(argv[1:]))
                dashed = [flag for flag, (dest, *_) in _FLAGS[sub].items() if options.get(dest) in ([], "--", ("--",))]
                if dashed:  # argparse reads --flag=-- as [] (Python 3.10 to 3.12), "--" or ("--",) (3.13)
                    sub.error(f"argument {dashed[0]}: expected one argument")
            fields = {"kind": argv[0], **options}
        else:
            fields = vars(parser.parse_args(argv))
    except SystemExit as exc:  # argparse has printed its usage error or help
        return exc.code
    output_format, out = fields.pop("format", "json"), fields.pop("out", None)
    try:
        report, rows = run(**fields)
        rendered = render_report(report, rows, output_format)
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

    if out is None:
        try:
            sys.stdout.write(rendered)
        except UnicodeEncodeError as exc:
            _emit_error("cannot write report", f"stdout cannot encode it ({exc.reason}); pass --out to write UTF-8")
            return EXIT_VALIDATION_ERROR
    else:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        except OSError as exc:
            _emit_error("cannot write report", exc)
            return EXIT_VALIDATION_ERROR
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
