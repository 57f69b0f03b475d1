"""Command-line front end.

Subcommands: classify, spectrum, immerse, verify, rank, area.  All
floating-point output is rendered with 17 significant digits so files
round-trip double precision exactly; identical invocations produce
byte-identical files on one platform.  No environment variable is read.

Exit codes: 0 success, 1 invalid parameters, a usage error or an
unwritable --out, 2 a verification check failed, 3 numerical failure.

The command line is read from the _SUBCOMMANDS and _FLAGS tables with
argparse's grammar and messages, without building a parser: each flag
takes its value as --flag value or --flag=value, any unique prefix of a
flag stands for it, the last of a repeated flag wins, and -h or --help
prints help on stdout.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from typing import Callable, NamedTuple

from . import hill_spectrum as hs
from . import surface_model as sm
from . import verification as vf
from .special_functions import DomainError, PoleProximityError
from .surface_model import InvalidParametersError, Topology

__all__ = ["main"]

_TOPOLOGY_WORDS = {Topology.TORUS: "torus", Topology.KLEIN_BOTTLE: "klein bottle"}


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def _csv_line(row) -> str:
    return ",".join(_fmt17(x) if isinstance(x, float) else str(x) for x in row) + "\n"


def _json17(obj, indent: int = 0) -> str:
    """JSON with unquoted 17-significant-digit floats, stable ordering."""
    pad = " " * indent
    if isinstance(obj, dict):
        inner = ",\n".join(f'{pad} {json.dumps(k)}: {_json17(v, indent + 1)}'
                           for k, v in obj.items())
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        inner = ",\n".join(f"{pad} {_json17(v, indent + 1)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float) and math.isfinite(obj):
        return _fmt17(obj)
    return json.dumps(obj)


def _emit(args: _Args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_classify(args: _Args) -> int:
    params = sm.derive_params(args.r, args.k)
    if args.out:
        doc = {"r": params.r, "k": params.k, "n": params.n, "m": params.m,
               "topology": params.topology.value,
               "parity_class": params.parity_class.value}
        _emit(args, _json17(doc) + "\n")
    print(f"{params.topology.value}, n={params.n}, m={params.m}")
    return 0


def _cmd_rank(args: _Args) -> int:
    if args.sweep is not None:
        return _cmd_sweep(args)
    report = hs.extremal_rank(args.r, args.k)
    p = report.params
    formula = hs.RANK_FORMULAS[p.parity_class][0]
    if args.out:
        doc = {"params": {"r": p.r, "k": p.k, "n": p.n, "m": p.m},
               "topology": p.topology.value, "parity_class": p.parity_class.value,
               "rank_i": report.rank_i, "rank_formula": formula,
               "multiplicity": report.multiplicity,
               "lambda_functional": report.lambda_functional,
               "residuals": report.residuals}
        _emit(args, _json17(doc) + "\n")
    print(f"i={report.rank_i}, {_TOPOLOGY_WORDS[p.topology]}, {formula}")
    return 0


def _cmd_sweep(args: _Args) -> int:
    rows = []
    for r, k in sm.admissible_pairs(args.sweep):
        report = hs.extremal_rank(r, k)
        p = report.params
        rows.append(_csv_line((r, k, p.n, p.m, p.topology.value, p.parity_class.value,
                               report.rank_i, hs.RANK_FORMULAS[p.parity_class][0],
                               report.multiplicity, report.lambda_functional)))
    _emit(args, "r,k,n,m,topology,parity_class,rank_i,rank_formula,"
                  "multiplicity,lambda_functional\n" + "".join(rows))
    return 0


def _cmd_spectrum(args: _Args) -> int:
    """One row per located eigenvalue for p = 0..n; the CSV lists the rows,
    the JSON groups them by line."""
    params = sm.derive_params(args.r, args.k)
    lines = [(line.p, [{"gamma": e.gamma, "index": e.index,
                        "parity": e.parity.value, "psi_target": e.psi_target}
                       for e in line.eigenvalues])
             for line in hs.surface_lines(params) if line.p <= params.n]
    if args.fmt == "csv":
        text = "p,branch_index,gamma,parity,psi_target\n" + "".join(
            _csv_line((p, e["index"], e["gamma"], e["parity"], e["psi_target"]))
            for p, eigs in lines for e in eigs)
    else:
        doc = {"params": {"r": params.r, "k": params.k,
                          "n": params.n, "m": params.m},
               "lines": [{"p": p, "eigenvalues": eigs} for p, eigs in lines]}
        text = _json17(doc) + "\n"
    _emit(args, text)
    return 0


def _cmd_immerse(args: _Args) -> int:
    """Compute the mesh and write it in one pass, each block of rows as it
    is computed, so no array or string holds the whole mesh.  A failure
    removes the --out file, so no partial mesh is left behind."""
    params = sm.derive_params(args.r, args.k)
    blocks = sm.immersion_blocks(params, args.grid, args.grid)
    writer = sm.write_immersion_csv if args.fmt == "csv" else sm.write_immersion_json
    if not args.out:
        writer(sys.stdout, params, blocks)
        return 0
    fh = open(args.out, "w")
    try:
        with fh:
            writer(fh, params, blocks)
    except BaseException:
        os.remove(args.out)
        raise
    return 0


def _cmd_area(args: _Args) -> int:
    """Both areas, Lambda from the closed form, and verify's area_identity check."""
    report = hs.extremal_rank(args.r, args.k)
    quad, closed = vf.area_quadrature(report.params), sm.area_closed_form(report.params)
    print(f"area_quadrature={_fmt17(quad)}")
    print(f"area_closed_form={_fmt17(closed)}")
    print(f"Lambda_{report.rank_i}={_fmt17(report.lambda_functional)}")
    check = vf._area_identity(quad, closed)
    if not check.passed:
        print(f"FAILED: {check}", file=sys.stderr)
    return 0 if check.passed else 2


def _cmd_verify(args: _Args) -> int:
    report = vf.full_report(args.r, args.k, strict=args.strict)
    _emit(args, _json17(report.to_dict()) + "\n")
    for check in report.checks:
        if not check.passed:
            print(f"FAILED: {check}", file=sys.stderr)
    return 0 if report.passed else 2


class _Args(NamedTuple):
    """One parsed command line: the subcommand's handler and every flag."""

    handler: Callable[[_Args], int]
    r: int | None = None
    k: int | None = None
    grid: int = 64
    out: str = ""
    fmt: str = "json"
    strict: bool = False
    sweep: int | None = None


# each subcommand's handler, help text and the optional flags it honours;
# no other flag is accepted
_SUBCOMMANDS = {
    "classify": (_cmd_classify, "print (n, m), parity class, and topology", {"out"}),
    "spectrum": (_cmd_spectrum, "write the located eigenvalue table for p = 0..n",
                 {"format", "out"}),
    "immerse": (_cmd_immerse, "sample the bipolar immersion on a (u, v) grid",
                {"grid", "format", "out"}),
    "verify": (_cmd_verify, "run the full verification battery, emit JSON",
               {"strict", "out"}),
    "rank": (_cmd_rank, "compute the extremal eigenvalue rank", {"out", "sweep"}),
    "area": (_cmd_area, "compare area quadrature against the closed form", set()),
}

# each flag's _Args field, metavar, value (int, str, its choices, or None
# for a switch) and help text; every subcommand takes --r and --k
_FLAGS = {
    "r": ("r", "R", int, "Lawson parameter r"),
    "k": ("k", "K", int, "Lawson parameter k"),
    "grid": ("grid", "GRID", int, "grid size per axis (default 64)"),
    "out": ("out", "OUT", str, "output file path"),
    "format": ("fmt", "{json,csv}", ("json", "csv"), "output format"),
    "strict": ("strict", "", None, "halve every verification threshold"),
    "sweep": ("sweep", "RMAX", int, "emit the rank table for all r <= RMAX"),
}

_PROG = "lawson-bipolar"


def _honoured(command: str) -> list[str]:
    """The flags of a subcommand, in the order of _FLAGS."""
    return [name for name in _FLAGS if name in ("r", "k") or name in _SUBCOMMANDS[command][2]]


def _options(command: str | None) -> dict[str, str]:
    """Option string -> flag name, before the subcommand (help alone) or
    after it, in the order argparse lists them in an ambiguity."""
    names = _honoured(command) if command else []
    return {"-h": "help", "--help": "help", **{f"--{name}": name for name in names}}


def _flag_usage(name: str) -> str:
    metavar = _FLAGS[name][1]
    return f"--{name} {metavar}" if metavar else f"--{name}"


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: {_PROG} [-h] {{{','.join(_SUBCOMMANDS)}}} ...\n"
    flags = "".join(f" [{_flag_usage(name)}]" for name in _honoured(command))
    return f"usage: {_PROG} {command} [-h]{flags}\n"


def _help_text(command: str | None) -> str:
    grammar = ("\nA flag takes its value as --flag value or --flag=value, any unique\n"
               "prefix of a flag stands for it, and the last of a repeated flag wins.\n"
               "A usage error exits 1.\n")
    if command is None:
        width = max(map(len, _SUBCOMMANDS))
        rows = "".join(
            f"  {name:<{width}}  {blurb}\n  {'':<{width}}  "
            f"{' '.join(_flag_usage(flag) for flag in _honoured(name))}\n"
            for name, (_, blurb, _) in _SUBCOMMANDS.items())
        return (f"{_usage(None)}\nBipolar Lawson surfaces: classification, Hill spectra, "
                f"immersion sampling, and verification.\n\ncommands:\n{rows}"
                f"\n{_PROG} <command> -h describes a command and its flags.\n{grammar}")
    flags = [(_flag_usage(name), _FLAGS[name][3]) for name in _honoured(command)]
    flags.append(("-h, --help", "print this help and exit"))
    width = max(len(usage) for usage, _ in flags)
    rows = "".join(f"  {usage:<{width}}  {text}\n" for usage, text in flags)
    return f"{_usage(command)}\n{_SUBCOMMANDS[command][1]}\n\nflags:\n{rows}{grammar}"


def _usage_error(message: str, command: str | None = None):
    """Every usage error: the usage line and argparse's message on stderr,
    then exit 1, as exit 2 means a failed verification check."""
    prog = _PROG if command is None else f"{_PROG} {command}"
    sys.stderr.write(f"{_usage(command)}{prog}: error: {message}\n")
    raise SystemExit(1)


def _option(arg: str, options: dict[str, str], command: str | None):
    """argparse's reading of one argument: None for a value (a word, "-",
    a negative number or a string with a space), else (option string,
    explicit value or None), with option string "" for an unknown option.
    A prefix of two or more options is a usage error."""
    if arg[:1] != "-" or arg == "-":
        return None
    if arg in options:
        return arg, None
    head, eq, value = arg.partition("=")
    if eq and head in options:
        return head, value
    if arg[1] == "-":
        matches = [string for string in options if string.startswith(head)]
        explicit = value if eq else None
    else:
        matches = [string for string in options if string == arg[:2]]
        explicit = arg[2:]
    if len(matches) > 1:
        _usage_error(f"ambiguous option: {arg} could match {', '.join(matches)}", command)
    if matches:
        return matches[0], explicit
    if re.match(r"-\d+$|-\d*\.\d+$", arg) or " " in arg:
        return None
    return "", None


def _help(command: str | None, string: str, explicit: str | None):
    """-h or --help: print the help on stdout and exit 0.  An explicit
    value is a usage error, but -hh... is -h given again."""
    if string == "-h" and explicit:
        explicit = explicit.lstrip("h") or None
    if explicit is not None:
        _usage_error(f"argument -h/--help: ignored explicit argument {explicit!r}", command)
    sys.stdout.write(_help_text(command))
    raise SystemExit(0)


def _value(name: str, text: str, command: str) -> int | str:
    kind = _FLAGS[name][2]
    if kind is int:
        try:
            return int(text)
        except ValueError:
            _usage_error(f"argument --{name}: invalid int value: {text!r}", command)
    if isinstance(kind, tuple) and text not in kind:
        _usage_error(f"argument --{name}: invalid choice: {text!r} "
                     f"(choose from {', '.join(map(repr, kind))})", command)
    return text


def _parse(argv: list[str]) -> _Args:
    """Read argv as the subcommand's argparse parser would.  Help and
    unknown options may come before the subcommand; after it, "--" ends
    the options, each option is read left to right, and a word that no
    option takes is an unrecognized argument."""
    top, extras = _options(None), []
    for i, arg in enumerate(argv):
        opt = None if arg == "--" else _option(arg, top, None)
        if opt is None:
            break
        if opt[0]:
            _help(None, *opt)
        extras.append(arg)
    else:
        i = len(argv)
    if argv[i:] in ([], ["--"]):
        _usage_error("the following arguments are required: command")
    command, rest = argv[i], argv[i + 1:]
    if command not in _SUBCOMMANDS:
        _usage_error(f"argument command: invalid choice: {command!r} "
                     f"(choose from {', '.join(map(repr, _SUBCOMMANDS))})")
    options = _options(command)
    cut = rest.index("--") if "--" in rest else len(rest)
    # argparse reads every argument before it takes any, so an ambiguous
    # prefix fails ahead of a bad value
    read = [_option(arg, options, command) for arg in rest[:cut]] + [None] * (len(rest) - cut)
    values, j = {}, 0
    while j < len(rest):
        if read[j] is None or not read[j][0]:
            extras.append(rest[j])
            j += 1
            continue
        string, explicit = read[j]
        name = options[string]
        if name == "help":
            _help(command, string, explicit)
        field, _, kind, _ = _FLAGS[name]
        if kind is None:
            if explicit is not None:
                _usage_error(f"argument --{name}: ignored explicit argument {explicit!r}",
                             command)
            values[field] = True
        elif explicit is not None:
            values[field] = _value(name, explicit, command)
        elif j + 1 < cut and read[j + 1] is None:
            j += 1
            values[field] = _value(name, rest[j], command)
        else:
            _usage_error(f"argument --{name}: expected one argument", command)
        j += 1
    if extras:
        _usage_error(f"unrecognized arguments: {' '.join(extras)}")
    return _Args(_SUBCOMMANDS[command][0], **values)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    sweep = args.sweep is not None
    if sweep and (args.r is not None or args.k is not None):
        _usage_error("rank: --sweep takes no --r or --k")
    if args.grid < 2:
        print("grid must be at least 2", file=sys.stderr)
        return 1
    if sweep and args.sweep < 0:
        print("sweep must not be negative", file=sys.stderr)
        return 1
    missing = [f"--{name}" for name in ("r", "k") if getattr(args, name) is None]
    if missing and not sweep:
        print(f"invalid parameters: missing {' and '.join(missing)}", file=sys.stderr)
        return 1
    try:
        return args.handler(args)
    except InvalidParametersError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 1
    except (hs.SpectrumMismatchError, PoleProximityError, DomainError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"cannot write {args.out or 'stdout'}: {exc.strerror or exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
