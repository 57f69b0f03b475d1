"""Command-line front end.

Subcommands: classify, spectrum, immerse, verify, rank, area.  All
floating-point output is rendered with 17 significant digits so files
round-trip double precision exactly; identical invocations produce
byte-identical files on one platform.  No environment variable is read.

Exit codes: 0 success, 1 invalid parameters, 2 a verification check
failed, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor

from . import hill_spectrum as hs
from . import surface_model as sm
from . import verification as vf
from .phi_system import IntegrationFailureError
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
    if isinstance(obj, float):
        return _fmt17(obj)
    return json.dumps(obj)


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_classify(args: argparse.Namespace) -> int:
    params = sm.derive_params(args.r, args.k)
    if args.out:
        doc = {"r": params.r, "k": params.k, "n": params.n, "m": params.m,
               "topology": params.topology.value,
               "parity_class": params.parity_class.value}
        _emit(args, _json17(doc) + "\n")
    print(f"{params.topology.value}, n={params.n}, m={params.m}")
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    if args.sweep is not None:
        return _cmd_sweep(args)
    report = hs.extremal_rank(args.r, args.k)
    params = report.params
    print(f"i={report.rank_i}, {_TOPOLOGY_WORDS[params.topology]}, "
          f"{hs.RANK_FORMULAS[params.parity_class][0]}")
    if args.out:
        _emit(args, _json17(_report_doc(report)) + "\n")
    return 0


def _report_doc(report: hs.ExtremalReport) -> dict:
    p = report.params
    return {
        "params": {"r": p.r, "k": p.k, "n": p.n, "m": p.m},
        "topology": p.topology.value,
        "parity_class": p.parity_class.value,
        "rank_i": report.rank_i,
        "rank_formula": hs.RANK_FORMULAS[p.parity_class][0],
        "multiplicity": report.multiplicity,
        "lambda_functional": report.lambda_functional,
        "residuals": report.residuals,
    }


def _sweep_row(pair: tuple[int, int]) -> tuple:
    r, k = pair
    report = hs.extremal_rank(r, k)
    p = report.params
    return (r, k, p.n, p.m, p.topology.value, p.parity_class.value,
            report.rank_i, hs.RANK_FORMULAS[p.parity_class][0],
            report.multiplicity, report.lambda_functional)


def _cmd_sweep(args: argparse.Namespace) -> int:
    pairs = sm.admissible_pairs(args.sweep)
    # the pool forks all its workers at start, so none may go without a pair
    workers = min(args.jobs or 1, len(pairs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_row, pairs))
    else:
        rows = [_sweep_row(pair) for pair in pairs]
    rows.sort(key=lambda row: (row[0], row[1]))
    _emit(args, "r,k,n,m,topology,parity_class,rank_i,rank_formula,"
                  "multiplicity,lambda_functional\n" + "".join(map(_csv_line, rows)))
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
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


def _cmd_immerse(args: argparse.Namespace) -> int:
    params = sm.derive_params(args.r, args.k)
    rows = sm.immersion_rows(params, args.grid, args.grid)
    writer = sm.write_immersion_csv if args.fmt == "csv" else sm.write_immersion_json
    # the writer streams its blocks, so no string holds the whole mesh
    if args.out:
        with open(args.out, "w") as fh:
            writer(fh, params, rows)
    else:
        writer(sys.stdout, params, rows)
    return 0


def _cmd_area(args: argparse.Namespace) -> int:
    params = sm.derive_params(args.r, args.k)
    area, lam_value, rank_i = vf.area_and_lambda(params)
    closed = sm.area_closed_form(params)
    print(f"area_quadrature={_fmt17(area)}")
    print(f"area_closed_form={_fmt17(closed)}")
    print(f"Lambda_{rank_i}={_fmt17(lam_value)}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = vf.full_report(args.r, args.k, strict=args.strict)
    _emit(args, _json17(report.to_dict()) + "\n")
    for check in report.checks:
        if not check.passed:
            print(f"FAILED: {check}", file=sys.stderr)
    return 0 if report.passed else 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Usage errors exit 1: argparse's own code 2 means a failed check here."""
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


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


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lawson-bipolar",
        description="Bipolar Lawson surfaces: classification, Hill spectra, "
                    "immersion sampling, and verification.")
    parser.set_defaults(grid=64, out="", fmt="json", strict=False,
                        sweep=None, jobs=None)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, blurb, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=blurb)
        p.set_defaults(handler=handler)
        p.add_argument("--r", type=int, help="Lawson parameter r")
        p.add_argument("--k", type=int, help="Lawson parameter k")
        if "grid" in flags:
            p.add_argument("--grid", type=int, default=64,
                           help="grid size per axis (default 64)")
        if "out" in flags:
            p.add_argument("--out", type=str, default="", help="output file path")
        if "format" in flags:
            p.add_argument("--format", dest="fmt", choices=["json", "csv"],
                           default="json", help="output format")
        if "strict" in flags:
            p.add_argument("--strict", action="store_true",
                           help="halve every verification threshold")
        if "sweep" in flags:
            p.add_argument("--sweep", type=int, default=None, metavar="RMAX",
                           help="emit the rank table for all r <= RMAX")
            p.add_argument("--jobs", type=int, default=None,
                           help="parallel workers for the sweep, at most one "
                                "per pair (default 1)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    sweep = args.sweep is not None
    if sweep and (args.r is not None or args.k is not None):
        parser.error("rank: --sweep takes no --r or --k")
    if args.jobs is not None and not sweep:
        parser.error("rank: --jobs needs --sweep")
    if args.grid < 2:
        print("grid must be at least 2", file=sys.stderr)
        return 1
    if sweep and args.sweep < 0:
        print("sweep must not be negative", file=sys.stderr)
        return 1
    if args.jobs is not None and args.jobs < 1:
        print("jobs must be at least 1", file=sys.stderr)
        return 1
    # a missing pair reads as (0, 0), which derive_params rejects
    args.r, args.k = args.r or 0, args.k or 0
    try:
        return args.handler(args)
    except InvalidParametersError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 1
    except (hs.SpectrumMismatchError, IntegrationFailureError,
            vf.VerificationError, PoleProximityError, DomainError,
            sm.ExcludedDirectionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
