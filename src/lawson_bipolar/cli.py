"""Command-line front end.

Subcommands: classify, spectrum, immerse, verify, rank, area.  All
floating-point output is rendered with 17 significant digits so files
round-trip double precision exactly; identical invocations produce
byte-identical files.

Exit codes: 0 success, 1 invalid parameters, 2 a verification check
failed, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from . import hill_spectrum as hs
from . import surface_model as sm
from . import verification as vf
from .phi_system import IntegrationFailureError
from .special_functions import DomainError, PoleProximityError
from .surface_model import InvalidParametersError, Topology

__all__ = ["RunConfig", "run", "main"]

_TOPOLOGY_WORDS = {Topology.TORUS: "torus", Topology.KLEIN_BOTTLE: "klein bottle"}
_FORMULA_WORDS = {
    sm.ParityClass.EVEN_RK: "4r-2",
    sm.ParityClass.RK_1_MOD_4: "2r-2",
    sm.ParityClass.RK_3_MOD_4: "r-2",
}


@dataclass
class RunConfig:
    """Parsed invocation; tolerances and grid sizes hold overrides only."""

    command: str
    r: int = 0
    k: int = 0
    tolerances: dict = field(default_factory=dict)
    grid_sizes: dict = field(default_factory=dict)
    output_path: str = ""
    fmt: str = "json"
    sweep: int = 0
    strict: bool = False
    jobs: int = 1


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


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


def _emit(config: RunConfig, text: str) -> None:
    if config.output_path:
        with open(config.output_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _solver_tol(config: RunConfig) -> float:
    return config.tolerances.get("solver", hs.DEFAULT_SOLVER_TOL)


def _cmd_classify(config: RunConfig) -> int:
    params = sm.derive_params(config.r, config.k)
    if config.output_path:
        doc = {"r": params.r, "k": params.k, "n": params.n, "m": params.m,
               "topology": params.topology.value,
               "parity_class": params.parity_class.value}
        _emit(config, _json17(doc) + "\n")
    print(f"{params.topology.value}, n={params.n}, m={params.m}")
    return 0


def _cmd_rank(config: RunConfig) -> int:
    if config.sweep:
        return _cmd_sweep(config)
    report = hs.extremal_rank(config.r, config.k, tol=_solver_tol(config))
    params = report.params
    print(f"i={report.rank_i}, {_TOPOLOGY_WORDS[params.topology]}, "
          f"{_FORMULA_WORDS[params.parity_class]}")
    if config.output_path:
        _emit(config, _json17(_report_doc(report)) + "\n")
    return 0


def _report_doc(report: hs.ExtremalReport) -> dict:
    p = report.params
    return {
        "params": {"r": p.r, "k": p.k, "n": p.n, "m": p.m},
        "topology": p.topology.value,
        "parity_class": p.parity_class.value,
        "rank_i": report.rank_i,
        "rank_formula": _FORMULA_WORDS[p.parity_class],
        "multiplicity": report.multiplicity,
        "lambda_functional": report.lambda_functional,
        "residuals": report.residuals,
    }


def _sweep_row(args) -> tuple:
    r, k, tol = args
    report = hs.extremal_rank(r, k, tol=tol)
    p = report.params
    return (r, k, p.n, p.m, p.topology.value, p.parity_class.value,
            report.rank_i, _FORMULA_WORDS[p.parity_class],
            report.multiplicity, report.lambda_functional)


def _cmd_sweep(config: RunConfig) -> int:
    tol = _solver_tol(config)
    pairs = sm.admissible_pairs(config.sweep)
    jobs = [(r, k, tol) for r, k in pairs]
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            rows = list(pool.map(_sweep_row, jobs))
    else:
        rows = [_sweep_row(j) for j in jobs]
    rows.sort(key=lambda row: (row[0], row[1]))
    buf = io.StringIO()
    buf.write("r,k,n,m,topology,parity_class,rank_i,rank_formula,"
              "multiplicity,lambda_functional\n")
    for row in rows:
        buf.write(",".join(_fmt17(x) if isinstance(x, float) else str(x)
                           for x in row) + "\n")
    _emit(config, buf.getvalue())
    return 0


def _cmd_spectrum(config: RunConfig) -> int:
    params = sm.derive_params(config.r, config.k)
    tol = _solver_tol(config)
    lines = [line for line in hs.surface_lines(params, tol=tol)
             if line.p <= params.n]
    buf = io.StringIO()
    if config.fmt == "csv":
        hs.write_spectrum_csv(buf, lines)
    else:
        doc = {"params": {"r": params.r, "k": params.k,
                          "n": params.n, "m": params.m},
               "lines": [{"p": line.p,
                          "eigenvalues": [
                              {"gamma": e.gamma, "index": e.index,
                               "parity": e.parity.value,
                               "psi_target": e.psi_target}
                              for e in line.eigenvalues]}
                         for line in lines]}
        buf.write(_json17(doc) + "\n")
    _emit(config, buf.getvalue())
    return 0


def _cmd_immerse(config: RunConfig) -> int:
    params = sm.derive_params(config.r, config.k)
    n_u = config.grid_sizes.get("u", 64)
    n_v = config.grid_sizes.get("v", 64)
    rows = sm.immersion_rows(params, n_u, n_v)
    buf = io.StringIO()
    if config.fmt == "csv":
        sm.write_immersion_csv(buf, params, rows)
    else:
        sm.write_immersion_json(buf, params, rows)
    _emit(config, buf.getvalue())
    return 0


def _cmd_area(config: RunConfig) -> int:
    area, lam_value, rank_i = vf.area_and_lambda(config.r, config.k)
    params = sm.derive_params(config.r, config.k)
    closed = sm.area_closed_form(params)
    print(f"area_quadrature={_fmt17(area)}")
    print(f"area_closed_form={_fmt17(closed)}")
    print(f"Lambda_{rank_i}={_fmt17(lam_value)}")
    return 0


def _cmd_verify(config: RunConfig) -> int:
    report = vf.full_report(config.r, config.k, strict=config.strict)
    _emit(config, _json17(report.to_dict()) + "\n")
    for check in report.checks:
        if not check.passed:
            print(f"FAILED: {check}", file=sys.stderr)
    return 0 if report.passed else 2


_COMMANDS = {
    "classify": _cmd_classify,
    "spectrum": _cmd_spectrum,
    "immerse": _cmd_immerse,
    "verify": _cmd_verify,
    "rank": _cmd_rank,
    "area": _cmd_area,
}


def run(config: RunConfig) -> int:
    """Dispatch a parsed configuration; returns the process exit code."""
    handler = _COMMANDS.get(config.command)
    if handler is None:
        print(f"unknown command {config.command!r}", file=sys.stderr)
        return 1
    if config.command != "rank" or not config.sweep:
        try:
            sm.derive_params(config.r, config.k)
        except InvalidParametersError as exc:
            print(f"invalid parameters: {exc}", file=sys.stderr)
            return 1
    try:
        return handler(config)
    except InvalidParametersError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 1
    except (hs.SpectrumMismatchError, IntegrationFailureError,
            vf.VerificationError, PoleProximityError, DomainError,
            sm.ExcludedDirectionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Usage errors exit 1: argparse's own code 2 means a failed check here."""
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# the optional flags each subcommand honours; no other flag is accepted
_SUBCOMMANDS = {
    "classify": ("print (n, m), parity class, and topology", {"out"}),
    "spectrum": ("write the located eigenvalue table for p = 0..n",
                 {"tol", "format", "out"}),
    "immerse": ("sample the bipolar immersion on a (u, v) grid",
                {"grid", "format", "out"}),
    "verify": ("run the full verification battery, emit JSON", {"strict", "out"}),
    "rank": ("compute the extremal eigenvalue rank", {"tol", "out", "sweep"}),
    "area": ("compare area quadrature against the closed form", set()),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lawson-bipolar",
        description="Bipolar Lawson surfaces: classification, Hill spectra, "
                    "immersion sampling, and verification.")
    parser.set_defaults(tol=None, grid=None, out="", fmt="json", strict=False,
                        sweep=0, jobs=1)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (blurb, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--r", type=int, default=0, help="Lawson parameter r")
        p.add_argument("--k", type=int, default=0, help="Lawson parameter k")
        if "tol" in flags:
            p.add_argument("--tol", type=float, default=None,
                           help="solver tolerance override, within [1e-13, 1e-6]")
        if "grid" in flags:
            p.add_argument("--grid", type=int, default=None,
                           help="grid size per axis")
        if "out" in flags:
            p.add_argument("--out", type=str, default="", help="output file path")
        if "format" in flags:
            p.add_argument("--format", dest="fmt", choices=["json", "csv"],
                           default="json", help="output format")
        if "strict" in flags:
            p.add_argument("--strict", action="store_true",
                           help="halve every verification threshold")
        if "sweep" in flags:
            p.add_argument("--sweep", type=int, default=0, metavar="RMAX",
                           help="emit the rank table for all r <= RMAX")
            p.add_argument("--jobs", type=int, default=1,
                           help="parallel workers for the sweep")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    tolerances = {}
    # the LAWSON_BIPOLAR_TOL environment variable supplies the default of
    # --tol on the subcommands that take it; an explicit --tol wins
    env_tol = os.environ.get("LAWSON_BIPOLAR_TOL")
    if "tol" in _SUBCOMMANDS[args.command][1] and args.tol is None and env_tol is not None:
        try:
            args.tol = float(env_tol)
        except ValueError:
            print(f"bad LAWSON_BIPOLAR_TOL value {env_tol!r}", file=sys.stderr)
            return 1
    if args.tol is not None:
        if not (1e-13 <= args.tol <= 1e-6):
            print("tolerance must lie within [1e-13, 1e-6]", file=sys.stderr)
            return 1
        tolerances["solver"] = args.tol
    grid_sizes = {}
    if args.grid is not None:
        if args.grid < 2:
            print("grid must be at least 2", file=sys.stderr)
            return 1
        grid_sizes = {"u": args.grid, "v": args.grid}
    if args.sweep < 0:
        print("sweep must not be negative", file=sys.stderr)
        return 1
    if args.jobs < 1:
        print("jobs must be at least 1", file=sys.stderr)
        return 1
    config = RunConfig(
        command=args.command, r=args.r, k=args.k, tolerances=tolerances,
        grid_sizes=grid_sizes, output_path=args.out, fmt=args.fmt,
        sweep=args.sweep, strict=args.strict, jobs=args.jobs)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
