"""Tests for the command-line interface: output shapes, exit codes, and
byte-level determinism."""

import argparse
import ast
import csv
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lawson_bipolar import cli
from lawson_bipolar import hill_spectrum as hs
from lawson_bipolar import surface_model as sm
from lawson_bipolar import verification as vf
from lawson_bipolar.cli import _SUBCOMMANDS, main, _json17
from lawson_bipolar.phi_system import closed_form_theta, integrate_system
from lawson_bipolar.special_functions import jacobi_am, jacobi_sncndn
from lawson_bipolar.surface_model import derive_params
from lawson_bipolar.verification import CheckResult

RANK_8_1_DIGEST = "27ec9b059516e39f3c494839e2bf807572b9c1713c6b0c411a968774ee082c02"
SPECTRUM_8_1_CSV_DIGEST = "60f9c73727acd1d15b9b0c620fe84fafc2eff9fda1fb41788273ad943cb43164"


class TestJsonFormatter:
    def test_round_trips_doubles(self):
        doc = {"x": 0.1 + 0.2, "n": 3, "flag": True,
               "items": [1.0 / 3.0, "s"]}
        parsed = json.loads(_json17(doc))
        assert parsed["x"] == 0.1 + 0.2
        assert parsed["items"][0] == 1.0 / 3.0
        assert parsed["flag"] is True

    def test_non_finite_floats_parse(self):
        text = _json17({"nan": math.nan, "inf": math.inf, "ninf": -math.inf})
        assert text == '{\n "nan": NaN,\n "inf": Infinity,\n "ninf": -Infinity\n}'
        parsed = json.loads(text)
        assert math.isnan(parsed["nan"]) and parsed["inf"] == -parsed["ninf"] == math.inf


class TestClassify:
    def test_output_line(self, capsys):
        assert main(["classify", "--r", "3", "--k", "1"]) == 0
        assert capsys.readouterr().out.strip() == "KleinBottle, n=2, m=1"

    def test_invalid_pair_exit_code(self, tmp_path, capsys):
        # every subcommand rejects a bad or missing pair before any output
        for command in ("classify", "spectrum", "immerse", "verify", "rank", "area"):
            for pair in (["--r", "4", "--k", "2"], ["--r", "2", "--k", "3"], []):
                out = tmp_path / f"{command}.out"
                argv = [command, *pair] + (["--out", str(out)] if command != "area" else [])
                assert main(argv) == 1, argv
                captured = capsys.readouterr()
                assert captured.out == "", argv
                assert captured.err.startswith("invalid parameters: "), argv
                assert not out.exists(), argv

    def test_missing_flag_is_named(self, capsys):
        # a missing --r or --k is named, not shown as a pair the user did not give
        for command in ("classify", "spectrum", "immerse", "verify", "rank", "area"):
            for given, missing in ((["--r", "5"], "--k"), (["--k", "2"], "--r"),
                                   ([], "--r and --k")):
                assert main([command, *given]) == 1, (command, given)
                captured = capsys.readouterr()
                assert captured.out == "", (command, given)
                assert captured.err == f"invalid parameters: missing {missing}\n"


class TestRank:
    def test_2_1(self, capsys):
        assert main(["rank", "--r", "2", "--k", "1"]) == 0
        assert capsys.readouterr().out.strip() == "i=6, torus, 4r-2"

    def test_5_3(self, capsys):
        assert main(["rank", "--r", "5", "--k", "3"]) == 0
        assert capsys.readouterr().out.strip() == "i=3, klein bottle, r-2"

    @pytest.mark.parametrize("r,k,line", [
        (708, 707, "i=2830, torus, 4r-2"), (751, 750, "i=3002, torus, 4r-2"),
        (1001, 1000, "i=4002, torus, 4r-2"), (4801, 1, "i=9600, torus, 2r-2"),
        (6001, 1, "i=12000, torus, 2r-2"), (99999, 99998, "i=399994, torus, 4r-2"),
    ])
    def test_large_n(self, r, k, line, capsys):
        # n from 1415 to 199997, where the gaps near lambda = 2 (about 2/n^2)
        # are narrower than any fixed lambda window
        assert main(["rank", "--r", str(r), "--k", str(k)]) == 0
        assert capsys.readouterr().out.strip() == line

    def test_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert main(["rank", "--sweep", "4", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("r,k,n,m,topology")
        table = {tuple(map(int, row.split(",")[:2])): int(row.split(",")[6])
                 for row in lines[1:]}
        assert table == {(2, 1): 6, (3, 1): 1, (3, 2): 10,
                         (4, 1): 14, (4, 3): 14}


class TestSpectrumAndImmerse:
    def test_spectrum_csv(self, tmp_path):
        out = tmp_path / "lines.csv"
        assert main(["spectrum", "--r", "3", "--k", "1", "--format", "csv",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "p,branch_index,gamma,parity,psi_target"
        params = derive_params(3, 1)
        assert len(lines) == 1 + sum(len(line.eigenvalues)
                                     for line in hs.surface_lines(params)
                                     if line.p <= params.n)

    @pytest.mark.parametrize("r, k", [(3, 1), (8, 1), (7, 6)])
    def test_spectrum_csv_rows_are_json_eigenvalues(self, tmp_path, r, k):
        """The CSV lists the JSON's eigenvalues line by line, field by field."""
        pair = ["--r", str(r), "--k", str(k)]
        assert main(["spectrum", *pair, "--format", "csv",
                     "--out", str(tmp_path / "lines.csv")]) == 0
        assert main(["spectrum", *pair, "--format", "json",
                     "--out", str(tmp_path / "lines.json")]) == 0
        rows = list(csv.DictReader(io.StringIO((tmp_path / "lines.csv").read_text())))
        doc = json.loads((tmp_path / "lines.json").read_text())
        want = [{"p": line["p"], "branch_index": e["index"], "gamma": e["gamma"],
                 "parity": e["parity"], "psi_target": e["psi_target"]}
                for line in doc["lines"] for e in line["eigenvalues"]]
        got = [{"p": int(row["p"]), "branch_index": int(row["branch_index"]),
                "gamma": float(row["gamma"]), "parity": row["parity"],
                "psi_target": float(row["psi_target"])} for row in rows]
        assert rows and got == want

    def test_immerse_grid(self, tmp_path):
        out = tmp_path / "mesh.csv"
        assert main(["immerse", "--r", "2", "--k", "1", "--grid", "8",
                     "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2 + 64

    def test_immerse_json(self, tmp_path):
        out = tmp_path / "mesh.json"
        assert main(["immerse", "--r", "3", "--k", "1", "--grid", "4",
                     "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["topology"] == "KleinBottle"
        assert len(doc["rows"]) == 16


class TestImmerseBytes:
    """sha256 of immerse outputs written by the point-by-point evaluation
    (test_surface_model._scalar_immersion) and the csv/json module writers
    the vectorized path replaced.  The (2, 1) grid-78 mesh contains a v
    whose squared sine rounds differently under the C library's pow than
    under x * x, so its digest pins that the immersion squares by x * x.
    The wedge is rotated pair by pair as ((a + b)/sqrt 2, (b - a)/sqrt 2)."""

    @pytest.mark.parametrize("args, digest", [
        (["--r", "2", "--k", "1", "--grid", "16", "--format", "csv"],
         "b888729933f0b3c6ffe5d05de39609dcad1bbe9f0f165fcb0674b5108a2287a2"),
        (["--r", "5", "--k", "2", "--grid", "16", "--format", "json"],
         "a17b25dfcca94f62fdcc82c477907c1889517065654b92c10dd84c190b211e5e"),
        (["--r", "2", "--k", "1", "--grid", "78", "--format", "csv"],
         "926da6db9e9c95c4d21a2f83ec31932c240b4e7d975e987a1c0978615fb5709f"),
    ], ids=["2-1-grid16-csv", "5-2-grid16-json", "2-1-grid78-csv"])
    def test_output_digest(self, tmp_path, args, digest):
        out = tmp_path / "mesh"
        assert main(["immerse", *args, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_matches_out_file(self, tmp_path, capsys, fmt):
        """The writers stream to --out or to stdout alike; 48 x 48 rows
        span five CSV blocks of 512 rows and six JSON blocks of 409."""
        args = ["immerse", "--r", "5", "--k", "2", "--grid", "48", "--format", fmt]
        out = tmp_path / "mesh"
        assert main([*args, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(args) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()


class TestRankBytes:
    """sha256 of rank outputs.  A rank comes from the Galerkin blocks
    alone, so no Floquet rounding may move a byte.  The sweep stdout was
    recorded from the stage-by-stage Floquet loop and has not moved since;
    the report JSON carries the anchor residuals of the Cholesky-reduced
    blocks, each of the modes the profile's nome needs."""

    def test_sweep_stdout_digest(self, capsys):
        assert main(["rank", "--sweep", "8"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "3f2854067431778ad8dc1603941f21d6c2d697b09114b951fd6a0c43d362b67f")

    def test_report_json_digest(self, tmp_path, capsys):
        out = tmp_path / "rank.json"
        assert main(["rank", "--r", "8", "--k", "1", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == RANK_8_1_DIGEST


class TestSpectrumAndVerifyBytes:
    """sha256 of spectrum and verify outputs with the roots of the
    Cholesky-reduced Galerkin blocks (one eigvalsh per line); the Floquet
    residuals of verify come from the verification battery's own
    propagation at those roots and at R2 sequence points, its profile
    residuals from the fixed-step RK8 integration of the profile at every
    step end of the fundamental quarter [0, a/4], its phi_reversal entry
    from the state at a/4, its phi_theta_vs_ode entry from the quarter's
    states and their reversor images over the period, and its chart
    residuals from the H1 modulus with the exact complement (n-m)/(n+m),
    its closed-form profile rows and bridging identities from one Jacobi
    triple (sn, cn, dn)(K - n y).  The CSV
    digests were recorded from the JSON spectrum's fields written by
    csv.writer, and the blocks' Fourier coefficients of f from its nome
    series, each block of the modes that nome needs.  Each verify entry
    carries its check's context, the multiplicity's the cluster
    certificate's worst gap and next mu, the anchors' the modes, the nome
    and the Fourier tail; the
    immersion agreement compares against the pairwise-rotated wedge, and
    the Klein-bottle invariance the (r, k) closed-form column.  The
    report's "area" is the closed form, the area that lambda_value is
    twice; the quadrature stays in the area_identity entry alone."""

    @pytest.mark.parametrize("args, digest", [
        (["spectrum", "--r", "3", "--k", "1", "--format", "csv"],
         "34c8af5a48127203960134f8b4524fc941c535bbf924b5ea10ceb81d02379bd9"),
        (["spectrum", "--r", "8", "--k", "1", "--format", "csv"], SPECTRUM_8_1_CSV_DIGEST),
        (["spectrum", "--r", "7", "--k", "6", "--format", "json"],
         "aa9dc7041e9ae7a34d451f0da3898244a18d9d7f0c354f7e3ce51b1ba39906c0"),
        (["verify", "--r", "8", "--k", "1"],
         "ba411359811204ecb625763a0d20caba5b14d3fd196277160471469becd19077"),
        (["verify", "--r", "3", "--k", "1"],
         "fa524c8fe1883b33647c71c85d49d6aba9f37d8abaf0f8bf72234f7af9c0a1a0"),
        (["verify", "--r", "5", "--k", "1"],
         "a6e4fb16099325c2aee45872ed9bd707731bc56b90a7cd1a82775e503634c457"),
        (["verify", "--r", "7", "--k", "6"],
         "74e352164beeacd1a18378c7f140d201f51a6957da094b4e366461181901bf1a"),
    ], ids=["spectrum-3-1-csv", "spectrum-8-1-csv", "spectrum-7-6-json",
            "verify-8-1", "verify-3-1", "verify-5-1", "verify-7-6"])
    def test_output_digest(self, tmp_path, args, digest):
        out = tmp_path / "out"
        assert main([*args, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_rank_and_spectrum_json_run_no_floquet_propagation(monkeypatch, tmp_path,
                                                           capsys):
    def boom(*args, **kwargs):
        raise AssertionError("Floquet propagation on a production path")

    monkeypatch.setattr(hs, "_propagate", boom)
    hs._galerkin_blocks.cache_clear()
    assert hs.extremal_rank(8, 1).rank_i == 30
    assert main(["rank", "--sweep", "3"]) == 0
    out = tmp_path / "lines.json"
    assert main(["spectrum", "--r", "5", "--k", "2", "--format", "json",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["params"]["n"] == 7
    out = tmp_path / "lines.csv"
    assert main(["spectrum", "--r", "5", "--k", "2", "--format", "csv",
                 "--out", str(out)]) == 0
    assert out.read_text().startswith("p,branch_index,gamma,parity,psi_target\n")


class TestArea:
    def test_prints_quadrature_and_closed_form(self, capsys):
        assert main(["area", "--r", "3", "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert "area_quadrature=" in out
        assert "area_closed_form=" in out
        assert "Lambda_1=" in out

    def test_failed_comparison_exits_2(self, monkeypatch, capsys):
        """A quadrature 2e-9 off the closed form fails the area_identity
        check, as in verify: area prints its three lines, names the failed
        check on stderr and exits 2."""
        closed = sm.area_closed_form(derive_params(3, 1))
        monkeypatch.setattr(vf, "area_quadrature", lambda params: closed * (1.0 + 2e-9))
        assert main(["area", "--r", "3", "--k", "1"]) == 2
        out, err = capsys.readouterr()
        assert [line.split("=")[0] for line in out.splitlines()] == [
            "area_quadrature", "area_closed_form", "Lambda_1"]
        assert "FAILED: [FAIL] area_identity" in err


_LAMBDA_FIELD = re.compile(r'"(?:lambda_functional|lambda_value)": (\S+),\n')


@lru_cache(maxsize=None)
def _sweep_lambdas(rmax: int) -> dict:
    """(rank_i, Lambda as printed) of each row of rank --sweep rmax, by pair."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["rank", "--sweep", str(rmax)]) == 0
    return {(int(row["r"]), int(row["k"])): (int(row["rank_i"]), row["lambda_functional"])
            for row in csv.DictReader(io.StringIO(out.getvalue()))}


def _printed_lambdas(r: int, k: int, work: Path) -> tuple:
    """(i, Lambda) of area's Lambda_i line, then (rank_i, Lambda) of the
    rank report and (rank_i, lambda_value) of the verify report, each
    Lambda as the text printed, not a parsed float."""
    pair = ["--r", str(r), "--k", str(k)]
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["area", *pair]) == 0
    i, value = re.fullmatch(r"Lambda_(\d+)=(\S+)", out.getvalue().splitlines()[2]).groups()
    printed = [(int(i), value)]
    for command in ("rank", "verify"):
        path = work / f"{command}.json"
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert main([command, *pair, "--out", str(path)]) in (0, 2)
        text = path.read_text()
        printed.append((json.loads(text)["rank_i"], _LAMBDA_FIELD.search(text).group(1)))
    return tuple(printed)


def test_one_lambda_for_every_pair_to_r8(tmp_path):
    """area, rank, rank --sweep and verify print the same rank and the
    same 17 digits of Lambda for every pair with r <= 8."""
    sweep = _sweep_lambdas(8)
    assert set(sweep) == set(sm.admissible_pairs(8))
    for pair, row in sweep.items():
        assert _printed_lambdas(*pair, tmp_path) == (row, row, row), pair


@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(sm.admissible_pairs(40)))
def test_one_lambda_for_a_sample_to_r40(tmp_path_factory, pair):
    """As above, for a fixed sample of twelve pairs with r <= 40, each
    against its row of rank --sweep 40."""
    row = _sweep_lambdas(40)[pair]
    assert _printed_lambdas(*pair, tmp_path_factory.mktemp("lambda")) == (row, row, row)


class TestVerify:
    def test_verify_passes_and_is_byte_identical(self, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(["verify", "--r", "3", "--k", "1", "--out", str(out1)]) == 0
        assert main(["verify", "--r", "3", "--k", "1", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        assert doc["passed"] is True
        assert doc["rank_i"] == 1
        assert doc["topology"] == "KleinBottle"
        assert {c["name"] for c in doc["checks"]} >= {
            "sphere_constraint", "conformality", "takahashi_identity",
            "isometry_pullback", "orbit_geodesic", "area_identity",
            "rank_matches_formula", "multiplicity_is_5"}


    def test_failed_check_line_states_residual_at_or_above_threshold(self, tmp_path,
                                                                     capsys):
        # (42, 41) is past the range verify passes: E1 drifts 12% above 1e-8
        out = tmp_path / "r42.json"
        assert main(["verify", "--r", "42", "--k", "41", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "FAILED: [FAIL] first_integral_E1_drift: residual 1.118e-08 >= 1.0e-08\n")
        drift = [c for c in json.loads(out.read_text())["checks"]
                 if c["name"] == "first_integral_E1_drift"]
        assert drift[0]["residual"] >= drift[0]["threshold"]
        assert str(CheckResult("x", 1e-9, 1e-8)) == "[pass] x: residual 1.000e-09 < 1.0e-08"

    def test_verify_6_1_reports_rank_22(self, tmp_path):
        out = tmp_path / "r61.json"
        assert main(["verify", "--r", "6", "--k", "1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["rank_i"] == 22
        assert doc["passed"] is True

    def test_each_entry_carries_its_check_context(self, tmp_path):
        out = tmp_path / "r81.json"
        assert main(["verify", "--r", "8", "--k", "1", "--out", str(out)]) == 0
        entries = json.loads(out.read_text())["checks"]
        checks = vf.full_report(8, 1).checks
        assert [(e["name"], e["context"]) for e in entries] == [
            (c.name, c.context) for c in checks]
        assert sum(bool(e["context"]) for e in entries) >= 5


class TestExitCodes:
    @pytest.mark.parametrize("command", ["classify", "spectrum", "immerse", "verify",
                                         "rank"])
    def test_unwritable_out_exits_1(self, command, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        assert main([command, "--r", "3", "--k", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"cannot write {out}: No such file or directory\n"

    def test_failed_check_exits_2(self, monkeypatch, tmp_path):
        from lawson_bipolar import cli as climod
        from lawson_bipolar.verification import CheckResult, FullReport

        def fake_report(r, k, strict=False):
            return FullReport(params=derive_params(r, k), rank_i=6,
                              multiplicity=5, lambda_value=1.0, area=1.0,
                              checks=(CheckResult("broken", 1.0, 1e-9),))

        monkeypatch.setattr(climod.vf, "full_report", fake_report)
        out = tmp_path / "fail.json"
        assert main(["verify", "--r", "2", "--k", "1", "--out", str(out)]) == 2
        assert json.loads(out.read_text())["passed"] is False

    def test_nan_residual_fails_and_the_report_parses(self, monkeypatch, tmp_path, capsys):
        # README: a NaN residual fails its check; the report must still be JSON
        orbit_space_checks = vf.orbit_space_checks

        def first_nan(params):
            first, *rest = orbit_space_checks(params)
            return [replace(first, residual=math.nan), *rest]

        monkeypatch.setattr(vf, "orbit_space_checks", first_nan)
        out = tmp_path / "nan.json"
        assert main(["verify", "--r", "3", "--k", "1", "--out", str(out)]) == 2
        assert '"residual": NaN,' in out.read_text()
        doc = json.loads(out.read_text())
        assert doc["passed"] is False
        nan = [c for c in doc["checks"] if math.isnan(c["residual"])]
        assert [c["passed"] for c in nan] == [False]
        assert "residual nan" in capsys.readouterr().err

    def test_near_double_weierstrass_root_passes(self, tmp_path):
        # (n, m) = (54, 1): the phi2 row's cubic has two roots one float
        # apart, and the Newton polish of its roots divided by a zero slope
        out = tmp_path / "verify.json"
        assert main(["verify", "--r", "55", "--k", "53", "--out", str(out)]) == 0
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        assert checks["phi_weierstrass_vs_theta"]["residual"] < 1e-14

    def test_numerical_failure_exits_3(self, monkeypatch):
        from lawson_bipolar import cli as climod
        from lawson_bipolar.hill_spectrum import SpectrumMismatchError

        def boom(r, k):
            raise SpectrumMismatchError("synthetic mismatch")

        monkeypatch.setattr(climod.hs, "extremal_rank", boom)
        assert main(["rank", "--r", "2", "--k", "1"]) == 3

    def test_excluded_direction_failure_exits_3(self, monkeypatch, capsys):
        from lawson_bipolar import cli as climod

        # with its (12, 34) pair swapped the rotated wedge leaves the S^4 equator
        wedge6 = climod.sm._wedge6
        monkeypatch.setattr(climod.sm, "_wedge6", lambda x, y: wedge6(x, y)[[1, 0, 2, 3, 4, 5]])
        assert main(["immerse", "--r", "2", "--k", "1", "--grid", "4"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: orthogonality")
        assert "at (u, v) = (" in err


class TestArgumentValidation:
    def test_rank_ignores_env_tolerance(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("LAWSON_BIPOLAR_TOL", "1e-3")
        out = tmp_path / "rank.json"
        assert main(["rank", "--r", "8", "--k", "1", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == RANK_8_1_DIGEST

    def test_spectrum_csv_ignores_env_tolerance(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("LAWSON_BIPOLAR_TOL", "nope")
        out = tmp_path / "lines.csv"
        assert main(["spectrum", "--r", "8", "--k", "1", "--format", "csv",
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == SPECTRUM_8_1_CSV_DIGEST

    def test_bad_grid(self, capsys):
        assert main(["immerse", "--r", "2", "--k", "1", "--grid", "1"]) == 1

    # every flag a subcommand does not honour is a usage error
    @pytest.mark.parametrize("argv", [
        ["classify", "--tol", "1e-9"], ["classify", "--grid", "8"],
        ["classify", "--format", "csv"], ["classify", "--strict"],
        ["spectrum", "--grid", "8"], ["spectrum", "--strict"],
        ["spectrum", "--tol", "1e-9"],
        pytest.param(["spectrum", "--format", "csv", "--tol", "1e-9"],
                     id="spectrum-csv-tol"),
        ["immerse", "--tol", "1e-9"], ["immerse", "--strict"],
        ["verify", "--tol", "1e-9"], ["verify", "--grid", "8"],
        ["verify", "--format", "json"],
        ["rank", "--grid", "8"], ["rank", "--format", "csv"], ["rank", "--strict"],
        ["rank", "--tol", "1e-9"],
        ["area", "--tol", "1e-9"], ["area", "--grid", "8"], ["area", "--out", "f"],
        ["area", "--format", "json"], ["area", "--strict"],
    ], ids=lambda argv: "-".join(a.lstrip("-") for a in argv[:2]))
    def test_flag_not_honoured_is_rejected(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--r", "2", "--k", "1", *argv[1:]])
        assert exc.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--r", "2", "--k", "1", "--format", "xml"],
        ["rank", "--r", "2", "--k", "1", "--bogus"],
        ["rank", "--r", "two", "--k", "1"],
        ["rank", "--sweep", "4", "--jobs", "2", "--out", "table.csv"],
        ["nope"],
        [],
    ], ids=["bad-choice", "unknown-flag", "bad-int", "removed-jobs", "unknown-command",
            "no-command"])
    def test_usage_errors_exit_1(self, argv, tmp_path, monkeypatch, capsys):
        # exit 2 is reserved for a failed verification check
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "table.csv").exists()

    # a flag that the rest of the invocation leaves unread is a usage error
    @pytest.mark.parametrize("argv, message", [
        (["--sweep", "1", "--r", "9", "--k", "5"], "--sweep takes no --r or --k"),
        (["--sweep", "3", "--k", "1"], "--sweep takes no --r or --k"),
        (["--sweep", "3", "--r", "2"], "--sweep takes no --r or --k"),
        (["--sweep", "0", "--r", "3", "--k", "1"], "--sweep takes no --r or --k"),
    ], ids=["sweep-with-r-k", "sweep-with-k", "sweep-with-r", "sweep-0-with-r-k"])
    def test_unread_rank_flag_is_rejected(self, argv, message, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["rank", *argv, "--out", str(out)])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert message in err
        assert not out.exists()

    def test_negative_sweep(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert main(["rank", "--sweep", "-3", "--out", str(out)]) == 1
        assert not out.exists()

    # --sweep 0 is a sweep over no pair, as --sweep 1 is
    @pytest.mark.parametrize("argv", [["--sweep", "0"]], ids=["sweep-0"])
    def test_sweep_0_writes_the_header_alone(self, argv, capsys):
        assert main(["rank", *argv]) == 0
        assert capsys.readouterr().out == (
            "r,k,n,m,topology,parity_class,rank_i,rank_formula,"
            "multiplicity,lambda_functional\n")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Usage errors exit 1: argparse's own code 2 means a failed check here."""
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lawson-bipolar",
        description="Bipolar Lawson surfaces: classification, Hill spectra, "
                    "immersion sampling, and verification.")
    parser.set_defaults(grid=64, out="", fmt="json", strict=False, sweep=None)
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
    return parser


_PARSED_FIELDS = ("handler", "r", "k", "grid", "out", "fmt", "strict", "sweep")


def _outcome(parse, argv):
    """(the parsed fields, or the exit code, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            args = parse(list(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()
    return tuple(getattr(args, name) for name in _PARSED_FIELDS), out.getvalue(), err.getvalue()


_INTS = ["0", "1", "2", "3", "8", "12", "-3"]
#: values each flag accepts; None for the switch --strict
_GOOD_VALUES = {"r": _INTS, "k": _INTS, "grid": _INTS, "sweep": _INTS, "strict": [None],
                "out": ["out.json", "-", "a b", "-5"], "format": ["json", "csv"]}
_BAD_VALUES = ["two", "1.5", "", "-1e3", "-x", "xml", "-2.5"]
_words = st.sampled_from([f"--{name}" for name in cli._FLAGS] + ["--tol", "--help", "-h"])
# prefixes from two characters on: "--" alone ends the options, "--=x"
# is a prefix of every flag
_prefix = _words.flatmap(lambda word: st.integers(2, len(word)).map(lambda n: word[:n]))
_value = st.sampled_from([*_INTS, "json", "csv", "out.json", *_BAD_VALUES])


def _honoured_pair(command):
    """A flag the subcommand honours with a value it accepts."""
    names = cli._honoured(command) if command in _SUBCOMMANDS else list(cli._FLAGS)
    return st.sampled_from(names).flatmap(lambda name: st.sampled_from(_GOOD_VALUES[name]).map(
        lambda value: (f"--{name}",) if value is None else (f"--{name}", value)))


def _chunks(command):
    good = _honoured_pair(command)
    return st.lists(st.one_of(
        good, good, good, st.tuples(_prefix, _value),
        st.tuples(_prefix, _value).map(lambda t: (f"{t[0]}={t[1]}",)),
        st.tuples(_words | _prefix | _value
                  | st.sampled_from(["foo", "-r", "-5", "-hh", "-hx", "---x", "rank"]))),
        max_size=5).map(lambda chunks: [word for chunk in chunks for word in chunk])


_argv = st.tuples(
    st.sampled_from([[]] * 24 + [["-h"], ["--he"], ["--bogus"], ["-x"], ["--"], ["-h="]]),
    st.sampled_from([*_SUBCOMMANDS, *_SUBCOMMANDS, "nope", ""]),
).flatmap(lambda t: _chunks(t[1]).map(lambda rest: [*t[0], t[1], *rest]))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(_argv)
def test_parser_matches_argparse(argv):
    """The table-driven parser against argparse's parser as the CLI built
    it before: the same fields where argparse accepts, help on stdout
    where it prints help, and exit 1 with the same error line where it
    rejects.  No draw gives a flag the explicit value "--", which argparse
    turns into an empty list."""
    want, want_out, want_err = _outcome(_build_parser().parse_args, argv)
    got, got_out, got_err = _outcome(cli._parse, argv)
    if isinstance(want, tuple):
        assert (got, got_out, got_err) == (want, "", ""), argv
    elif want == 0:
        assert got == 0 and got_out and not got_err, argv
    else:
        assert want == 1 and got == 1 and got_out == "", argv
        assert got_err.startswith("usage: "), argv
        assert got_err.splitlines()[-1] == want_err.splitlines()[-1], argv


@pytest.mark.parametrize("argv", [["-h"], ["--help"], *([name, "--help"] for name in _SUBCOMMANDS)],
                         ids=lambda argv: "-".join(argv))
def test_help_names_every_subcommand_and_flag(argv, capsys):
    """Help goes to stdout and exits 0; the overview names every
    subcommand with its flags, a subcommand's help every flag it honours."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    names = list(_SUBCOMMANDS) if len(argv) == 1 else argv[:1]
    for name in names:
        assert name in captured.out
        for flag in ("r", "k", *_SUBCOMMANDS[name][2]):
            assert f"--{flag}" in captured.out, (name, flag)


def test_flag_equals_value_writes_the_same_rank_bytes(tmp_path):
    out = tmp_path / "rank.json"
    assert main(["rank", "--r=8", "--k=1", f"--out={out}"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RANK_8_1_DIGEST


@pytest.mark.parametrize("argv", [["rank", "--r"], ["rank", "--out", "--r", "2"]],
                         ids=["value-missing", "option-as-value"])
def test_flag_without_its_value_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ")
    assert "expected one argument" in captured.err


SRC = Path(__file__).resolve().parents[1] / "src"


def _run_python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})


def test_cli_import_loads_no_scipy():
    """The package needs numpy alone, so the CLI import must not pull any
    scipy module in."""
    code = ("import lawson_bipolar.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_argparse():
    """The CLI reads its arguments from its own tables, so the import must
    not pull in argparse or the gettext it loads."""
    code = ("import lawson_bipolar.cli, sys; "
            "print(sorted(m for m in ('argparse', 'gettext') if m in sys.modules))")
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_process_pool():
    """The sweep runs in one process: the CLI import must not pull in
    concurrent.futures or multiprocessing."""
    code = ("import lawson_bipolar.cli, sys; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_verify_loads_no_numpy_random(tmp_path):
    """The battery's sample points are a deterministic sequence, so a
    verify run must not import numpy.random."""
    out = tmp_path / "verify.json"
    code = ("import sys; from lawson_bipolar.cli import main; "
            f"code = main(['verify', '--r', '3', '--k', '1', '--out', {str(out)!r}]); "
            "print(code, 'numpy.random' in sys.modules)")
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 False"


def test_verify_compiles_and_imports_nothing(tmp_path):
    """Once the CLI is imported, a verify run is arithmetic alone: it
    compiles no source, execs no code and imports no further module."""
    out = tmp_path / "verify.json"
    code = ("import builtins, sys; from lawson_bipolar.cli import main\n"
            "def refuse(*args, **kwargs):\n"
            "    raise AssertionError('compile or exec during verify')\n"
            "before = set(sys.modules)\n"
            "builtins.compile = builtins.exec = refuse\n"
            f"code = main(['verify', '--r', '8', '--k', '1', '--out', {str(out)!r}])\n"
            "print(code, sorted(set(sys.modules) ^ before))")
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"


def test_verify_runs_without_scipy(tmp_path):
    out = tmp_path / "verify.json"
    code = ("import sys; sys.modules['scipy'] = None; "
            "from lawson_bipolar.cli import main; "
            f"sys.exit(main(['verify', '--r', '8', '--k', '1', '--out', {str(out)!r}]))")
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["passed"] is True


def test_layer_probe_call_forms():
    """The calls that perfbench/trace.py probe makes, with its arguments, so
    that a rename or a signature change fails here rather than as a failed
    traced run."""
    params = derive_params(8, 1)
    assert isinstance(jacobi_am(0.5, params.modulus), float)
    assert all(isinstance(x, float) for x in jacobi_sncndn(0.5, params.modulus))
    assert closed_form_theta(0.5, params).shape == (6,)
    z1, dz1, z2, dz2 = hs.floquet(1.0, 1.0, params)
    assert abs(z1 * dz2 - z2 * dz1 - 1.0) < 1e-10
    assert integrate_system(params, tol=1e-13, n_points=1024).states.shape == (1024, 6)
    for width in (1, 8, 32):
        grid = np.linspace(0.5, params.n - 0.5, width)
        assert hs.branch_monotonicity(params, 0, grid).gammas.shape == (width,)
    residuals = hs.extremal_rank(8, 1).residuals
    anchors = [v for key, v in residuals.items() if key.startswith("anchor")]
    assert len(anchors) == 4 and max(anchors) < 1e-7
    mesh = derive_params(2, 1)
    rows = sm.immersion_rows(mesh, 128, 128)
    for writer in (sm.write_immersion_csv, sm.write_immersion_json):
        stream = io.StringIO()
        writer(stream, mesh, rows)
        assert stream.getvalue().count("\n") > 128 * 128


_ROOT = SRC.parent
_WORKLOADS = [w["name"] for w in json.loads((_ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _no_constant(name: str):
    raise ValueError(f"{name} is not a number")


@pytest.mark.parametrize("mode, workload", [("replay", w) for w in _WORKLOADS]
                         + [("probe", _WORKLOADS[0])])
def test_traced_run_writes_a_finite_result(tmp_path, mode, workload):
    """perfbench/trace.py, as the traced benchmark run starts it: it exits
    0, reports no error, every replayed command exits 0, and every metric
    is a finite number.  json.dump writes NaN or Infinity for a non-finite
    float, which is not JSON, so the result is parsed without them."""
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "perfbench" / "trace.py"), mode, "--workload", workload,
         "--seed", "0", "--result", str(result), "--spans", str(tmp_path / "spans.npz")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(SRC), "OMP_NUM_THREADS": "1",
             "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(result.read_text(), parse_constant=_no_constant)
    assert doc["errors"] == []
    if mode == "replay":
        assert doc["exit_codes"] and set(doc["exit_codes"]) == {0}
    assert doc["metrics"]
    for name, (value, unit) in doc["metrics"].items():
        assert isinstance(value, (int, float)) and math.isfinite(value), (name, value, unit)


#: the per-layer metrics the benchmark lists, and the two of them that
#: perfbench/run.py computes itself rather than reads from a trace child
_PER_LAYER = {m["name"] for m in json.loads((_ROOT / "BENCHMARK.json").read_text())["per_layer"]}
_RUN_METRICS = {"cli.output_bytes", "trace.overhead_s"}


def test_traced_result_holds_exactly_the_listed_metrics(tmp_path):
    """The two trace children of a traced rank-sweep run, started as
    perfbench/run.py starts them: hermetic environment, PYTHONPATH src
    alone, the scratch directory as working directory.  Each result
    parses with NaN and Infinity rejected, every value is finite, and
    their names with run.py's own two are exactly the per-layer metrics
    of BENCHMARK.json: a missing or extra name, or a non-finite value,
    makes the run's result line unreadable to the benchmark."""
    env = {key: val for key, val in os.environ.items()
           if key not in ("LAWSON_BIPOLAR_TOL", "PYTHONPATH")}
    env.update(PYTHONPATH=str(SRC), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    names = set(_RUN_METRICS)
    for mode in ("replay", "probe"):
        result = tmp_path / f"trace-{mode}.json"
        proc = subprocess.run(
            [sys.executable, str(_ROOT / "perfbench" / "trace.py"), mode,
             "--workload", "rank-sweep", "--seed", "0", "--result", str(result),
             "--spans", str(tmp_path / f"{mode}.spans.npz")],
            cwd=tmp_path, env=env, stdin=subprocess.DEVNULL, capture_output=True,
            text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(result.read_text(), parse_constant=_no_constant)
        assert doc["errors"] == [], mode
        for name, (value, _) in doc["metrics"].items():
            assert isinstance(value, (int, float)) and math.isfinite(value), (mode, name)
        names |= set(doc["metrics"])
    assert names == _PER_LAYER, (sorted(names - _PER_LAYER), sorted(_PER_LAYER - names))


#: the public names perfbench/trace.py keys its spans on, by layer: the
#: probe's calls and every check full_report runs
TRACED_NAMES = {
    "special_functions": ("jacobi_sncndn", "jacobi_am"),
    "surface_model": ("metric_f_array", "write_immersion_csv", "write_immersion_json"),
    "phi_system": ("integrate_system", "closed_form_theta"),
    "hill_spectrum": ("floquet", "surface_lines"),
    "verification": ("full_report", "profile_checks", "immersion_agreement_check",
                     "invariance_checks", "isometry_checks", "orbit_space_checks",
                     "floquet_structure_checks", "eigenfunction_zero_checks",
                     "area_quadrature"),
}


def test_traced_names_are_plain_functions_of_their_layer():
    """The tracer wraps a name only when it is a plain function defined in
    its module; a cache or an alias there would drop the name's spans."""
    for layer, names in TRACED_NAMES.items():
        mod = importlib.import_module(f"lawson_bipolar.{layer}")
        for name in names:
            fn = getattr(mod, name)
            assert inspect.isfunction(fn), (layer, name)
            assert fn.__module__ == mod.__name__, (layer, name)


def test_full_report_calls_each_check_by_its_module_name(monkeypatch):
    """The tracer rebinds the checks' names in verification, so full_report
    must look each one up there, once per report."""
    from lawson_bipolar import verification as vf

    checks = TRACED_NAMES["verification"][1:]
    calls = []
    for name in checks:
        def counted(*args, _name=name, _fn=getattr(vf, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(vf, name, counted)
    vf.full_report(3, 1)
    assert sorted(calls) == sorted(checks)


#: the private names one module reads from a sibling, with the reason each
#: read stays; any other read of a sibling's "_" name fails the test below
ALLOWED_PRIVATE_READS = {
    ("phi_system", "hill_spectrum", "_CV_A"):
        "the profile ODE and the Floquet oracle run one RK8 tableau",
    ("phi_system", "hill_spectrum", "_CV_B"):
        "the profile ODE and the Floquet oracle run one RK8 tableau",
    ("phi_system", "hill_spectrum", "_steps_for"):
        "both RK8 integrators take their step count from one rule",
    ("surface_model", "special_functions", "_ellip_f_array"):
        "z(v) is F(v, kh)/(n+m), and F has no public use of its own",
    ("surface_model", "special_functions", "_finite"):
        "the immersion rejects a NaN or an infinity as the special functions do",
    ("verification", "surface_model", "_project5"):
        "the closed-form column is projected as the wedge route is",
}


def _private_reads() -> set:
    """(reader, sibling, name) for every "_" name of a sibling module that
    a module of the package imports or reads through a module alias."""
    package = SRC / "lawson_bipolar"
    siblings = {path.stem for path in package.glob("*.py")}

    def sibling(module, level):
        name = module if level == 1 else (module or "").removeprefix("lawson_bipolar.")
        return name if name in siblings else None

    reads = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = sibling(node.module, node.level)
                for alias in node.names:
                    if source is not None and alias.name.startswith("_"):
                        reads.add((path.stem, source, alias.name))
                    elif node.module in (None, "lawson_bipolar") and alias.name in siblings:
                        aliases[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname and sibling(alias.name, 0):
                        aliases[alias.asname] = sibling(alias.name, 0)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases and node.attr.startswith("_")
                    and not node.attr.startswith("__")):
                reads.add((path.stem, aliases[node.value.id], node.attr))
    return reads


def test_cross_module_private_reads_are_listed():
    assert _private_reads() == set(ALLOWED_PRIVATE_READS)


#: every cache in the package, with the reason it stays; any other
#: lru_cache, cache or cached_property fails the test below
ALLOWED_CACHES = {
    ("hill_spectrum", "_galerkin_blocks"):
        "the rank, the line scan and the eigenfunction samples of one surface "
        "read the reduced blocks: three times per rank report, seven per verify",
    ("surface_model", "SurfaceParams.modulus"):
        "each surface builds its profile modulus once",
    ("surface_model", "SurfaceParams.h_modulus"):
        "each surface builds its H1 modulus once",
}
_CACHE_DECORATORS = {"lru_cache", "cache", "cached_property"}


def _caches() -> set:
    """(module, qualified name) of every definition in the package that
    carries lru_cache, cache or cached_property, bare, called or read
    through functools."""
    found = set()

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                for dec in child.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    label = getattr(target, "id", getattr(target, "attr", None))
                    if label in _CACHE_DECORATORS:
                        found.add((module, name))
                visit(child, module, name + ".")

    for path in sorted((SRC / "lawson_bipolar").glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "")
    return found


def test_every_cache_is_listed():
    assert _caches() == set(ALLOWED_CACHES)


def _mu_readers() -> set:
    """(module, qualified name of the enclosing definition) of every read
    of an attribute named mu in the package, "" at module level."""
    found = set()

    def visit(node, module, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, f"{name}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Attribute) and child.attr == "mu":
                found.add((module, name))
            visit(child, module, name)

    for path in sorted((SRC / "lawson_bipolar").glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "")
    return found


def test_only_the_cluster_certificate_reads_mu():
    """The blocks' mu decide the rank and the multiplicity through one
    rule, the certificate of the cluster at lambda = 2."""
    assert _mu_readers() == {("hill_spectrum", "_cluster")}


@pytest.mark.parametrize("path", sorted((SRC / "lawson_bipolar").glob("[!_]*.py")),
                         ids=lambda path: path.stem)
def test_all_lists_the_public_functions_and_classes(path):
    """A module's __all__ holds, once each, names the module has; its
    functions and classes are exactly the public ones the module defines,
    and its other names are module constants."""
    mod = importlib.import_module(f"lawson_bipolar.{path.stem}")
    defined = {name for name, obj in vars(mod).items()
               if not name.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == mod.__name__}
    listed = mod.__all__
    assert len(set(listed)) == len(listed)
    assert [name for name in listed if not hasattr(mod, name)] == []
    assert {name for name in listed
            if inspect.isfunction(getattr(mod, name))
            or inspect.isclass(getattr(mod, name))} == defined
