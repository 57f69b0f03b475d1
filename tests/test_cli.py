"""Tests for the command-line interface: output shapes, exit codes, and
byte-level determinism."""

import hashlib
import json

import numpy as np
import pytest

from lawson_bipolar.cli import RunConfig, main, run, _json17


class TestJsonFormatter:
    def test_round_trips_doubles(self):
        doc = {"x": 0.1 + 0.2, "n": 3, "flag": True,
               "items": [1.0 / 3.0, "s"]}
        parsed = json.loads(_json17(doc))
        assert parsed["x"] == 0.1 + 0.2
        assert parsed["items"][0] == 1.0 / 3.0
        assert parsed["flag"] is True


class TestClassify:
    def test_output_line(self, capsys):
        assert main(["classify", "--r", "3", "--k", "1"]) == 0
        assert capsys.readouterr().out.strip() == "KleinBottle, n=2, m=1"

    def test_invalid_pair_exit_code(self, capsys):
        assert main(["classify", "--r", "4", "--k", "2"]) == 1


class TestRank:
    def test_2_1(self, capsys):
        assert main(["rank", "--r", "2", "--k", "1"]) == 0
        assert capsys.readouterr().out.strip() == "i=6, torus, 4r-2"

    def test_5_3(self, capsys):
        assert main(["rank", "--r", "5", "--k", "3"]) == 0
        assert capsys.readouterr().out.strip() == "i=3, klein bottle, r-2"

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
        assert lines[0] == "p,branch_index,gamma,parity,z2_b,dz1_b,psi"
        assert len(lines) > 3

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
    and the csv/json module writers the vectorized path replaced.  The
    (2, 1) grid-78 mesh contains v values whose squared cosine or sine
    rounds differently under x * x than under Python's float power."""

    @pytest.mark.parametrize("args, digest", [
        (["--r", "2", "--k", "1", "--grid", "16", "--format", "csv"],
         "8a548b89238196c9be7e6c1dc1dd4774801e1f7dfd79b0086495359d90fa35b1"),
        (["--r", "5", "--k", "2", "--grid", "16", "--format", "json"],
         "0e918055eca8c9740b6b705586968762b1d96aa4da5089f52a0ce970007436cf"),
        (["--r", "2", "--k", "1", "--grid", "78", "--format", "csv"],
         "95ac5202df7a22f8982f73288062ac3944e1cf7e94f4135964f9066e32de6095"),
    ], ids=["2-1-grid16-csv", "5-2-grid16-json", "2-1-grid78-csv"])
    def test_output_digest(self, tmp_path, args, digest):
        out = tmp_path / "mesh"
        assert main(["immerse", *args, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestArea:
    def test_prints_quadrature_and_closed_form(self, capsys):
        assert main(["area", "--r", "3", "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert "area_quadrature=" in out
        assert "area_closed_form=" in out
        assert "Lambda_1=" in out


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


    def test_verify_6_1_reports_rank_22(self, tmp_path):
        out = tmp_path / "r61.json"
        assert main(["verify", "--r", "6", "--k", "1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["rank_i"] == 22
        assert doc["passed"] is True


class TestExitCodes:
    def test_failed_check_exits_2(self, monkeypatch, tmp_path):
        from lawson_bipolar import cli as climod
        from lawson_bipolar.verification import CheckResult, FullReport
        from lawson_bipolar.surface_model import derive_params

        def fake_report(r, k, strict=False):
            return FullReport(params=derive_params(r, k), rank_i=6,
                              multiplicity=5, lambda_value=1.0, area=1.0,
                              checks=(CheckResult("broken", 1.0, 1e-9),))

        monkeypatch.setattr(climod.vf, "full_report", fake_report)
        out = tmp_path / "fail.json"
        assert main(["verify", "--r", "2", "--k", "1", "--out", str(out)]) == 2
        assert json.loads(out.read_text())["passed"] is False

    def test_numerical_failure_exits_3(self, monkeypatch):
        from lawson_bipolar import cli as climod
        from lawson_bipolar.hill_spectrum import SpectrumMismatchError

        def boom(r, k, tol=None):
            raise SpectrumMismatchError("synthetic mismatch")

        monkeypatch.setattr(climod.hs, "extremal_rank", boom)
        assert main(["rank", "--r", "2", "--k", "1"]) == 3

    def test_excluded_direction_failure_exits_3(self, monkeypatch, capsys):
        from lawson_bipolar import cli as climod

        # without the rotation A the wedge leaves the S^4 equator
        monkeypatch.setattr(climod.sm, "_A_BLOCKS", np.eye(6))
        assert main(["immerse", "--r", "2", "--k", "1", "--grid", "4"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: orthogonality")
        assert "at (u, v) = (" in err


class TestArgumentValidation:
    def test_bad_tolerance(self, capsys):
        assert main(["rank", "--r", "2", "--k", "1", "--tol", "1e-3"]) == 1

    def test_env_var_tolerance(self, monkeypatch, capsys):
        monkeypatch.setenv("LAWSON_BIPOLAR_TOL", "1e-3")
        assert main(["rank", "--r", "2", "--k", "1"]) == 1
        monkeypatch.setenv("LAWSON_BIPOLAR_TOL", "1e-9")
        assert main(["rank", "--r", "2", "--k", "1"]) == 0

    def test_bad_grid(self, capsys):
        assert main(["immerse", "--r", "2", "--k", "1", "--grid", "1"]) == 1

    def test_run_rejects_unknown_command(self):
        assert run(RunConfig(command="nope", r=2, k=1)) == 1

    # every flag a subcommand does not honour is a usage error
    @pytest.mark.parametrize("argv", [
        ["classify", "--tol", "1e-9"], ["classify", "--grid", "8"],
        ["classify", "--format", "csv"], ["classify", "--strict"],
        ["spectrum", "--grid", "8"], ["spectrum", "--strict"],
        ["immerse", "--tol", "1e-9"], ["immerse", "--strict"],
        ["verify", "--tol", "1e-9"], ["verify", "--grid", "8"],
        ["verify", "--format", "json"],
        ["rank", "--grid", "8"], ["rank", "--format", "csv"], ["rank", "--strict"],
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
        ["nope"],
        [],
    ], ids=["bad-choice", "unknown-flag", "bad-int", "unknown-command", "no-command"])
    def test_usage_errors_exit_1(self, argv, capsys):
        # exit 2 is reserved for a failed verification check
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1

    def test_negative_sweep(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert main(["rank", "--sweep", "-3", "--out", str(out)]) == 1
        assert not out.exists()

    def test_jobs_below_one(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert main(["rank", "--sweep", "3", "--jobs", "0", "--out", str(out)]) == 1
        assert not out.exists()
