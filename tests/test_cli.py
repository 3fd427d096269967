"""Command-line surface: config handling, output formats, exit codes.

Every invocation goes through ``main(argv)`` in-process; outputs are
parsed back and cross-checked against direct library calls.
"""

import json
import math

from bosegas import cli, condensate
from bosegas.cli import main
from bosegas.condensate import ChargeSpec, Regime, critical_temperature
from bosegas.specfun import AccuracyBudget
from bosegas.thermo import (FieldKind, Geometry, ModelParams, ThermalPoint,
                            mutual_info_neutral)


def parse_csv(text):
    """Return (meta: dict, columns: list, rows: list of list-of-str)."""
    meta = {}
    columns = None
    rows = []
    for line in text.strip().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, columns, rows


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


class TestConfigFile:
    def test_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("model.masss = 1.0\n")
        code = main(["mutual-info", "--config", str(cfg)])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    def test_bad_value(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("model.mass = heavy\n")
        code = main(["mutual-info", "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad value" in err and "model.mass" in err

    def test_missing_file(self, capsys):
        code = main(["mutual-info", "--config", "/nonexistent.cfg"])
        assert code == 2

    def test_malformed_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("model.mass 1.0\n")
        code = main(["mutual-info", "--config", str(cfg)])
        assert code == 2
        assert "expected key = value" in capsys.readouterr().err

    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "\n"
            "model.mass = 2.0\n"
            "grid.tmin = 1.5\n"
            "grid.tmax = 1.5\n")
        code, out = run(capsys, ["mutual-info", "--config", str(cfg),
                                 "--mass", "3.0"])
        assert code == 0
        meta, _, _ = parse_csv(out)
        assert float(meta["mass"]) == 3.0
        assert float(meta["tmin"]) == 1.5


class TestMutualInfoNeutral:
    def test_csv_row_matches_library(self, capsys):
        code, out = run(capsys, ["mutual-info", "--mass", "1.0",
                                 "--tmin", "1.0", "--tmax", "1.0",
                                 "--points", "1"])
        assert code == 0
        meta, columns, rows = parse_csv(out)
        assert columns == ["T", "mu", "rho_e", "rho_0", "I_m",
                           "I_m_thermal_part", "S_g", "S_thermal", "error"]
        assert len(rows) == 1
        row = dict(zip(columns, rows[0]))
        params = ModelParams(1.0, 3, 1e4, FieldKind.NEUTRAL_REAL)
        rep = mutual_info_neutral(params, Geometry(), ThermalPoint(1.0),
                                  AccuracyBudget(relative_tolerance=1e-8))
        assert math.isclose(float(row["I_m"]), rep.mutual_information,
                            rel_tol=1e-15)
        assert math.isclose(float(row["I_m_thermal_part"]),
                            rep.boundary_thermal_part, rel_tol=1e-15)
        assert row["error"] == ""
        assert float(meta["cutoff"]) == 1e4      # default 1e4 * mass

    def test_json_structure(self, capsys):
        code, out = run(capsys, ["mutual-info", "--tmin", "1.0",
                                 "--tmax", "2.0", "--points", "3",
                                 "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["command"] == "mutual-info"
        assert payload["meta"]["field_kind"] == "neutral"
        assert len(payload["rows"]) == 3
        assert all(isinstance(r["I_m"], float) for r in payload["rows"])

    def test_numeric_failure_flags_rows_exit_3(self, capsys):
        # |mu| > m fails every row but the table is still written
        code, out = run(capsys, ["mutual-info", "--field-kind", "charged",
                                 "--mu", "1.5", "--tmin", "1.0",
                                 "--tmax", "1.0", "--points", "1"])
        assert code == 3
        _, columns, rows = parse_csv(out)
        row = dict(zip(columns, rows[0]))
        assert "exceeds the mass" in row["error"]
        assert math.isnan(float(row["I_m"]))


class TestMutualInfoFixedCharge:
    def test_sweep_meta_and_phases(self, capsys):
        tc = critical_temperature(
            ChargeSpec(1.0, Regime.NON_RELATIVISTIC), 1.0)
        code, out = run(capsys, [
            "mutual-info", "--charge-density", "1.0", "--regime", "nr",
            "--tmin", f"{0.5 * tc}", "--tmax", f"{2.0 * tc}",
            "--points", "2"])
        assert code == 0
        meta, columns, rows = parse_csv(out)
        assert meta["field_kind"] == "charged"   # defaulted by the charge
        assert meta["resolved_regime"] == "nr"
        assert math.isclose(float(meta["critical_temperature"]), tc,
                            rel_tol=1e-12)
        cold = dict(zip(columns, rows[0]))
        hot = dict(zip(columns, rows[1]))
        assert float(cold["rho_0"]) > 0.0
        assert float(hot["rho_0"]) == 0.0

    def test_tc_refined_solves_tc_once(self, capsys, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return critical_temperature(*args, **kwargs)

        monkeypatch.setattr(cli, "critical_temperature", counted)
        monkeypatch.setattr(condensate, "critical_temperature", counted)
        code, out = run(capsys, [
            "mutual-info", "--charge-density", "30", "--regime", "rel",
            "--tmin", "8", "--tmax", "12", "--points", "3",
            "--spacing", "tc-refined"])
        assert code == 0
        assert len(calls) == 1
        meta, _, rows = parse_csv(out)
        tc = float(meta["critical_temperature"])
        assert any(float(r[0]) == tc for r in rows)


class TestEntropy:
    def test_decomposition_round_trip(self, capsys):
        code, out = run(capsys, ["entropy", "--tmin", "2.0",
                                 "--tmax", "2.0", "--points", "1"])
        assert code == 0
        _, columns, rows = parse_csv(out)
        row = dict(zip(columns, rows[0]))
        parts = (float(row["zero_t_part"])
                 + float(row["boundary_thermal_part"])
                 + float(row["extensive_thermal_part"]))
        assert math.isclose(parts, float(row["S_g"]), rel_tol=1e-14)
        assert math.isclose(float(row["S_thermal"]),
                            -2.0 * float(row["extensive_thermal_part"]),
                            rel_tol=1e-14)


class TestMuSolve:
    def test_requires_charge(self, capsys):
        code = main(["mu-solve", "--tmin", "1.0", "--tmax", "1.0"])
        assert code == 2
        assert "charge.density" in capsys.readouterr().err

    def test_tc_refined_grid(self, capsys):
        tc = critical_temperature(
            ChargeSpec(1.0, Regime.NON_RELATIVISTIC), 1.0)
        code, out = run(capsys, [
            "mu-solve", "--charge-density", "1.0", "--regime", "nr",
            "--tmin", "3.0", "--tmax", "3.7", "--points", "2",
            "--spacing", "tc-refined"])
        assert code == 0
        _, columns, rows = parse_csv(out)
        temps = [float(dict(zip(columns, r))["T"]) for r in rows]
        assert len(temps) == 9                   # 2 base + 7 refined
        assert temps == sorted(temps)
        assert any(math.isclose(t, tc, rel_tol=1e-12) for t in temps)
        phases = [dict(zip(columns, r))["phase"] for r in rows]
        flips = sum(1 for a, b in zip(phases, phases[1:]) if a != b)
        assert flips == 1                        # single transition

    def test_log_spacing_monotone(self, capsys):
        code, out = run(capsys, [
            "mu-solve", "--charge-density", "1e-3", "--regime", "nr",
            "--tmin", "0.01", "--tmax", "1.0", "--points", "5",
            "--spacing", "log"])
        assert code == 0
        _, columns, rows = parse_csv(out)
        temps = [float(dict(zip(columns, r))["T"]) for r in rows]
        ratios = [b / a for a, b in zip(temps, temps[1:])]
        assert all(math.isclose(r, ratios[0], rel_tol=1e-9) for r in ratios)


class TestTc:
    def test_requires_charge(self, capsys):
        assert main(["tc"]) == 2

    def test_matches_library(self, capsys):
        code, out = run(capsys, ["tc", "--charge-density", "1.0",
                                 "--regime", "nr", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        tc = critical_temperature(
            ChargeSpec(1.0, Regime.NON_RELATIVISTIC), 1.0)
        assert math.isclose(payload["rows"][0]["T_C"], tc, rel_tol=1e-12)


class TestDiscontinuity:
    def test_requires_charge_with_explanation(self, capsys):
        code = main(["discontinuity"])
        assert code == 2
        assert "no condensation transition" in capsys.readouterr().err

    def test_nr_payload(self, capsys):
        code, out = run(capsys, ["discontinuity", "--charge-density", "1.0",
                                 "--regime", "nr"])
        assert code == 0
        payload = json.loads(out)
        for key in ("critical_temperature", "left_derivative",
                    "right_derivative", "jump", "analytic_jump",
                    "relative_deviation", "magnitude_relative_deviation",
                    "diagnostics"):
            assert key in payload
        assert abs(payload["relative_deviation"]) < 0.02
        assert payload["diagnostics"]["sign_finding"] is None
        assert payload["diagnostics"]["left"]["converged"] is True


class TestVerify:
    def test_single_family_ndjson(self, capsys):
        code, out = run(capsys, ["verify", "--only", "logsum"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        for line in lines:
            report = json.loads(line)
            assert report["passed"] is True
            assert report["identity_name"] == "log_determinant_derivative_sum"

    def test_unknown_family(self, capsys):
        code = main(["verify", "--only", "nope"])
        assert code == 2
        assert "unknown oracle" in capsys.readouterr().err


class TestOutputPlumbing:
    def test_out_file_and_determinism(self, tmp_path, capsys):
        args = ["mutual-info", "--tmin", "0.8", "--tmax", "1.6",
                "--points", "2", "--format", "json"]
        f1 = tmp_path / "a.json"
        f2 = tmp_path / "b.json"
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        assert capsys.readouterr().out == ""     # nothing on stdout
        assert f1.read_bytes() == f2.read_bytes()

    def test_unwritable_out(self, capsys):
        code = main(["tc", "--charge-density", "1.0", "--regime", "nr",
                     "--out", "/nonexistent-dir/x.csv"])
        assert code == 2


class TestUsage:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_bad_enum_flag(self, capsys):
        assert main(["mutual-info", "--spacing", "cubic"]) == 2

    def test_grid_validation(self, capsys):
        code = main(["mutual-info", "--tmin", "2.0", "--tmax", "1.0",
                     "--points", "3"])
        assert code == 2
        assert "tmax" in capsys.readouterr().err

    def test_points_validation(self, capsys):
        assert main(["mutual-info", "--points", "0"]) == 2
