"""Command-line surface: config handling, output formats, exit codes.

Every invocation goes through ``main(argv)`` in-process; outputs are
parsed back and cross-checked against direct library calls.
"""

import argparse
import dataclasses
import json
import math

import pytest

from bosegas import cli, condensate
from bosegas.cli import main
from bosegas.condensate import ChargeSpec, Regime, critical_temperature
from bosegas.errors import ConvergenceError
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

    def test_refuses_a_charge_flag(self, capsys):
        code = main(["entropy", "--charge-density", "1", "--mu", "0.5"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert "charge.density" in err and "mutual-info" in err

    def test_refuses_a_charge_in_the_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("charge.density = 1.0\n")
        code = main(["entropy", "--config", str(cfg)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert "mutual-info" in err


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


    @pytest.mark.filterwarnings("ignore:non-relativistic gas")
    @pytest.mark.parametrize("charge", [
        ["--charge-density", "1e4", "--regime", "rel", "--tmin", "150",
         "--tmax", "250"],
        ["--charge-density", "1.0", "--regime", "nr", "--tmin", "2.5",
         "--tmax", "4.5"],
    ])
    def test_same_mu_as_fixed_charge_mutual_info(self, capsys, charge):
        # one grid, one lockstep solve: the same bytes in both tables
        grid = [*charge, "--points", "5", "--spacing", "tc-refined"]
        tables = []
        for command in ("mu-solve", "mutual-info"):
            code, out = run(capsys, [command, *grid])
            assert code == 0
            _, columns, rows = parse_csv(out)
            tables.append([{k: r[columns.index(k)]
                            for k in ("T", "mu", "rho_e", "rho_0")}
                           for r in rows])
        assert len(tables[0]) == 12          # 5 base + 7 refined
        assert tables[0] == tables[1]


    def test_negative_density_joined_to_its_flag(self, capsys):
        # --charge-density=-1e4: a separate "-1e4" would parse as a flag
        grid = ["--regime", "rel", "--tmin", "150", "--tmax", "250",
                "--points", "3"]
        tables = []
        for density in ("--charge-density=1e4", "--charge-density=-1e4"):
            code, out = run(capsys, ["mu-solve", density, *grid])
            assert code == 0
            _, columns, rows = parse_csv(out)
            tables.append([dict(zip(columns, r)) for r in rows])
        positive, negative = tables
        assert len(negative) == 3
        for pos, neg in zip(positive, negative):
            assert float(neg.pop("mu")) == -float(pos.pop("mu"))
            assert neg == pos


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
        assert payload["diagnostics"]["route"] == "closed-form"
        assert payload["diagnostics"]["left"]["levels"] == 0

    @pytest.mark.filterwarnings("ignore:sign finding")
    def test_rel_payload_at_high_density(self, capsys):
        code, out = run(capsys, ["discontinuity", "--charge-density", "1e10",
                                 "--regime", "rel"])
        assert code == 0
        payload = json.loads(out)
        tc = payload["critical_temperature"]
        assert abs(payload["jump"] / (math.pi * tc / 9.0) - 1.0) < 1e-11
        assert payload["diagnostics"]["sign_finding"] is not None


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


class TestParserReuse:
    """``main`` builds its parser once per process; no call may leave state
    in it that changes the next one."""

    def test_identical_calls_print_identical_bytes(self, capsys):
        args = ["mutual-info", "--tmin", "0.8", "--tmax", "1.6",
                "--points", "2"]
        first = run(capsys, args)
        assert first[0] == 0
        assert run(capsys, args) == first

    def test_only_does_not_accumulate(self, capsys, monkeypatch):
        selections = []
        monkeypatch.setattr(cli, "run_suite",
                            lambda selection: selections.append(selection)
                            or [])
        assert main(["verify", "--only", "logsum"]) == 0
        assert main(["verify"]) == 0        # every family
        assert main(["verify", "--only", "logsum"]) == 0
        assert selections == [["logsum"], None, ["logsum"]]

    def test_usage_error_leaves_next_call_working(self, capsys):
        assert main(["mutual-info", "--spacing", "cubic"]) == 2
        code, out = run(capsys, ["tc", "--charge-density", "1.0",
                                 "--regime", "nr"])
        assert code == 0
        assert parse_csv(out)[1] == ["T_C", "charge_density", "regime"]

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()


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


class TestFlagsAndKeys:
    def test_each_config_key_has_exactly_one_flag(self):
        attrs = [setting.attr for setting in cli._SETTINGS.values()]
        assert len(set(attrs)) == len(attrs)      # one key per attribute
        parser = cli.build_parser()
        subs = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
        for name in ("mutual-info", "entropy", "mu-solve", "tc",
                     "discontinuity"):
            dests = [a.dest for a in subs.choices[name]._actions
                     if a.dest not in ("help", "config")]
            assert sorted(dests) == sorted(attrs), name
        args = parser.parse_args(["entropy", "--dim", "2"])
        assert cli._build_config(args).dimension == 2

    def test_settings_cover_run_config(self):
        attrs = [setting.attr for setting in cli._SETTINGS.values()]
        fields = [f.name for f in dataclasses.fields(cli.RunConfig)]
        assert sorted(attrs) == sorted(fields)


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


class TestConfigValues:
    """Config-file values meet the same checks as the flags."""

    @pytest.mark.parametrize("key, value, name", [
        ("model.field_kind", "quark", "field_kind"),
        ("charge.regime", "x", "regime"),
        ("grid.spacing", "cubic", "spacing"),
        ("output.format", "xml", "format"),
    ])
    def test_value_outside_allowed_set(self, tmp_path, capsys, key, value,
                                       name):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"charge.density = 1.0\n{key} = {value}\n")
        assert main(["mutual-info", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{name} must be one of" in err and repr(value) in err

    def test_nonpositive_grid_bound(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("grid.tmin = -1\n")
        assert main(["entropy", "--config", str(cfg)]) == 2
        assert "grid bounds must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["entropy", "--tmin", "inf", "--points", "1"],
        ["entropy", "--tmin", "1", "--tmax", "1e400", "--points", "2",
         "--spacing", "log"],
    ])
    def test_infinite_grid_bound(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "grid bounds must be positive and finite" in captured.err
        assert captured.out == ""

    def test_tc_refined_without_charge(self, capsys):
        assert main(["entropy", "--spacing", "tc-refined"]) == 2
        assert "tc-refined" in capsys.readouterr().err


class TestNumericFailures:
    def test_mu_solve_row_failure(self, capsys, monkeypatch):
        solve = cli._solve_states

        def failing_at_two(temps, *args):
            # the grid is solved in one call; each row holds its state
            # or the exception it raised
            return [ConvergenceError("no root, at T = 2") if t == 2.0
                    else state for t, state in zip(temps, solve(temps, *args))]

        monkeypatch.setattr(cli, "_solve_states", failing_at_two)
        code, out = run(capsys, ["mu-solve", "--charge-density", "1.0",
                                 "--regime", "nr", "--tmin", "1.0",
                                 "--tmax", "2.0", "--points", "2"])
        assert code == 3
        lines = out.strip().splitlines()
        assert lines[-1] == "2,nan,nan,nan,nan,,no root; at T = 2"
        assert lines[-2].endswith(",")            # the good row, no error

    @pytest.mark.parametrize("argv", [
        ["entropy", "--tmin", "1e150"],
        ["entropy", "--mass", "1e-300"],
        ["mutual-info", "--charge-density", "1e4", "--regime", "rel",
         "--tmin", "1e300"],
    ])
    def test_overflowing_integrand_is_a_row_error(self, capsys, argv):
        # an overflow or a division by zero inside the integrand fails the
        # row as a non-finite value, with no RuntimeWarning on the way
        assert main([*argv, "--points", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.err == ""
        _, columns, rows = parse_csv(captured.out)
        assert dict(zip(columns, rows[0]))["error"].startswith(
            "integrand returned a non-finite value at p = ")

    def test_critical_temperature_failure(self, capsys, monkeypatch):
        def failing(*args):
            raise ConvergenceError("bracket lost")

        monkeypatch.setattr(cli, "critical_temperature", failing)
        assert main(["tc", "--charge-density", "1.0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numeric failure: bracket lost" in captured.err


_COMMON_META = ["command", "cutoff", "dimension", "field_kind", "mass",
                "points", "rtol", "spacing", "tmax", "tmin", "units", "v2",
                "varea", "version", "vvol"]
_CHARGE = ["--charge-density", "1.0", "--regime", "nr"]
_MI_COLUMNS = ["T", "mu", "rho_e", "rho_0", "I_m", "I_m_thermal_part",
               "S_g", "S_thermal", "error"]


class TestTableLayout:
    """Exact metadata keys and columns of every table command."""

    @pytest.mark.parametrize("argv, extra_meta, columns", [
        (["mutual-info"], ["mu"], _MI_COLUMNS),
        (["mutual-info", *_CHARGE],
         ["charge_density", "critical_temperature", "regime",
          "resolved_regime"], _MI_COLUMNS),
        (["entropy"], ["mu"],
         ["T", "mu", "zero_t_part", "boundary_thermal_part",
          "extensive_thermal_part", "S_g", "I_m", "S_thermal", "error"]),
        (["mu-solve", *_CHARGE],
         ["charge_density", "critical_temperature", "regime"],
         ["T", "mu", "z_nr", "rho_e", "rho_0", "phase", "error"]),
        (["tc", *_CHARGE], ["charge_density", "regime"],
         ["T_C", "charge_density", "regime"]),
    ])
    def test_csv_and_json(self, capsys, argv, extra_meta, columns):
        keys = sorted(_COMMON_META + extra_meta)
        code, out = run(capsys, argv)
        assert code == 0
        meta_lines = [line for line in out.splitlines()
                      if line.startswith("#")]
        assert [line[2:].partition(" = ")[0] for line in meta_lines] == keys
        assert out.splitlines()[len(meta_lines)] == ",".join(columns)
        code, out = run(capsys, argv + ["--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert sorted(payload) == ["meta", "rows"]
        assert sorted(payload["meta"]) == keys
        assert payload["meta"]["command"] == argv[0]
        assert [sorted(row) for row in payload["rows"]] == [sorted(columns)]
