r"""Command-line surface: sweeps, condensation solving, verification.

Subcommands
-----------
``mutual-info``
    Temperature sweep of the mutual information.  With a charge density
    configured the chemical potential is solved per row (fixed-charge
    mode); otherwise the sweep runs at the fixed chemical potential
    ``point.mu`` (default 0).
``entropy``
    Temperature sweep of the full entropy decomposition at fixed
    chemical potential.
``mu-solve``
    Fixed-charge chemical-potential solve over the grid, all rows in one
    lockstep solve, so each row's mu(T) is the one ``mutual-info`` prints
    for it.
``tc``
    Critical temperature for the configured charge density.
``discontinuity``
    One-sided temperature derivatives of the mutual information at the
    critical temperature, in closed form, and their jump, left - right
    (always JSON).  ``analytic_jump`` is the closed-form prediction; in
    the relativistic regime it is the ultra-relativistic value, whose sign
    is that of right - left, so ``diagnostics.sign_finding`` reports
    opposite signs.
``verify``
    The identity-oracle suite; one JSON report per line.  Its ``jump``
    family checks the closed-form jump against Chebyshev interpolants.

Configuration is a flat ``key = value`` file with dotted sections
(``model.mass = 1.0``); command-line flags override file values.  Each
setting is listed once, in ``_SETTINGS``: its config key, its flag, and
its parser or allowed values.  All numbers are serialized with 17
significant digits, and a fixed config plus package version produces
byte-identical output.

Exit codes: 0 success, 1 verification failure, 2 usage/config error,
3 numeric failure (partial rows are still written, flagged per row).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, dataclass, fields
from typing import Callable, NamedTuple, Sequence

from . import __version__
from .condensate import (ChargeSpec, Regime, _solve_states,
                         critical_temperature, discontinuity_estimate, sweep)
from .errors import ConvergenceError
from .oracles import FAMILIES, run_suite
from .specfun import AccuracyBudget
from .thermo import (EntropyReport, FieldKind, Geometry, ModelParams,
                     ThermalPoint, mutual_info_charged, mutual_info_neutral)

_UNITS_NOTE = "natural units (hbar = c = kB = 1); entropies in nats"


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters (config file merged with flags)."""

    mass: float = 1.0
    dimension: int = 3
    cutoff: float | None = None      # None -> 1e4 * mass
    field_kind: str = "neutral"
    varea: float = 1.0               # boundary area V_{D-1}
    vvol: float = 1.0                # subsystem volume V_D
    v2: float = 1.0                  # transverse two-volume V_2
    mu: float = 0.0                  # fixed-mu modes only
    charge_density: float | None = None
    regime: str = "auto"
    tmin: float = 1.0
    tmax: float = 1.0
    points: int = 1
    spacing: str = "linear"
    rtol: float = 1e-8
    format: str = "csv"
    out: str | None = None

    def resolved_cutoff(self) -> float:
        return 1e4 * self.mass if self.cutoff is None else self.cutoff

    def model(self) -> ModelParams:
        return ModelParams(self.mass, self.dimension, self.resolved_cutoff(),
                           FieldKind(self.field_kind))

    def geometry(self) -> Geometry:
        return Geometry(boundary_area=self.varea, subsystem_volume=self.vvol,
                        two_volume=self.v2)

    def charge(self) -> ChargeSpec | None:
        if self.charge_density is None:
            return None
        return ChargeSpec(self.charge_density, Regime(self.regime))

    def accuracy(self) -> AccuracyBudget:
        return AccuracyBudget(relative_tolerance=self.rtol)


class _Setting(NamedTuple):
    """One run setting: its RunConfig field, its flag, and the parser of
    its value or (for a string setting) its allowed values."""

    attr: str
    flag: str
    parse: Callable[[str], object] = str
    choices: list[str] | None = None
    help: str | None = None
    metavar: str | None = None


# Config-file key -> setting, in flag order.
_SETTINGS = {
    "model.mass": _Setting("mass", "--mass", float),
    "model.dimension": _Setting("dimension", "--dim", int, metavar="DIM"),
    "model.cutoff": _Setting("cutoff", "--cutoff", float),
    "model.field_kind": _Setting("field_kind", "--field-kind", choices=sorted(
        kind.value for kind in FieldKind)),
    "point.mu": _Setting("mu", "--mu", float,
                         help="fixed chemical potential"),
    "charge.density": _Setting("charge_density", "--charge-density", float),
    "charge.regime": _Setting("regime", "--regime", choices=sorted(
        regime.value for regime in Regime)),
    "grid.tmin": _Setting("tmin", "--tmin", float),
    "grid.tmax": _Setting("tmax", "--tmax", float),
    "grid.points": _Setting("points", "--points", int),
    "grid.spacing": _Setting("spacing", "--spacing",
                             choices=["linear", "log", "tc-refined"]),
    "geometry.v2": _Setting("v2", "--v2", float),
    "geometry.varea": _Setting("varea", "--varea", float),
    "geometry.vvol": _Setting("vvol", "--vvol", float),
    "tolerances.rtol": _Setting("rtol", "--rtol", float, help=(
        "relative quadrature tolerance (default 1e-8); fixed-charge "
        "root solves tighten it to at most 1e-12, since they stop at a "
        "charge residual of 1e-10 rho")),
    "output.format": _Setting("format", "--format", choices=["csv", "json"]),
    "output.path": _Setting("out", "--out"),
}


def _parse_config_file(path: str) -> dict[str, object]:
    values: dict[str, object] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, _, text = line.partition("=")
        key = key.strip()
        if key not in _SETTINGS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        setting = _SETTINGS[key]
        try:
            values[setting.attr] = setting.parse(text.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key}: "
                             f"{exc}") from exc
    return values


def _build_config(args: argparse.Namespace) -> RunConfig:
    values: dict[str, object] = {}
    if getattr(args, "config", None):
        values.update(_parse_config_file(args.config))
    # Every setting has one flag whose argparse dest is its attribute.
    for setting in _SETTINGS.values():
        value = getattr(args, setting.attr, None)
        if value is not None:
            values[setting.attr] = value
    # Fixed-charge physics is defined for the charged field; default the
    # field kind accordingly when a charge density is configured and the
    # user expressed no explicit choice.
    if values.get("charge_density") is not None and "field_kind" not in values:
        values["field_kind"] = "charged"
    config = RunConfig(**values)
    # Flags are checked by argparse; this catches config-file values.
    for setting in _SETTINGS.values():
        value = getattr(config, setting.attr)
        if setting.choices is not None and value not in setting.choices:
            raise ValueError(f"{setting.attr} must be one of "
                             f"{setting.choices}, got {value!r}")
    if config.points < 1:
        raise ValueError(f"grid.points must be >= 1, got {config.points}")
    if not (config.tmin > 0.0 and config.tmax > 0.0):
        raise ValueError("grid bounds must be positive")
    if config.points > 1 and not config.tmax > config.tmin:
        raise ValueError("grid.tmax must exceed grid.tmin for points > 1")
    return config


# ----------------------------------------------------------------------
# Grids and serialization
# ----------------------------------------------------------------------

def _temperature_grid(config: RunConfig, tc: float | None) -> list[float]:
    """The configured grid; ``tc`` is the solved critical temperature."""
    n, lo, hi = config.points, config.tmin, config.tmax
    if n == 1:
        base = [lo]
    elif config.spacing == "log":
        ratio = hi / lo
        base = [lo * ratio ** (i / (n - 1)) for i in range(n)]
    else:
        base = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    if config.spacing == "tc-refined":
        if tc is None:
            raise ValueError("tc-refined spacing requires charge.density")
        for shift in (-1e-2, -1e-3, -1e-4, 0.0, 1e-4, 1e-3, 1e-2):
            t = tc * (1.0 + shift)
            if lo <= t <= hi:
                base.append(t)
        base = sorted(set(base))
    return base


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _meta_common(config: RunConfig, command: str) -> dict[str, object]:
    """Every setting but the output ones and the unused one of mu and
    charge, with the cutoff resolved."""
    unused = ({"mu"} if config.charge_density is not None
              else {"charge_density", "regime"})
    meta: dict[str, object] = {
        field.name: getattr(config, field.name) for field in fields(config)
        if field.name not in {"format", "out", *unused}}
    meta.update(command=command, version=__version__, units=_UNITS_NOTE,
                cutoff=config.resolved_cutoff())
    return meta


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _render_table(meta: dict[str, object], columns: Sequence[str],
                  rows: Sequence[Sequence[object]], fmt: str) -> str:
    if fmt == "json":
        payload = {
            "meta": meta,
            "rows": [dict(zip(columns, row)) for row in rows],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    lines = [f"# {key} = {_fmt(meta[key])}" for key in sorted(meta)]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _sanitize(message: str) -> str:
    return message.replace(",", ";").replace("\n", " ")


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

_FIXED_MU_CELLS = 6     # numeric columns between (T, mu) and error

_Rows = list[tuple[object, ...]]
_Table = tuple[dict[str, object], Sequence[str], _Rows, bool]


def _fixed_mu_rows(config: RunConfig, grid: Sequence[float],
                   cells: Callable[[EntropyReport], tuple[float, ...]]
                   ) -> tuple[_Rows, bool]:
    """Rows (T, mu, *cells(report), error) at the fixed chemical potential,
    and whether any failed; a failed row carries NaN in every ``cells``
    column and its message."""
    params = config.model()
    geometry = config.geometry()
    acc = config.accuracy()
    report = (mutual_info_neutral
              if params.field_kind is FieldKind.NEUTRAL_REAL
              else mutual_info_charged)
    rows: _Rows = []
    failed = False
    for t in grid:
        try:
            rows.append((t, config.mu, *cells(report(
                params, geometry, ThermalPoint(t, config.mu), acc)), ""))
        except (ValueError, ConvergenceError) as exc:
            failed = True
            rows.append((t, config.mu, *[float("nan")] * _FIXED_MU_CELLS,
                         _sanitize(str(exc))))
    return rows, failed


def _cmd_mutual_info(config: RunConfig) -> _Table:
    charge = config.charge()
    acc = config.accuracy()
    tc = (None if charge is None
          else critical_temperature(charge, config.mass, acc))
    grid = _temperature_grid(config, tc)
    meta = _meta_common(config, "mutual-info")
    columns = ("T", "mu", "rho_e", "rho_0", "I_m", "I_m_thermal_part",
               "S_g", "S_thermal", "error")
    if charge is None:
        rows, failed = _fixed_mu_rows(config, grid, lambda rep: (
            0.0, 0.0, rep.mutual_information, rep.boundary_thermal_part,
            rep.geometric_entropy, -2.0 * rep.extensive_thermal_part))
        return meta, columns, rows, failed
    table = sweep(config.model(), config.geometry(), charge, grid, acc, tc=tc)
    meta["critical_temperature"] = tc
    meta["resolved_regime"] = table.metadata["regime"]
    rows = [(r.temperature, r.mu, r.excited_density, r.condensate_density,
             r.mutual_information, r.boundary_thermal_part,
             r.geometric_entropy, r.thermal_entropy,
             "" if r.error is None else _sanitize(r.error))
            for r in table.rows]
    return meta, columns, rows, any(r.error is not None for r in table.rows)


def _cmd_entropy(config: RunConfig) -> _Table:
    if config.charge_density is not None:
        raise ValueError("entropy runs at fixed mu and takes no "
                         "charge.density; mutual-info solves mu at a fixed "
                         "charge density")
    grid = _temperature_grid(config, None)
    columns = ("T", "mu", "zero_t_part", "boundary_thermal_part",
               "extensive_thermal_part", "S_g", "I_m", "S_thermal", "error")
    rows, failed = _fixed_mu_rows(config, grid, lambda rep: (
        rep.zero_t_part, rep.boundary_thermal_part,
        rep.extensive_thermal_part, rep.geometric_entropy,
        rep.mutual_information, -2.0 * rep.extensive_thermal_part))
    return _meta_common(config, "entropy"), columns, rows, failed


def _cmd_mu_solve(config: RunConfig) -> _Table:
    charge = config.charge()
    if charge is None:
        raise ValueError("mu-solve requires charge.density")
    acc = config.accuracy()
    tc = critical_temperature(charge, config.mass, acc)
    grid = _temperature_grid(config, tc)
    meta = _meta_common(config, "mu-solve")
    meta["critical_temperature"] = tc
    columns = ("T", "mu", "z_nr", "rho_e", "rho_0", "phase", "error")
    # The whole grid in one solve: the mu(T) of every row is the one a
    # fixed-charge mutual-info sweep prints for it.
    states = _solve_states(grid, charge, config.mass, acc)
    nan = float("nan")
    rows: _Rows = [
        (t, nan, nan, nan, nan, "", _sanitize(str(s)))
        if isinstance(s, Exception) else
        (t, s.mu, s.z_nr, s.excited_density, s.condensate_density,
         s.phase.value, "")
        for t, s in zip(grid, states)]
    return meta, columns, rows, any(isinstance(s, Exception) for s in states)


def _cmd_tc(config: RunConfig) -> _Table:
    charge = config.charge()
    if charge is None:
        raise ValueError("tc requires charge.density")
    meta = _meta_common(config, "tc")
    tc = critical_temperature(charge, config.mass, config.accuracy())
    rows = [(tc, config.charge_density, config.regime)]
    return meta, ("T_C", "charge_density", "regime"), rows, False


def _cmd_discontinuity(config: RunConfig) -> int:
    charge = config.charge()
    if charge is None:
        raise ValueError("discontinuity requires charge.density "
                         "(a neutral field has no condensation transition)")
    result = discontinuity_estimate(config.model(), config.geometry(),
                                    charge, config.accuracy())
    payload = {
        "meta": _meta_common(config, "discontinuity"),
        "critical_temperature": result.critical_temperature,
        "left_derivative": result.left_derivative,
        "right_derivative": result.right_derivative,
        "jump": result.jump,
        "analytic_jump": result.analytic_jump,
        "relative_deviation":
            (result.jump - result.analytic_jump) / abs(result.analytic_jump),
        "magnitude_relative_deviation":
            (abs(result.jump) - abs(result.analytic_jump))
            / abs(result.analytic_jump),
        "diagnostics": result.stencil_orders,
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", config.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    reports = run_suite(args.only or None)
    lines = [json.dumps(asdict(r), sort_keys=True) for r in reports]
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if all(r.passed for r in reports) else 1


# ----------------------------------------------------------------------
# Parser and entry point
# ----------------------------------------------------------------------

def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value config file")
    for setting in _SETTINGS.values():
        sub.add_argument(setting.flag, dest=setting.attr, type=setting.parse,
                         choices=setting.choices, help=setting.help,
                         metavar=setting.metavar)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosegas",
        description="Geometric entropy and mutual information of a free "
                    "Bose gas at finite temperature and charge density.")
    subs = parser.add_subparsers(dest="command", required=True)
    # Each table command returns (meta, columns, rows, failed) for main.
    for name, table in (("mutual-info", _cmd_mutual_info),
                        ("entropy", _cmd_entropy),
                        ("mu-solve", _cmd_mu_solve), ("tc", _cmd_tc)):
        sub = subs.add_parser(name)
        _add_common_flags(sub)
        sub.set_defaults(table=table)
    _add_common_flags(subs.add_parser("discontinuity"))
    verify = subs.add_parser("verify")
    verify.add_argument("--only", action="append",
                        help=f"restrict to a family: {', '.join(FAMILIES)}")
    verify.add_argument("--out")
    return parser


@functools.lru_cache(maxsize=None)
def _shared_parser() -> argparse.ArgumentParser:
    """One parser per process: parsing leaves no state in it."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass through.
        return int(exc.code or 0)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        config = _build_config(args)
        if args.command == "discontinuity":
            return _cmd_discontinuity(config)
        meta, columns, rows, failed = args.table(config)
        _emit(_render_table(meta, columns, rows, config.format), config.out)
        return 3 if failed else 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
