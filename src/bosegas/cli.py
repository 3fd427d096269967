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
    Fixed-charge chemical-potential solve per grid temperature.
``tc``
    Critical temperature for the configured charge density.
``discontinuity``
    One-sided derivative stencils of the mutual information at the
    critical temperature (always JSON).
``verify``
    The identity-oracle suite; one JSON report per line.

Configuration is a flat ``key = value`` file with dotted sections
(``model.mass = 1.0``); command-line flags override file values.  All
numbers are serialized with 17 significant digits, and a fixed config
plus package version produces byte-identical output.

Exit codes: 0 success, 1 verification failure, 2 usage/config error,
3 numeric failure (partial rows are still written, flagged per row).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

from . import __version__
from .condensate import (ChargeSpec, Regime, critical_temperature,
                         discontinuity_estimate, mutual_info_at_fixed_charge,
                         solve_chemical_potential, sweep)
from .errors import ConvergenceError
from .oracles import FAMILIES, run_suite
from .specfun import AccuracyBudget
from .thermo import (FieldKind, Geometry, ModelParams, ThermalPoint,
                     mutual_info_charged, mutual_info_neutral)

_UNITS_NOTE = "natural units (hbar = c = kB = 1); entropies in nats"

_REGIMES = {"nr": Regime.NON_RELATIVISTIC, "rel": Regime.RELATIVISTIC,
            "auto": Regime.AUTO}
_FIELD_KINDS = {"neutral": FieldKind.NEUTRAL_REAL,
                "charged": FieldKind.CHARGED_COMPLEX}
_SPACINGS = ("linear", "log", "tc-refined")
_FORMATS = ("csv", "json")


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
                           _FIELD_KINDS[self.field_kind])

    def geometry(self) -> Geometry:
        return Geometry(boundary_area=self.varea, subsystem_volume=self.vvol,
                        two_volume=self.v2)

    def charge(self) -> ChargeSpec | None:
        if self.charge_density is None:
            return None
        return ChargeSpec(self.charge_density, _REGIMES[self.regime])

    def accuracy(self) -> AccuracyBudget:
        return AccuracyBudget(relative_tolerance=self.rtol)


# Config-file key -> (RunConfig field, parser).
_CONFIG_KEYS: dict[str, tuple[str, Callable[[str], object]]] = {
    "model.mass": ("mass", float),
    "model.dimension": ("dimension", int),
    "model.cutoff": ("cutoff", float),
    "model.field_kind": ("field_kind", str),
    "geometry.varea": ("varea", float),
    "geometry.vvol": ("vvol", float),
    "geometry.v2": ("v2", float),
    "point.mu": ("mu", float),
    "charge.density": ("charge_density", float),
    "charge.regime": ("regime", str),
    "grid.tmin": ("tmin", float),
    "grid.tmax": ("tmax", float),
    "grid.points": ("points", int),
    "grid.spacing": ("spacing", str),
    "tolerances.rtol": ("rtol", float),
    "output.format": ("format", str),
    "output.path": ("out", str),
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
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        attr, parse = _CONFIG_KEYS[key]
        try:
            values[attr] = parse(text.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key}: "
                             f"{exc}") from exc
    return values


def _build_config(args: argparse.Namespace) -> RunConfig:
    values: dict[str, object] = {}
    if getattr(args, "config", None):
        values.update(_parse_config_file(args.config))
    flag_map = {
        "mass": "mass", "dim": "dimension", "cutoff": "cutoff",
        "mu": "mu", "charge_density": "charge_density", "regime": "regime",
        "tmin": "tmin", "tmax": "tmax", "points": "points",
        "spacing": "spacing", "v2": "v2", "varea": "varea", "vvol": "vvol",
        "rtol": "rtol", "format": "format", "out": "out",
        "field_kind": "field_kind",
    }
    for flag, attr in flag_map.items():
        value = getattr(args, flag, None)
        if value is not None:
            values[attr] = value
    # Fixed-charge physics is defined for the charged field; default the
    # field kind accordingly when a charge density is configured and the
    # user expressed no explicit choice.
    if values.get("charge_density") is not None and "field_kind" not in values:
        values["field_kind"] = "charged"
    config = RunConfig(**values)
    if config.field_kind not in _FIELD_KINDS:
        raise ValueError(f"field_kind must be one of "
                         f"{sorted(_FIELD_KINDS)}, got {config.field_kind!r}")
    if config.regime not in _REGIMES:
        raise ValueError(f"regime must be one of {sorted(_REGIMES)}, "
                         f"got {config.regime!r}")
    if config.spacing not in _SPACINGS:
        raise ValueError(f"spacing must be one of {_SPACINGS}, "
                         f"got {config.spacing!r}")
    if config.format not in _FORMATS:
        raise ValueError(f"format must be one of {_FORMATS}, "
                         f"got {config.format!r}")
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
    meta: dict[str, object] = {
        "command": command,
        "version": __version__,
        "units": _UNITS_NOTE,
        "mass": config.mass,
        "dimension": config.dimension,
        "cutoff": config.resolved_cutoff(),
        "field_kind": config.field_kind,
        "varea": config.varea,
        "vvol": config.vvol,
        "v2": config.v2,
        "rtol": config.rtol,
        "tmin": config.tmin,
        "tmax": config.tmax,
        "points": config.points,
        "spacing": config.spacing,
    }
    if config.charge_density is not None:
        meta["charge_density"] = config.charge_density
        meta["regime"] = config.regime
    else:
        meta["mu"] = config.mu
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

def _cmd_mutual_info(config: RunConfig) -> int:
    charge = config.charge()
    acc = config.accuracy()
    tc = (None if charge is None
          else critical_temperature(charge, config.mass, acc))
    grid = _temperature_grid(config, tc)
    params = config.model()
    geometry = config.geometry()
    meta = _meta_common(config, "mutual-info")
    columns = ("T", "mu", "rho_e", "rho_0", "I_m", "I_m_thermal_part",
               "S_g", "S_thermal", "error")
    rows: list[tuple[object, ...]] = []
    failed = False

    if charge is not None:
        table = sweep(params, geometry, charge, grid, acc, tc=tc)
        meta["critical_temperature"] = float(
            table.metadata["critical_temperature"])
        meta["resolved_regime"] = table.metadata["regime"]
        for r in table.rows:
            failed = failed or r.error is not None
            rows.append((r.temperature, r.mu, r.excited_density,
                         r.condensate_density, r.mutual_information,
                         r.boundary_thermal_part, r.geometric_entropy,
                         r.thermal_entropy,
                         "" if r.error is None else _sanitize(r.error)))
    else:
        neutral = params.field_kind is FieldKind.NEUTRAL_REAL
        for t in grid:
            try:
                point = ThermalPoint(t, config.mu)
                rep = (mutual_info_neutral(params, geometry, point, acc)
                       if neutral else
                       mutual_info_charged(params, geometry, point, acc))
                rows.append((t, config.mu, 0.0, 0.0, rep.mutual_information,
                             rep.boundary_thermal_part, rep.geometric_entropy,
                             -2.0 * rep.extensive_thermal_part, ""))
            except (ValueError, ConvergenceError) as exc:
                failed = True
                nan = float("nan")
                rows.append((t, config.mu, nan, nan, nan, nan, nan, nan,
                             _sanitize(str(exc))))
    _emit(_render_table(meta, columns, rows, config.format), config.out)
    return 3 if failed else 0


def _cmd_entropy(config: RunConfig) -> int:
    grid = _temperature_grid(config, None)
    params = config.model()
    geometry = config.geometry()
    acc = config.accuracy()
    neutral = params.field_kind is FieldKind.NEUTRAL_REAL
    meta = _meta_common(config, "entropy")
    columns = ("T", "mu", "zero_t_part", "boundary_thermal_part",
               "extensive_thermal_part", "S_g", "I_m", "S_thermal", "error")
    rows: list[tuple[object, ...]] = []
    failed = False
    for t in grid:
        try:
            point = ThermalPoint(t, config.mu)
            rep = (mutual_info_neutral(params, geometry, point, acc)
                   if neutral else
                   mutual_info_charged(params, geometry, point, acc))
            rows.append((t, config.mu, rep.zero_t_part,
                         rep.boundary_thermal_part,
                         rep.extensive_thermal_part, rep.geometric_entropy,
                         rep.mutual_information,
                         -2.0 * rep.extensive_thermal_part, ""))
        except (ValueError, ConvergenceError) as exc:
            failed = True
            nan = float("nan")
            rows.append((t, config.mu, nan, nan, nan, nan, nan, nan,
                         _sanitize(str(exc))))
    _emit(_render_table(meta, columns, rows, config.format), config.out)
    return 3 if failed else 0


def _cmd_mu_solve(config: RunConfig) -> int:
    charge = config.charge()
    if charge is None:
        raise ValueError("mu-solve requires charge.density")
    acc = config.accuracy()
    tc = critical_temperature(charge, config.mass, acc)
    grid = _temperature_grid(config, tc)
    meta = _meta_common(config, "mu-solve")
    meta["critical_temperature"] = tc
    columns = ("T", "mu", "z_nr", "rho_e", "rho_0", "phase", "error")
    rows: list[tuple[object, ...]] = []
    failed = False
    for t in grid:
        try:
            state = solve_chemical_potential(t, charge, config.mass, acc)
            rows.append((t, state.mu, state.z_nr, state.excited_density,
                         state.condensate_density, state.phase.value, ""))
        except (ValueError, ConvergenceError) as exc:
            failed = True
            nan = float("nan")
            rows.append((t, nan, nan, nan, nan, "", _sanitize(str(exc))))
    _emit(_render_table(meta, columns, rows, config.format), config.out)
    return 3 if failed else 0


def _cmd_tc(config: RunConfig) -> int:
    charge = config.charge()
    if charge is None:
        raise ValueError("tc requires charge.density")
    meta = _meta_common(config, "tc")
    tc = critical_temperature(charge, config.mass, config.accuracy())
    rows = [(tc, config.charge_density, config.regime)]
    columns = ("T_C", "charge_density", "regime")
    _emit(_render_table(meta, columns, rows, config.format), config.out)
    return 0


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
    selection = args.only if args.only else None
    reports = run_suite(selection)
    lines = []
    for r in reports:
        lines.append(json.dumps({
            "identity_name": r.identity_name,
            "lhs": r.lhs,
            "rhs": r.rhs,
            "relative_error": r.relative_error,
            "tolerance": r.tolerance,
            "passed": r.passed,
            "parameters": r.parameters,
        }, sort_keys=True))
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if all(r.passed for r in reports) else 1


# ----------------------------------------------------------------------
# Parser and entry point
# ----------------------------------------------------------------------

def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--mass", type=float)
    sub.add_argument("--dim", type=int)
    sub.add_argument("--cutoff", type=float)
    sub.add_argument("--field-kind", dest="field_kind",
                     choices=sorted(_FIELD_KINDS))
    sub.add_argument("--mu", type=float, help="fixed chemical potential")
    sub.add_argument("--charge-density", dest="charge_density", type=float)
    sub.add_argument("--regime", choices=sorted(_REGIMES))
    sub.add_argument("--tmin", type=float)
    sub.add_argument("--tmax", type=float)
    sub.add_argument("--points", type=int)
    sub.add_argument("--spacing", choices=_SPACINGS)
    sub.add_argument("--v2", type=float)
    sub.add_argument("--varea", type=float)
    sub.add_argument("--vvol", type=float)
    sub.add_argument(
        "--rtol", type=float,
        help="relative quadrature tolerance (default 1e-8); fixed-charge "
             "root solves tighten it to at most 1e-12, since they stop at a "
             "charge residual of 1e-10 rho")
    sub.add_argument("--format", choices=_FORMATS)
    sub.add_argument("--out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosegas",
        description="Geometric entropy and mutual information of a free "
                    "Bose gas at finite temperature and charge density.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("mutual-info", "entropy", "mu-solve", "tc",
                 "discontinuity"):
        _add_common_flags(subs.add_parser(name))
    verify = subs.add_parser("verify")
    verify.add_argument("--only", action="append",
                        help=f"restrict to a family: {', '.join(FAMILIES)}")
    verify.add_argument("--out")
    return parser


_DISPATCH = {
    "mutual-info": _cmd_mutual_info,
    "entropy": _cmd_entropy,
    "mu-solve": _cmd_mu_solve,
    "tc": _cmd_tc,
    "discontinuity": _cmd_discontinuity,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass through.
        return int(exc.code or 0)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        config = _build_config(args)
        return _DISPATCH[args.command](config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
