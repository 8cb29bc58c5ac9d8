"""Command-line front end: registration solve, gain tables, Monte-Carlo, transforms.

Exit codes: 0 success, 2 domain error (singular geometry or system, no
valid gain root, invalid gains, overflowing covariance or transform
result), 3 input error (malformed or schema-violating config, unknown
frame pair). Numbers are printed with six significant digits; downstream
comparisons should use tolerances.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import coords, registration, sim_harness, steady_state
from .errors import (
    ConfigError,
    DegenerateDenominator,
    InvalidGains,
    NonFiniteCovariance,
    NonFiniteTransform,
    NoValidRoot,
    SingularGeometry,
    SingularSystem,
    ZeroVector,
)

_DOMAIN_ERRORS = (SingularGeometry, SingularSystem, NoValidRoot, InvalidGains,
                  DegenerateDenominator, NonFiniteCovariance, NonFiniteTransform,
                  ZeroVector)


def _fmt(x: float) -> float:
    """Round to six significant digits for emission."""
    return float(f"{float(x):.6g}")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _load_json(path: str) -> dict:
    text = _read_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    return doc


def _write_output(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def _from_doc(factory, doc: dict, what: str):
    """Build a library object from its document; schema faults become ConfigError."""
    try:
        return factory(doc)
    except _DOMAIN_ERRORS:
        raise
    except KeyError as exc:
        raise ConfigError(f"bad {what} document: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what} document: {exc}") from exc


def _solution_record(sol: registration.RegistrationSolution) -> dict:
    return {
        "bias1": {"range_m": _fmt(sol.bias1.range_m),
                  "azimuth_rad": _fmt(sol.bias1.azimuth),
                  "elevation_rad": _fmt(sol.bias1.elevation)},
        "bias2": {"range_m": _fmt(sol.bias2.range_m),
                  "azimuth_rad": _fmt(sol.bias2.azimuth),
                  "elevation_rad": _fmt(sol.bias2.elevation)},
        "cost": _fmt(sol.cost),
        "objective": _fmt(sol.objective),
        "multipliers": [_fmt(a) for a in sol.multipliers],
        "constraint_residual_m": _fmt(sol.constraint_residual),
        "kkt_residual": _fmt(sol.kkt_residual),
    }


def cmd_register(args) -> int:
    problem = _from_doc(registration.RegistrationProblem.from_dict,
                        _load_json(args.config), "registration")
    sol = registration.solve_absolute_bias(problem)
    if args.format == "json":
        text = json.dumps(_solution_record(sol), indent=2, allow_nan=False)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["dr1_m", "dpsi1_rad", "dtheta1_rad",
                         "dr2_m", "dpsi2_rad", "dtheta2_rad",
                         "cost", "objective", "a1_m", "a2_m", "a3_m",
                         "constraint_residual_m", "kkt_residual"])
        writer.writerow([f"{v:.6g}" for v in (
            sol.bias1.range_m, sol.bias1.azimuth, sol.bias1.elevation,
            sol.bias2.range_m, sol.bias2.azimuth, sol.bias2.elevation,
            sol.cost, sol.objective, *sol.multipliers,
            sol.constraint_residual, sol.kkt_residual)])
        text = buf.getvalue()
    _write_output(text, args.output)
    return 0


def _parse_float_list(text: str, what: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad {what} list '{text}': {exc}") from exc
    if not values:
        raise ConfigError(f"empty {what} list")
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{what} values must be finite, got '{text}'")
    return values


def cmd_gains(args) -> int:
    if args.grid:
        try:
            rho_part, alpha_part = args.grid.split(":")
        except ValueError as exc:
            raise ConfigError("--grid expects 'RHO,RHO,...:ALPHA,ALPHA,...'") from exc
        rhos = _parse_float_list(rho_part, "rho")
        alphas = _parse_float_list(alpha_part, "alpha")
    else:
        if args.rho is None or args.alpha is None:
            raise ConfigError("either --grid or both --rho and --alpha are required")
        rhos = _parse_float_list(args.rho, "rho")
        alphas = _parse_float_list(args.alpha, "alpha")

    if args.period <= 0 or args.meas_var <= 0 or args.bias_var < 0:
        raise ConfigError("period and meas-var must be positive, bias-var nonnegative")
    table = steady_state.gain_table(rhos, alphas, period=args.period,
                                    meas_var=args.meas_var, bias_var=args.bias_var)
    columns = steady_state.GAIN_SWEEP_HEADER + ("excluded_root",)
    if args.format == "json":
        text = json.dumps([dict(zip(columns, map(_fmt, row))) for row in table.tolist()],
                          indent=2, allow_nan=False)
    else:
        # what csv.writer emits for these fields (none needs quoting, every
        # line ends in \r\n), formatted a block of rows at a time
        row_format = ",".join(["%.6g"] * len(columns)) + "\r\n"
        lines = [",".join(columns) + "\r\n"]
        for start in range(0, len(table), 512):
            block = table[start:start + 512]
            lines.append(row_format * len(block) % tuple(block.ravel().tolist()))
        text = "".join(lines)
    _write_output(text, args.output)
    return 0


def cmd_simulate(args) -> int:
    doc = _load_json(args.config)
    if args.seed is not None:
        doc["master_seed"] = args.seed
    scenario = _from_doc(sim_harness.SimScenario.from_dict, doc, "scenario")
    report = sim_harness.run_monte_carlo(scenario)
    if args.format == "json":
        doc_out = report.to_dict()
        for key in ("empirical_S", "predicted_S", "relative_errors"):
            doc_out[key] = [[_fmt(v) for v in row] for row in doc_out[key]]
        doc_out["wall_time_s"] = _fmt(doc_out["wall_time_s"])
        text = json.dumps(doc_out, indent=2, allow_nan=False)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["entry", "empirical", "predicted", "relative_error"])
        labels = [("S11", 0, 0), ("S12", 0, 1), ("S21", 1, 0), ("S22", 1, 1)]
        for name, i, j in labels:
            writer.writerow([name,
                             f"{report.empirical_s[i, j]:.6g}",
                             f"{report.predicted_s[i, j]:.6g}",
                             f"{report.relative_errors[i, j]:.6g}"])
        text = buf.getvalue()
    _write_output(text, args.output)
    return 0


_FRAMES = ("spherical", "cartesian", "enu1", "enu2", "eci", "face")


def _parse_site(text: str | None, name: str) -> coords.GeodeticSite:
    if text is None:
        raise ConfigError(f"--{name} LON,LAT is required for this frame pair")
    values = _parse_float_list(text, name)
    if len(values) != 2:
        raise ConfigError(f"--{name} expects LON,LAT")
    try:
        return coords.GeodeticSite(longitude=values[0], latitude=values[1])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_transform(args) -> int:
    point = _parse_float_list(args.point, "point")
    if len(point) != 3:
        raise ConfigError(f"--point must have exactly 3 entries, got {len(point)}")
    src, dst = args.from_frame, args.to_frame
    earth = coords.EarthModel(equatorial_radius_m=args.r_ee, eccentricity=args.eccentricity)

    def site1():
        return _parse_site(args.site1, "site1")

    def site2():
        return _parse_site(args.site2, "site2")

    def face_angles():
        if args.face_angles is None:
            raise ConfigError("--face-angles AZ,EL is required for the face frame")
        values = _parse_float_list(args.face_angles, "face-angles")
        if len(values) != 2:
            raise ConfigError("--face-angles expects AZ,EL")
        return values

    vec = np.array(point)
    # an overflow is reported below as a non-finite result, not as a warning
    with np.errstate(all="ignore"):
        if src == dst:
            out = vec
        elif (src, dst) == ("spherical", "cartesian"):
            out = coords.spherical_to_cartesian(coords.SphericalTriple.from_array(vec))
        elif (src, dst) == ("cartesian", "spherical"):
            out = coords.cartesian_to_spherical(vec).as_array()
        elif (src, dst) == ("enu1", "enu2"):
            out = (coords.enu1_velocity_to_enu2(vec, site1(), site2()) if args.velocity
                   else coords.enu1_position_to_enu2(vec, site1(), site2(), earth))
        elif (src, dst) == ("enu2", "enu1"):
            out = (coords.enu2_velocity_to_enu1(vec, site1(), site2()) if args.velocity
                   else coords.enu2_position_to_enu1(vec, site1(), site2(), earth))
        elif (src, dst) in (("enu1", "eci"), ("enu2", "eci")):
            site = site1() if src == "enu1" else site2()
            out = (coords.enu_to_eci(site) @ vec if args.velocity
                   else coords.enu_position_to_eci(vec, site, earth))
        elif (src, dst) in (("eci", "enu1"), ("eci", "enu2")):
            site = site1() if dst == "enu1" else site2()
            out = (coords.eci_to_enu(site) @ vec if args.velocity
                   else coords.eci_position_to_enu(vec, site, earth))
        elif (src, dst) in (("enu1", "face"), ("enu2", "face")):
            out = coords.enu_to_face(*face_angles()) @ vec
        elif (src, dst) in (("face", "enu1"), ("face", "enu2")):
            out = coords.face_to_enu(*face_angles()) @ vec
        else:
            raise ConfigError(f"unsupported frame pair {src} -> {dst}")
        values = [float(v) for v in out]
    if not all(map(math.isfinite, values)):
        raise NonFiniteTransform(f"{src} -> {dst} result overflows a double")

    # transform output keeps full float precision: round trips through the
    # emitted text must reproduce the input to sub-micrometer level, which
    # six significant digits cannot carry at site-scale magnitudes
    components = (["range_m", "azimuth_rad", "elevation_rad"]
                  if dst == "spherical" else ["x_m", "y_m", "z_m"])
    record = {"frame": dst, "point": values, "components": components}
    if args.format == "json":
        text = json.dumps(record, indent=2, allow_nan=False)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(record["components"])
        writer.writerow([repr(v) for v in values])
        text = buf.getvalue()
    _write_output(text, args.output)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radarbias",
        description="Two-radar absolute-bias recovery and bias-aware "
                    "steady-state tracking gains.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, default_format):
        p.add_argument("--output", default="-", help="output path, '-' for stdout")
        p.add_argument("--format", choices=("json", "csv"), default=default_format)

    p = sub.add_parser("register", help="recover absolute biases from a relative bias")
    p.add_argument("--config", required=True,
                   help="JSON problem document, '-' for stdin")
    add_io(p, "json")
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("gains", help="steady-state gain table over (rho, alpha)")
    p.add_argument("--rho", help="comma-separated noise ratios")
    p.add_argument("--alpha", help="comma-separated position gains")
    p.add_argument("--grid", help="'RHO,...:ALPHA,...' cross product")
    p.add_argument("--period", type=float, default=1.0, help="sample period s")
    p.add_argument("--meas-var", type=float, default=1.0,
                   help="measurement noise variance m^2")
    p.add_argument("--bias-var", type=float, default=0.0, help="bias variance m^2")
    add_io(p, "csv")
    p.set_defaults(func=cmd_gains)

    p = sub.add_parser("simulate", help="Monte-Carlo covariance verification")
    p.add_argument("--config", required=True,
                   help="JSON scenario document, '-' for stdin")
    p.add_argument("--seed", type=int, default=None, help="override master_seed")
    add_io(p, "json")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("transform", help="single-point coordinate transform")
    p.add_argument("--from", dest="from_frame", required=True, choices=_FRAMES)
    p.add_argument("--to", dest="to_frame", required=True, choices=_FRAMES)
    p.add_argument("--point", required=True,
                   help="comma-separated triple; spherical order is r,az,el")
    p.add_argument("--site1", help="sensor 1 site LON,LAT radians")
    p.add_argument("--site2", help="sensor 2 site LON,LAT radians")
    p.add_argument("--face-angles", help="face frame pointing AZ,EL radians")
    p.add_argument("--velocity", action="store_true",
                   help="transform a velocity (rotation only, no translation)")
    p.add_argument("--r-ee", type=float, default=coords.WGS84.equatorial_radius_m,
                   help="earth equatorial radius m")
    p.add_argument("--eccentricity", type=float, default=coords.WGS84.eccentricity,
                   help="earth eccentricity")
    add_io(p, "json")
    p.set_defaults(func=cmd_transform)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError) as exc:
        # residual ValueErrors are input validation (bad earth model, ...)
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
