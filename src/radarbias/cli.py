"""Command-line front end: registration solve, gain tables, Monte-Carlo, transforms.

Exit codes: 0 success, 2 domain error (a ``DomainError``: singular
geometry or system, no valid gain root, invalid gains, overflowing
covariance or transform result), 3 input error (malformed or
schema-violating config, unknown frame pair, command-line usage, an
unwritable output path, a run too large to allocate). Numbers are printed
with six significant digits; compare with tolerances.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import coords, registration, sim_harness, steady_state
from .errors import ConfigError, DomainError, NonFiniteTransform


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
    if not text.endswith("\n"):
        text += "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from exc


def _csv(header, formats, values: list) -> str:
    """A CSV header line, then the flat ``values`` ``%``-formatted a row at a time.

    ``formats`` holds one ``%`` format per column. The text is what
    ``csv.writer`` prints for these fields (none needs quoting, every line
    ends in \\r\\n).
    """
    row_format = ",".join(formats) + "\r\n"
    return ",".join(header) + "\r\n" + row_format * (len(values) // len(formats)) % tuple(values)


def _from_doc(factory, doc: dict, what: str):
    """Build a library object from its document; schema faults become ConfigError."""
    try:
        return factory(doc)
    except KeyError as exc:
        raise ConfigError(f"bad {what} document: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what} document: {exc}") from exc


def cmd_register(args) -> str:
    problem = _from_doc(registration.RegistrationProblem.from_dict,
                        _load_json(args.config), "registration")
    sol = registration.solve_absolute_bias(problem)
    record = {
        **{name: {"range_m": _fmt(bias.range_m), "azimuth_rad": _fmt(bias.azimuth),
                  "elevation_rad": _fmt(bias.elevation)}
           for name, bias in (("bias1", sol.bias1), ("bias2", sol.bias2))},
        "cost": _fmt(sol.cost),
        "objective": _fmt(sol.objective),
        "multipliers": [_fmt(a) for a in sol.multipliers],
        "constraint_residual_m": _fmt(sol.constraint_residual),
        "kkt_residual": _fmt(sol.kkt_residual),
    }
    if args.format == "json":
        return json.dumps(record, indent=2, allow_nan=False)
    # the record's values in order; a value rounded by _fmt prints the same at %.6g
    values = [*record["bias1"].values(), *record["bias2"].values(), record["cost"],
              record["objective"], *record["multipliers"],
              record["constraint_residual_m"], record["kkt_residual"]]
    return _csv(["dr1_m", "dpsi1_rad", "dtheta1_rad", "dr2_m", "dpsi2_rad", "dtheta2_rad",
                 "cost", "objective", "a1_m", "a2_m", "a3_m",
                 "constraint_residual_m", "kkt_residual"], ["%.6g"] * 13, values)


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


def cmd_gains(args) -> str:
    if args.grid:
        try:
            rho_part, alpha_part = args.grid.split(":")
        except ValueError as exc:
            raise ConfigError("--grid expects 'RHO,RHO,...:ALPHA,ALPHA,...'") from exc
    elif args.rho is None or args.alpha is None:
        raise ConfigError("either --grid or both --rho and --alpha are required")
    else:
        rho_part, alpha_part = args.rho, args.alpha
    rhos = _parse_float_list(rho_part, "rho")
    alphas = _parse_float_list(alpha_part, "alpha")
    table = steady_state.gain_table(rhos, alphas, period=args.period,
                                    meas_var=args.meas_var, bias_var=args.bias_var)
    columns = steady_state.GAIN_SWEEP_HEADER
    if args.format == "json":
        return json.dumps([dict(zip(columns, map(_fmt, row))) for row in table.tolist()],
                          indent=2, allow_nan=False)
    # flattened by numpy: chaining the Python rows costs about a tenth of the call
    return _csv(columns, ["%.6g"] * len(columns), table.ravel().tolist())


def cmd_simulate(args) -> str:
    doc = _load_json(args.config)
    if args.seed is not None:
        doc["master_seed"] = args.seed
    scenario = _from_doc(sim_harness.SimScenario.from_dict, doc, "scenario")
    report = sim_harness.run_monte_carlo(scenario)
    if args.format == "json":
        doc_out = {key: [[_fmt(v) for v in row] for row in matrix.tolist()] for key, matrix in
                   zip(("empirical_S", "predicted_S", "relative_errors"),
                       (report.empirical_s, report.predicted_s, report.relative_errors))}
        doc_out.update(run_seeds=[], stream_version=sim_harness.STREAM_VERSION,
                       n_samples=report.n_samples, wall_time_s=_fmt(report.wall_time_s))
        # one tag per run (it seeds nothing), as the indented encoder prints them, in half its time
        tags = np.random.SeedSequence(scenario.master_seed).generate_state(scenario.n_runs)
        seeds = ",\n    ".join(map(str, tags.tolist()))
        return json.dumps(doc_out, indent=2, allow_nan=False).replace(
            '"run_seeds": []', '"run_seeds": [\n    ' + seeds + "\n  ]", 1)
    # one row per entry of the 2x2 matrices, in row-major order
    rows = zip(("S11", "S12", "S21", "S22"), report.empirical_s.ravel().tolist(),
               report.predicted_s.ravel().tolist(), report.relative_errors.ravel().tolist())
    return _csv(["entry", "empirical", "predicted", "relative_error"],
                ["%s", "%.6g", "%.6g", "%.6g"], [v for row in rows for v in row])


_FRAMES = ("spherical", "cartesian", "enu1", "enu2", "eci", "face")
_ENU = ("enu1", "enu2")


def _parse_pair(text: str | None, name: str, labels: str, needed_for: str) -> list[float]:
    """The two finite numbers of ``--NAME A,B``; absent or malformed is a ConfigError."""
    if text is None:
        raise ConfigError(f"--{name} {labels} is required for {needed_for}")
    values = _parse_float_list(text, name)
    if len(values) != 2:
        raise ConfigError(f"--{name} expects {labels}")
    return values


def cmd_transform(args) -> str:
    point = _parse_float_list(args.point, "point")
    if len(point) != 3:
        raise ConfigError(f"--point must have exactly 3 entries, got {len(point)}")
    src, dst = args.from_frame, args.to_frame
    earth = coords.EarthModel(equatorial_radius_m=args.r_ee, eccentricity=args.eccentricity)

    def site(frame):
        # enu1 is the frame of --site1, enu2 of --site2; GeodeticSite's
        # ValueError is an input error like a ConfigError
        name = "site" + frame[-1]
        return coords.GeodeticSite(*_parse_pair(getattr(args, name), name, "LON,LAT",
                                                "this frame pair"))

    vec = np.array(point)
    # an overflow is reported below as a non-finite result, not as a warning
    with np.errstate(all="ignore"):
        if src == dst:
            out = vec
        elif (src, dst) == ("spherical", "cartesian"):
            out = coords.spherical_to_cartesian(coords.SphericalTriple.from_array(vec))
        elif (src, dst) == ("cartesian", "spherical"):
            out = coords.cartesian_to_spherical(vec).as_array()
        elif src in _ENU and dst in _ENU:
            # site 1 is read first in either direction
            sites = {frame: site(frame) for frame in _ENU}
            out = (coords.enu1_velocity_to_enu2(vec, sites[src], sites[dst]) if args.velocity
                   else coords.enu1_position_to_enu2(vec, sites[src], sites[dst], earth))
        elif src in _ENU and dst == "eci":
            out = (coords.eci_to_enu(site(src)).T @ vec if args.velocity
                   else coords.enu_position_to_eci(vec, site(src), earth))
        elif src == "eci" and dst in _ENU:
            out = (coords.eci_to_enu(site(dst)) @ vec if args.velocity
                   else coords.eci_position_to_enu(vec, site(dst), earth))
        elif "face" in (src, dst) and (src in _ENU or dst in _ENU):
            rotation = coords.enu_to_face(*_parse_pair(args.face_angles, "face-angles",
                                                       "AZ,EL", "the face frame"))
            out = (rotation if dst == "face" else rotation.T) @ vec
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
    if args.format == "json":
        return json.dumps({"frame": dst, "point": values, "components": components},
                          indent=2, allow_nan=False)
    return _csv(components, ["%r"] * 3, values)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3, an input error, not argparse's 2; subparsers share the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        _write_output(args.func(args), args.output)
        return 0
    except (ValueError, MemoryError) as exc:
        # a DomainError is exit 2; ConfigErrors, the residual ValueErrors (bad
        # earth model, ...) and a run too large to allocate are input errors, exit 3
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, DomainError) else 3


if __name__ == "__main__":
    sys.exit(main())
