"""Coordinate frames and transforms for two-radar geometry.

Frames:

- spherical (range, azimuth, elevation) versus rectangular, per sensor
- ENU: local East-North-Up tangent frame at a sensor site
- FACE: radar-face frame, reached from ENU by a yaw-then-pitch rotation
- ECI: earth-centered frame used as the hub for inter-site transforms

Conventions: angles in radians, distances in meters. Azimuth (yaw) is
measured from east (+x) toward north (+y); elevation (pitch) from the
horizontal plane toward up (+z). All functions are pure.

The inter-site position transforms are evaluated through ECI as
R2 (R1' p + (o1 - o2)), with R a site's ECI-to-ENU rotation and o its ECI
origin, and returned in ``np.longdouble``: at site-scale magnitudes
(~1e7 m) double precision carries several nanometers of rounding per
rotation, which is above the consistency budget these transforms are held
to. Cast the results to ``float`` when that does not matter.

A site's long-double frame (rotation and origin) is computed once per
``GeodeticSite`` object and earth model and kept on the site, read-only,
so repeated transforms between the same site objects skip the
trigonometry. Only callers that reuse site objects gain: a transform
between new site objects computes and stores both frames, which costs
slightly more than computing them alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import NonFiniteTransform, ZeroVector

_LD = np.longdouble


@dataclass(frozen=True)
class SphericalTriple:
    """(range, azimuth, elevation) point or small increment in a sensor frame.

    For a point, ``range_m >= 0``, azimuth in (-pi, pi] and elevation in
    [-pi/2, pi/2]. Bias increments reuse the type with unconstrained small
    values, so no bounds are enforced here.
    """

    range_m: float
    azimuth: float
    elevation: float
    # set when the source vector was on the z-axis and azimuth is by convention 0
    at_pole: bool = field(default=False, compare=False)

    def as_array(self) -> np.ndarray:
        return np.array([self.range_m, self.azimuth, self.elevation])

    @classmethod
    def from_array(cls, v) -> "SphericalTriple":
        r, psi, theta = (float(x) for x in v)
        return cls(r, psi, theta)


@dataclass(frozen=True)
class GeodeticSite:
    """Sensor site given by geodetic longitude and latitude, radians.

    The long-double inter-site and ECI transforms keep the site's WGS-84
    frame on the object, outside the dataclass fields (equality, hashing,
    ``repr``, ``dataclasses.asdict``/``replace`` and pickling see only the
    longitude and latitude); another earth model's frame is computed per call.
    """

    longitude: float
    latitude: float

    def __post_init__(self):
        if not abs(self.latitude) <= math.pi / 2:
            raise ValueError(f"latitude {self.latitude} outside [-pi/2, pi/2]")
        if not math.isfinite(self.longitude):
            raise ValueError(f"longitude {self.longitude} is not finite")

    def __getstate__(self):
        # the cached frame is derived: a copy or unpickled site recomputes it
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class EarthModel:
    """Ellipsoid constants: equatorial radius (m) and eccentricity."""

    equatorial_radius_m: float = 6378137.0
    eccentricity: float = 0.0818191908426

    def __post_init__(self):
        if not 0 < self.equatorial_radius_m < math.inf:
            raise ValueError("equatorial radius must be positive and finite")
        if not 0 <= self.eccentricity < 1:
            raise ValueError("eccentricity must be in [0, 1)")


#: WGS-84 defaults; override via an explicit EarthModel where needed.
WGS84 = EarthModel()


def spherical_to_cartesian(point: SphericalTriple) -> np.ndarray:
    """Map (r, azimuth, elevation) to rectangular [x, y, z]."""
    r, psi, theta = point.range_m, point.azimuth, point.elevation
    c_el = math.cos(theta)
    return np.array([
        r * c_el * math.cos(psi),
        r * c_el * math.sin(psi),
        r * math.sin(theta),
    ])


def cartesian_to_spherical(point) -> SphericalTriple:
    """Map rectangular [x, y, z] to (r, azimuth, elevation).

    Uses the full-quadrant two-argument arctangent so azimuth lands in
    (-pi, pi]. On the z-axis (x = y = 0) the azimuth is undefined; it is
    set to 0 and the result is flagged ``at_pole``. The range is taken
    with ``math.hypot``, so it is finite whenever a double can hold it.

    Raises ZeroVector for the zero vector and NonFiniteTransform when the
    range is not finite.
    """
    x, y, z = (float(v) for v in np.asarray(point, dtype=float))
    r = math.hypot(x, y, z)
    if r == 0.0:
        raise ZeroVector("cannot convert the zero vector to spherical")
    if not math.isfinite(r):
        raise NonFiniteTransform(f"range of the point is not finite ({r})")
    r_xy = math.hypot(x, y)
    at_pole = r_xy == 0.0
    psi = 0.0 if at_pole else math.atan2(y, x)
    if psi == -math.pi:
        psi = math.pi
    theta = math.atan2(z, r_xy)
    return SphericalTriple(r, psi, theta, at_pole=at_pole)


def _pointing_rows(c_psi, s_psi, c_th, s_th) -> tuple:
    # the along, cross-azimuth and elevation unit rows at azimuth psi and
    # elevation theta; dtype-generic, so each caller keeps its own trigonometry
    return ((c_th * c_psi, c_th * s_psi, s_th),
            (-s_psi, c_psi, 0.0),
            (-s_th * c_psi, -s_th * s_psi, c_th))


def enu_to_face(azimuth: float, elevation: float) -> np.ndarray:
    """Rotation taking ENU vectors into the radar-face frame.

    Pitch by the elevation after yawing by the azimuth; rows are the face
    axes expressed in ENU.
    """
    return np.array(_pointing_rows(np.cos(azimuth), np.sin(azimuth),
                                   np.cos(elevation), np.sin(elevation)))


def face_to_enu(azimuth: float, elevation: float) -> np.ndarray:
    """Inverse of enu_to_face (the transpose)."""
    return enu_to_face(azimuth, elevation).T


def _site_frame(lon, lat, radius, ecc) -> tuple[np.ndarray, np.ndarray]:
    # dtype-generic (float or np.longdouble), one sin/cos of each angle: the
    # ECI-to-ENU rotation, rows the east, north, up directions in ECI (the
    # pointing rows at (lon, lat), cycled), and the ECI ellipsoid point at the site
    s_lat = np.sin(lat)
    up, east, north = _pointing_rows(np.cos(lon), np.sin(lon), np.cos(lat), s_lat)
    rotation = np.array([east, north, up], dtype=s_lat.dtype)
    e2 = ecc * ecc
    scale = radius / np.sqrt(1.0 - e2 * s_lat * s_lat)
    # scalar products, not scale times an array: the same roundings, one array fewer
    origin = np.array([scale * up[0], scale * up[1], scale * ((1.0 - e2) * s_lat)],
                      dtype=s_lat.dtype)
    return rotation, origin


def eci_to_enu(site: GeodeticSite) -> np.ndarray:
    """Rotation from the earth-centered frame to the site's ENU frame."""
    # the rotation does not depend on the earth model
    return _site_frame(float(site.longitude), float(site.latitude), 1.0, 0.0)[0]


def enu1_to_enu2(site1: GeodeticSite, site2: GeodeticSite) -> np.ndarray:
    """Rotation from site 1's ENU frame to site 2's, through ECI.

    Equals eci_to_enu(site2) @ eci_to_enu(site1).T; the transpose,
    enu1_to_enu2(site2, site1), is the reverse rotation.
    """
    return eci_to_enu(site2) @ eci_to_enu(site1).T


def _site_frame_ld(site: GeodeticSite, earth: EarthModel) -> tuple[np.ndarray, np.ndarray]:
    # the site's ECI-to-ENU rotation and ECI origin in extended precision; the
    # WGS-84 frame is computed once per site object and kept on it, shared and
    # so read-only; any other earth model's frame is computed on each call
    wgs84 = earth is WGS84 or earth == WGS84
    frame = site.__dict__.get("_frame_ld") if wgs84 else None
    if frame is None:
        frame = _site_frame(_LD(site.longitude), _LD(site.latitude),
                            _LD(earth.equatorial_radius_m), _LD(earth.eccentricity))
        if wgs84:
            for array in frame:
                array.setflags(write=False)
            # a plain instance attribute, not a dataclass field; written past
            # the frozen __setattr__
            vars(site)["_frame_ld"] = frame
    return frame


def enu1_position_to_enu2(
    p_enu1, site1: GeodeticSite, site2: GeodeticSite, earth: EarthModel = WGS84
) -> np.ndarray:
    """Full position transform (rotation plus translation) from ENU(1) to ENU(2).

    Returns an ``np.longdouble`` array; see the module note on precision.
    """
    p = np.asarray(p_enu1, dtype=_LD)
    r1, origin1 = _site_frame_ld(site1, earth)
    r2, origin2 = _site_frame_ld(site2, earth)
    return r2.dot(r1.T.dot(p) + (origin1 - origin2))


def enu2_position_to_enu1(
    p_enu2, site1: GeodeticSite, site2: GeodeticSite, earth: EarthModel = WGS84
) -> np.ndarray:
    """Inverse of enu1_position_to_enu2."""
    return enu1_position_to_enu2(p_enu2, site2, site1, earth)


def enu1_velocity_to_enu2(v_enu1, site1: GeodeticSite, site2: GeodeticSite) -> np.ndarray:
    """Velocity transform from ENU(1) to ENU(2), the rotation alone; swap the sites to reverse."""
    # the rotation does not depend on the earth model
    v = np.asarray(v_enu1, dtype=_LD)
    return (_site_frame_ld(site2, WGS84)[0] @ _site_frame_ld(site1, WGS84)[0].T) @ v


def enu_position_to_eci(p_enu, site: GeodeticSite, earth: EarthModel = WGS84) -> np.ndarray:
    """Position in ECI of a point given in a site's ENU frame.

    The ENU origin, ``p_enu = 0``, is the ellipsoid surface point at the
    site: with eccentricity 0 the sphere point radius * (cosL cosO,
    cosL sinO, sinL); the ellipsoid form divides by sqrt(1 - e^2 sin^2 L)
    and applies (1 - e^2) to the polar component only.
    """
    r, origin = _site_frame_ld(site, earth)
    return origin + r.T @ np.asarray(p_enu, dtype=_LD)


def eci_position_to_enu(p_eci, site: GeodeticSite, earth: EarthModel = WGS84) -> np.ndarray:
    """Position in a site's ENU frame of a point given in ECI."""
    r, origin = _site_frame_ld(site, earth)
    return r @ (np.asarray(p_eci, dtype=_LD) - origin)
