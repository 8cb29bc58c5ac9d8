"""Coordinate frames and transforms for two-radar geometry.

Frames:

- spherical (range, azimuth, elevation) versus rectangular, per sensor
- ENU: local East-North-Up tangent frame at a sensor site
- FACE: radar-face frame, reached from ENU by a yaw-then-pitch rotation
- ECI: earth-centered frame used as the hub for inter-site transforms

Conventions: angles in radians, distances in meters. Azimuth (yaw) is
measured from east (+x) toward north (+y); elevation (pitch) from the
horizontal plane toward up (+z). All functions are pure.

The inter-site position transforms are evaluated and returned in
``np.longdouble``: at site-scale magnitudes (~1e7 m) double precision
carries several nanometers of rounding per rotation, which is above the
consistency budget these transforms are held to. Cast the results to
``float`` when that does not matter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    """Sensor site given by geodetic longitude and latitude, radians."""

    longitude: float
    latitude: float

    def __post_init__(self):
        if not abs(self.latitude) <= math.pi / 2:
            raise ValueError(f"latitude {self.latitude} outside [-pi/2, pi/2]")
        if not math.isfinite(self.longitude):
            raise ValueError(f"longitude {self.longitude} is not finite")


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


def enu_to_face(azimuth: float, elevation: float) -> np.ndarray:
    """Rotation taking ENU vectors into the radar-face frame.

    Pitch by the elevation after yawing by the azimuth; rows are the face
    axes expressed in ENU.
    """
    c_psi, s_psi = np.cos(azimuth), np.sin(azimuth)
    c_th, s_th = np.cos(elevation), np.sin(elevation)
    return np.array([
        [c_th * c_psi, c_th * s_psi, s_th],
        [-s_psi, c_psi, 0.0],
        [-s_th * c_psi, -s_th * s_psi, c_th],
    ])


def face_to_enu(azimuth: float, elevation: float) -> np.ndarray:
    """Inverse of enu_to_face (the transpose)."""
    return enu_to_face(azimuth, elevation).T


def _eci_to_enu(longitude, latitude) -> np.ndarray:
    # dtype-generic: rows are the east, north, up directions in ECI
    s_lon, c_lon = np.sin(longitude), np.cos(longitude)
    s_lat, c_lat = np.sin(latitude), np.cos(latitude)
    return np.array([
        [-s_lon, c_lon, 0.0],
        [-s_lat * c_lon, -s_lat * s_lon, c_lat],
        [c_lat * c_lon, c_lat * s_lon, s_lat],
    ])


def eci_to_enu(site: GeodeticSite) -> np.ndarray:
    """Rotation from the earth-centered frame to the site's ENU frame."""
    return _eci_to_enu(float(site.longitude), float(site.latitude))


def enu_to_eci(site: GeodeticSite) -> np.ndarray:
    """Inverse of eci_to_enu (the transpose)."""
    return eci_to_enu(site).T


def _site_position_eci(longitude, latitude, radius, ecc) -> np.ndarray:
    s_lat, c_lat = np.sin(latitude), np.cos(latitude)
    e2 = ecc * ecc
    scale = radius / np.sqrt(1.0 - e2 * s_lat * s_lat)
    return scale * np.array([
        c_lat * np.cos(longitude),
        c_lat * np.sin(longitude),
        (1.0 - e2) * s_lat,
    ])


def site_position_eci(site: GeodeticSite, earth: EarthModel = WGS84) -> np.ndarray:
    """Earth-centered position of the ellipsoid surface point at the site.

    With eccentricity 0 this is the sphere point radius * (cosL cosO,
    cosL sinO, sinL). The ellipsoid form divides by sqrt(1 - e^2 sin^2 L)
    and applies (1 - e^2) to the polar component only, i.e. the surface
    point at zero height.
    """
    return _site_position_eci(
        float(site.longitude), float(site.latitude),
        float(earth.equatorial_radius_m), float(earth.eccentricity),
    ).astype(float)


def enu1_to_enu2(site1: GeodeticSite, site2: GeodeticSite) -> np.ndarray:
    """Rotation from site 1's ENU frame to site 2's, through ECI.

    Equals eci_to_enu(site2) @ enu_to_eci(site1); the transpose is the
    reverse rotation.
    """
    return eci_to_enu(site2) @ enu_to_eci(site1)


def enu2_to_enu1(site1: GeodeticSite, site2: GeodeticSite) -> np.ndarray:
    """Rotation from site 2's ENU frame back to site 1's."""
    return enu1_to_enu2(site1, site2).T


def inter_site_translation_eci(
    site1: GeodeticSite, site2: GeodeticSite, earth: EarthModel = WGS84
) -> np.ndarray:
    """Vector from site 1 to site 2 in earth-centered coordinates."""
    return site_position_eci(site2, earth) - site_position_eci(site1, earth)


def _site_frame_ld(site: GeodeticSite, earth: EarthModel) -> tuple[np.ndarray, np.ndarray]:
    # the site's ECI-to-ENU rotation and ECI origin in extended precision
    lon, lat = _LD(site.longitude), _LD(site.latitude)
    origin = _site_position_eci(lon, lat, _LD(earth.equatorial_radius_m),
                                _LD(earth.eccentricity))
    return _eci_to_enu(lon, lat), origin


def enu1_position_to_enu2(
    p_enu1, site1: GeodeticSite, site2: GeodeticSite, earth: EarthModel = WGS84
) -> np.ndarray:
    """Full position transform (rotation plus translation) from ENU(1) to ENU(2).

    Returns an ``np.longdouble`` array; see the module note on precision.
    """
    p = np.asarray(p_enu1, dtype=_LD)
    r1, origin1 = _site_frame_ld(site1, earth)
    r2, origin2 = _site_frame_ld(site2, earth)
    return -(r2 @ (origin2 - origin1)) + (r2 @ r1.T) @ p


def enu2_position_to_enu1(
    p_enu2, site1: GeodeticSite, site2: GeodeticSite, earth: EarthModel = WGS84
) -> np.ndarray:
    """Inverse of enu1_position_to_enu2."""
    return enu1_position_to_enu2(p_enu2, site2, site1, earth)


def enu1_velocity_to_enu2(v_enu1, site1: GeodeticSite, site2: GeodeticSite) -> np.ndarray:
    """Velocity transform from ENU(1) to ENU(2): the rotation alone."""
    v = np.asarray(v_enu1, dtype=_LD)
    # the rotations do not depend on the earth model
    r1 = _site_frame_ld(site1, WGS84)[0]
    r2 = _site_frame_ld(site2, WGS84)[0]
    return (r2 @ r1.T) @ v


def enu2_velocity_to_enu1(v_enu2, site1: GeodeticSite, site2: GeodeticSite) -> np.ndarray:
    """Velocity transform from ENU(2) back to ENU(1): the rotation alone."""
    return enu1_velocity_to_enu2(v_enu2, site2, site1)


def enu_position_to_eci(p_enu, site: GeodeticSite, earth: EarthModel = WGS84) -> np.ndarray:
    """Position in ECI of a point given in a site's ENU frame."""
    r, origin = _site_frame_ld(site, earth)
    return origin + r.T @ np.asarray(p_enu, dtype=_LD)


def eci_position_to_enu(p_eci, site: GeodeticSite, earth: EarthModel = WGS84) -> np.ndarray:
    """Position in a site's ENU frame of a point given in ECI."""
    r, origin = _site_frame_ld(site, earth)
    return r @ (np.asarray(p_eci, dtype=_LD) - origin)
