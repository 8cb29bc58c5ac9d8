"""Closed-form recovery of two sensors' absolute biases from their relative bias.

The relative bias between two radars tracking the same target is assumed
known in the rectangular ENU frame of sensor 1. The six absolute bias
increments (per sensor: range, cross-azimuth cos(theta) dpsi, elevation;
mapped to ENU by A = face_to_enu(psi, theta) diag(1, p, p), the poles
included) are recovered by minimizing a weighted quadratic subject to the
affine constraint that the difference of the two absolute biases, mapped to
ENU(1), equals the given relative bias. The objective is quadratic and the
constraint affine, so the first-order conditions are solved in closed form
and the result is the global minimum.

Two cost figures are reported on solutions:

- ``objective``: the minimized functional, sum of k_i^2 * d_i^2 / 2;
- ``cost``: the normalized figure sum of d_i^2 / k_i^2, the convention
  used by the reference solution tables for this method.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .coords import SphericalTriple, _pointing_rows
from .errors import SingularGeometry, SingularSystem

# a target distance below this is rejected as singular geometry
MIN_RANGE_M = 1e-6

_COND_LIMIT = 1e14
# a returned solution meets the constraint to this fraction of |relative_bias|,
# or to the smallest normal double, below which a residual is rounding
_CONSTRAINT_RTOL = 1e-9


def _number(value, name: str, kind=float):
    # a document's number as ``kind``; float() and int() would take a bool or a numeric
    # string, int() would truncate a fraction (2e4 is 20000), float() overflows on a huge int
    if kind is int and (isinstance(value, bool)
                        or isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if isinstance(value, (bool, str)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise ValueError(f"{name} does not fit a double") from None
    except TypeError:  # null, a list or an object; Python's own text names no field
        raise ValueError(f"{name} must be a number, got {value!r}") from None


def _from_numbers(kind, doc: dict, name: str):
    # the record ``kind`` from the document object ``name`` of numbers: every
    # field without a default, and each field with one that the document holds
    if not isinstance(doc, dict):
        raise ValueError(f"{name} must be an object, got {doc!r}")
    return kind(**{f.name: _number(doc[f.name], f.name) for f in fields(kind)
                   if f.default is MISSING or f.name in doc})


@dataclass(frozen=True)
class SensorGeometry:
    """One sensor's view of the target: distance and pointing angles.

    ``p_t`` is the sensor-to-target distance in meters; callers pass the
    measured range since true range is unknown. ``azimuth``/``elevation``
    are the pointing angles in radians.
    """

    p_t: float
    azimuth: float
    elevation: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.p_t, self.azimuth, self.elevation))):
            raise ValueError(f"sensor geometry must be finite, got {self}")


@dataclass(frozen=True)
class BiasCostWeights:
    """Squared bias costs: range weights unitless, angle weights in m^2.

    All six must be finite and strictly positive; angle weights carry m^2 so
    the six quadratic terms are commensurable.
    """

    k_r1_sq: float
    k_psi1_sq: float
    k_theta1_sq: float
    k_r2_sq: float
    k_psi2_sq: float
    k_theta2_sq: float

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if not 0 < value < math.inf:
                raise ValueError(f"weight {name} must be finite and positive, got {value}")

    def sensor1(self) -> np.ndarray:
        return np.array([self.k_r1_sq, self.k_psi1_sq, self.k_theta1_sq])

    def sensor2(self) -> np.ndarray:
        return np.array([self.k_r2_sq, self.k_psi2_sq, self.k_theta2_sq])


@dataclass(frozen=True)
class RegistrationProblem:
    """Inputs of one bias-recovery solve.

    ``relative_bias`` is the (east, north, up) relative bias in ENU of
    sensor 1, meters; it must be finite.
    """

    relative_bias: np.ndarray
    geom1: SensorGeometry
    geom2: SensorGeometry
    weights: BiasCostWeights

    def __post_init__(self):
        b = np.asarray(self.relative_bias, dtype=float)
        if b.shape != (3,):
            raise ValueError(f"relative_bias must be a 3-vector, got shape {b.shape}")
        if not all(map(math.isfinite, b.tolist())):
            raise ValueError(f"relative_bias must be finite, got {b.tolist()}")
        object.__setattr__(self, "relative_bias", b)

    @classmethod
    def from_dict(cls, doc: dict) -> "RegistrationProblem":
        """Problem from the ``register`` config document.

        The document holds ``relative_bias`` (a list of three numbers), ``sensor1``
        and ``sensor2`` objects with ``p_t``, ``azimuth`` and ``elevation``,
        and a ``weights`` object with the six BiasCostWeights fields.
        Missing fields raise KeyError and malformed ones ValueError; a
        bool or a string is not a number here.
        """
        bias = doc["relative_bias"]
        if not isinstance(bias, (list, tuple)):
            raise ValueError(f"relative_bias must be a list, got {bias!r}")
        return cls(
            relative_bias=np.array([_number(v, "relative_bias") for v in bias]),
            geom1=_from_numbers(SensorGeometry, doc["sensor1"], "sensor1"),
            geom2=_from_numbers(SensorGeometry, doc["sensor2"], "sensor2"),
            weights=_from_numbers(BiasCostWeights, doc["weights"], "weights"),
        )


@dataclass(frozen=True)
class RegistrationSolution:
    """Recovered increments plus diagnostics.

    Each bias's ``azimuth`` is a cross-azimuth increment, cos(theta) dpsi;
    ``multipliers`` are the three constraint multipliers (meters);
    ``constraint_residual`` is the norm of the constraint violation in
    meters and ``kkt_residual`` the stationarity residual relative to the
    objective gradient norm.
    """

    bias1: SphericalTriple
    bias2: SphericalTriple
    cost: float
    objective: float
    multipliers: np.ndarray
    constraint_residual: float
    kkt_residual: float


def _a_rows(geom: SensorGeometry, label: str) -> tuple:
    # the rows of A = face_to_enu(psi, theta) diag(1, p, p), as Python floats
    if not geom.p_t >= MIN_RANGE_M:
        raise SingularGeometry(f"singular geometry: {label} (target distance {geom.p_t} m)")
    (a_e, a_n, a_u), (c_e, c_n, c_u), (t_e, t_n, t_u) = _pointing_rows(
        math.cos(geom.azimuth), math.sin(geom.azimuth),
        math.cos(geom.elevation), math.sin(geom.elevation))
    p = float(geom.p_t)
    return ((a_e, c_e * p, t_e * p),
            (a_n, c_n * p, t_n * p),
            (a_u, c_u * p, t_u * p))


def build_A(geom: SensorGeometry, label: str = "sensor") -> np.ndarray:
    """Matrix mapping (dr, dpsi, dtheta) to the bias vector in that sensor's ENU.

    A = face_to_enu(azimuth, elevation) diag(1, p, p), p the sensor-target
    distance: a rotation times a scaling, so nonsingular at every elevation.
    """
    return np.array(_a_rows(geom, label))


def relative_bias_from_positions(p1_enu1, p2_enu1, p_1to2_enu1) -> np.ndarray:
    """Relative bias in ENU(1) from the two track positions and the baseline.

    All three arguments are positions in sensor 1's ENU frame; the result
    is p1 - p_1to2 - p2.
    """
    p1 = np.asarray(p1_enu1, dtype=float)
    p2 = np.asarray(p2_enu1, dtype=float)
    base = np.asarray(p_1to2_enu1, dtype=float)
    return p1 - base - p2


def _constraint_matrix(problem: RegistrationProblem) -> np.ndarray:
    """C = [-A1, A2], so the constraint over the six increments reads C e = relative_bias."""
    a1, a2 = _a_rows(problem.geom1, "sensor 1"), _a_rows(problem.geom2, "sensor 2")
    return np.array([(-x1, -y1, -z1, *row2) for (x1, y1, z1), row2 in zip(a1, a2)])


def _kkt_residual(c, d, e, multipliers) -> float:
    # hypot norms: squaring entries near 1e154 would overflow to inf
    grad = d * e
    resid_norm = math.hypot(*(grad - c.T.dot(multipliers)).tolist())
    scale = math.hypot(*grad.tolist())
    return resid_norm / scale if scale else resid_norm


def solve_absolute_bias(problem: RegistrationProblem) -> RegistrationSolution:
    """Recover both sensors' absolute bias increments in closed form.

    With C = [-A1, A2] and d the six weights, stationarity gives
    e = C' a / d, so the multipliers solve B B' a = relative_bias with
    B = C diag(d)^-1/2. One SVD B = U S V' gives the condition
    (s_max/s_min)^2 of B B' and its inverse G = U S^-2 U'. From zero, three
    refinement passes step the multipliers by -G r and the increments by
    -(C'/d) G r on the constraint residual r. U S^-1, S^-1 U' and C'/d are
    formed once per solve, and G r is taken as (U S^-1)(S^-1 U' r): G
    formed as one matrix loses up to 1e-10 of e at condition 1e13, and
    S^-2 formed at all overflows once s exceeds about 1.3e154. Taking e
    from a keeps stationarity exact to rounding for any weight spread, and
    the passes do the same for the constraint; the third pass is needed
    near the condition limit. Raises SingularGeometry for a distance
    below MIN_RANGE_M, and SingularSystem if B or the solution overflows,
    B B' is too ill-conditioned to invert, or the solution misses the
    constraint by more than 1e-9 of |relative_bias| and more than the
    smallest normal double (multipliers below the smallest double, say).
    """
    c = _constraint_matrix(problem)
    d = np.array([*vars(problem.weights).values()])        # the six weights, in field order
    with np.errstate(all="ignore"):
        bmat = c / np.sqrt(d)
        # LAPACK's SVD may never return on a matrix holding inf or nan
        if not all(map(math.isfinite, bmat.ravel().tolist())):
            raise SingularSystem("weighted constraint matrix overflows")
        u, s, _ = np.linalg.svd(bmat, full_matrices=False)
        cond = (s[0] / s[-1]) ** 2
        if not cond <= _COND_LIMIT:
            raise SingularSystem(f"multiplier system is not invertible (condition {cond:.3g})")
        u_s = u / s
        ut_s, ct_d = u_s.T, (c / d).T
        multipliers, e, resid = np.zeros(3), np.zeros(6), -problem.relative_bias
        for _ in range(3):
            step = u_s.dot(ut_s.dot(resid))
            multipliers -= step
            e -= ct_d.dot(step)
            resid = c.dot(e) - problem.relative_bias
        e_sq = e * e
        objective, cost = 0.5 * float(d.dot(e_sq)), float(e_sq.dot(1.0 / d))
        constraint_resid = math.hypot(*resid.tolist())
        kkt = _kkt_residual(c, d, e, multipliers)
    # d > 0, so a non-finite entry of e makes objective and cost non-finite,
    # and a non-finite multiplier makes C' a, and so kkt, non-finite
    if not all(map(math.isfinite, (cost, objective, constraint_resid, kkt))):
        raise SingularSystem("solution overflows")
    bias_norm = math.hypot(*problem.relative_bias.tolist())
    if not constraint_resid <= max(_CONSTRAINT_RTOL * bias_norm, sys.float_info.min):
        raise SingularSystem(f"solution misses the constraint by {constraint_resid:.3g} m")
    increments = e.tolist()
    return RegistrationSolution(
        bias1=SphericalTriple(*increments[:3]), bias2=SphericalTriple(*increments[3:]),
        cost=cost, objective=objective, multipliers=multipliers,
        constraint_residual=constraint_resid, kkt_residual=kkt,
    )
