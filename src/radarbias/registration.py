"""Closed-form recovery of two sensors' absolute biases from their relative bias.

The relative bias between two radars tracking the same target is assumed
known in the rectangular ENU frame of sensor 1. The six absolute bias
increments (range, azimuth, elevation per sensor) are recovered by
minimizing a weighted quadratic subject to the affine constraint that the
difference of the two absolute biases, mapped to ENU(1), equals the given
relative bias. The objective is quadratic and the constraint affine, so
the first-order conditions are solved in closed form and the result is the
global minimum.

Two cost figures are reported on solutions:

- ``objective``: the minimized functional, sum of k_i^2 * d_i^2 / 2;
- ``cost``: the normalized figure sum of d_i^2 / k_i^2, the convention
  used by the reference solution tables for this method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .coords import SphericalTriple
from .errors import SingularGeometry, SingularSystem

# geometry is rejected as singular below these
COS_ELEVATION_TOL = 1e-8
MIN_RANGE_M = 1e-6

_COND_LIMIT = 1e14


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

    All six must be strictly positive; angle weights carry m^2 so the six
    quadratic terms are commensurable.
    """

    k_r1_sq: float
    k_psi1_sq: float
    k_theta1_sq: float
    k_r2_sq: float
    k_psi2_sq: float
    k_theta2_sq: float

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if not value > 0:
                raise ValueError(f"weight {name} must be strictly positive, got {value}")

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
        if not np.all(np.isfinite(b)):
            raise ValueError(f"relative_bias must be finite, got {b.tolist()}")
        object.__setattr__(self, "relative_bias", b)

    @classmethod
    def from_dict(cls, doc: dict) -> "RegistrationProblem":
        """Problem from the ``register`` config document.

        The document holds ``relative_bias`` (three numbers), ``sensor1``
        and ``sensor2`` objects with ``p_t``, ``azimuth`` and ``elevation``,
        and a ``weights`` object with the six BiasCostWeights fields.
        Missing fields raise KeyError, malformed ones TypeError or
        ValueError.
        """
        def sensor(key: str) -> SensorGeometry:
            sub = doc[key]
            return SensorGeometry(p_t=float(sub["p_t"]), azimuth=float(sub["azimuth"]),
                                  elevation=float(sub["elevation"]))

        weights = doc["weights"]
        return cls(
            relative_bias=np.array([float(v) for v in doc["relative_bias"]]),
            geom1=sensor("sensor1"),
            geom2=sensor("sensor2"),
            weights=BiasCostWeights(**{f.name: float(weights[f.name])
                                       for f in fields(BiasCostWeights)}),
        )


@dataclass(frozen=True)
class RegistrationSolution:
    """Recovered increments plus diagnostics.

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


def build_A(geom: SensorGeometry, label: str = "sensor") -> np.ndarray:
    """Matrix mapping (dr, dpsi, dtheta) to the bias vector in that sensor's ENU.

    Columns are the range, cross-azimuth and cross-elevation directions,
    the angle columns scaled by the sensor-target distance. Singular iff
    the distance is zero or the elevation is +-pi/2.
    """
    if not geom.p_t >= MIN_RANGE_M:
        raise SingularGeometry(label, f"target distance {geom.p_t} m")
    c_th, s_th = np.cos(geom.elevation), np.sin(geom.elevation)
    if abs(c_th) < COS_ELEVATION_TOL:
        raise SingularGeometry(label, f"elevation {geom.elevation} rad too close to +-pi/2")
    c_psi, s_psi = np.cos(geom.azimuth), np.sin(geom.azimuth)
    p = geom.p_t
    return np.array([
        [c_th * c_psi, -s_psi * p, -s_th * c_psi * p],
        [c_th * s_psi, c_psi * p, -s_th * s_psi * p],
        [s_th, 0.0, c_th * p],
    ])


def relative_bias_from_positions(p1_enu1, p2_enu1, p_1to2_enu1) -> np.ndarray:
    """Relative bias in ENU(1) from the two track positions and the baseline.

    All three arguments are positions in sensor 1's ENU frame; the result
    is p1 - p_1to2 - p2.
    """
    p1 = np.asarray(p1_enu1, dtype=float)
    p2 = np.asarray(p2_enu1, dtype=float)
    base = np.asarray(p_1to2_enu1, dtype=float)
    return p1 - base - p2


def evaluate_cost(bias1: SphericalTriple, bias2: SphericalTriple,
                  weights: BiasCostWeights) -> float:
    """Quadratic objective: sum over the six increments of k^2 * d^2 / 2."""
    e1 = bias1.as_array()
    e2 = bias2.as_array()
    return 0.5 * float(weights.sensor1() @ e1**2 + weights.sensor2() @ e2**2)


def normalized_cost(bias1: SphericalTriple, bias2: SphericalTriple,
                    weights: BiasCostWeights) -> float:
    """Normalized cost: sum over the six increments of d^2 / k^2.

    This is the convention of the reference solution tables; the solver
    reports it as ``cost`` alongside the minimized ``objective``.
    """
    e1 = bias1.as_array()
    e2 = bias2.as_array()
    return float(e1**2 @ (1.0 / weights.sensor1()) + e2**2 @ (1.0 / weights.sensor2()))


def _constraint(a1, a2, e1, e2, relative_bias) -> np.ndarray:
    return a2 @ e2 - a1 @ e1 - relative_bias


def _kkt_residual(a1, a2, d1, d2, e1, e2, multipliers) -> float:
    grad = np.concatenate([d1 * e1, d2 * e2])
    # the constraint gradients stacked over the six increments
    congrad = np.vstack([-a1.T, a2.T])
    resid = grad - congrad @ multipliers
    scale = np.linalg.norm(grad)
    if scale == 0.0:
        return float(np.linalg.norm(resid))
    return float(np.linalg.norm(resid) / scale)


def constraint_residual(bias1: SphericalTriple, bias2: SphericalTriple,
                        problem: RegistrationProblem) -> np.ndarray:
    """Constraint value A2 e2 - A1 e1 - relative_bias (zero when feasible)."""
    return _constraint(build_A(problem.geom1, "sensor 1"), build_A(problem.geom2, "sensor 2"),
                       bias1.as_array(), bias2.as_array(), problem.relative_bias)


def kkt_stationarity_residual(bias1: SphericalTriple, bias2: SphericalTriple,
                              multipliers, problem: RegistrationProblem) -> float:
    """Norm of grad(objective) minus the multiplier combination of constraint
    gradients, relative to the objective gradient norm."""
    return _kkt_residual(build_A(problem.geom1, "sensor 1"), build_A(problem.geom2, "sensor 2"),
                         problem.weights.sensor1(), problem.weights.sensor2(),
                         bias1.as_array(), bias2.as_array(),
                         np.asarray(multipliers, dtype=float))


def solve_absolute_bias(problem: RegistrationProblem) -> RegistrationSolution:
    """Recover both sensors' absolute bias increments in closed form.

    Eliminates sensor 2's increments through the constraint, applies the
    first-order optimality conditions, and solves the resulting 3x3 linear
    system for sensor 1's increments. Multipliers are recovered for
    diagnostics. Raises SingularGeometry for degenerate pointing and
    SingularSystem if the combined reduction matrix is not invertible.
    """
    a1 = build_A(problem.geom1, "sensor 1")
    a2 = build_A(problem.geom2, "sensor 2")
    d1 = problem.weights.sensor1()
    d2 = problem.weights.sensor2()

    # stationarity couples the two sensors through the multipliers:
    #   diag(d1) e1 = -A1' a,  diag(d2) e2 = A2' a
    # so e2 = diag(d2)^-1 A2' (-A1')^-1 diag(d1) e1, and the constraint
    # e2 = A2^-1 (A1 e1 + b) closes the system on e1.
    m1 = -a1.T
    m2 = a2.T
    coupling = (m2 / d2[:, None]) @ np.linalg.solve(m1, np.diag(d1))
    reduction = coupling - np.linalg.solve(a2, a1)
    cond = np.linalg.cond(reduction)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularSystem(
            f"combined reduction matrix is not invertible (condition {cond:.3g})")

    e1 = np.linalg.solve(reduction, np.linalg.solve(a2, problem.relative_bias))
    e2 = coupling @ e1
    multipliers = np.linalg.solve(m1, d1 * e1)

    bias1 = SphericalTriple.from_array(e1)
    bias2 = SphericalTriple.from_array(e2)
    return RegistrationSolution(
        bias1=bias1,
        bias2=bias2,
        cost=normalized_cost(bias1, bias2, problem.weights),
        objective=evaluate_cost(bias1, bias2, problem.weights),
        multipliers=multipliers,
        constraint_residual=float(np.linalg.norm(
            _constraint(a1, a2, e1, e2, problem.relative_bias))),
        kkt_residual=_kkt_residual(a1, a2, d1, d2, e1, e2, multipliers),
    )
