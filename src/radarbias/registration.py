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


def _constraint_matrix(problem: RegistrationProblem) -> np.ndarray:
    """C = [-A1, A2], so the constraint over the six increments reads C e = relative_bias."""
    return np.hstack([-build_A(problem.geom1, "sensor 1"), build_A(problem.geom2, "sensor 2")])


def _constraint(c, e, relative_bias) -> np.ndarray:
    return c @ e - relative_bias


def _kkt_residual(c, d, e, multipliers) -> float:
    # hypot norms: squaring entries near 1e154 would overflow to inf
    grad = d * e
    resid_norm = np.hypot.reduce(grad - c.T @ multipliers)
    scale = np.hypot.reduce(grad)
    if scale == 0.0:
        return float(resid_norm)
    return float(resid_norm / scale)


def constraint_residual(bias1: SphericalTriple, bias2: SphericalTriple,
                        problem: RegistrationProblem) -> np.ndarray:
    """Constraint value A2 e2 - A1 e1 - relative_bias (zero when feasible)."""
    e = np.concatenate([bias1.as_array(), bias2.as_array()])
    return _constraint(_constraint_matrix(problem), e, problem.relative_bias)


def kkt_stationarity_residual(bias1: SphericalTriple, bias2: SphericalTriple,
                              multipliers, problem: RegistrationProblem) -> float:
    """Norm of grad(objective) minus the multiplier combination of constraint
    gradients, relative to the objective gradient norm."""
    return _kkt_residual(_constraint_matrix(problem),
                         np.concatenate([problem.weights.sensor1(), problem.weights.sensor2()]),
                         np.concatenate([bias1.as_array(), bias2.as_array()]),
                         np.asarray(multipliers, dtype=float))


def solve_absolute_bias(problem: RegistrationProblem) -> RegistrationSolution:
    """Recover both sensors' absolute bias increments in closed form.

    With C = [-A1, A2] and d the six weights, stationarity gives
    e = C' a / d, so the multipliers solve B B' a = relative_bias with
    B = C diag(d)^-1/2. One SVD B = U S V' gives a = U S^-2 U' b and the
    condition (s_max/s_min)^2 of B B'. Taking e from a keeps stationarity
    exact to rounding for any weight spread, and three passes of the solve
    on the constraint residual do the same for the constraint. Raises
    SingularGeometry for degenerate pointing, and SingularSystem if B or
    the solution overflows or B B' is too ill-conditioned to invert.
    """
    c = _constraint_matrix(problem)
    d = np.concatenate([problem.weights.sensor1(), problem.weights.sensor2()])
    with np.errstate(all="ignore"):
        bmat = c / np.sqrt(d)
        # LAPACK's SVD may never return on a matrix holding inf or nan
        if not np.all(np.isfinite(bmat)):
            raise SingularSystem("weighted constraint matrix overflows")
        u, s, _ = np.linalg.svd(bmat, full_matrices=False)
        cond = (s[0] / s[-1]) ** 2
        if not cond <= _COND_LIMIT:
            raise SingularSystem(f"multiplier system is not invertible (condition {cond:.3g})")
        multipliers, e, resid = np.zeros(3), np.zeros(6), -problem.relative_bias
        for _ in range(3):
            step = u @ ((u.T @ resid) / s**2)
            multipliers, e = multipliers - step, e - (c.T @ step) / d
            resid = _constraint(c, e, problem.relative_bias)
        bias1, bias2 = SphericalTriple.from_array(e[:3]), SphericalTriple.from_array(e[3:])
        solution = RegistrationSolution(
            bias1=bias1, bias2=bias2, multipliers=multipliers,
            cost=normalized_cost(bias1, bias2, problem.weights),
            objective=evaluate_cost(bias1, bias2, problem.weights),
            constraint_residual=float(np.linalg.norm(resid)),
            kkt_residual=_kkt_residual(c, d, e, multipliers),
        )
    if not np.all(np.isfinite([*e, *multipliers, solution.cost, solution.objective,
                               solution.constraint_residual, solution.kkt_residual])):
        raise SingularSystem("solution overflows")
    return solution
