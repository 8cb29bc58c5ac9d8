"""Steady-state position-velocity filter gains under a stochastic measurement bias.

For the constant-velocity model sampled at period T, scalar measurement
noise N, velocity process noise q22 and scalar bias variance Lambda, the
constant gain is (alpha, beta/T). This module provides the closed-form
steady-state covariance blocks (solutions of the discrete Lyapunov
equations driven by the measurement and process noise), the quartic
relating alpha and beta through the noise ratio rho = q22 T^2 / N, its
root solver, and validity checks on candidate gains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import filter_core
from .errors import DegenerateDenominator, NoValidRoot

#: columns of the gain-sweep table (the CLI appends excluded_root)
GAIN_SWEEP_HEADER = ("rho", "alpha", "beta", "eig1_mod", "eig2_mod", "S11dot", "S21dot")

_ZERO_TOL = 1e-12
_RHO_CONSISTENCY_RTOL = 1e-9


@dataclass(frozen=True)
class SteadyStateConfig:
    """Noise levels of the steady-state tracking problem.

    ``rho`` is the dimensionless ratio process_var * period^2 / meas_var;
    give it explicitly only if it matches the other fields (checked to
    1e-9 relative). With meas_var 0 the ratio is taken as given (or 0).
    """

    period: float
    meas_var: float
    process_var: float
    bias_var: float = 0.0
    rho: float | None = None

    def __post_init__(self):
        numbers = (self.period, self.meas_var, self.process_var, self.bias_var,
                   0.0 if self.rho is None else self.rho)
        if not all(map(math.isfinite, numbers)):
            raise ValueError("period, variances and rho must be finite")
        if not (self.period > 0 and self.period * self.period > 0):
            raise ValueError(f"period {self.period} must be positive with a nonzero square")
        if self.meas_var < 0 or self.process_var < 0 or self.bias_var < 0:
            raise ValueError("variances must be nonnegative")
        if self.meas_var == 0:
            derived = 0.0 if self.process_var == 0 else None
        else:
            derived = self.process_var * (self.period * self.period) / self.meas_var
            # inf * 0 is nan, which no tolerance comparison below would catch
            if not math.isfinite(derived):
                raise ValueError(f"process_var*period^2/meas_var = {derived} is not finite")
        if self.rho is None:
            if derived is None:
                raise ValueError("rho is required when meas_var is 0 and process_var > 0")
            object.__setattr__(self, "rho", derived)
        elif derived is not None:
            scale = max(abs(derived), 1e-300)
            if abs(self.rho - derived) > _RHO_CONSISTENCY_RTOL * max(scale, 1.0):
                raise ValueError(
                    f"rho {self.rho} inconsistent with process_var*period^2/meas_var"
                    f" = {derived}")

    @classmethod
    def from_rho(cls, rho: float, period: float = 1.0, meas_var: float = 1.0,
                 bias_var: float = 0.0) -> "SteadyStateConfig":
        """Config with the process noise derived from the noise ratio."""
        if rho < 0:
            raise ValueError("rho must be nonnegative")
        if not period * period > 0:
            raise ValueError(f"period^2 = {period * period} must be positive")
        return cls(period=period, meas_var=meas_var, bias_var=bias_var, rho=rho,
                   process_var=rho * meas_var / (period * period))

    def transition_matrix(self) -> np.ndarray:
        """Constant-velocity state transition Phi = [[1, T], [0, 1]]."""
        return np.array([[1.0, self.period], [0.0, 1.0]])

    def process_noise_matrix(self) -> np.ndarray:
        return np.array([[0.0, 0.0], [0.0, self.process_var]])

    def to_filter_model(self, bias_mean: float = 0.0) -> filter_core.BiasFilterModel:
        """The equivalent two-state bias filter model (scalar additive bias)."""
        return filter_core.BiasFilterModel(
            transition=self.transition_matrix(),
            output=np.array([[1.0, 0.0]]),
            bias_matrix=np.array([[1.0]]),
            process_noise=self.process_noise_matrix(),
            meas_noise=np.array([[self.meas_var]]),
            bias_cov=np.array([[self.bias_var]]),
            bias_mean=np.array([bias_mean]),
            bias_fn=lambda x, lam: np.atleast_1d(lam),
            bias_jac_state=lambda x, lam: np.zeros((1, 2)),
            bias_jac_bias=lambda x, lam: np.ones((1, 1)),
        )


@dataclass(frozen=True)
class SteadyStateGains:
    """Position gain alpha and velocity gain beta (velocity applies beta/T)."""

    alpha: float
    beta: float


def kbar(gains: SteadyStateGains, period: float) -> np.ndarray:
    """Steady-state gain vector (alpha, beta/T)."""
    return np.array([gains.alpha, gains.beta / period])


def lbar(gains: SteadyStateGains, period: float) -> np.ndarray:
    """I - K H for the steady-state gain."""
    return np.array([[1.0 - gains.alpha, 0.0], [-gains.beta / period, 1.0]])


def fbar(gains: SteadyStateGains, period: float) -> np.ndarray:
    """Closed-loop error transition (I - K H) Phi."""
    a, b = gains.alpha, gains.beta
    return np.array([[1.0 - a, (1.0 - a) * period], [-b / period, 1.0 - b]])


def cbar(gains: SteadyStateGains, period: float) -> np.ndarray:
    """Bias coupling -K of the error recursion."""
    return -kbar(gains, period)


def fbar_eigenvalues(gains: SteadyStateGains) -> tuple[complex, complex]:
    """Eigenvalues 1 - (a+b)/2 +- sqrt(2ab - 4b + a^2 + b^2)/2 of fbar.

    Independent of the period; complex pair when the radicand is negative.
    Stability requires both moduli below one.
    """
    a, b = gains.alpha, gains.beta
    root = complex(2 * a * b - 4 * b + a * a + b * b) ** 0.5
    base = 1.0 - (a + b) / 2.0
    return base + root / 2.0, base - root / 2.0


def gain_polynomial(alpha: float, beta: float, rho: float) -> float:
    """Quartic in beta linking the two gains through the noise ratio.

    2 b^4 + (4a - 8) b^3
      + rho ((a^2 - 2a + 2) b^2 + (3a^3 - 10a^2 + 12a - 8) b
             + (2a^4 - 8a^3 + 8a^2))

    Zero along the consistent (alpha, beta) curve; factors into
    (b + 2a - 4) times the cubic of ``cubic_factor``.
    """
    a, b = alpha, beta
    return (2 * b**4 + (4 * a - 8) * b**3
            + rho * ((a * a - 2 * a + 2) * b * b
                     + (3 * a**3 - 10 * a**2 + 12 * a - 8) * b
                     + (2 * a**4 - 8 * a**3 + 8 * a**2)))


def cubic_factor(alpha: float, beta: float, rho: float) -> float:
    """The rho-dependent cubic factor of the gain quartic."""
    a, b = alpha, beta
    return 2 * b**3 + rho * ((a * a - 2 * a + 2) * b + a * a * (a - 2))


def excluded_root(alpha: float) -> float:
    """The rho-independent quartic root 4 - 2 alpha (always invalid)."""
    return 4.0 - 2.0 * alpha


def solve_beta(alpha: float, rho: float) -> float:
    """Velocity gain consistent with a position gain and noise ratio.

    Solves the cubic factor 2 b^3 + rho ((a^2-2a+2) b + a^2 (a-2)) = 0.
    Its linear coefficient rho (a^2-2a+2) = rho ((a-1)^2 + 1) is positive
    for rho > 0, so the cubic is strictly increasing and has exactly one
    real root. With the depressed form b^3 + p b + q, p = rho c1 / 2 and
    q = rho c0 / 2, that root is the hyperbolic closed form

        b = -2 r sinh(asinh(1.5 c0 / (c1 r)) / 3),  r = sqrt(p / 3),

    which never cubes p or q, so it holds for every positive finite rho;
    r is formed as sqrt(rho) sqrt(c1 / 6) so it does not underflow. The
    root is polished with Newton steps on the cubic divided by
    max(rho, 1). The rho-independent quartic root 4 - 2a is never valid.
    Raises NoValidRoot when the root fails the gain checks (reporting it),
    e.g. for alpha outside (0, 2) where the root is nonpositive.
    """
    if not rho > 0:
        raise NoValidRoot(f"noise ratio must be positive, got {rho}")
    c1 = alpha * alpha - 2 * alpha + 2
    c0 = alpha * alpha * (alpha - 2)
    r = math.sqrt(rho) * math.sqrt(c1 / 6.0)
    beta = -2.0 * r * math.sinh(math.asinh(1.5 * c0 / (c1 * r)) / 3.0)
    scale = max(rho, 1.0)
    for _ in range(3):
        f = 2 * beta * beta * beta / scale + rho / scale * (c1 * beta + c0)
        beta -= f / (6 * beta * beta / scale + rho / scale * c1)

    if not all(_gain_checks(SteadyStateGains(alpha=alpha, beta=beta)).values()):
        raise NoValidRoot(
            f"no valid velocity gain for alpha={alpha}, rho={rho}",
            roots=(beta, excluded_root(alpha)))
    return beta


def steady_mn(gains: SteadyStateGains, period: float, meas_var: float) -> np.ndarray:
    """Measurement-noise part of the steady updated covariance.

    Closed-form fixed point of X = F X F' + K N K'; denominator
    alpha (4 - 2 alpha - beta) must not vanish.
    """
    a, b, t = gains.alpha, gains.beta, period
    den = a * (4.0 - 2.0 * a - b)
    if abs(den) < _ZERO_TOL:
        raise DegenerateDenominator(
            f"alpha (4 - 2 alpha - beta) = {den} vanishes for alpha={a}, beta={b}")
    return (meas_var / den) * np.array([
        [2 * a * a + 2 * b - 3 * a * b, b * (2 * a - b) / t],
        [b * (2 * a - b) / t, 2 * b * b / (t * t)],
    ])


def steady_mq(gains: SteadyStateGains, period: float, process_var: float) -> np.ndarray:
    """Process-noise part of the steady updated covariance.

    Closed-form fixed point of X = F X F' + L Q L'; denominator
    alpha beta (beta + 2 alpha - 4) must not vanish (the three validity
    conditions on the gains).
    """
    a, b, t = gains.alpha, gains.beta, period
    den = -4 * a * b + a * b * b + 2 * a * a * b
    if abs(den) < _ZERO_TOL:
        raise DegenerateDenominator(
            f"alpha beta (beta + 2 alpha - 4) = {den} vanishes for alpha={a}, beta={b}")
    return (process_var / den) * np.array([
        [t * t * (-2 + 5 * a - 4 * a**2 + a**3),
         t * (-2 * a + b - a * b + 3 * a**2 - a**3)],
        [t * (-2 * a + b - a * b + 3 * a**2 - a**3),
         -2 * b + 2 * a * b - 2 * a**2 + a**3],
    ])


def dbar() -> np.ndarray:
    """Steady posterior bias sensitivity: (-1, 0) for any valid gains."""
    return np.array([-1.0, 0.0])


def ddot(gains: SteadyStateGains, period: float) -> np.ndarray:
    """Steady predicted bias sensitivity F dbar = (alpha - 1, beta/T)."""
    return np.array([gains.alpha - 1.0, gains.beta / period])


@dataclass(frozen=True)
class SteadyStateCovariances:
    """Steady covariances: updated M, predicted M and predicted total S."""

    m_bar: np.ndarray
    m_dot: np.ndarray
    s_dot: np.ndarray

    @property
    def s11_dot(self) -> float:
        return float(self.s_dot[0, 0])

    @property
    def s21_dot(self) -> float:
        return float(self.s_dot[1, 0])


def predicted_covariances(gains: SteadyStateGains,
                          config: SteadyStateConfig) -> SteadyStateCovariances:
    """Closed-form steady covariances for a gain pair and noise levels.

    m_bar is the updated noise covariance (measurement plus process
    parts); m_dot its one-step prediction Phi m_bar Phi' + Q; s_dot adds
    the bias variance to the position entry only, since the predicted
    bias sensitivity vector Phi dbar is (-1, 0).
    """
    m_bar = (steady_mn(gains, config.period, config.meas_var)
             + steady_mq(gains, config.period, config.process_var))
    phi = config.transition_matrix()
    m_dot = phi @ m_bar @ phi.T + config.process_noise_matrix()
    s_dot = m_dot + np.array([[config.bias_var, 0.0], [0.0, 0.0]])
    return SteadyStateCovariances(m_bar=m_bar, m_dot=m_dot, s_dot=s_dot)


@dataclass(frozen=True)
class GainValidation:
    """Outcome of the per-check gain validation (diagnostic, never raises)."""

    alpha_nonzero: bool
    beta_nonzero: bool
    beta_not_excluded: bool
    stable: bool
    mn_positive_definite: bool
    mq_positive_definite: bool

    @property
    def ok(self) -> bool:
        return all(self.__dict__.values())

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(name for name, passed in self.__dict__.items() if not passed)


def _gain_checks(gains: SteadyStateGains) -> dict[str, bool]:
    # the three denominator conditions and closed-loop stability, keyed by
    # their GainValidation field names
    a, b = gains.alpha, gains.beta
    return {
        "alpha_nonzero": abs(a) > _ZERO_TOL,
        "beta_nonzero": abs(b) > _ZERO_TOL,
        "beta_not_excluded": abs(b - excluded_root(a)) > _ZERO_TOL,
        "stable": max(abs(e) for e in fbar_eigenvalues(gains)) < 1.0,
    }


def validate_gains(gains: SteadyStateGains, config: SteadyStateConfig) -> GainValidation:
    """Check the denominator conditions, stability and covariance definiteness.

    The three denominator conditions are alpha != 0, beta != 0 and
    beta != 4 - 2 alpha. Definiteness of a noise block is only required
    when its driving variance is positive (a zero-variance block is
    legitimately zero).
    """
    checks = _gain_checks(gains)
    mn_pd = mq_pd = False
    if checks["alpha_nonzero"] and checks["beta_nonzero"] and checks["beta_not_excluded"]:
        mn = steady_mn(gains, config.period, config.meas_var)
        mq = steady_mq(gains, config.period, config.process_var)
        mn_pd = bool(np.all(np.linalg.eigvalsh(mn) > 0)) if config.meas_var > 0 \
            else bool(np.all(np.linalg.eigvalsh(mn) > -_ZERO_TOL))
        mq_pd = bool(np.all(np.linalg.eigvalsh(mq) > 0)) if config.process_var > 0 \
            else bool(np.all(np.linalg.eigvalsh(mq) > -_ZERO_TOL))
    return GainValidation(**checks, mn_positive_definite=mn_pd,
                          mq_positive_definite=mq_pd)


@dataclass(frozen=True)
class GainSweepRow:
    """One (rho, alpha) grid point of a gain sweep."""

    rho: float
    alpha: float
    beta: float
    eig1_mod: float
    eig2_mod: float
    s11_dot: float
    s21_dot: float
    excluded_root: float


def gain_sweep(rhos, alphas, period: float = 1.0, meas_var: float = 1.0,
               bias_var: float = 0.0) -> list[GainSweepRow]:
    """Solve the gain cubic over a (rho, alpha) grid and tabulate diagnostics."""
    rows = []
    for rho in rhos:
        for alpha in alphas:
            beta = solve_beta(alpha, rho)
            gains = SteadyStateGains(alpha=alpha, beta=beta)
            config = SteadyStateConfig.from_rho(rho, period=period,
                                                meas_var=meas_var, bias_var=bias_var)
            cov = predicted_covariances(gains, config)
            eig1, eig2 = fbar_eigenvalues(gains)
            rows.append(GainSweepRow(
                rho=rho, alpha=alpha, beta=beta,
                eig1_mod=abs(eig1), eig2_mod=abs(eig2),
                s11_dot=cov.s11_dot, s21_dot=cov.s21_dot,
                excluded_root=excluded_root(alpha),
            ))
    return rows
