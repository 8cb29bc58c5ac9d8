"""Steady-state position-velocity filter gains under a stochastic measurement bias.

For the constant-velocity model sampled at period T, scalar measurement
noise N, velocity process noise q22 and scalar bias variance Lambda, the
constant gain is (alpha, beta/T). This module provides the closed-form
steady-state covariance blocks (solutions of the discrete Lyapunov
equations driven by the measurement and process noise), the quartic
relating alpha and beta through the noise ratio rho = q22 T^2 / N, its
root solver, and validity checks on candidate gains.

Each closed form is written once, elementwise over arrays. The scalar
entry points evaluate it on numpy scalars; ``gain_table`` evaluates a
whole (rho, alpha) grid in one pass with the same code and checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import filter_core
from .errors import DegenerateDenominator, DomainError, NonFiniteCovariance, NoValidRoot

#: columns of the gain-sweep table, as ``gain_table`` returns them
GAIN_SWEEP_HEADER = ("rho", "alpha", "beta", "eig1_mod", "eig2_mod", "S11dot", "S21dot",
                     "excluded_root")

_ZERO_TOL = 1e-12

# the additive scalar bias u(x, lam) = lam of every filter model, in module-level
# functions so that models pickle; its Jacobians are read-only, so returning
# them allocates nothing
_JAC_STATE = np.zeros((1, 2))
_JAC_BIAS = np.ones((1, 1))
_JAC_STATE.flags.writeable = _JAC_BIAS.flags.writeable = False


def _additive_bias(x, lam):
    return np.atleast_1d(lam)


def _additive_bias_jac_state(x, lam):
    return _JAC_STATE


def _additive_bias_jac_bias(x, lam):
    return _JAC_BIAS


def _transition(period) -> np.ndarray:
    return np.array([[1.0, period], [0.0, 1.0]])


def _points(*values):
    # numpy scalars, on which the array code runs unchanged
    return tuple(np.float64(v) for v in values)


@dataclass(frozen=True)
class SteadyStateConfig:
    """Noise levels of the steady-state tracking problem.

    All four are finite, the period positive with a finite nonzero square
    and the variances nonnegative. The noise ratio rho = process_var *
    period^2 / meas_var follows from them; ``from_rho`` builds a config from it.
    """

    period: float
    meas_var: float
    process_var: float
    bias_var: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, self.__dict__.values())):
            raise ValueError("period and variances must be finite")
        if not (self.period > 0 and 0 < self.period * self.period < math.inf):
            raise ValueError(f"period {self.period} must be positive with a finite nonzero square")
        if self.meas_var < 0 or self.process_var < 0 or self.bias_var < 0:
            raise ValueError("variances must be nonnegative")

    @classmethod
    def from_rho(cls, rho: float, period: float = 1.0, meas_var: float = 1.0,
                 bias_var: float = 0.0) -> "SteadyStateConfig":
        """Config with the process noise derived from the noise ratio."""
        if rho < 0:
            raise ValueError("rho must be nonnegative")
        if not period * period > 0:
            raise ValueError(f"period^2 = {period * period} must be positive")
        process_var = rho * meas_var / (period * period)
        if math.isinf(process_var):
            raise ValueError(f"rho {rho} gives process_var = rho meas_var / period^2 = "
                             f"{process_var}: it overflows a double")
        return cls(period=period, meas_var=meas_var, bias_var=bias_var, process_var=process_var)

    def to_filter_model(self) -> filter_core.BiasFilterModel:
        """The equivalent two-state bias filter model (scalar additive bias)."""
        return filter_core.BiasFilterModel(
            transition=_transition(self.period),
            output=np.array([[1.0, 0.0]]),
            bias_matrix=np.array([[1.0]]),
            process_noise=np.array([[0.0, 0.0], [0.0, self.process_var]]),
            meas_noise=np.array([[self.meas_var]]),
            bias_cov=np.array([[self.bias_var]]),
            bias_mean=np.zeros(1),
            bias_fn=_additive_bias,
            bias_jac_state=_additive_bias_jac_state,
            bias_jac_bias=_additive_bias_jac_bias,
        )


@dataclass(frozen=True)
class SteadyStateGains:
    """Position gain alpha and velocity gain beta (velocity applies beta/T)."""

    alpha: float
    beta: float


def kbar(gains: SteadyStateGains, period: float) -> np.ndarray:
    """Steady-state gain vector (alpha, beta/T)."""
    return np.array([gains.alpha, gains.beta / period])


def fbar(gains: SteadyStateGains, period: float) -> np.ndarray:
    """Closed-loop error transition (I - K H) Phi."""
    a, b = gains.alpha, gains.beta
    return np.array([[1.0 - a, (1.0 - a) * period], [-b / period, 1.0 - b]])


def _eigenvalues(a, b):
    # fbar's eigenvalues base +- sqrt(radicand) / 2, elementwise, as the real
    # parts (re1, re2) and the imaginary part im of the first (the second's
    # is -im); im is nonzero when the radicand is negative
    radicand = 2 * a * b - 4 * b + a * a + b * b
    base = 1.0 - (a + b) / 2.0
    half = np.sqrt(np.maximum(radicand, 0.0)) / 2.0
    return base + half, base - half, np.sqrt(np.maximum(-radicand, 0.0)) / 2.0


def _moduli(re1, re2, im):
    # the eigenvalue moduli, as hypot like Python's abs(complex)
    return np.hypot(re1, im), np.hypot(re2, im)


def excluded_root(alpha: float) -> float:
    """The rho-independent quartic root 4 - 2 alpha (always invalid)."""
    return 4.0 - 2.0 * alpha


def _beta_root(alpha, rho):
    # the cubic's single real root and its Newton step (see solve_beta),
    # elementwise and unchecked
    c1 = alpha * alpha - 2 * alpha + 2
    c0 = alpha * alpha * (alpha - 2)
    r = np.sqrt(rho) * np.sqrt(c1 / 6.0)
    beta = -2.0 * r * np.sinh(np.arcsinh(1.5 * c0 / (c1 * r)) / 3.0)
    scale = np.maximum(rho, 1.0)
    f = 2 * beta * beta * beta / scale + rho / scale * (c1 * beta + c0)
    return beta - f / (6 * beta * beta / scale + rho / scale * c1)


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
    root is polished with one Newton step on the cubic divided by
    max(rho, 1). The rho-independent quartic root 4 - 2a is never valid.
    Raises NoValidRoot when the root fails the gain checks (reporting it),
    e.g. for alpha outside (0, 2) where the root is nonpositive.
    """
    a, r = _points(alpha, rho)
    if not r > 0:
        raise NoValidRoot(f"noise ratio must be positive, got {float(r)}")
    with np.errstate(all="ignore"):
        beta = _beta_root(a, r)
        ok = all(_gain_checks(a, beta).values())
    if not ok:
        raise NoValidRoot(f"no valid velocity gain for alpha={float(a)}, rho={float(r)}",
                          roots=(float(beta), excluded_root(float(a))))
    return float(beta)


def _block(scale, d11, d21, d22):
    # scale * [[d11, d21], [d21, d22]] as a stack of 2 x 2 matrices, one
    # per point of scale
    block = np.empty(np.shape(scale) + (2, 2))
    block[..., 0, 0], block[..., 1, 0], block[..., 0, 1], block[..., 1, 1] = d11, d21, d21, d22
    return scale[..., None, None] * block


def _vanishes(den):
    return np.abs(den) < _ZERO_TOL


def _finite(stack):
    # each 2 x 2 matrix of a stack has only finite entries
    return np.isfinite(stack).all(axis=(-2, -1))


def _mn_block(a, b, t, meas_var):
    # steady_mn's block, its denominator and the denominator's label, elementwise
    den = a * (4.0 - 2.0 * a - b)
    return (_block(meas_var / den, 2 * a * a + 2 * b - 3 * a * b,
                   b * (2 * a - b) / t, 2 * b * b / (t * t)),
            den, "alpha (4 - 2 alpha - beta)")


def _mq_block(a, b, t, process_var):
    # steady_mq's block, its denominator and the denominator's label, elementwise
    a2, a3 = a * a, a * a * a
    den = -4 * a * b + a * b * b + 2 * a2 * b
    return (_block(process_var / den, t * t * (-2 + 5 * a - 4 * a2 + a3),
                   t * (-2 * a + b - a * b + 3 * a2 - a3),
                   -2 * b + 2 * a * b - 2 * a2 + a3),
            den, "alpha beta (beta + 2 alpha - 4)")


def _check_covariance(a, b, blocks, stack) -> None:
    # at the gains (a, b): the first vanishing denominator of the
    # (block, den, label) triples, then an entry of stack that is not finite
    for _, den, label in blocks:
        if _vanishes(den):
            raise DegenerateDenominator(
                f"{label} = {float(den)} vanishes for alpha={float(a)}, beta={float(b)}")
    if not _finite(stack):
        raise NonFiniteCovariance(
            f"steady covariance overflows for alpha={float(a)}, beta={float(b)}")


def steady_mn(gains: SteadyStateGains, period: float, meas_var: float) -> np.ndarray:
    """Measurement-noise part of the steady updated covariance.

    Closed-form fixed point of X = F X F' + K N K'; denominator
    alpha (4 - 2 alpha - beta) must not vanish (DegenerateDenominator).
    Raises NonFiniteCovariance when an entry overflows.
    """
    return _one_block(_mn_block, gains, period, meas_var)


def steady_mq(gains: SteadyStateGains, period: float, process_var: float) -> np.ndarray:
    """Process-noise part of the steady updated covariance.

    Closed-form fixed point of X = F X F' + L Q L'; denominator
    alpha beta (beta + 2 alpha - 4) must not vanish (the three validity
    conditions on the gains; DegenerateDenominator). Raises
    NonFiniteCovariance when an entry overflows.
    """
    return _one_block(_mq_block, gains, period, process_var)


def _one_block(block_fn, gains, period, variance):
    a, b = _points(gains.alpha, gains.beta)
    with np.errstate(all="ignore"):
        block = block_fn(a, b, period, variance)
    _check_covariance(a, b, [block], block[0])
    return block[0]


@dataclass(frozen=True)
class SteadyStateCovariances:
    """Steady covariances: updated M, predicted M and predicted total S."""

    m_bar: np.ndarray
    m_dot: np.ndarray
    s_dot: np.ndarray


def _covariances(a, b, period, meas_var, process_var, bias_var):
    # m_bar, m_dot, s_dot stacks and the two blocks they are built from
    mn, mq = _mn_block(a, b, period, meas_var), _mq_block(a, b, period, process_var)
    m_bar = mn[0] + mq[0]
    phi = _transition(period)
    q = np.zeros(m_bar.shape)
    q[..., 1, 1] = process_var
    m_dot = phi @ m_bar @ phi.T + q
    s_dot = m_dot + np.array([[bias_var, 0.0], [0.0, 0.0]])
    return (m_bar, m_dot, s_dot), (mn, mq)


def predicted_covariances(gains: SteadyStateGains,
                          config: SteadyStateConfig) -> SteadyStateCovariances:
    """Closed-form steady covariances for a gain pair and noise levels.

    m_bar is the updated noise covariance (measurement plus process
    parts); m_dot its one-step prediction Phi m_bar Phi' + Q; s_dot adds
    the bias variance to the position entry only, since the steady bias
    sensitivity (-1, 0) is unchanged by Phi. Raises
    DegenerateDenominator for a vanishing denominator and
    NonFiniteCovariance when an entry overflows.
    """
    a, b = _points(gains.alpha, gains.beta)
    with np.errstate(all="ignore"):
        (m_bar, m_dot, s_dot), blocks = _covariances(
            a, b, config.period, config.meas_var, config.process_var, config.bias_var)
    _check_covariance(a, b, blocks, s_dot)
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


def _gain_checks(a, b, eigenvalues=None) -> dict:
    # the three denominator conditions and closed-loop stability, keyed by
    # their GainValidation field names, elementwise over gain arrays
    moduli = _moduli(*(_eigenvalues(a, b) if eigenvalues is None else eigenvalues))
    return {
        "alpha_nonzero": np.abs(a) > _ZERO_TOL,
        "beta_nonzero": np.abs(b) > _ZERO_TOL,
        "beta_not_excluded": np.abs(b - excluded_root(a)) > _ZERO_TOL,
        "stable": np.maximum(*moduli) < 1.0,
    }


def _definite(block, variance) -> bool:
    # a block with a vanishing denominator or an overflowed entry is not
    # definite; a finite zero-variance block is exactly zero, which passes
    if _vanishes(block[1]) or not _finite(block[0]):
        return False
    return not variance > 0 or bool(np.all(np.linalg.eigvalsh(block[0]) > 0))


def validate_gains(gains: SteadyStateGains, config: SteadyStateConfig) -> GainValidation:
    """Check the denominator conditions, stability and covariance definiteness.

    The three denominator conditions are alpha != 0, beta != 0 and
    beta != 4 - 2 alpha. Definiteness of a noise block is only required
    when its driving variance is positive (a zero-variance block is
    legitimately zero). Returns a report for any finite gains; a block
    with a vanishing denominator or an entry that overflows is reported
    as not definite.
    """
    a, b = _points(gains.alpha, gains.beta)
    with np.errstate(all="ignore"):
        checks = {name: bool(passed) for name, passed in _gain_checks(a, b).items()}
        mn_pd = mq_pd = False
        if checks["alpha_nonzero"] and checks["beta_nonzero"] and checks["beta_not_excluded"]:
            mn_pd = _definite(_mn_block(a, b, config.period, config.meas_var), config.meas_var)
            mq_pd = _definite(_mq_block(a, b, config.period, config.process_var),
                              config.process_var)
    return GainValidation(**checks, mn_positive_definite=mn_pd,
                          mq_positive_definite=mq_pd)


def gain_table(rhos, alphas, period: float = 1.0, meas_var: float = 1.0,
               bias_var: float = 0.0) -> np.ndarray:
    """Solve the gain cubic over a (rho, alpha) grid, as one array pass.

    Returns an (n_rho * n_alpha, 8) array in row-major grid order (rho
    outer, alpha inner) with the columns of ``GAIN_SWEEP_HEADER``. Every
    point gets the checks of ``solve_beta``, ``SteadyStateConfig.from_rho``
    and ``predicted_covariances``, which run the same array code on one
    point. If any point fails, those functions are called on the first
    failing point in row-major order, so the error raised is the one they
    raise for it: NoValidRoot, a ValueError from the config,
    DegenerateDenominator or NonFiniteCovariance.
    """
    rho_axis = np.asarray(rhos, dtype=float).ravel()
    alpha_axis = np.asarray(alphas, dtype=float).ravel()
    rho, alpha = np.repeat(rho_axis, alpha_axis.size), np.tile(alpha_axis, rho_axis.size)
    # the noise levels that do not depend on rho, checked once: if they
    # fail, every point fails
    try:
        SteadyStateConfig(period, meas_var, 0.0, bias_var)
        noise_ok = True
    except ValueError:
        noise_ok = False
    with np.errstate(all="ignore"):
        # from_rho's process_var, with the same IEEE operations
        process_var = rho * meas_var / (period * period)
        beta = _beta_root(alpha, rho)
        eigenvalues = _eigenvalues(alpha, beta)
        (_, _, s_dot), (mn, mq) = _covariances(alpha, beta, period, meas_var, process_var,
                                               bias_var)
        ok = noise_ok & np.logical_and.reduce(
            [*_gain_checks(alpha, beta, eigenvalues).values(), _finite(s_dot),
             ~_vanishes(mn[1]), ~_vanishes(mq[1])])
        table = np.column_stack([rho, alpha, beta, *_moduli(*eigenvalues),
                                 s_dot[:, 0, 0], s_dot[:, 1, 0], excluded_root(alpha)])
    if not ok.all():
        i = int(np.argmin(ok))
        a, r = float(alpha[i]), float(rho[i])
        predicted_covariances(SteadyStateGains(a, solve_beta(a, r)),
                              SteadyStateConfig.from_rho(r, period, meas_var, bias_var))
        # not reached while the array and scalar code agree bit for bit
        raise DomainError(f"gain table point alpha={a}, rho={r} fails a check "
                          "that its single-point functions pass")
    return table
