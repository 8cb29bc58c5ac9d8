"""Reduced-state filter for linear dynamics with a stochastic measurement bias.

Model:

    x(k+1) = Phi x(k) + m(k)                      process noise cov Q
    z(k)   = H x(k) + n(k) + W u(x(k), lambda)    measurement noise cov N

where ``lambda`` is a random bias vector with mean ``bias_mean`` and
covariance ``bias_cov``, entering the measurement through the (possibly
state-dependent) function ``u``. Instead of appending bias states, the
filter tracks the estimation error in two parts: a noise-driven covariance
M and a bias-sensitivity matrix D with error component D (lambda - mean).
The total covariance is S = M + D Lambda D'. The gain minimizing trace(S)
accounts for both parts.

``time_update`` maps a posterior state to the prediction; the measurement
operations (``optimal_gain``, ``measurement_update``) act on a predicted
state. The bias function and its Jacobians are evaluated at the predicted
estimate and the mean bias.

The gain equation is solved directly for a scalar measurement (q = 1):
the 1 x 1 bracket is accepted when it is finite and nonzero, which is
exactly when its condition number is 1 rather than infinite, and the gain
is the right-hand side divided by it. For q > 1 the bracket must be finite
with a condition number at most 1e12, and the gain comes from a linear
solve. Otherwise ``SingularInnovation`` is raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch, SingularInnovation

_GAIN_COND_LIMIT = 1e12

# The matrices here are a few rows wide, so a product costs its call
# overhead, not its arithmetic. ndarray.dot has about half the overhead of
# the ``@`` operator (about 1.0 against 2.2 us for a 2 x 2 product with
# numpy 2.4), so the per-step recursions use it.


def _symmetrize(a: np.ndarray) -> np.ndarray:
    # floating-point drift control for covariance updates
    return 0.5 * (a + a.T)


@dataclass(frozen=True)
class BiasFilterModel:
    """System matrices, noise covariances and the measurement-bias function.

    Shapes: transition n x n, output q x n, bias_matrix q x m,
    process_noise n x n, meas_noise q x q, bias_cov p x p, bias_mean p.
    ``bias_fn(x, lam) -> (m,)`` with Jacobians ``bias_jac_state -> (m, n)``
    and ``bias_jac_bias -> (m, p)`` supplied by the caller; no automatic
    differentiation is attempted.
    """

    transition: np.ndarray
    output: np.ndarray
    bias_matrix: np.ndarray
    process_noise: np.ndarray
    meas_noise: np.ndarray
    bias_cov: np.ndarray
    bias_mean: np.ndarray
    bias_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    bias_jac_state: Callable[[np.ndarray, np.ndarray], np.ndarray]
    bias_jac_bias: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __post_init__(self):
        for name in ("transition", "output", "bias_matrix", "process_noise",
                     "meas_noise", "bias_cov", "bias_mean"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n, q, m, p = self.dims
        checks = {
            "transition": (self.transition, (n, n)),
            "output": (self.output, (q, n)),
            "bias_matrix": (self.bias_matrix, (q, m)),
            "process_noise": (self.process_noise, (n, n)),
            "meas_noise": (self.meas_noise, (q, q)),
            "bias_cov": (self.bias_cov, (p, p)),
            "bias_mean": (self.bias_mean, (p,)),
        }
        for name, (arr, want) in checks.items():
            if arr.shape != want:
                raise DimensionMismatch(f"{name} has shape {arr.shape}, expected {want}")

    @property
    def dims(self) -> tuple[int, int, int, int]:
        """(n, q, m, p): state, output, bias-function and bias dimensions."""
        n = np.asarray(self.transition).shape[0]
        q, m = np.asarray(self.bias_matrix).shape
        p = np.asarray(self.bias_mean).shape[0] if np.ndim(self.bias_mean) else 1
        return n, q, m, p


@dataclass(frozen=True)
class FilterState:
    """Estimate, covariance parts and (optionally) the gain to apply.

    ``noise_cov`` is the noise-driven error covariance M, ``bias_sens`` the
    n x p bias-sensitivity D, and ``total_cov`` S = M + D Lambda D'. The
    same type carries posterior (k|k) and predicted (k+1|k) states.
    """

    x: np.ndarray
    noise_cov: np.ndarray
    bias_sens: np.ndarray
    total_cov: np.ndarray
    gain: Optional[np.ndarray] = None

    @classmethod
    def initial(cls, model: BiasFilterModel, x0, noise_cov=None) -> "FilterState":
        """Posterior state at start-up: D = 0 so S = M.

        Without a prior covariance a large diagonal (1e6 per state unit)
        is used by convention.
        """
        n, _, _, p = model.dims
        x = np.asarray(x0, dtype=float)
        if x.shape != (n,):
            raise DimensionMismatch(f"x0 has shape {x.shape}, expected {(n,)}")
        m_cov = np.eye(n) * 1e6 if noise_cov is None else _symmetrize(
            np.asarray(noise_cov, dtype=float))
        return cls(x=x, noise_cov=m_cov, bias_sens=np.zeros((n, p)),
                   total_cov=m_cov.copy())


def time_update(model: BiasFilterModel, state: FilterState) -> FilterState:
    """Propagate a posterior state through the dynamics.

    x <- Phi x, M <- Phi M Phi' + Q, D <- Phi D, and the predicted total
    covariance S = M + D Lambda D' (with the propagated D).
    """
    phi = model.transition
    x = phi.dot(state.x)
    m_cov = _symmetrize(phi.dot(state.noise_cov).dot(phi.T) + model.process_noise)
    d = phi.dot(state.bias_sens)
    s_cov = _symmetrize(m_cov + d.dot(model.bias_cov).dot(d.T))
    return FilterState(x=x, noise_cov=m_cov, bias_sens=d, total_cov=s_cov)


def _measurement_pieces(model: BiasFilterModel, state: FilterState):
    # evaluated once per predicted state; shared by gain and update
    jac_bias = np.atleast_2d(model.bias_jac_bias(state.x, model.bias_mean))
    jac_state = np.atleast_2d(model.bias_jac_state(state.x, model.bias_mean))
    w_jb = model.bias_matrix.dot(jac_bias)                      # q x p
    output_eff = model.output + model.bias_matrix.dot(jac_state)  # H + W du/dx
    lam_wjb_t = model.bias_cov.dot(w_jb.T)                      # Lambda (W J_b)'
    noise_eff = model.meas_noise + w_jb.dot(lam_wjb_t)
    cross = state.bias_sens.dot(lam_wjb_t)                      # n x q
    return output_eff, noise_eff, w_jb, cross


def optimal_gain(model: BiasFilterModel, state: FilterState) -> np.ndarray:
    """Gain minimizing the trace of the updated total covariance.

    ``state`` must be a predicted state. Solves the stationarity equation

        K (He S He' + Ne + He C + C' He') = S He' + C

    with He the effective output matrix, Ne the effective measurement
    noise and C the bias cross term; with zero bias this reduces to the
    classical gain S H' (H S H' + N)^-1. Raises SingularInnovation when
    the bracket is not finite or is numerically singular.
    """
    return _optimal_gain(state, _measurement_pieces(model, state))


def _optimal_gain(state: FilterState, pieces) -> np.ndarray:
    output_eff, noise_eff, _, cross = pieces
    rhs = state.total_cov.dot(output_eff.T) + cross             # S He' + C
    # He rhs = He S He' + He C, so the bracket adds Ne and (He C)'
    bracket = output_eff.dot(rhs) + noise_eff + output_eff.dot(cross).T
    if bracket.shape == (1, 1):
        value = bracket[0, 0]
        if not (math.isfinite(value) and value != 0.0):
            raise SingularInnovation(
                f"innovation bracket is numerically singular (scalar bracket {value:.3g})")
        return rhs / value
    bracket = _symmetrize(bracket)
    if not np.isfinite(bracket).all():
        raise SingularInnovation("innovation bracket is not finite")
    cond = np.linalg.cond(bracket)
    if not cond <= _GAIN_COND_LIMIT:
        raise SingularInnovation(
            f"innovation bracket is numerically singular (condition {cond:.3g})")
    return np.linalg.solve(bracket, rhs.T).T


def measurement_update(model: BiasFilterModel, state: FilterState,
                       z) -> FilterState:
    """Fold one measurement into a predicted state using ``state.gain``.

    The estimate moves by K times the innovation z - H x - W u(x, mean).
    M, D and S are updated so that the combined predict-plus-update
    recursions of the two error components hold exactly: the process noise
    passes through I - K H only, while the state-dependent part of the
    bias function sees the noise-free prediction.
    """
    if state.gain is None:
        raise ValueError("predicted state carries no gain; set state.gain first")
    return _measurement_update(model, state, state.gain, z,
                               _measurement_pieces(model, state))


def _measurement_update(model: BiasFilterModel, state: FilterState, gain, z,
                        pieces) -> FilterState:
    # the update with ``gain``, which the returned state carries
    k_gain = np.atleast_2d(np.asarray(gain, dtype=float))
    q, n = model.output.shape
    if k_gain.shape != (n, q):
        raise DimensionMismatch(f"gain has shape {k_gain.shape}, expected {(n, q)}")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape != (q,):
        raise DimensionMismatch(f"measurement has shape {z.shape}, expected {(q,)}")

    output_eff, noise_eff, w_jb, cross = pieces
    predicted_meas = model.output.dot(state.x) + model.bias_matrix.dot(np.atleast_1d(
        model.bias_fn(state.x, model.bias_mean)))
    x = state.x + k_gain.dot(z - predicted_meas)

    eye = np.eye(n)
    l_classic = eye - k_gain.dot(model.output)                 # I - K H
    l_eff = eye - k_gain.dot(output_eff)                       # I - K (H + W du/dx)

    # M next: the Q term propagates through I - K H (the bias function sees
    # the noise-free prediction), the rest through the effective closure.
    q_cov = model.process_noise
    m_cov = _symmetrize(
        l_eff.dot(state.noise_cov - q_cov).dot(l_eff.T)
        + l_classic.dot(q_cov).dot(l_classic.T)
        + k_gain.dot(model.meas_noise).dot(k_gain.T))
    d = l_eff.dot(state.bias_sens) - k_gain.dot(w_jb)
    t_cross = l_eff.dot(cross).dot(k_gain.T)                   # L_e C K'
    s_cov = _symmetrize(
        l_eff.dot(state.total_cov).dot(l_eff.T)
        + k_gain.dot(noise_eff).dot(k_gain.T)
        - t_cross - t_cross.T)
    return FilterState(x=x, noise_cov=m_cov, bias_sens=d, total_cov=s_cov, gain=gain)


def step(model: BiasFilterModel, state: FilterState, z,
         gain=None) -> FilterState:
    """One predict-and-update cycle from a posterior state.

    Uses the supplied fixed gain, or the trace-optimal gain of the
    predicted covariance when none is given. Equals ``time_update``, then
    ``optimal_gain`` (or the fixed gain) and ``measurement_update``, with
    the bias function's Jacobians evaluated once.
    """
    predicted = time_update(model, state)
    pieces = _measurement_pieces(model, predicted)
    if gain is None:
        gain = _optimal_gain(predicted, pieces)
    return _measurement_update(model, predicted, np.asarray(gain, dtype=float), z, pieces)
