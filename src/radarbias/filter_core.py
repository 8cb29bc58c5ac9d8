"""Reduced-state filter for linear dynamics with a stochastic measurement bias.

Model:

    x(k+1) = Phi x(k) + m(k)                      process noise cov Q
    z(k)   = H x(k) + n(k) + W u(x(k), lambda)    measurement noise cov N

where ``lambda`` is a random bias vector with mean ``bias_mean`` and
covariance ``bias_cov``, entering the measurement through the (possibly
state-dependent) function ``u``. Instead of appending bias states, the
filter tracks the estimation error in two parts: a noise-driven covariance
M and a bias-sensitivity matrix D with error component D (lambda - mean).
The total covariance S is M + D Lambda D' on a predicted state, and on a
posterior state only when du/dx = 0. The gain minimizing trace(S)
accounts for both parts.

``time_update`` maps a posterior state to the prediction; the measurement
operations (``optimal_gain``, ``measurement_update``) act on a predicted
state. The bias function and its Jacobians are evaluated at the predicted
estimate and the mean bias.

The public functions wrap private helpers on a state's arrays, so ``step``
forms no predicted FilterState. State-free terms are kept on the model,
outside its fields (so equality, ``repr``, copies and pickles do not see
them), and its arrays are read-only copies, so they cannot go stale. The
model keeps Phi'. While both Jacobians return the values (dtype, shape,
bytes) of the model's last call, He = H + W J_x, He', W J_b,
Ne = N + W J_b Lambda (W J_b)' and Lambda (W J_b)' are reused. Every
measurement update also reuses L_e = I - K He, L_e', K', K N K', K W J_b,
K Ne K' and (I - K H) Q (I - K H)' while its gain has the bytes of the
last update's gain and the measurement terms were reused: a fixed gain
hits, an optimal gain, which changes each step, forms them afresh. A miss
runs the same products, so the outputs are the same to the bit.

The gain equation is solved directly for a scalar measurement (q = 1):
the 1 x 1 bracket is accepted when it is finite and nonzero, which is
exactly when its condition number is 1 rather than infinite, and the gain
is the right-hand side divided by it. For q > 1 the bracket must be finite
with a condition number at most 1e12, and the gain comes from a linear
solve. Otherwise ``SingularInnovation`` is raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch, SingularInnovation

_GAIN_COND_LIMIT = 1e12

# The matrices here are a few rows wide, so a product costs its call
# overhead, not its arithmetic. ndarray.dot has about half the overhead of
# the ``@`` operator (about 1.0 against 2.2 us for a 2 x 2 product with
# numpy 2.4), so the per-step recursions use it.


def _symmetrize(a: np.ndarray) -> np.ndarray:
    # floating-point drift control, in place on a temporary; it rounds as
    # 0.5 * (a + a.T) does, and the copy avoids a slower mixed-stride add
    a += a.T.copy()
    a *= 0.5
    return a


@dataclass(frozen=True)
class BiasFilterModel:
    """System matrices, noise covariances and the measurement-bias function.

    Shapes: transition n x n, output q x n, bias_matrix q x m,
    process_noise n x n, meas_noise q x q, bias_cov p x p, bias_mean p.
    ``bias_fn(x, lam) -> (m,)`` with Jacobians ``bias_jac_state -> (m, n)``
    and ``bias_jac_bias -> (m, p)`` supplied by the caller; no automatic
    differentiation is attempted. The seven arrays are kept as read-only
    float copies.
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
        n, q, m, p = self.dims
        wants = ((n, n), (q, n), (q, m), (n, n), (q, q), (p, p), (p,))
        for f, want in zip(fields(self)[:7], wants):
            # a read-only copy: the caller's array stays writable
            arr = np.array(getattr(self, f.name), dtype=float)
            if arr.shape != want:
                raise DimensionMismatch(f"{f.name} has shape {arr.shape}, expected {want}")
            arr.flags.writeable = False
            object.__setattr__(self, f.name, arr)
        vars(self).update(_eye=np.eye(n), _phi_t=self.transition.T)

    def __getstate__(self):
        # the kept terms are derived: a copy or unpickled model forms them again
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state):
        vars(self).update(state)
        self.__post_init__()

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
    n x p bias-sensitivity D, and ``total_cov`` S. The same type carries
    posterior (k|k) and predicted (k+1|k) states; S = M + D Lambda D' holds
    on the latter, and on the former only when du/dx = 0.
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
        is used by convention. Raises DimensionMismatch unless x0 has n
        entries and the prior is n x n.
        """
        n, _, _, p = model.dims
        x = np.asarray(x0, dtype=float)
        if x.shape != (n,):
            raise DimensionMismatch(f"x0 has shape {x.shape}, expected {(n,)}")
        m_cov = np.eye(n) * 1e6 if noise_cov is None else np.array(noise_cov, dtype=float)
        if m_cov.shape != (n, n):
            raise DimensionMismatch(f"noise_cov has shape {m_cov.shape}, expected {(n, n)}")
        _symmetrize(m_cov)
        return cls(x=x, noise_cov=m_cov, bias_sens=np.zeros((n, p)), total_cov=m_cov.copy())


def _state(x, m_cov, d, s_cov, gain=None) -> FilterState:
    # a FilterState at half the cost of the frozen __init__; it holds only its fields
    state = object.__new__(FilterState)
    vars(state).update(x=x, noise_cov=m_cov, bias_sens=d, total_cov=s_cov, gain=gain)
    return state


def _predict(model: BiasFilterModel, state: FilterState):
    # the predicted x, M, D and S of a posterior state, as arrays
    phi, phi_t = model.transition, vars(model)["_phi_t"]
    m_cov = _symmetrize(phi.dot(state.noise_cov).dot(phi_t) + model.process_noise)
    d = phi.dot(state.bias_sens)
    return phi.dot(state.x), m_cov, d, _symmetrize(m_cov + d.dot(model.bias_cov).dot(d.T))


def time_update(model: BiasFilterModel, state: FilterState) -> FilterState:
    """Propagate a posterior state through the dynamics.

    x <- Phi x, M <- Phi M Phi' + Q, D <- Phi D, and the predicted total
    covariance S = M + D Lambda D' (with the propagated D).
    """
    return _state(*_predict(model, state))


def _pieces(model: BiasFilterModel, x, d):
    # evaluated once per predicted state; shared by gain and update. The
    # state-free terms are kept on the model while the Jacobians repeat.
    jac_bias = np.array(model.bias_jac_bias(x, model.bias_mean), ndmin=2)
    jac_state = np.array(model.bias_jac_state(x, model.bias_mean), ndmin=2)
    key = (jac_bias.dtype, jac_bias.shape, jac_bias.tobytes(),
           jac_state.dtype, jac_state.shape, jac_state.tobytes())
    kept = vars(model).get("_pieces")
    if kept is None or kept[0] != key:
        w_jb = model.bias_matrix.dot(jac_bias)                      # q x p
        output_eff = model.output + model.bias_matrix.dot(jac_state)  # H + W du/dx
        lam_wjb_t = model.bias_cov.dot(w_jb.T)                      # Lambda (W J_b)'
        noise_eff = model.meas_noise + w_jb.dot(lam_wjb_t)
        kept = vars(model)["_pieces"] = (key, (output_eff, noise_eff, w_jb, lam_wjb_t, output_eff.T))
    terms = kept[1]
    return terms, d.dot(terms[3])                                   # cross C: n x q


def optimal_gain(model: BiasFilterModel, state: FilterState) -> np.ndarray:
    """Gain minimizing the trace of the updated total covariance.

    ``state`` must be a predicted state. Solves the stationarity equation

        K (He S He' + Ne + He C + C' He') = S He' + C

    with He the effective output matrix, Ne the effective measurement
    noise and C the bias cross term; with zero bias this reduces to the
    classical gain S H' (H S H' + N)^-1. Raises SingularInnovation when
    the bracket is not finite or is numerically singular.
    """
    return _optimal_gain(state.total_cov, _pieces(model, state.x, state.bias_sens))


def _optimal_gain(s_cov, pieces) -> np.ndarray:
    (output_eff, noise_eff, _, _, output_eff_t), cross = pieces
    rhs = s_cov.dot(output_eff_t) + cross                       # S He' + C
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
    x, d = state.x, state.bias_sens
    return _measurement_update(model, x, state.noise_cov, d, state.total_cov, state.gain,
                               z, _pieces(model, x, d))


def _gain_terms(model: BiasFilterModel, k_gain: np.ndarray, terms):
    # the update's products that depend only on the gain and the state-free
    # measurement terms, kept on the model while the gain and the terms repeat
    key = k_gain.tobytes()
    kept = vars(model).get("_gain")
    if kept is None or kept[0] != key or kept[1] is not terms:
        output_eff, noise_eff, w_jb, _, _ = terms
        eye, k_t = vars(model)["_eye"], k_gain.T
        l_classic = eye - k_gain.dot(model.output)             # I - K H
        l_eff = eye - k_gain.dot(output_eff)                   # I - K (H + W du/dx)
        kept = vars(model)["_gain"] = (key, terms, (
            l_eff, l_eff.T, k_t, l_classic.dot(model.process_noise).dot(l_classic.T),
            k_gain.dot(model.meas_noise).dot(k_t), k_gain.dot(w_jb),
            k_gain.dot(noise_eff).dot(k_t)))
    return kept[2]


def _measurement_update(model: BiasFilterModel, x, m_cov, d, s_cov, gain, z,
                        pieces) -> FilterState:
    # the update of a prediction's arrays with ``gain``, which the result carries
    k_gain = np.array(gain, dtype=float, ndmin=2)      # a copy: the kept K' views it
    q, n = model.output.shape
    if k_gain.shape != (n, q):
        raise DimensionMismatch(f"gain has shape {k_gain.shape}, expected {(n, q)}")
    z = np.array(z, dtype=float, ndmin=1)
    if z.shape != (q,):
        raise DimensionMismatch(f"measurement has shape {z.shape}, expected {(q,)}")

    terms, cross = pieces
    predicted_meas = model.output.dot(x) + model.bias_matrix.dot(np.array(
        model.bias_fn(x, model.bias_mean), ndmin=1))
    x = x + k_gain.dot(z - predicted_meas)
    l_eff, l_eff_t, k_t, lql_t, knk_t, k_wjb, k_ne_k_t = _gain_terms(model, k_gain, terms)

    # M next: the Q term propagates through I - K H (the bias function sees
    # the noise-free prediction), the rest through the effective closure.
    m_cov = _symmetrize(
        l_eff.dot(m_cov - model.process_noise).dot(l_eff_t) + lql_t + knk_t)
    t_cross = l_eff.dot(cross).dot(k_t)                        # L_e C K'
    s_cov = _symmetrize(
        l_eff.dot(s_cov).dot(l_eff_t) + k_ne_k_t - t_cross - t_cross.T.copy())
    return _state(x, m_cov, l_eff.dot(d) - k_wjb, s_cov, gain)


def step(model: BiasFilterModel, state: FilterState, z,
         gain=None) -> FilterState:
    """One predict-and-update cycle from a posterior state.

    Uses the supplied fixed gain, or the trace-optimal gain of the
    predicted covariance when none is given. Equals ``time_update``, then
    ``optimal_gain`` (or the fixed gain) and ``measurement_update``, with
    the bias function's Jacobians evaluated once.
    """
    x, m_cov, d, s_cov = _predict(model, state)
    pieces = _pieces(model, x, d)
    gain = _optimal_gain(s_cov, pieces) if gain is None else np.asarray(gain, dtype=float)
    return _measurement_update(model, x, m_cov, d, s_cov, gain, z, pieces)
