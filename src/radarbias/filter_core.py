"""Reduced-state filter for linear dynamics with a stochastic measurement bias.

Model:

    x(k+1) = Phi x(k) + m(k)                      process noise cov Q
    z(k)   = H x(k) + n(k) + W u(x(k), lambda)    measurement noise cov N

where ``lambda`` is a random bias vector with mean ``bias_mean`` and
covariance ``bias_cov``, entering the measurement through the (possibly
state-dependent) function ``u``, which sees the true state x(k). Instead
of appending bias states, the filter tracks the estimation error in two
parts: a noise-driven covariance M and a bias-sensitivity matrix D with
error component D (lambda - mean). A measurement with gain K moves them
to L_e M L_e' + K N K' and L_e D - K W J_b, where L_e = I - K He,
He = H + W J_x and J_x, J_b are u's Jacobians in x and lambda. Every
state's total covariance S is M + D Lambda D', and the gain minimizing
trace(S) accounts for both parts.

``time_update`` maps a posterior state to the prediction; ``optimal_gain``
and ``measurement_update``, which takes the gain as ``step`` does, act on
a predicted state. The bias function and its Jacobians are evaluated at
the predicted estimate and the mean bias.

The public functions wrap private helpers on a state's arrays, so ``step``
forms no predicted FilterState, and with a fixed gain no predicted S.
State-free terms are kept on the model, outside its fields (so equality,
``repr``, copies and pickles do not see them), and its arrays are
read-only copies, so they cannot go stale. The model keeps Phi'/2, Q/2,
N/2 and a root R of Lambda (R R' = Lambda, from its eigenvalues). While
both Jacobians return the values (dtype, shape, bytes) of the model's
last call, He, He', W J_b, Ne = N + W J_b Lambda (W J_b)' and
Lambda (W J_b)' are reused. Every measurement update also reuses L_e,
L_e'/2, K N K'/2 and K W J_b while its gain has the bytes of the last
update's gain and the measurement terms were reused: a fixed gain hits,
an optimal gain, which changes each step, forms them afresh. A miss runs
the same products, so the outputs are the same to the bit.

Every M and S is built exactly symmetric: M = H + H' with H = Phi M (Phi'/2)
+ Q/2 or L_e M (L_e'/2) + K N K'/2, each entry 0.5 (A + A') of the full sum A to
the bit (halving is exact, barring subnormals), and S = M + E E' with E = D R,
whose entries (i, j) and (j, i) numpy forms as one sum.

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
# np.array's "copy only if needed": copy=None from numpy 2, copy=False before
_IF_NEEDED = None if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else False

# The matrices here are a few rows wide, so a product costs its call
# overhead, not its arithmetic. ndarray.dot has about half the overhead of
# the ``@`` operator (about 1.0 against 2.2 us for a 2 x 2 product with
# numpy 2.4), so the per-step recursions use it.


def _plus_transpose(h: np.ndarray) -> np.ndarray:
    # H + H', added onto a contiguous copy of H', since a mixed-stride add is slower
    a = h.T.copy()
    a += h
    return a


@dataclass(frozen=True)
class BiasFilterModel:
    """System matrices, noise covariances and the measurement-bias function.

    Shapes: transition n x n, output q x n, bias_matrix q x m,
    process_noise n x n, meas_noise q x q, bias_cov p x p, bias_mean p.
    ``bias_fn(x, lam) -> (m,)`` with Jacobians ``bias_jac_state -> (m, n)``
    and ``bias_jac_bias -> (m, p)`` supplied by the caller; no automatic
    differentiation is attempted. The seven arrays are kept as read-only
    float copies. ``bias_cov`` must be finite, symmetric to 1e-12 of its
    largest entry and positive semidefinite: an eigenvalue below zero by
    at most 1e-12 of the largest is taken as 0, and anything else raises
    ValueError naming ``bias_cov``.
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
        lam = self.bias_cov
        if not np.isfinite(lam).all() or np.abs(lam - lam.T).max() > 1e-12 * np.abs(lam).max():
            raise ValueError("bias_cov must be finite and symmetric")
        w, v = np.linalg.eigh(lam)  # which reads only the lower triangle
        if w.min() < -1e-12 * np.abs(w).max():
            raise ValueError(f"bias_cov must be positive semidefinite (eigenvalue {w.min():.3g})")
        vars(self).update(_eye=np.eye(n), _phi_t_half=(self.transition * 0.5).T,
                          _q_half=self.process_noise * 0.5, _n_half=self.meas_noise * 0.5,
                          _bias_root=v * np.sqrt(np.maximum(w, 0.0)))

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


@dataclass(slots=True)
class FilterState:
    """Estimate, covariance parts and the gain that produced the state.

    ``noise_cov`` is the noise-driven error covariance M, ``bias_sens`` the
    n x p bias-sensitivity D, and ``total_cov`` S = M + D Lambda D'. The
    same type carries posterior (k|k) and predicted (k+1|k) states; ``gain``
    is the float array the update applied, None on a prediction or ``initial``.
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
        m_cov = np.eye(n) * 1e6 if noise_cov is None else np.asarray(noise_cov, dtype=float)
        if m_cov.shape != (n, n):
            raise DimensionMismatch(f"noise_cov has shape {m_cov.shape}, expected {(n, n)}")
        m_cov = _plus_transpose(m_cov * 0.5)
        return cls(x=x, noise_cov=m_cov, bias_sens=np.zeros((n, p)), total_cov=m_cov.copy())


def _total(model: BiasFilterModel, m_cov, d) -> np.ndarray:
    # S = M + D Lambda D' as M + E E' with E = D R, the one form of the total covariance
    e = d.dot(vars(model)["_bias_root"])
    return m_cov + e.dot(e.T)


def _predict(model: BiasFilterModel, state: FilterState):
    # the predicted x, M and D of a posterior state, as arrays
    phi, kept = model.transition, vars(model)
    m_cov = _plus_transpose(phi.dot(state.noise_cov).dot(kept["_phi_t_half"]) + kept["_q_half"])
    return phi.dot(state.x), m_cov, phi.dot(state.bias_sens)


def time_update(model: BiasFilterModel, state: FilterState) -> FilterState:
    """Propagate a posterior state through the dynamics.

    x <- Phi x, M <- Phi M Phi' + Q, D <- Phi D, and the predicted total
    covariance S = M + D Lambda D' (with the propagated D).
    """
    x, m_cov, d = _predict(model, state)
    return FilterState(x, m_cov, d, _total(model, m_cov, d))


def _pieces(model: BiasFilterModel, x):
    # evaluated once per predicted state; shared by gain and update. The
    # state-free terms are kept on the model while the Jacobians repeat.
    jac_bias = np.array(model.bias_jac_bias(x, model.bias_mean), ndmin=2, copy=_IF_NEEDED)
    jac_state = np.array(model.bias_jac_state(x, model.bias_mean), ndmin=2, copy=_IF_NEEDED)
    key = (jac_bias.dtype, jac_bias.shape, jac_bias.tobytes(),
           jac_state.dtype, jac_state.shape, jac_state.tobytes())
    kept = vars(model).get("_pieces")
    if kept is None or kept[0] != key:
        w_jb = model.bias_matrix.dot(jac_bias)                      # q x p
        output_eff = model.output + model.bias_matrix.dot(jac_state)  # H + W du/dx
        lam_wjb_t = model.bias_cov.dot(w_jb.T)                      # Lambda (W J_b)'
        noise_eff = model.meas_noise + w_jb.dot(lam_wjb_t)
        kept = vars(model)["_pieces"] = (key, (output_eff, noise_eff, w_jb, lam_wjb_t, output_eff.T))
    return kept[1]


def optimal_gain(model: BiasFilterModel, state: FilterState) -> np.ndarray:
    """Gain minimizing the trace of the updated total covariance.

    ``state`` must be a predicted state. Solves the stationarity equation

        K (He S He' + Ne + He C + C' He') = S He' + C

    with He the effective output matrix, Ne the effective measurement
    noise and C = D Lambda (W J_b)' the bias cross term; S and C are
    formed from the state's M and D. With zero bias this reduces to the
    classical gain S H' (H S H' + N)^-1. Raises SingularInnovation when
    the bracket is not finite or is numerically singular.
    """
    return _optimal_gain(model, state.noise_cov, state.bias_sens, _pieces(model, state.x))


def _optimal_gain(model: BiasFilterModel, m_cov, d, terms) -> np.ndarray:
    output_eff, noise_eff, _, lam_wjb_t, output_eff_t = terms
    cross = d.dot(lam_wjb_t)                                    # C: n x q
    rhs = _total(model, m_cov, d).dot(output_eff_t) + cross     # S He' + C
    # He rhs = He S He' + He C, so the bracket adds Ne and (He C)'
    bracket = output_eff.dot(rhs) + noise_eff + output_eff.dot(cross).T
    if bracket.shape == (1, 1):
        value = bracket[0, 0]
        if not (math.isfinite(value) and value != 0.0):
            raise SingularInnovation(
                f"innovation bracket is numerically singular (scalar bracket {value:.3g})")
        return rhs / value
    bracket = _plus_transpose(bracket * 0.5)
    if not np.isfinite(bracket).all():
        raise SingularInnovation("innovation bracket is not finite")
    cond = np.linalg.cond(bracket)
    if not cond <= _GAIN_COND_LIMIT:
        raise SingularInnovation(
            f"innovation bracket is numerically singular (condition {cond:.3g})")
    return np.linalg.solve(bracket, rhs.T).T


def measurement_update(model: BiasFilterModel, state: FilterState, z, gain) -> FilterState:
    """Fold one measurement into a predicted state with the n x q ``gain`` K.

    The estimate moves by K times the innovation z - H x - W u(x, mean).
    With L_e = I - K He, M <- L_e M L_e' + K N K', D <- L_e D - K W J_b
    and S = M + D Lambda D'; only the state's x, M and D are read.
    """
    return _measurement_update(model, state.x, state.noise_cov, state.bias_sens, gain, z,
                               _pieces(model, state.x))


def _gain_terms(model: BiasFilterModel, k_gain: np.ndarray, terms):
    # the update's products that depend only on the gain and the state-free
    # measurement terms, kept on the model while the gain and the terms repeat
    key = k_gain.tobytes()
    kept = vars(model).get("_gain")
    if kept is None or kept[0] != key or kept[1] is not terms:
        output_eff, _, w_jb, _, _ = terms
        l_eff = vars(model)["_eye"] - k_gain.dot(output_eff)  # I - K (H + W du/dx)
        kept = vars(model)["_gain"] = (key, terms, (
            l_eff, (l_eff * 0.5).T, k_gain.dot(vars(model)["_n_half"]).dot(k_gain.T),
            k_gain.dot(w_jb)))
    return kept[2]


def _measurement_update(model: BiasFilterModel, x, m_cov, d, gain, z, terms) -> FilterState:
    # the update of a prediction's arrays with ``gain``, which the result carries
    k_gain = np.array(gain, dtype=float, ndmin=2, copy=_IF_NEEDED)
    q, n = model.output.shape
    if k_gain.shape != (n, q):
        raise DimensionMismatch(f"gain has shape {k_gain.shape}, expected {(n, q)}")
    z = np.array(z, dtype=float, ndmin=1)
    if z.shape != (q,):
        raise DimensionMismatch(f"measurement has shape {z.shape}, expected {(q,)}")
    predicted_meas = model.output.dot(x) + model.bias_matrix.dot(np.array(
        model.bias_fn(x, model.bias_mean), ndmin=1, copy=_IF_NEEDED))
    x = x + k_gain.dot(z - predicted_meas)
    l_eff, l_eff_t_half, knk_t_half, k_wjb = _gain_terms(model, k_gain, terms)
    m_cov = _plus_transpose(l_eff.dot(m_cov).dot(l_eff_t_half) + knk_t_half)
    d = l_eff.dot(d) - k_wjb
    return FilterState(x, m_cov, d, _total(model, m_cov, d), np.asarray(gain, dtype=float))


def step(model: BiasFilterModel, state: FilterState, z, gain=None) -> FilterState:
    """One predict-and-update cycle from a posterior state.

    Uses the supplied fixed gain, or the trace-optimal gain of the
    predicted covariance when none is given. Equals ``time_update``, then
    ``optimal_gain`` (or the fixed gain) and ``measurement_update``, with
    the bias function's Jacobians evaluated once.
    """
    x, m_cov, d = _predict(model, state)
    terms = _pieces(model, x)
    gain = _optimal_gain(model, m_cov, d, terms) if gain is None else gain
    return _measurement_update(model, x, m_cov, d, gain, z, terms)
