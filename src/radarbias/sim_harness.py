"""Monte-Carlo verification of the steady-state covariance predictions.

Propagates each run's one-step prediction error under the constant-gain
filter, driven by process noise, white measurement noise and a per-run
random bias, and compares its empirical covariance against the closed-form
total covariance. Also synthesizes two-sensor registration problems with
known ground-truth biases.

Noise comes from per-step streams keyed by the master seed: one generator
per stream kind and step (``stream_draws``), whose draw i belongs to run
i. The bias stream (kind 0) is drawn once at step 0; the process (kind 1)
and measurement (kind 2) streams once per step, by two pool threads ahead
of the error loop. A run's noise thus does not depend on the number of
runs; summed in a fixed order without BLAS, reports are the same bit for
bit on any thread count, CPUs or BLAS. This layout is ``STREAM_VERSION`` 2;
reports of the earlier per-run-generator layout are not bit-comparable.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import registration, steady_state
from .coords import SphericalTriple
from .errors import InvalidGains, NonFiniteCovariance
from .registration import _number

#: version of the noise-stream layout, recorded in every ``simulate`` report
STREAM_VERSION = 2
#: stream kinds of ``stream_draws``
BIAS, PROCESS, MEASUREMENT = 0, 1, 2


def _whole(value, name: str) -> int:
    # an integral number (2e4 reads as 20000); a bool or a fraction would be truncated
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return _number(value, name, int)


@dataclass(frozen=True)
class SimScenario:
    """One Monte-Carlo experiment definition."""

    config: steady_state.SteadyStateConfig
    gains: steady_state.SteadyStateGains
    n_runs: int
    n_steps: int
    master_seed: int
    burn_in: int | None = None

    def __post_init__(self):
        if self.n_runs < 1 or self.n_steps < 1:
            raise ValueError("n_runs and n_steps must be at least 1")
        if self.burn_in is not None and not 0 <= self.burn_in < self.n_steps:
            raise ValueError("burn_in must lie in [0, n_steps)")

    @property
    def effective_burn_in(self) -> int:
        # transient decay is governed by the closed-loop eigenvalues; half
        # the horizon is a conservative default
        return self.n_steps // 2 if self.burn_in is None else self.burn_in

    @classmethod
    def from_dict(cls, doc: dict) -> "SimScenario":
        cfg = doc["config"]
        return cls(
            config=steady_state.SteadyStateConfig(
                period=_number(cfg["period"], "period"),
                meas_var=_number(cfg["meas_var"], "meas_var"),
                process_var=_number(cfg["process_var"], "process_var"),
                bias_var=_number(cfg.get("bias_var", 0.0), "bias_var"),
                rho=None if cfg.get("rho") is None else _number(cfg["rho"], "rho"),
            ),
            gains=steady_state.SteadyStateGains(
                **{name: _number(doc["gains"][name], name) for name in ("alpha", "beta")}),
            n_runs=_whole(doc["n_runs"], "n_runs"),
            n_steps=_whole(doc["n_steps"], "n_steps"),
            master_seed=_whole(doc["master_seed"], "master_seed"),
            burn_in=None if doc.get("burn_in") is None else _whole(doc["burn_in"], "burn_in"),
        )


@dataclass
class SimReport:
    """Empirical versus predicted covariance of the one-step prediction error."""

    empirical_s: np.ndarray
    predicted_s: np.ndarray
    relative_errors: np.ndarray
    n_samples: int = 0
    wall_time_s: float = 0.0


def stream_draws(master_seed: int, kind: int, step: int, n_runs: int,
                 scale: float, out: np.ndarray | None = None) -> np.ndarray:
    """Zero-mean normal draws of one stream kind at one step, entry i for run i.

    The generator is keyed by ``(master_seed, kind, step)`` and fills its
    output in order, so the first n entries are the same for any n_runs >= n.
    They are ``scale`` times standard normals, written into ``out`` if given.
    """
    seq = np.random.SeedSequence(master_seed, spawn_key=(kind, step))
    draws = np.random.default_rng(seq).standard_normal(n_runs, out=out)
    return np.multiply(draws, scale, out=draws)


def run_monte_carlo(scenario: SimScenario) -> SimReport:
    """Simulate all runs' prediction errors under the fixed gain, compare covariances.

    Draws each run's bias from N(0, bias_var) and, step by step, its process
    and measurement noise. The filter starts on the true state, whatever it
    is, so each run's error (truth minus estimate) starts at zero. Each step
    predicts the error, accumulates its outer product after the burn-in, and
    corrects it by the gain times the innovation. Raises InvalidGains when
    the gains fail validation for the scenario's noise levels, and
    NonFiniteCovariance when the empirical covariance or its relative
    error overflows a double.

    Two pool threads draw the noise up to three steps ahead into a ring of
    four steps' draws; the pool closes before this returns.
    """
    report = steady_state.validate_gains(scenario.gains, scenario.config)
    if not report.ok:
        raise InvalidGains(f"gains fail validation: {', '.join(report.failures)}")

    t0 = time.perf_counter()
    cfg, gains, period = scenario.config, scenario.gains, scenario.config.period
    seed, n_runs, n_steps = scenario.master_seed, scenario.n_runs, scenario.n_steps
    burn_in = scenario.effective_burn_in
    scales = math.sqrt(cfg.process_var), math.sqrt(cfg.meas_var)
    n_samples = n_runs * (n_steps - burn_in)
    pred = steady_state.predicted_covariances(gains, cfg).s_dot

    bias = stream_draws(seed, BIAS, 0, n_runs, math.sqrt(cfg.bias_var))

    gain_pos, gain_vel = steady_state.kbar(gains, period)
    ring = np.empty((4, 2, n_runs))  # step k's process and measurement draws at k % 4

    def fill(k):
        for kind, scale, out in zip((PROCESS, MEASUREMENT), scales, ring[k % 4]):
            stream_draws(seed, kind, k, n_runs, scale, out=out)
    err_pos, err_vel = err = np.zeros((2, n_runs))
    acc = np.zeros((2, 2))
    from concurrent.futures import ThreadPoolExecutor  # here: `import radarbias` loads no pool
    # an overflow is reported below as a non-finite covariance, not as a warning
    with np.errstate(over="ignore", invalid="ignore"), ThreadPoolExecutor(2) as pool:
        drawn = [pool.submit(fill, k) for k in range(min(3, n_steps))]
        for k in range(n_steps):
            drawn[k].result()
            if k + 3 < n_steps:  # into the slot step k - 1 has just freed
                drawn.append(pool.submit(fill, k + 3))
            process, meas = ring[k % 4]
            err_pos += period * err_vel
            err_vel += process
            if k >= burn_in:
                acc += np.einsum("ir,jr->ij", err, err)
            innovation = err_pos + meas + bias
            err_pos -= gain_pos * innovation
            err_vel -= gain_vel * innovation
        empirical = acc / n_samples
        rel = np.divide(empirical - pred, pred, out=empirical - pred, where=pred != 0.0)
    if not (np.isfinite(empirical).all() and np.isfinite(rel).all()):
        raise NonFiniteCovariance("empirical covariance or its relative error overflows")
    return SimReport(
        empirical_s=empirical,
        predicted_s=pred,
        relative_errors=rel,
        n_samples=n_samples,
        wall_time_s=time.perf_counter() - t0,
    )


def synth_registration_scenario(
    seed: int,
    range_bias_m: float = 200.0,
    angle_bias_rad: float = 5e-3,
) -> tuple[registration.RegistrationProblem, tuple[SphericalTriple, SphericalTriple]]:
    """A feasible registration problem with known ground-truth biases.

    Draws nondegenerate geometries and true bias increments, then builds
    the relative bias as A2 e2 - A1 e1 so the truth satisfies the
    constraint exactly. Weights follow the convention of unity-order range
    weights and angle weights of order 2 p_t^2.
    """
    rng = np.random.default_rng(seed)

    def draw_geometry():
        return registration.SensorGeometry(
            p_t=rng.uniform(5e3, 1e5),
            azimuth=rng.uniform(-np.pi, np.pi),
            elevation=rng.uniform(-1.2, 1.2),
        )

    def draw_truth():
        return SphericalTriple(
            range_m=rng.normal(0.0, range_bias_m),
            azimuth=rng.normal(0.0, angle_bias_rad),
            elevation=rng.normal(0.0, angle_bias_rad),
        )

    geom1, geom2 = draw_geometry(), draw_geometry()
    truth1, truth2 = draw_truth(), draw_truth()
    weights = registration.BiasCostWeights(
        k_r1_sq=rng.uniform(0.5, 4.0),
        k_psi1_sq=2.0 * geom1.p_t**2 * rng.uniform(0.25, 4.0),
        k_theta1_sq=2.0 * geom1.p_t**2 * rng.uniform(0.25, 4.0),
        k_r2_sq=rng.uniform(0.5, 4.0),
        k_psi2_sq=2.0 * geom2.p_t**2 * rng.uniform(0.25, 4.0),
        k_theta2_sq=2.0 * geom2.p_t**2 * rng.uniform(0.25, 4.0),
    )
    relative_bias = (registration.build_A(geom2, "sensor 2") @ truth2.as_array()
                     - registration.build_A(geom1, "sensor 1") @ truth1.as_array())
    problem = registration.RegistrationProblem(
        relative_bias=relative_bias, geom1=geom1, geom2=geom2, weights=weights)
    return problem, (truth1, truth2)
