"""Monte-Carlo verification of the steady-state covariance predictions.

Propagates each run's one-step prediction error under the constant-gain
filter, driven by process noise, white measurement noise and a per-run
random bias, and compares its empirical covariance against the closed-form
total covariance. Also synthesizes two-sensor registration problems with
known ground-truth biases.

Noise comes from per-step streams keyed by the master seed: one generator
per stream kind and step (``stream_draws``), whose draw i belongs to run
i. The bias stream (kind 0) is drawn once at step 0; the process (kind 1)
and measurement (kind 2) streams once per step, by a helper thread ahead of
the error loop or by the loop's own thread. A run's noise thus depends
neither on the number of runs nor on the thread that drew it; summed in a
fixed order without BLAS, reports are the same bit for bit on any thread
count, CPUs or BLAS. This layout is ``STREAM_VERSION`` 2;
reports of the earlier per-run-generator layout are not bit-comparable.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from dataclasses import dataclass

import numpy as np

from . import registration, steady_state
from .coords import SphericalTriple
from .errors import InvalidGains, NonFiniteCovariance
from .registration import _from_numbers, _number

#: version of the noise-stream layout, recorded in every ``simulate`` report
STREAM_VERSION = 2
#: stream kinds of ``stream_draws``
BIAS, PROCESS, MEASUREMENT = 0, 1, 2


@dataclass(frozen=True)
class SimScenario:
    """One Monte-Carlo experiment definition; its counts are integers, not bools."""

    config: steady_state.SteadyStateConfig
    gains: steady_state.SteadyStateGains
    n_runs: int
    n_steps: int
    master_seed: int
    burn_in: int | None = None

    def __post_init__(self):
        for name in ("n_runs", "n_steps", "master_seed", "burn_in"):
            value = getattr(self, name)
            # operator.index accepts exactly the types with __index__
            if isinstance(value, bool) or not (hasattr(type(value), "__index__")
                                               or name == "burn_in" and value is None):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_runs < 1 or self.n_steps < 1:
            raise ValueError("n_runs and n_steps must be at least 1")
        if self.burn_in is not None and not 0 <= self.burn_in < self.n_steps:
            raise ValueError("burn_in must lie in [0, n_steps)")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be nonnegative, got {self.master_seed}")

    @property
    def effective_burn_in(self) -> int:
        # half the horizon, short of the transient when the largest closed-loop modulus
        # nears 1: at alpha 0.01 (0.995) S11 then averages 38% low over 200 steps
        return self.n_steps // 2 if self.burn_in is None else self.burn_in

    @classmethod
    def from_dict(cls, doc: dict) -> "SimScenario":
        return cls(
            config=_from_numbers(steady_state.SteadyStateConfig, doc["config"], "config"),
            gains=_from_numbers(steady_state.SteadyStateGains, doc["gains"], "gains"),
            n_runs=_number(doc["n_runs"], "n_runs", int),
            n_steps=_number(doc["n_steps"], "n_steps", int),
            master_seed=_number(doc["master_seed"], "master_seed", int),
            burn_in=None if doc.get("burn_in") is None else _number(doc["burn_in"], "burn_in", int)
        )


@dataclass
class SimReport:
    """Empirical versus predicted covariance of the one-step prediction error."""

    empirical_s: np.ndarray
    predicted_s: np.ndarray
    relative_errors: np.ndarray
    n_samples: int
    wall_time_s: float


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
    the gains fail ``validate_gains`` (the checks of ``gain_table``'s rows),
    NonFiniteCovariance when the predicted or empirical covariance or its
    relative error overflows a double, and MemoryError naming n_runs, before
    any draw, when the run's arrays cannot be allocated.

    Each step's process and measurement draws go to a ring of four steps'
    draws. A helper thread draws them in step order, up to three steps
    ahead of the error loop; when the loop reaches a step not yet drawn, it
    draws the next undrawn ones itself rather than wait. The helper ends
    before this returns, and an exception raised on it is raised here.
    """
    report = steady_state.validate_gains(scenario.gains)
    if not report.ok:
        raise InvalidGains(f"gains fail validation: {', '.join(report.failures)}")

    t0 = time.perf_counter()
    cfg, gains, period = scenario.config, scenario.gains, scenario.config.period
    seed, n_runs, n_steps = scenario.master_seed, scenario.n_runs, scenario.n_steps
    burn_in = scenario.effective_burn_in
    scales = math.sqrt(cfg.process_var), math.sqrt(cfg.meas_var)
    n_samples = n_runs * (n_steps - burn_in)
    pred = steady_state.predicted_covariances(gains, cfg).s_dot
    gain_pos, gain_vel = steady_state.kbar(gains, period)

    try:  # the largest arrays first, so a run too large to allocate fails before any draw
        ring = np.empty((4, 2, n_runs))  # step k's process and measurement draws at k % 4
        err_pos, err_vel = err = np.zeros((2, n_runs))
        tmp, innovation = np.empty((2, n_runs))
    except (MemoryError, ValueError):  # numpy's ValueError: more entries than it can index
        raise MemoryError(f"n_runs {n_runs} is too large to allocate the run's arrays") from None
    bias = stream_draws(seed, BIAS, 0, n_runs, math.sqrt(cfg.bias_var))
    # unit u is stream PROCESS + u % 2 at step u // 2, drawn into ring cell u % 8, whose event
    # is set once it holds it; either thread claims units in order, each with a permit (one
    # per free cell), and draws none from end on
    cells, ready = ring.reshape(8, n_runs), [threading.Event() for _ in range(8)]
    claims, permits, end, failure = itertools.count(), threading.Semaphore(8), 2 * n_steps, []

    def draw(u):
        stream_draws(seed, PROCESS + u % 2, u // 2, n_runs, scales[u % 2], out=cells[u % 8])
        ready[u % 8].set()

    def helper():
        try:
            while permits.acquire() and (u := next(claims)) < end:
                draw(u)
        except BaseException as exc:  # re-raised by the error loop
            failure.append(exc)
            for event in ready:
                event.set()
    acc = np.zeros((2, 2))
    thread = threading.Thread(target=helper)
    thread.start()
    try:
        # an overflow is reported below as a non-finite covariance, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(n_steps):
                for c in (2 * k % 8, 2 * k % 8 + 1):  # draw units until step k's are drawn
                    while not ready[c].is_set():
                        if permits.acquire(blocking=False) and (u := next(claims)) < end:
                            draw(u)
                        else:
                            ready[c].wait()
                    ready[c].clear()
                if failure:
                    raise failure[0]
                process, meas = ring[k % 4]
                err_pos += np.multiply(err_vel, period, out=tmp)
                err_vel += process
                if k >= burn_in:
                    acc += np.einsum("ir,jr->ij", err, err)
                np.add(err_pos, meas, out=innovation)
                innovation += bias
                err_pos -= np.multiply(innovation, gain_pos, out=tmp)
                err_vel -= np.multiply(innovation, gain_vel, out=tmp)
                permits.release(2)  # for the units of step k + 4
            empirical = acc / n_samples
            rel = np.divide(empirical - pred, pred, out=empirical - pred, where=pred != 0.0)
    finally:
        end = 0  # the helper's next claim is its last
        permits.release()
        thread.join()
    if not (np.isfinite(empirical).all() and np.isfinite(rel).all()):
        raise NonFiniteCovariance("empirical covariance or its relative error overflows")
    return SimReport(
        empirical_s=empirical,
        predicted_s=pred,
        relative_errors=rel,
        n_samples=n_samples,
        wall_time_s=time.perf_counter() - t0,
    )


def synth_registration_scenario(seed: int) -> tuple[registration.RegistrationProblem,
                                                    tuple[SphericalTriple, SphericalTriple]]:
    """A feasible registration problem with known ground-truth biases, drawn from ``seed``.

    Draws nondegenerate geometries and true bias increments (standard
    deviations 200 m in range and 5e-3 rad in each angle), then builds the
    relative bias as A2 e2 - A1 e1 so the truth satisfies the constraint
    exactly. Weights follow the convention of unity-order range weights and
    angle weights of order 2 p_t^2.
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
            range_m=rng.normal(0.0, 200.0),
            azimuth=rng.normal(0.0, 5e-3),
            elevation=rng.normal(0.0, 5e-3),
        )

    def draw_weights(geom):
        angle = 2.0 * geom.p_t**2
        return (rng.uniform(0.5, 4.0), angle * rng.uniform(0.25, 4.0),
                angle * rng.uniform(0.25, 4.0))

    geom1, geom2 = draw_geometry(), draw_geometry()
    truth1, truth2 = draw_truth(), draw_truth()
    weights = registration.BiasCostWeights(*draw_weights(geom1), *draw_weights(geom2))
    relative_bias = (registration.build_A(geom2, "sensor 2") @ truth2.as_array()
                     - registration.build_A(geom1, "sensor 1") @ truth1.as_array())
    problem = registration.RegistrationProblem(
        relative_bias=relative_bias, geom1=geom1, geom2=geom2, weights=weights)
    return problem, (truth1, truth2)
