import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from radarbias import filter_core as fc
from radarbias import registration as reg
from radarbias import sim_harness as sim
from radarbias import steady_state as ss
from radarbias.errors import InvalidGains, NonFiniteCovariance

import oracles


def scenario(bias_var=4.0, n_runs=2000, n_steps=100, master_seed=42, **kw):
    return sim.SimScenario(
        config=ss.SteadyStateConfig.from_rho(2.0, bias_var=bias_var),
        gains=ss.SteadyStateGains(0.2, 0.04385),
        n_runs=n_runs, n_steps=n_steps, master_seed=master_seed, **kw)


def scenario_doc():
    """The document of ``scenario()``, written out."""
    return {
        "config": {"period": 1.0, "meas_var": 1.0, "process_var": 2.0,
                   "bias_var": 4.0, "rho": 2.0},
        "gains": {"alpha": 0.2, "beta": 0.04385},
        "n_runs": 2000, "n_steps": 100, "master_seed": 42, "burn_in": None,
    }


class TestScenario:
    def test_validation(self):
        with pytest.raises(ValueError):
            scenario(n_runs=0)
        with pytest.raises(ValueError):
            scenario(burn_in=100, n_steps=100)

    def test_default_burn_in_is_half(self):
        assert scenario(n_steps=100).effective_burn_in == 50
        assert scenario(n_steps=100, burn_in=10).effective_burn_in == 10

    def test_unused_keys_ignored(self):
        # the error starts at zero whatever the initial state, so a document's
        # initial_state, malformed or not, is an unused key like any other
        assert sim.SimScenario.from_dict(scenario_doc()) == scenario()
        for extra in ({"initial_state": [float("nan"), "0"]}, {"comment": None}):
            assert sim.SimScenario.from_dict({**scenario_doc(), **extra}) == scenario()

    @pytest.mark.parametrize("value", [10.9, 0.5, True, float("inf"), float("nan")])
    @pytest.mark.parametrize("field", ["n_runs", "n_steps", "master_seed", "burn_in"])
    def test_fractional_or_boolean_count_rejected(self, field, value):
        doc = scenario_doc()
        doc[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be a whole number, got "):
            sim.SimScenario.from_dict(doc)

    @pytest.mark.parametrize("value", [None, [1.0], 0.2, "x"])
    @pytest.mark.parametrize("field", ["config", "gains"])
    def test_objects_must_be_objects(self, field, value):
        doc = {**scenario_doc(), field: value}
        with pytest.raises(ValueError, match=f"^{re.escape(f'{field} must be an object, got {value!r}')}$"):
            sim.SimScenario.from_dict(doc)

    def test_integral_floats_accepted(self):
        doc = scenario_doc()
        doc.update(n_runs=2e4, n_steps=100.0, master_seed=42.0, burn_in=1e1)
        got = sim.SimScenario.from_dict(doc)
        assert got == scenario(n_runs=20000, burn_in=10)
        assert {type(got.n_runs), type(got.n_steps), type(got.master_seed),
                type(got.burn_in)} == {int}


class TestMonteCarlo:
    def test_noiseless_is_exact(self):
        sc = sim.SimScenario(
            config=ss.SteadyStateConfig(period=1.0, meas_var=0.0, process_var=0.0,
                                        bias_var=0.0),
            gains=ss.SteadyStateGains(0.2, 0.04385),
            n_runs=50, n_steps=40, master_seed=3)
        report = sim.run_monte_carlo(sc)
        np.testing.assert_array_equal(report.empirical_s, np.zeros((2, 2)))
        np.testing.assert_array_equal(report.predicted_s, np.zeros((2, 2)))

    def test_zero_bias_matches_prediction(self):
        report = sim.run_monte_carlo(scenario(bias_var=0.0, n_runs=4000))
        assert float(np.abs(report.relative_errors).max()) < 0.1

    def test_with_bias_matches_prediction(self):
        report = sim.run_monte_carlo(scenario(n_runs=4000))
        assert abs(report.relative_errors[0, 0]) < 0.1
        assert abs(report.relative_errors[1, 0]) < 0.15

    def test_determinism(self):
        a = sim.run_monte_carlo(scenario(n_runs=300, n_steps=50))
        b = sim.run_monte_carlo(scenario(n_runs=300, n_steps=50))
        np.testing.assert_array_equal(a.empirical_s, b.empirical_s)
        assert a.n_samples == b.n_samples

    def test_error_shrinks_with_more_runs(self):
        small = sim.run_monte_carlo(scenario(n_runs=500, master_seed=42))
        large = sim.run_monte_carlo(scenario(n_runs=2000, master_seed=42))
        assert (np.abs(large.relative_errors).max()
                < np.abs(small.relative_errors).max())

    def test_run_draws_do_not_depend_on_run_count(self):
        for kind in (sim.BIAS, sim.PROCESS, sim.MEASUREMENT):
            for step in (0, 1, 137):
                few = sim.stream_draws(42, kind, step, 500, 2.0)
                many = sim.stream_draws(42, kind, step, 2000, 2.0)
                np.testing.assert_array_equal(few, many[:500])

    @pytest.mark.parametrize("kind", [sim.BIAS, sim.PROCESS, sim.MEASUREMENT])
    def test_draws_into_a_buffer(self, kind):
        buf = np.empty(1000)
        got = sim.stream_draws(42, kind, 5, 1000, 1.7, out=buf)
        assert got is buf
        assert got.tobytes() == sim.stream_draws(42, kind, 5, 1000, 1.7).tobytes()
        # the bits of the generator's own normal(0, scale, n)
        seq = np.random.SeedSequence(42, spawn_key=(kind, 5))
        assert got.tobytes() == np.random.default_rng(seq).normal(0.0, 1.7, 1000).tobytes()

    @pytest.mark.parametrize("n_steps", [1, 2, 3, 4, 5, 9])
    def test_short_horizons_match_serial_reference(self, n_steps):
        # 1-3 steps are all drawn before the loop starts, 4 fills the ring,
        # 5 and 9 draw into slots that earlier steps freed
        sc = scenario(n_runs=300, n_steps=n_steps, burn_in=0)
        report = sim.run_monte_carlo(sc)
        np.testing.assert_array_equal(report.empirical_s, oracles.monte_carlo_reference(sc))
        assert report.n_samples == 300 * n_steps

    def test_pool_threads_end_with_the_call(self):
        before = threading.active_count()
        sim.run_monte_carlo(scenario(n_runs=100, n_steps=20))
        assert threading.active_count() == before

    def test_memory_does_not_grow_with_the_steps(self):
        # each step's draw future was once kept to the end: 4.8 MB at 3000 steps
        def traced_peak(n_steps):
            sc = scenario(n_runs=1, n_steps=n_steps)
            tracemalloc.start()
            try:
                sim.run_monte_carlo(sc)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced_peak(300)  # first-call imports and caches
        assert traced_peak(3000) < 2 * traced_peak(300)

    def test_too_large_a_run_fails_before_any_draw(self, monkeypatch):
        # 10**15 runs: every array is larger than any address space
        drawn = []
        monkeypatch.setattr(sim, "stream_draws", lambda *args, **kw: drawn.append(args))
        with pytest.raises(MemoryError):
            sim.run_monte_carlo(scenario(n_runs=10**15, n_steps=10))
        assert drawn == []

    def test_same_bits_for_any_blas_thread_count_or_cpus(self):
        # 20000 runs: above the length at which OpenBLAS splits a dot product
        # over threads; summed that way, S11 differed in its last bits between
        # 1 and 2 threads at this seed
        code = (
            "import os, sys\n"
            "if sys.argv[1] == 'pin':\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from radarbias import sim_harness as sim, steady_state as ss\n"
            "sc = sim.SimScenario(config=ss.SteadyStateConfig.from_rho(2.0, bias_var=4.0),\n"
            "    gains=ss.SteadyStateGains(0.2, 0.04385), n_runs=20000, n_steps=200,\n"
            "    master_seed=7)\n"
            "print(sim.run_monte_carlo(sc).empirical_s.tobytes().hex())\n")
        path = [str(Path(sim.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        runs = [("1", "free"), ("2", "free")]
        if hasattr(os, "sched_setaffinity"):
            runs.append(("2", "pin"))
        outputs = set()
        for threads, cpus in runs:
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, path))}
            proc = subprocess.run([sys.executable, "-c", code, cpus], env=env,
                                  capture_output=True, text=True, timeout=20)
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1

    def test_streams_are_distinct(self):
        draws = [sim.stream_draws(42, kind, step, 8, 1.0)
                 for kind in (sim.BIAS, sim.PROCESS, sim.MEASUREMENT) for step in (0, 1)]
        assert len({d.tobytes() for d in draws}) == len(draws)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_sum_raises(self):
        # a finite bias variance near the largest double: the sum of squared
        # errors overflows, and once came back as inf and nan entries
        with pytest.raises(NonFiniteCovariance, match="overflows"):
            sim.run_monte_carlo(scenario(bias_var=1e308, n_runs=100, n_steps=20))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_relative_error_raises(self):
        # a finite empirical S whose relative error overflows: the bias drives
        # the two-step run's S21 to about 3e-3 against a predicted 1.7e-311
        run = sim.SimScenario(
            config=ss.SteadyStateConfig(period=1.0, meas_var=1e-310, process_var=0.0,
                                        bias_var=1.0),
            gains=ss.SteadyStateGains(0.5, 0.2), n_runs=1, n_steps=2, master_seed=7, burn_in=1)
        with pytest.raises(NonFiniteCovariance, match="relative error overflows"):
            sim.run_monte_carlo(run)

    def test_invalid_gains_rejected(self):
        bad = sim.SimScenario(
            config=ss.SteadyStateConfig.from_rho(2.0),
            gains=ss.SteadyStateGains(0.2, 3.6),  # the excluded root
            n_runs=10, n_steps=10, master_seed=1)
        with pytest.raises(InvalidGains, match="beta_not_excluded"):
            sim.run_monte_carlo(bad)

    def test_single_run_matches_filter_core(self):
        # each run of the vectorized error recursion equals the scalar-gain
        # filter_core trajectory with truth and filter started on the same
        # state, here far from zero: that state cancels from the error
        sc = scenario(n_runs=3, n_steps=60, master_seed=11, burn_in=0)
        report = sim.run_monte_carlo(sc)

        cfg = sc.config

        def draws(kind, step, var):
            return sim.stream_draws(sc.master_seed, kind, step, sc.n_runs, np.sqrt(var))

        bias = draws(sim.BIAS, 0, cfg.bias_var)
        process = [draws(sim.PROCESS, k, cfg.process_var) for k in range(sc.n_steps)]
        meas = [draws(sim.MEASUREMENT, k, cfg.meas_var) for k in range(sc.n_steps)]

        model = cfg.to_filter_model()
        gain = ss.kbar(sc.gains, cfg.period).reshape(2, 1)
        phi = model.transition
        start = (1e3, -20.0)
        acc = np.zeros((2, 2))
        for i in range(sc.n_runs):
            truth = np.array(start)
            state = fc.FilterState.initial(model, start)
            for k in range(sc.n_steps):
                truth = phi @ truth + np.array([0.0, process[k][i]])
                pred = fc.time_update(model, state)
                err = truth - pred.x
                acc += np.outer(err, err)
                z = truth[0] + meas[k][i] + bias[i]
                state = fc.measurement_update(model, replace(pred, gain=gain), [z])
        np.testing.assert_allclose(report.empirical_s, acc / (sc.n_runs * sc.n_steps),
                                   rtol=1e-12)


class DrawFailed(Exception):
    pass


class DrawStopped(BaseException):
    pass


def wrap_draws(monkeypatch, hook):
    """Patch ``sim.stream_draws`` to call ``hook(kind, step)`` before each draw."""
    real = sim.stream_draws

    def draw(seed, kind, step, *args, **kw):
        hook(kind, step)
        return real(seed, kind, step, *args, **kw)
    monkeypatch.setattr(sim, "stream_draws", draw)


class TestDrawScheduler:
    """The error loop's thread and one helper thread share the per-step draws.

    A scheduler that deadlocks is caught by the hang guard of conftest.py.
    """

    def test_draws_come_from_the_caller_and_one_helper(self, monkeypatch):
        sc = scenario(n_runs=300, n_steps=40, burn_in=0)
        want = oracles.monte_carlo_reference(sc)
        drawers = []

        def hook(kind, step):
            drawers.append(threading.get_ident())
            if drawers[-1] != drawers[0]:  # the first draw, the bias, is the caller's
                time.sleep(0.002)  # a slow helper: the loop's thread draws too
        wrap_draws(monkeypatch, hook)
        np.testing.assert_array_equal(sim.run_monte_carlo(sc).empirical_s, want)
        caller = threading.get_ident()
        assert drawers[0] == caller and caller in drawers[1:]
        assert len(set(drawers)) <= 2
        assert len(drawers) == 1 + 2 * sc.n_steps  # each unit drawn once

    def test_helper_error_reaches_the_caller(self, monkeypatch):
        raised = DrawFailed("helper draw failed")
        caller = []

        def hook(kind, step):
            if kind == sim.BIAS:
                caller.append(threading.get_ident())
            elif threading.get_ident() != caller[0]:
                raise raised
            else:
                time.sleep(0.002)  # a slow loop: the helper draws, and fails
        wrap_draws(monkeypatch, hook)
        before = threading.active_count()
        with pytest.raises(DrawFailed) as info:
            sim.run_monte_carlo(scenario(n_runs=100, n_steps=30))
        assert info.value is raised
        assert threading.active_count() == before

    @pytest.mark.parametrize("at_step", [0, 1, 5, 29])
    def test_base_exception_from_a_draw_ends_the_helper(self, monkeypatch, at_step):
        # raised on whichever thread draws that step's measurement noise
        def hook(kind, step):
            if kind == sim.MEASUREMENT and step == at_step:
                raise DrawStopped(step)
        wrap_draws(monkeypatch, hook)
        before = threading.active_count()
        with pytest.raises(DrawStopped):
            sim.run_monte_carlo(scenario(n_runs=100, n_steps=30))
        assert threading.active_count() == before

    def test_same_bits_under_contention(self):
        # three runs at once, more threads than CPUs, switching every 10 us: a
        # unit drawn twice, skipped or read before it is drawn changes the bits
        runs = [scenario(n_runs=200, n_steps=n, master_seed=seed, burn_in=0)
                for n, seed in ((3, 1), (17, 2), (40, 3))]
        want = [oracles.monte_carlo_reference(sc) for sc in runs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(5):
                outs = [{} for _ in runs]
                threads = [threading.Thread(
                    target=lambda out=out, sc=sc: out.update(report=sim.run_monte_carlo(sc)))
                    for out, sc in zip(outs, runs)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                for out, expected in zip(outs, want):
                    np.testing.assert_array_equal(out["report"].empirical_s, expected)
        finally:
            sys.setswitchinterval(interval)

class TestSynthScenario:
    def test_constraint_holds_exactly(self):
        for seed in range(40):
            problem, (truth1, truth2) = sim.synth_registration_scenario(seed)
            residual = oracles.constraint_residual(truth1, truth2, problem)
            scale = max(1.0, float(np.linalg.norm(problem.relative_bias)))
            assert float(np.linalg.norm(residual)) < 1e-10 * scale

    def test_solver_never_beats_truth_cost(self):
        # the closed form returns the global minimum, so its objective is
        # bounded by the objective of any feasible point, the truth included
        for seed in range(40):
            problem, (truth1, truth2) = sim.synth_registration_scenario(seed)
            sol = reg.solve_absolute_bias(problem)
            truth_cost = oracles.registration_objective(
                truth1.as_array(), truth2.as_array(), problem.weights)
            assert sol.objective <= truth_cost + 1e-9

    def test_reproducible(self):
        p1, t1 = sim.synth_registration_scenario(123)
        p2, t2 = sim.synth_registration_scenario(123)
        np.testing.assert_array_equal(p1.relative_bias, p2.relative_bias)
        assert t1 == t2
        assert p1.geom1 == p2.geom1 and p1.weights == p2.weights
