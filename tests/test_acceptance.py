"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured margins.
"""

import time

import numpy as np
import pytest

from radarbias import coords
from radarbias import filter_core as fc
from radarbias import registration as reg
from radarbias import sim_harness as sim
from radarbias import steady_state as ss

import oracles


def announce(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def example_problem(name):
    ex = oracles.REGISTRATION_EXAMPLES[name]
    return reg.RegistrationProblem(
        relative_bias=np.array(ex["relative_bias"]),
        geom1=reg.SensorGeometry(*ex["geom1"]),
        geom2=reg.SensorGeometry(*ex["geom2"]),
        weights=reg.BiasCostWeights(**oracles.EXAMPLE_WEIGHTS),
    )


def solution_increments(sol):
    return np.concatenate([sol.bias1.as_array(), sol.bias2.as_array()])


def check_example(name, rel=1e-3):
    ex = oracles.REGISTRATION_EXAMPLES[name]
    sol = reg.solve_absolute_bias(example_problem(name))
    for got, want in zip(solution_increments(sol), ex["expected"]):
        assert got == pytest.approx(want, rel=rel, abs=1e-12), \
            f"example {name}: {got} vs {want}"
    assert sol.cost == pytest.approx(ex["cost"], rel=rel)
    return sol


def test_criterion_1_reference_example_a_with_runtime():
    sol = check_example("a")
    problem = example_problem("a")
    best = min(
        (lambda t0: (reg.solve_absolute_bias(problem), time.perf_counter() - t0)[1])(
            time.perf_counter())
        for _ in range(20))
    assert best < 1e-3, f"solve took {best * 1e3:.3f} ms"
    announce(1, f"cost {sol.cost:.6g}, six increments at rel 1e-3, "
                f"solve {best * 1e6:.0f} us < 1 ms")


def test_criterion_2_reference_examples_b_c_d():
    check_example("b")
    check_example("d")
    sol_a = check_example("a")
    sol_c = check_example("c")
    # the documented symmetry: same outputs with the sensor 2 angle
    # increments flipped, identical cost
    assert sol_c.cost == pytest.approx(sol_a.cost, rel=1e-3)
    assert sol_c.bias2.azimuth == pytest.approx(-sol_a.bias2.azimuth, rel=1e-3)
    assert sol_c.bias2.elevation == pytest.approx(-sol_a.bias2.elevation, rel=1e-3)
    np.testing.assert_allclose(sol_c.bias1.as_array(), sol_a.bias1.as_array(),
                               rtol=1e-3)
    announce(2, "examples b, c, d at rel 1e-3; c mirrors a with flipped "
                "sensor-2 angle increments and identical cost")


def test_criterion_3_gain_table_with_runtime():
    t0 = time.perf_counter()
    betas = [ss.solve_beta(alpha, rho) for rho, alpha, _ in oracles.GAIN_TABLE]
    elapsed = time.perf_counter() - t0
    worst = 0.0
    for (rho, alpha, beta_table), beta in zip(oracles.GAIN_TABLE, betas):
        assert abs(beta - beta_table) < 5e-5, (rho, alpha, beta, beta_table)
        worst = max(worst, abs(beta - beta_table))
        assert abs(ss.excluded_root(alpha) - (4 - 2 * alpha)) < 1e-9
    assert elapsed < 10e-3, f"table took {elapsed * 1e3:.2f} ms"
    announce(3, f"9 table pairs within 5e-5 (worst {worst:.2e}), excluded root "
                f"exact, total {elapsed * 1e3:.2f} ms < 10 ms")


def test_criterion_4_lyapunov_residuals():
    period, meas_var = 1.0, 1.0
    worst_n = worst_q = 0.0
    for rho, alpha, _ in oracles.GAIN_TABLE:
        beta = ss.solve_beta(alpha, rho)
        gains = ss.SteadyStateGains(alpha, beta)
        process_var = rho * meas_var / period**2
        f = ss.fbar(gains, period)
        k = ss.kbar(gains, period)
        el = oracles.lbar(gains, period)
        q = np.array([[0.0, 0.0], [0.0, process_var]])
        mn = ss.steady_mn(gains, period, meas_var)
        mq = ss.steady_mq(gains, period, process_var)
        res_n = np.linalg.norm(f @ mn @ f.T + np.outer(k, k) * meas_var - mn) \
            / np.linalg.norm(mn)
        res_q = np.linalg.norm(f @ mq @ f.T + el @ q @ el.T - mq) \
            / np.linalg.norm(mq)
        assert res_n < 1e-10 and res_q < 1e-10, (rho, alpha, res_n, res_q)
        worst_n = max(worst_n, res_n)
        worst_q = max(worst_q, res_q)
    announce(4, f"both Lyapunov residuals < 1e-10 on all table pairs "
                f"(worst {worst_n:.2e} / {worst_q:.2e})")


def test_criterion_5_randomized_kkt_suite_with_oracle():
    t0 = time.perf_counter()
    worst_constraint = worst_kkt = worst_cost = 0.0
    for seed in range(100):
        problem, _ = sim.synth_registration_scenario(seed)
        sol = reg.solve_absolute_bias(problem)
        assert sol.constraint_residual < 1e-6
        assert sol.kkt_residual < 1e-9

        weights6 = np.concatenate([problem.weights.sensor1(),
                                   problem.weights.sensor2()])
        rows = oracles.constraint_rows(
            (problem.geom1.p_t, problem.geom1.azimuth, problem.geom1.elevation),
            (problem.geom2.p_t, problem.geom2.azimuth, problem.geom2.elevation))
        e_oracle = oracles.minimize_weighted_quadratic(
            weights6, rows, problem.relative_bias)
        cost_oracle = oracles.quadratic_cost(weights6, e_oracle)
        rel_cost = abs(sol.objective - cost_oracle) / max(abs(cost_oracle), 1e-300)
        assert rel_cost < 1e-6, (seed, rel_cost)

        worst_constraint = max(worst_constraint, sol.constraint_residual)
        worst_kkt = max(worst_kkt, sol.kkt_residual)
        worst_cost = max(worst_cost, rel_cost)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"suite took {elapsed:.2f} s"
    announce(5, f"100 problems: constraint < 1e-6 (worst {worst_constraint:.2e}), "
                f"KKT < 1e-9 (worst {worst_kkt:.2e}), oracle cost gap "
                f"< 1e-6 (worst {worst_cost:.2e}), {elapsed:.2f} s < 5 s")


def test_criterion_6_monte_carlo_covariance():
    scenario = sim.SimScenario(
        config=ss.SteadyStateConfig(period=1.0, meas_var=1.0, process_var=2.0,
                                    bias_var=4.0),
        gains=ss.SteadyStateGains(0.2, 0.04385),
        n_runs=20_000, n_steps=200, master_seed=20260809)
    report = sim.run_monte_carlo(scenario)
    rel_11 = abs(report.relative_errors[0, 0])
    rel_21 = abs(report.relative_errors[1, 0])
    assert rel_11 < 0.05, f"S11 off by {rel_11:.3%}"
    assert rel_21 < 0.10, f"S21 off by {rel_21:.3%}"
    assert report.wall_time_s < 60.0
    announce(6, f"empirical S11 {report.empirical_s[0, 0]:.4g} vs predicted "
                f"{report.predicted_s[0, 0]:.4g} ({rel_11:.2%} < 5%), "
                f"S21 {report.empirical_s[1, 0]:.4g} vs "
                f"{report.predicted_s[1, 0]:.4g} ({rel_21:.2%} < 10%), "
                f"{report.wall_time_s:.1f} s < 60 s")


def test_criterion_7_coordinate_round_trips():
    rng = np.random.default_rng(77)
    n = 10_000

    worst_sph = 0.0
    for _ in range(n):
        p = coords.SphericalTriple(
            range_m=rng.uniform(1e-3, 1e7),
            azimuth=rng.uniform(-np.pi, np.pi),
            elevation=rng.uniform(-np.pi / 2 + 1e-9, np.pi / 2 - 1e-9))
        back = coords.cartesian_to_spherical(coords.spherical_to_cartesian(p))
        err = max(abs(back.range_m - p.range_m) / p.range_m,
                  abs(back.azimuth - p.azimuth) / max(abs(p.azimuth), 1e-9),
                  abs(back.elevation - p.elevation) / max(abs(p.elevation), 1e-9))
        worst_sph = max(worst_sph, err)
    assert worst_sph < 1e-12

    worst_face = worst_orth = 0.0
    for _ in range(n):
        psi, theta = rng.uniform(-np.pi, np.pi, 2)
        r = coords.enu_to_face(psi, theta)
        v = rng.uniform(-1e6, 1e6, 3)
        back = coords.face_to_enu(psi, theta) @ (r @ v)
        worst_face = max(worst_face,
                         float(np.abs(back - v).max()) / max(np.abs(v).max(), 1.0))
        worst_orth = max(worst_orth, float(np.abs(r.T @ r - np.eye(3)).max()),
                         abs(float(np.linalg.det(r)) - 1.0))
    assert worst_face < 1e-12
    assert worst_orth < 1e-12

    worst_site = 0.0
    for _ in range(n):
        s1 = coords.GeodeticSite(rng.uniform(-np.pi, np.pi),
                                 rng.uniform(-np.pi / 2, np.pi / 2))
        s2 = coords.GeodeticSite(rng.uniform(-np.pi, np.pi),
                                 rng.uniform(-np.pi / 2, np.pi / 2))
        rot = coords.enu1_to_enu2(s1, s2)
        worst_orth = max(worst_orth, float(np.abs(rot.T @ rot - np.eye(3)).max()),
                         abs(float(np.linalg.det(rot)) - 1.0))
        p1 = rng.uniform(-1e7, 1e7, 3)
        p2 = coords.enu1_position_to_enu2(p1, s1, s2)
        back = coords.enu2_position_to_enu1(p2, s1, s2)
        worst_site = max(worst_site,
                         float(np.abs(np.asarray(back, dtype=float) - p1).max()))
    assert worst_site < 1e-9, f"site round trip worst {worst_site:.2e} m"
    assert worst_orth < 1e-12
    announce(7, f"1e4 round trips each: spherical rel {worst_sph:.1e} < 1e-12, "
                f"face rel {worst_face:.1e} < 1e-12, inter-site "
                f"{worst_site:.1e} m < 1e-9 m, orthogonality {worst_orth:.1e}"
                " < 1e-12")


def test_criterion_8_degenerate_gain_rejection():
    for alpha in (0.2, 0.7, 1.3):
        at_excluded = ss.validate_gains(ss.SteadyStateGains(alpha, 4.0 - 2.0 * alpha))
        assert not at_excluded.ok
        assert not at_excluded.beta_not_excluded
        assert at_excluded.alpha_nonzero and at_excluded.beta_nonzero

        at_zero = ss.validate_gains(ss.SteadyStateGains(alpha, 0.0))
        assert not at_zero.ok
        assert not at_zero.beta_nonzero
        assert at_zero.alpha_nonzero and at_zero.beta_not_excluded
    announce(8, "beta = 4 - 2 alpha rejected by the excluded-root condition, "
                "beta = 0 by the nonzero-beta condition")


def test_criterion_9_kalman_reduction_over_1000_steps():
    rng = np.random.default_rng(99)
    period = 0.8
    model = fc.BiasFilterModel(
        transition=np.array([[1.0, period], [0.0, 1.0]]),
        output=np.array([[1.0, 0.0]]),
        bias_matrix=np.array([[0.0]]),
        process_noise=np.array([[0.0, 0.0], [0.0, 0.7]]),
        meas_noise=np.array([[2.5]]),
        bias_cov=np.array([[0.0]]),
        bias_mean=np.array([0.0]),
        bias_fn=lambda x, lam: np.zeros(1),
        bias_jac_state=lambda x, lam: np.zeros((1, 2)),
        bias_jac_bias=lambda x, lam: np.zeros((1, 1)))
    state = fc.FilterState.initial(model, [0.0, 0.0], noise_cov=np.eye(2) * 50)
    x_ref, p_ref = state.x.copy(), state.noise_cov.copy()
    worst = 0.0
    for _ in range(1000):
        z = rng.normal(0, 2, 1)
        state = fc.step(model, state, z)
        x_ref, p_ref, k_ref = oracles.classic_kalman_step(
            model.transition, model.output, model.process_noise,
            model.meas_noise, x_ref, p_ref, z)
        for got, want in ((state.x, x_ref), (state.noise_cov, p_ref),
                          (state.total_cov, p_ref), (state.gain, k_ref)):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
            scale = max(1.0, float(np.abs(want).max()))
            worst = max(worst, float(np.abs(got - want).max()) / scale)
    announce(9, f"x, M, S, K match a textbook filter over 1000 steps "
                f"(worst relative gap {worst:.1e} < 1e-10)")
