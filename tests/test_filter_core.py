import copy
import pickle
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radarbias import filter_core as fc
from radarbias import steady_state as ss
from radarbias.errors import DimensionMismatch, SingularInnovation

import oracles


def cv_model(period=1.0, meas_var=1.0, process_var=2.0, bias_var=4.0,
             bias_mean=0.0):
    model = ss.SteadyStateConfig(
        period=period, meas_var=meas_var, process_var=process_var,
        bias_var=bias_var).to_filter_model()
    return replace(model, bias_mean=np.array([bias_mean]))


def unbiased_model(period=1.0, meas_var=1.0, process_var=2.0):
    # bias channel present but inert: W = 0 and zero bias covariance
    return fc.BiasFilterModel(
        transition=np.array([[1.0, period], [0.0, 1.0]]),
        output=np.array([[1.0, 0.0]]),
        bias_matrix=np.array([[0.0]]),
        process_noise=np.array([[0.0, 0.0], [0.0, process_var]]),
        meas_noise=np.array([[meas_var]]),
        bias_cov=np.array([[0.0]]),
        bias_mean=np.array([0.0]),
        bias_fn=lambda x, lam: np.zeros(1),
        bias_jac_state=lambda x, lam: np.zeros((1, 2)),
        bias_jac_bias=lambda x, lam: np.zeros((1, 1)),
    )


def linear_bias_model(rng, n=2, q=2, p=1):
    # u(x, lam) = U x + V lam with random coefficients and PSD covariances
    u_mat = rng.normal(0, 0.1, (q, n))
    v_mat = rng.normal(0, 1.0, (q, p))
    a = rng.normal(0, 0.5, (n, n))
    q_cov = a @ a.T + 0.1 * np.eye(n)
    return fc.BiasFilterModel(
        transition=np.array([[1.0, 0.7], [0.0, 0.95]])[:n, :n],
        output=rng.normal(0, 1.0, (q, n)),
        bias_matrix=np.eye(q),
        process_noise=q_cov,
        meas_noise=np.eye(q) * rng.uniform(0.5, 2.0),
        bias_cov=np.eye(p) * rng.uniform(0.5, 2.0),
        bias_mean=rng.normal(0, 1.0, p),
        bias_fn=lambda x, lam: u_mat @ x + v_mat @ lam,
        bias_jac_state=lambda x, lam: u_mat,
        bias_jac_bias=lambda x, lam: v_mat,
    ), u_mat, v_mat


def state_dependent_model():
    # u(x, lam) = lam (1 + 0.1 sin x0): the Jacobians depend on the estimate,
    # and du/dx is nonzero at the nonzero mean bias
    return fc.BiasFilterModel(
        transition=np.array([[1.0, 0.5], [0.0, 1.0]]),
        output=np.array([[1.0, 0.0]]),
        bias_matrix=np.array([[1.0]]),
        process_noise=np.array([[0.01, 0.0], [0.0, 0.2]]),
        meas_noise=np.array([[0.8]]),
        bias_cov=np.array([[1.5]]),
        bias_mean=np.array([0.5]),
        bias_fn=lambda x, lam: lam * (1.0 + 0.1 * np.sin(x[0])),
        bias_jac_state=lambda x, lam: np.array([[lam[0] * 0.1 * np.cos(x[0]), 0.0]]),
        bias_jac_bias=lambda x, lam: np.array([[1.0 + 0.1 * np.sin(x[0])]]),
    )


class TestModelValidation:
    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            fc.BiasFilterModel(
                transition=np.eye(2),
                output=np.array([[1.0, 0.0, 0.0]]),  # wrong width
                bias_matrix=np.array([[1.0]]),
                process_noise=np.eye(2),
                meas_noise=np.eye(1),
                bias_cov=np.eye(1),
                bias_mean=np.zeros(1),
                bias_fn=lambda x, lam: lam,
                bias_jac_state=lambda x, lam: np.zeros((1, 2)),
                bias_jac_bias=lambda x, lam: np.ones((1, 1)),
            )

    def test_measurement_shape_checked(self):
        model = cv_model()
        state = fc.FilterState.initial(model, [0.0, 0.0])
        pred = fc.time_update(model, state)
        pred = replace(pred, gain=np.array([[0.1], [0.1]]))
        with pytest.raises(DimensionMismatch):
            fc.measurement_update(model, pred, [1.0, 2.0])

    def test_initial_state_shape_checked(self):
        with pytest.raises(DimensionMismatch, match=r"^x0 has shape \(3,\), expected \(2,\)$"):
            fc.FilterState.initial(cv_model(), [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("prior", [np.eye(3), np.eye(1), np.ones((2, 3)), np.ones(2), 4.0])
    def test_initial_prior_shape_checked(self, prior):
        # unchecked, a 3 x 3 or 1 x 1 prior would fail only at the first step,
        # and a 2 x 3 one in numpy's broadcasting
        shape = re.escape(str(np.shape(prior)))
        with pytest.raises(DimensionMismatch,
                           match=rf"^noise_cov has shape {shape}, expected \(2, 2\)$"):
            fc.FilterState.initial(cv_model(), [0.0, 0.0], noise_cov=prior)

    def test_measurement_update_needs_a_gain(self):
        model = cv_model()
        pred = fc.time_update(model, fc.FilterState.initial(model, [0.0, 0.0]))
        with pytest.raises(ValueError, match="^predicted state carries no gain"):
            fc.measurement_update(model, pred, [1.0])

    @pytest.mark.parametrize("gain", [[[0.1, 0.1]], [0.1, 0.1, 0.1]])
    def test_gain_shape_checked(self, gain):
        model = cv_model()
        pred = fc.time_update(model, fc.FilterState.initial(model, [0.0, 0.0]))
        with pytest.raises(DimensionMismatch, match=r"^gain has shape .*, expected \(2, 1\)$"):
            fc.measurement_update(model, replace(pred, gain=np.array(gain)), [1.0])
        with pytest.raises(DimensionMismatch, match="^gain has shape"):
            fc.step(model, fc.FilterState.initial(model, [0.0, 0.0]), [1.0], gain=gain)


class TestTimeUpdate:
    def test_identity_dynamics_no_noise(self):
        model = fc.BiasFilterModel(
            transition=np.eye(2), output=np.array([[1.0, 0.0]]),
            bias_matrix=np.array([[1.0]]), process_noise=np.zeros((2, 2)),
            meas_noise=np.eye(1), bias_cov=np.array([[4.0]]),
            bias_mean=np.zeros(1),
            bias_fn=lambda x, lam: np.atleast_1d(lam),
            bias_jac_state=lambda x, lam: np.zeros((1, 2)),
            bias_jac_bias=lambda x, lam: np.ones((1, 1)))
        state = fc.FilterState.initial(model, [1.0, 2.0], noise_cov=np.eye(2) * 3)
        pred = fc.time_update(model, state)
        np.testing.assert_allclose(pred.x, state.x)
        np.testing.assert_allclose(pred.noise_cov, state.noise_cov)
        np.testing.assert_allclose(pred.total_cov, state.noise_cov)  # D = 0

    def test_constant_velocity_hand_expansion(self):
        period = 0.5
        model = cv_model(period=period, process_var=0.3, bias_var=0.0)
        m = np.array([[2.0, 0.4], [0.4, 1.5]])
        state = fc.FilterState.initial(model, [1.0, -2.0], noise_cov=m)
        pred = fc.time_update(model, state)
        a, b, c = m[0, 0], m[0, 1], m[1, 1]
        expected = np.array([
            [a + 2 * period * b + period**2 * c, b + period * c],
            [b + period * c, c + 0.3],
        ])
        expected[0, 0] += 0.0  # q11 = 0 for the velocity-noise model
        np.testing.assert_allclose(pred.noise_cov, expected, rtol=1e-14)
        np.testing.assert_allclose(pred.x, [1.0 - 2.0 * period, -2.0])

    def test_zero_bias_covariance_means_total_equals_noise(self):
        model = cv_model(bias_var=0.0)
        state = fc.FilterState.initial(model, [0.0, 0.0], noise_cov=np.eye(2))
        state = replace(state, bias_sens=np.array([[1.0], [2.0]]))
        pred = fc.time_update(model, state)
        np.testing.assert_allclose(pred.total_cov, pred.noise_cov)


class TestMeasurementUpdate:
    def test_zero_gain_is_identity(self):
        model = cv_model()
        state = fc.FilterState.initial(model, [1.0, 2.0], noise_cov=np.eye(2) * 5)
        pred = fc.time_update(model, state)
        pred = replace(pred, gain=np.zeros((2, 1)))
        post = fc.measurement_update(model, pred, [10.0])
        np.testing.assert_allclose(post.x, pred.x)
        np.testing.assert_allclose(post.noise_cov, pred.noise_cov)
        np.testing.assert_allclose(post.bias_sens, pred.bias_sens)
        np.testing.assert_allclose(post.total_cov, pred.total_cov)

    def test_scalar_closed_form(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            q_var, n_var, lam_var = rng.uniform(0.1, 2.0, 3)
            gain = rng.uniform(-0.5, 1.5)
            model = fc.BiasFilterModel(
                transition=np.array([[1.0]]), output=np.array([[1.0]]),
                bias_matrix=np.array([[1.0]]),
                process_noise=np.array([[q_var]]),
                meas_noise=np.array([[n_var]]), bias_cov=np.array([[lam_var]]),
                bias_mean=np.array([0.5]),
                bias_fn=lambda x, lam: np.atleast_1d(lam),
                bias_jac_state=lambda x, lam: np.zeros((1, 1)),
                bias_jac_bias=lambda x, lam: np.ones((1, 1)))
            x0, m0, d0 = rng.normal(0, 1, 3)
            s0 = abs(m0) + 1 + d0 * d0 * lam_var  # S = M + D Lambda D'
            pred = fc.FilterState(
                x=np.array([x0]), noise_cov=np.array([[abs(m0) + 1]]),
                bias_sens=np.array([[d0]]),
                total_cov=np.array([[s0]]), gain=np.array([[gain]]))
            z = rng.normal(0, 1)
            post = fc.measurement_update(model, pred, [z])
            # independent scalar recursions
            m_prev = pred.noise_cov[0, 0]
            expected_x = x0 + gain * (z - x0 - 0.5)
            expected_m = (1 - gain) ** 2 * m_prev + gain**2 * n_var
            expected_d = (1 - gain) * d0 - gain
            expected_s = ((1 - gain) ** 2 * s0 + gain**2 * (n_var + lam_var)
                          - 2 * gain * (1 - gain) * d0 * lam_var)
            assert post.x[0] == pytest.approx(expected_x, rel=1e-12)
            assert post.noise_cov[0, 0] == pytest.approx(expected_m, rel=1e-12)
            assert post.bias_sens[0, 0] == pytest.approx(expected_d, rel=1e-12)
            assert post.total_cov[0, 0] == pytest.approx(expected_s, rel=1e-12)

    def test_covariances_stay_symmetric(self):
        rng = np.random.default_rng(13)
        model, _, _ = linear_bias_model(rng)
        state = fc.FilterState.initial(model, np.zeros(2), noise_cov=np.eye(2) * 10)
        for k in range(200):
            state = fc.step(model, state, rng.normal(0, 1, 2))
            np.testing.assert_allclose(state.noise_cov, state.noise_cov.T,
                                       atol=1e-12)
            np.testing.assert_allclose(state.total_cov, state.total_cov.T,
                                       atol=1e-12)

    def test_total_covariance_dominates_noise_covariance(self):
        # S - M = D Lambda D' is PSD on every state, whether du/dx is zero or not
        rng = np.random.default_rng(13)
        for model in (cv_model(bias_var=4.0), state_dependent_model(), linear_bias_model(rng)[0]):
            q = model.dims[1]
            state = fc.FilterState.initial(model, np.zeros(2), noise_cov=np.eye(2) * 10)
            for k in range(200):
                pred = fc.time_update(model, state)
                gap_pred = np.linalg.eigvalsh(pred.total_cov - pred.noise_cov)
                assert gap_pred.min() > -1e-10
                state = fc.step(model, state, rng.normal(0, 1, q))
                gap = np.linalg.eigvalsh(state.total_cov - state.noise_cov)
                assert gap.min() > -1e-10

    @pytest.mark.parametrize("make_model", [cv_model, state_dependent_model])
    @pytest.mark.parametrize("fixed_gain", [None, [[0.3], [0.05]]])
    def test_covariances_are_exactly_symmetric(self, make_model, fixed_gain):
        # every returned M and S is symmetrized, so it equals its transpose to the bit
        model = make_model()
        rng = np.random.default_rng(61)
        state = fc.FilterState.initial(model, np.array([0.2, -0.1]), noise_cov=np.eye(2))
        for _ in range(200):
            pred = fc.time_update(model, state)
            state = fc.step(model, state, rng.normal(0.0, 1.0, 1), gain=fixed_gain)
            for cov in (pred.noise_cov, pred.total_cov, state.noise_cov, state.total_cov):
                assert np.array_equal(cov, cov.T)


class TestSuperposition:
    def test_error_recursion_splits_and_covariance_matches(self):
        rng = np.random.default_rng(17)
        model, u_mat, v_mat = linear_bias_model(rng)
        n, q, _, p = model.dims
        gain = rng.normal(0, 0.2, (n, q))

        # closure matrices written from the error recursion directly
        phi = model.transition
        l_mat = np.eye(n) - gain @ model.output
        f_mat = (l_mat - gain @ model.bias_matrix @ u_mat) @ phi
        c_mat = -gain @ model.bias_matrix @ v_mat

        n_runs, n_steps = 20000, 30
        sd_lam = np.sqrt(model.bias_cov[0, 0])
        full = np.zeros((n, n_runs))
        part_noise = np.zeros((n, n_runs))
        part_bias = np.zeros((n, n_runs))
        lam = rng.normal(0, sd_lam, (p, n_runs))
        chol_q = np.linalg.cholesky(model.process_noise)
        sd_meas = np.sqrt(model.meas_noise[0, 0])
        for _ in range(n_steps):
            m_noise = chol_q @ rng.normal(0, 1, (n, n_runs))
            w_noise = rng.normal(0, sd_meas, (q, n_runs))
            full = f_mat @ full + l_mat @ m_noise + c_mat @ lam - gain @ w_noise
            part_noise = f_mat @ part_noise + l_mat @ m_noise - gain @ w_noise
            part_bias = f_mat @ part_bias + c_mat @ lam
            # superposition holds per sample, not just in distribution
            np.testing.assert_allclose(full, part_noise + part_bias, atol=1e-9)

        # the filter covariance recursions predict the simulated spread
        state = fc.FilterState(
            x=np.zeros(n), noise_cov=np.zeros((n, n)), bias_sens=np.zeros((n, p)),
            total_cov=np.zeros((n, n)), gain=gain)
        for _ in range(n_steps):
            pred = fc.time_update(model, state)
            state = fc.measurement_update(model, replace(pred, gain=gain),
                                          np.zeros(q))
        empirical = full @ full.T / n_runs
        scale = np.linalg.norm(state.total_cov)
        assert np.linalg.norm(empirical - state.total_cov) / scale < 0.05


class TestKalmanReduction:
    def test_matches_textbook_filter(self):
        rng = np.random.default_rng(19)
        model = unbiased_model()
        phi, h = model.transition, model.output
        q_cov, r_cov = model.process_noise, model.meas_noise
        state = fc.FilterState.initial(model, [0.0, 0.0], noise_cov=np.eye(2) * 100)
        x_ref, p_ref = state.x.copy(), state.noise_cov.copy()
        for _ in range(500):
            z = rng.normal(0, 3, 1)
            state = fc.step(model, state, z)
            x_ref, p_ref, k_ref = oracles.classic_kalman_step(
                phi, h, q_cov, r_cov, x_ref, p_ref, z)
            np.testing.assert_allclose(state.x, x_ref, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(state.noise_cov, p_ref, rtol=1e-10,
                                       atol=1e-12)
            np.testing.assert_allclose(state.total_cov, p_ref, rtol=1e-10,
                                       atol=1e-12)
            np.testing.assert_allclose(state.gain, k_ref, rtol=1e-10, atol=1e-12)


class TestOptimalGain:
    def test_reduces_to_classic_gain_without_bias(self):
        model = unbiased_model()
        state = fc.FilterState.initial(model, [0.0, 0.0], noise_cov=np.eye(2) * 7)
        pred = fc.time_update(model, state)
        k = fc.optimal_gain(model, pred)
        h = model.output
        expected = pred.total_cov @ h.T @ np.linalg.inv(
            h @ pred.total_cov @ h.T + model.meas_noise)
        np.testing.assert_allclose(k, expected, rtol=1e-12)

    def test_trace_minimality_by_probing(self):
        rng = np.random.default_rng(23)
        model, _, _ = linear_bias_model(rng)
        state = fc.FilterState.initial(model, np.zeros(2), noise_cov=np.eye(2) * 5)
        state = replace(state, bias_sens=rng.normal(0, 0.5, (2, 1)))
        pred = fc.time_update(model, state)
        k_star = fc.optimal_gain(model, pred)

        def trace_with(gain):
            post = fc.measurement_update(model, replace(pred, gain=gain),
                                         np.zeros(2))
            return np.trace(post.total_cov)

        best = trace_with(k_star)
        for _ in range(100):
            other = k_star + rng.normal(0, 0.05, k_star.shape)
            assert trace_with(other) >= best - 1e-10

    def test_gradient_vanishes_at_optimum(self):
        rng = np.random.default_rng(29)
        model, _, _ = linear_bias_model(rng)
        state = fc.FilterState.initial(model, np.zeros(2), noise_cov=np.eye(2) * 5)
        state = replace(state, bias_sens=rng.normal(0, 0.5, (2, 1)))
        pred = fc.time_update(model, state)
        k_star = fc.optimal_gain(model, pred)

        def trace_with(gain):
            post = fc.measurement_update(model, replace(pred, gain=gain),
                                         np.zeros(2))
            return np.trace(post.total_cov)

        h = 1e-6
        for i in range(k_star.shape[0]):
            for j in range(k_star.shape[1]):
                bump = np.zeros_like(k_star)
                bump[i, j] = h
                deriv = (trace_with(k_star + bump) - trace_with(k_star - bump)) / (2 * h)
                assert abs(deriv) < 1e-8


def converged(model, noise_cov, gain=None):
    # the state after 600 zero measurements, from the origin
    state = fc.FilterState.initial(model, [0.0, 0.0], noise_cov=noise_cov)
    for _ in range(600):
        state = fc.step(model, state, [0.0], gain=gain)
    return state


class TestSteadyStateConsistency:
    def test_fixed_gain_converges_to_closed_form(self):
        # measurement-noise-only model so the limit is the closed-form block
        cfg = ss.SteadyStateConfig(period=1.0, meas_var=1.0, process_var=0.0,
                                   bias_var=4.0)
        model = cfg.to_filter_model()
        gains = ss.SteadyStateGains(0.2, 0.04385)
        state = converged(model, np.eye(2) * 100, ss.kbar(gains, cfg.period).reshape(2, 1))
        expected = ss.steady_mn(gains, cfg.period, cfg.meas_var)
        np.testing.assert_allclose(state.noise_cov, expected, rtol=1e-8)
        # the bias sensitivity settles on the closed-form steady vector
        np.testing.assert_allclose(state.bias_sens.ravel(), oracles.dbar(), atol=1e-8)

    def test_fixed_gain_converges_to_full_closed_forms(self):
        # with process noise and bias active, the posterior covariance
        # settles on the sum of the two closed-form blocks and the
        # predicted total covariance on the closed-form prediction
        rho = 2.0
        cfg = ss.SteadyStateConfig.from_rho(rho, bias_var=4.0)
        model = cfg.to_filter_model()
        gains = ss.SteadyStateGains(0.2, ss.solve_beta(0.2, rho))
        state = converged(model, np.eye(2) * 100, ss.kbar(gains, cfg.period).reshape(2, 1))
        m_bar = (ss.steady_mn(gains, cfg.period, cfg.meas_var)
                 + ss.steady_mq(gains, cfg.period, cfg.process_var))
        np.testing.assert_allclose(state.noise_cov, m_bar, rtol=1e-8)
        predicted = fc.time_update(model, state)
        cov = ss.predicted_covariances(gains, cfg)
        np.testing.assert_allclose(predicted.noise_cov, cov.m_dot, rtol=1e-8)
        np.testing.assert_allclose(predicted.total_cov, cov.s_dot, rtol=1e-8)

    @pytest.mark.parametrize("bias_var", [0.0, 4.0])
    def test_converged_optimal_gain_lies_on_gain_curve(self, bias_var):
        rho = 2.0
        cfg = ss.SteadyStateConfig.from_rho(rho, bias_var=bias_var)
        state = converged(cfg.to_filter_model(), np.eye(2) * 1e6)
        alpha = float(state.gain[0, 0])
        beta = float(state.gain[1, 0]) * cfg.period
        assert abs(oracles.gain_polynomial(alpha, beta, rho)) < 1e-8
        assert ss.solve_beta(alpha, rho) == pytest.approx(beta, abs=1e-8)

    @pytest.mark.parametrize("rho", [0.1, 2.0, 50.0])
    def test_limits_equal_closed_forms_over_rho(self, rho):
        # the fixed-gain limit's posterior M and predicted S are the closed
        # forms, and the converged trace-optimal gain lies on the gain curve
        cfg = ss.SteadyStateConfig.from_rho(rho, bias_var=4.0)
        model = cfg.to_filter_model()
        gains = ss.SteadyStateGains(0.2, ss.solve_beta(0.2, rho))
        state = converged(model, np.eye(2) * 100, ss.kbar(gains, cfg.period).reshape(2, 1))
        np.testing.assert_allclose(state.noise_cov, ss.steady_mn(gains, cfg.period, cfg.meas_var)
                                   + ss.steady_mq(gains, cfg.period, cfg.process_var), rtol=1e-8)
        np.testing.assert_allclose(fc.time_update(model, state).total_cov,
                                   ss.predicted_covariances(gains, cfg).s_dot, rtol=1e-8)
        best = converged(model, np.eye(2) * 1e6)
        alpha, beta = float(best.gain[0, 0]), float(best.gain[1, 0]) * cfg.period
        assert abs(oracles.gain_polynomial(alpha, beta, rho)) < 1e-8
        assert ss.solve_beta(alpha, rho) == pytest.approx(beta, abs=1e-8)

    def test_converged_gain_independent_of_bias_variance(self):
        rho = 6.0
        gains = []
        for bias_var in (0.0, 9.0):
            cfg = ss.SteadyStateConfig.from_rho(rho, bias_var=bias_var)
            gains.append(converged(cfg.to_filter_model(), np.eye(2) * 1e6).gain.copy())
        np.testing.assert_allclose(gains[0], gains[1], atol=1e-8)


class TestStepComposition:
    @pytest.mark.parametrize("fixed_gain", [None, [[0.3], [0.05]]])
    def test_step_equals_explicit_composition(self, fixed_gain):
        model = state_dependent_model()
        assert np.any(model.bias_jac_state(np.array([0.2, 0.0]), model.bias_mean) != 0)
        rng = np.random.default_rng(17)
        stepped = composed = fc.FilterState.initial(model, np.array([0.2, -0.1]),
                                                    noise_cov=np.eye(2))
        for _ in range(50):
            z = rng.normal(0.0, 1.0, 1)
            stepped = fc.step(model, stepped, z, gain=fixed_gain)
            predicted = fc.time_update(model, composed)
            gain = fc.optimal_gain(model, predicted) if fixed_gain is None else fixed_gain
            composed = fc.measurement_update(
                model, replace(predicted, gain=np.asarray(gain, dtype=float)), z)
            for name in ("x", "noise_cov", "bias_sens", "total_cov", "gain"):
                assert getattr(stepped, name).tobytes() == getattr(composed, name).tobytes(), name


class TestPosteriorTotalCovariance:
    """Every posterior state has S = M + D Lambda D', whether du/dx is zero or not."""

    def check(self, model, fixed_gain):
        rng = np.random.default_rng(3)
        state = fc.FilterState.initial(model, [0.2, -0.1], noise_cov=np.eye(2))
        for _ in range(200):
            state = fc.step(model, state, rng.normal(0.0, 1.0, 1), gain=fixed_gain)
            identity = state.noise_cov + state.bias_sens @ model.bias_cov @ state.bias_sens.T
            assert np.abs(state.total_cov - identity).max() <= 1e-13 * np.abs(identity).max()

    @pytest.mark.parametrize("fixed_gain", [None, [[0.3], [0.05]]])
    def test_cv_model_keeps_s_equal_to_m_plus_d_lambda_d(self, fixed_gain):
        self.check(cv_model(), fixed_gain)        # du/dx = 0, the bias of to_filter_model

    @pytest.mark.parametrize("make_model", [
        state_dependent_model, lambda: linear_bias_model(np.random.default_rng(5), q=1)[0]],
        ids=["state_dependent", "linear"])
    @pytest.mark.parametrize("fixed_gain", [None, [[0.3], [0.05]]])
    def test_state_dependent_models_keep_s_equal_to_m_plus_d_lambda_d(self, make_model,
                                                                      fixed_gain):
        self.check(make_model(), fixed_gain)


class TestSingularInnovation:
    @pytest.mark.parametrize("meas_var, s11", [(0.0, 0.0), (np.nan, 1.0), (np.inf, 1.0),
                                               (1.0, np.nan), (1.0, np.inf)])
    def test_scalar_bracket_zero_or_not_finite(self, meas_var, s11):
        # no bias channel and no motion: the bracket is H S H' + N
        model = unbiased_model(period=0.0, meas_var=meas_var, process_var=0.0)
        cov = np.array([[s11, 0.0], [0.0, 1.0]])
        pred = fc.FilterState(x=np.zeros(2), noise_cov=cov, bias_sens=np.zeros((2, 1)),
                              total_cov=cov)
        with pytest.raises(SingularInnovation, match="scalar bracket"):
            fc.optimal_gain(model, pred)

    def ill_conditioned_model(self, small_var):
        return fc.BiasFilterModel(
            transition=np.eye(2), output=np.eye(2), bias_matrix=np.zeros((2, 1)),
            process_noise=np.zeros((2, 2)), meas_noise=np.diag([1.0, small_var]),
            bias_cov=np.array([[0.0]]), bias_mean=np.array([0.0]),
            bias_fn=lambda x, lam: np.zeros(1),
            bias_jac_state=lambda x, lam: np.zeros((1, 2)),
            bias_jac_bias=lambda x, lam: np.zeros((1, 1)))

    def test_ill_conditioned_bracket(self):
        # bracket diag(1, 1e-13): condition 1e13 > 1e12
        model = self.ill_conditioned_model(1e-13)
        pred = fc.FilterState(x=np.zeros(2), noise_cov=np.zeros((2, 2)),
                              bias_sens=np.zeros((2, 1)), total_cov=np.zeros((2, 2)))
        with pytest.raises(SingularInnovation, match="condition 1e\\+13"):
            fc.optimal_gain(model, pred)
        # condition 1e11 is accepted, and the gain is S H' (H S H' + N)^-1 = 0
        np.testing.assert_array_equal(
            fc.optimal_gain(self.ill_conditioned_model(1e-11), pred), np.zeros((2, 2)))

    def test_condition_just_below_the_limit_is_accepted(self):
        # bracket diag(1, 2e-12): condition 5e11, between 1e11 and 1e12
        pred = fc.FilterState(x=np.zeros(2), noise_cov=np.zeros((2, 2)),
                              bias_sens=np.zeros((2, 1)), total_cov=np.zeros((2, 2)))
        np.testing.assert_array_equal(
            fc.optimal_gain(self.ill_conditioned_model(2e-12), pred), np.zeros((2, 2)))

    def test_non_finite_matrix_bracket(self):
        model = self.ill_conditioned_model(np.inf)
        pred = fc.FilterState(x=np.zeros(2), noise_cov=np.eye(2), bias_sens=np.zeros((2, 1)),
                              total_cov=np.eye(2))
        with pytest.raises(SingularInnovation, match="not finite"):
            fc.optimal_gain(model, pred)


class TestMatchesReferenceStep:
    """The library step agrees with the augmented-state oracle to rounding over 500 steps."""

    def check(self, model, gain, rng):
        n, q, _, _ = model.dims
        zs = rng.normal(0.0, 1.0, (500, q))
        cov0 = np.eye(n) * 10.0
        expected = oracles.augmented_run(model, np.zeros(n), cov0, zs, gain)
        state = fc.FilterState.initial(model, np.zeros(n), noise_cov=cov0)
        for z, want in zip(zs, expected):
            state = fc.step(model, state, z, gain=gain)
            for name, ref in zip(("x", "noise_cov", "bias_sens", "total_cov", "gain"), want):
                got = getattr(state, name)
                np.testing.assert_allclose(got, ref, rtol=1e-12,
                                           atol=1e-12 * np.max(np.abs(ref)), err_msg=name)

    @pytest.mark.parametrize("fixed", [False, True])
    def test_constant_velocity_bias_model(self, fixed):
        gain = np.array([[0.2], [ss.solve_beta(0.2, 2.0)]]) if fixed else None
        self.check(cv_model(bias_var=4.0, bias_mean=0.5), gain, np.random.default_rng(31))

    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("fixed", [False, True])
    def test_linear_bias_model(self, q, fixed):
        rng = np.random.default_rng(37 + q)
        model, _, _ = linear_bias_model(rng, q=q)
        gain = None
        if fixed:
            # the settled trace-optimal gain keeps the closed loop stable
            gain = oracles.augmented_run(model, np.zeros(2), np.eye(2) * 10.0,
                                         np.zeros((200, q)))[-1][4]
        self.check(model, gain, rng)


def oracle_trace(model, state, gain):
    """trace(S) after one augmented-oracle step with ``gain`` from a posterior state's x, M, D."""
    lam, d, n = model.bias_cov, state.bias_sens, len(state.x)
    p_aug = np.block([[state.noise_cov + d @ lam @ d.T, d @ lam], [lam @ d.T, lam]])
    _, p_aug, _ = oracles.augmented_filter_step(model, state.x, p_aug,
                                                np.zeros(model.dims[1]), gain)
    return np.trace(p_aug[:n, :n])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), q=st.integers(1, 3), p=st.integers(1, 2),
       fixed=st.booleans())
def test_linear_bias_models_match_the_augmented_oracle(seed, q, p, fixed):
    """Each field follows the augmented-state oracle over 200 steps, and ``optimal_gain``
    is a stationary point of the oracle's posterior trace."""
    rng = np.random.default_rng(seed)
    model, _, _ = linear_bias_model(rng, q=q, p=p)
    cov0 = np.eye(2) * 10.0
    gain = None
    if fixed:
        # the settled trace-optimal gain keeps the closed loop stable
        gain = oracles.augmented_run(model, np.zeros(2), cov0, np.zeros((100, q)))[-1][4]
    zs = rng.normal(0.0, 1.0, (200, q))
    state = fc.FilterState.initial(model, np.zeros(2), noise_cov=cov0)
    for k, (z, want) in enumerate(zip(zs, oracles.augmented_run(model, np.zeros(2), cov0,
                                                                 zs, gain))):
        if k in (0, 20, 199):
            best = fc.optimal_gain(model, fc.time_update(model, state))
            h = 1e-3 * max(1.0, np.abs(best).max())
            trace = oracle_trace(model, state, best)
            for i, j in np.ndindex(best.shape):
                bump = np.zeros_like(best)
                bump[i, j] = h
                deriv = (oracle_trace(model, state, best + bump)
                         - oracle_trace(model, state, best - bump)) / (2 * h)
                assert abs(deriv) <= 1e-8 * trace, (k, i, j)
        state = fc.step(model, state, z, gain=gain)
        for name, ref in zip(STATE_FIELDS, want):
            got = getattr(state, name)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), (k, name)


STATE_FIELDS = ("x", "noise_cov", "bias_sens", "total_cov", "gain")
ARRAY_FIELDS = ("transition", "output", "bias_matrix", "process_noise", "meas_noise",
                "bias_cov", "bias_mean")


class TestKeptTerms:
    """Terms kept on the model give the same bits as a model that never stepped."""

    def fresh_step(self, model, state, z, gain):
        # step ``model``, and a copy of it holding no kept terms, from one state
        got = fc.step(model, state, z, gain=gain)
        want = fc.step(replace(model), state, z, gain=gain)
        for name in STATE_FIELDS:
            assert np.asarray(getattr(got, name)).tobytes() \
                == np.asarray(getattr(want, name)).tobytes(), name
        return got

    def test_alternating_fixed_gains(self):
        model = cv_model(bias_var=4.0, bias_mean=0.5)
        gains = (np.array([[0.2], [ss.solve_beta(0.2, 2.0)]]),
                 np.array([[0.5], [ss.solve_beta(0.5, 2.0)]]))
        rng = np.random.default_rng(41)
        state = fc.FilterState.initial(model, np.zeros(2), noise_cov=np.eye(2))
        for k in range(100):
            state = self.fresh_step(model, state, rng.normal(0.0, 1.0, 1), gains[k % 2])
            assert state.gain is gains[k % 2]

    def test_arrays_mutated_in_place(self):
        # the caller's gain and Jacobian arrays change between steps
        rng = np.random.default_rng(43)
        model, u_mat, _ = linear_bias_model(rng)
        gain = rng.normal(0.0, 0.2, (2, 2))
        state = fc.FilterState.initial(model, np.zeros(2), noise_cov=np.eye(2))
        for k in range(60):
            if k % 3 == 0:
                gain[k % 2, 1] += 0.01
            if k % 5 == 0:
                u_mat[1, k % 2] *= 0.9
            state = self.fresh_step(model, state, rng.normal(0.0, 1.0, 2), gain)
            state = self.fresh_step(model, state, rng.normal(0.0, 1.0, 2), None)

    @pytest.mark.parametrize("fixed_gain", [None, [[0.3], [0.05]]])
    def test_state_dependent_jacobians(self, fixed_gain):
        model = state_dependent_model()
        rng = np.random.default_rng(47)
        state = fc.FilterState.initial(model, np.array([0.2, -0.1]), noise_cov=np.eye(2))
        for _ in range(500):
            state = self.fresh_step(model, state, rng.normal(0.0, 1.0, 1), fixed_gain)

    def test_measurement_update_with_a_repeated_gain(self):
        # measurement_update keeps the gain terms as step does
        model = cv_model(bias_var=4.0, bias_mean=0.5)
        gain = np.array([[0.2], [ss.solve_beta(0.2, 2.0)]])
        state = fc.FilterState.initial(model, np.zeros(2), noise_cov=np.eye(2))
        for z in np.random.default_rng(53).normal(0.0, 1.0, 20):
            predicted = replace(fc.time_update(model, state), gain=gain)
            state = fc.measurement_update(model, predicted, z)
            want = fc.measurement_update(replace(model), predicted, z)
            for name in STATE_FIELDS:
                assert np.asarray(getattr(state, name)).tobytes() \
                    == np.asarray(getattr(want, name)).tobytes(), name

    def test_model_arrays_read_only_inputs_writable(self):
        inputs = {name: np.array(getattr(cv_model(), name)) for name in ARRAY_FIELDS}
        model = replace(cv_model(), **inputs)
        for name in ARRAY_FIELDS:
            kept = getattr(model, name)
            assert not kept.flags.writeable, name
            assert inputs[name].flags.writeable, name
            assert not np.shares_memory(kept, inputs[name]), name
            with pytest.raises(ValueError):
                kept[...] = 0.0
        inputs["transition"][0, 1] = 7.0      # the caller's array, not the model's
        assert model.transition[0, 1] == 1.0
        copies = (copy.copy(model), copy.deepcopy(model), pickle.loads(pickle.dumps(
            cv_model(bias_var=4.0, bias_mean=0.5))))
        for other in copies:
            assert not any(getattr(other, name).flags.writeable for name in ARRAY_FIELDS)

    def test_copies_of_a_used_model_equal_an_unused_ones(self):
        model = cv_model(bias_var=4.0, bias_mean=0.5)
        before = pickle.dumps(model), repr(model), sorted(vars(model))
        state = fc.FilterState.initial(model, np.zeros(2), noise_cov=np.eye(2))
        for gain in (np.array([[0.2], [0.05]]), None):
            state = fc.step(model, state, [0.3], gain=gain)
        assert len(vars(model)) > len(before[2])          # terms are kept ...
        assert (pickle.dumps(model), repr(model)) == before[:2]
        for other in (copy.copy(model), copy.deepcopy(model),
                      pickle.loads(pickle.dumps(model)), replace(model)):
            # ... and no copy, pickle, repr or replacement sees them
            assert (pickle.dumps(other), repr(other), sorted(vars(other))) == before

    def test_unpickled_steady_state_model_steps_bit_identically(self):
        model = cv_model(bias_var=4.0, bias_mean=0.5)
        clone = pickle.loads(pickle.dumps(model))
        gain = np.array([[0.2], [ss.solve_beta(0.2, 2.0)]])
        rng = np.random.default_rng(53)
        state = other = fc.FilterState.initial(model, np.zeros(2), noise_cov=np.eye(2))
        for k in range(100):
            z, step_gain = rng.normal(0.0, 1.0, 1), gain if k < 50 else None
            state = fc.step(model, state, z, gain=step_gain)
            other = fc.step(clone, other, z, gain=step_gain)
            for name in STATE_FIELDS:
                assert np.asarray(getattr(state, name)).tobytes() \
                    == np.asarray(getattr(other, name)).tobytes(), (k, name)


def kept_arrays(model):
    """The arrays of the terms kept on ``model``, outside its fields."""
    found, todo = [], [value for name, value in vars(model).items() if name.startswith("_")]
    while todo:
        item = todo.pop()
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, tuple):
            todo.extend(item)
    return found


class TestNoAliasing:
    """The filter reads its inputs only and returns arrays of its own."""

    def check(self, model, state, result):
        # no returned array but the gain shares memory with the input state,
        # the model's arrays or its kept terms
        theirs = [np.asarray(getattr(state, name)) for name in STATE_FIELDS
                  if getattr(state, name) is not None]
        theirs += [getattr(model, name) for name in ARRAY_FIELDS] + kept_arrays(model)
        assert len(kept_arrays(model)) > 2
        for name in STATE_FIELDS[:4]:
            for other in theirs:
                assert not np.shares_memory(getattr(result, name), other), name

    @pytest.mark.parametrize("make_model", [cv_model, state_dependent_model])
    @pytest.mark.parametrize("fixed_gain", [None, [[0.3], [0.05]]])
    def test_inputs_unchanged_and_outputs_not_shared(self, make_model, fixed_gain):
        model = make_model()
        rng = np.random.default_rng(59)
        state = fc.FilterState.initial(model, np.array([0.2, -0.1]), noise_cov=np.eye(2))
        for _ in range(4):
            z = rng.normal(0.0, 1.0, 1)
            predicted = fc.time_update(model, state)
            gain = fc.optimal_gain(model, predicted) if fixed_gain is None else fixed_gain
            predicted = replace(predicted, gain=np.asarray(gain, dtype=float))
            calls = ((fc.step, state, (z, fixed_gain)), (fc.time_update, state, ()),
                     (fc.measurement_update, predicted, (z,)))
            for function, given, args in calls:
                before = {name: np.array(getattr(given, name), copy=True) for name in STATE_FIELDS
                          if getattr(given, name) is not None}
                result = function(model, given, *args)
                for name, value in before.items():
                    assert getattr(given, name).tobytes() == value.tobytes(), (function, name)
                self.check(model, given, result)
            state = fc.step(model, state, z, gain=fixed_gain)
