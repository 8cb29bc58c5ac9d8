import math
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from radarbias import steady_state as ss
from radarbias.errors import DegenerateDenominator, NonFiniteCovariance, NoValidRoot

import oracles


def fbar_moduli(alpha, beta):
    # the closed-loop eigenvalue moduli by a numeric eigensolve, sorted
    return sorted(np.abs(np.linalg.eigvals(ss.fbar(ss.SteadyStateGains(alpha, beta), 1.0))))


def is_stable(alpha, beta):
    return ss.validate_gains(ss.SteadyStateGains(alpha, beta),
                             ss.SteadyStateConfig.from_rho(2.0)).stable


class TestEigenvalues:
    """The closed-form eigenvalues, as gain_table's moduli and validate_gains' stability."""

    def test_zero_gains_give_unit_eigenvalues(self):
        assert fbar_moduli(0.0, 0.0) == [1.0, 1.0] and not is_stable(0.0, 0.0)

    def test_table_gain_is_stable(self):
        assert is_stable(0.2, 0.04385) and max(ss.gain_table([2.0], [0.2])[0, 3:5]) < 1.0

    def test_matches_numeric_eigensolve(self):
        rng = np.random.default_rng(3)
        rhos, alphas = rng.uniform(0.01, 100.0, 15), rng.uniform(0.01, 1.99, 20)
        for _, alpha, beta, *moduli in ss.gain_table(rhos, alphas)[:, :5].tolist():
            assert np.abs(np.sort(moduli) - fbar_moduli(alpha, beta)).max() < 1e-12
        for _ in range(300):
            alpha, beta = rng.uniform(-1, 2), rng.uniform(-1, 3)
            largest = fbar_moduli(alpha, beta)[1]
            assert abs(largest - 1.0) < 1e-9 or is_stable(alpha, beta) == (largest < 1.0)


class TestGainPolynomial:
    def test_excluded_root_is_a_root(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            alpha = rng.uniform(-1, 2)
            rho = rng.uniform(0.1, 50)
            beta = ss.excluded_root(alpha)
            assert oracles.gain_polynomial(alpha, beta, rho) == pytest.approx(0.0, abs=1e-8)

    def test_tabulated_pair_is_near_root(self):
        assert abs(oracles.gain_polynomial(0.2, 0.04385, 2.0)) < 5e-4

    def test_factorization_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            a = rng.uniform(-1, 3)
            b = rng.uniform(-1, 4)
            rho = rng.uniform(0.1, 100)
            full = oracles.gain_polynomial(a, b, rho)
            factored = (b + 2 * a - 4) * oracles.cubic_factor(a, b, rho)
            scale = max(1.0, abs(full), abs(factored))
            assert abs(full - factored) / scale < 1e-10


class TestSolveBeta:
    @pytest.mark.parametrize("rho,alpha,beta_table", oracles.GAIN_TABLE)
    def test_reproduces_table(self, rho, alpha, beta_table):
        beta = ss.solve_beta(alpha, rho)
        assert abs(beta - beta_table) < 5e-5
        assert abs(oracles.gain_polynomial(alpha, beta, rho)) < 1e-10
        report = ss.validate_gains(ss.SteadyStateGains(alpha, beta),
                                   ss.SteadyStateConfig.from_rho(rho))
        assert report.ok, report.failures

    def test_monotone_in_noise_ratio(self):
        for alpha in (0.2, 0.4):
            betas = [ss.solve_beta(alpha, rho) for rho in (2, 4, 6, 8, 10)]
            assert all(b2 >= b1 for b1, b2 in zip(betas, betas[1:]))

    def test_invalid_alpha_reports_roots(self):
        with pytest.raises(NoValidRoot) as info:
            ss.solve_beta(0.0, 2.0)
        assert info.value.roots  # the rejected candidates are listed
        with pytest.raises(NoValidRoot):
            ss.solve_beta(2.0, 5.0)
        with pytest.raises(NoValidRoot):
            ss.solve_beta(-0.3, 5.0)

    def test_nonpositive_rho_rejected(self):
        with pytest.raises(NoValidRoot):
            ss.solve_beta(0.2, 0.0)
        with pytest.raises(NoValidRoot):
            ss.solve_beta(0.2, -1.0)

    @staticmethod
    def within_ulps(alpha, rho, beta, ulps):
        """The exact root of the gain cubic lies within ``ulps`` doubles of beta."""
        a, r = Fraction(alpha), Fraction(rho)
        c1, c0 = a * a - 2 * a + 2, a * a * (a - 2)
        low = high = beta
        for _ in range(ulps):
            low, high = math.nextafter(low, -math.inf), math.nextafter(high, math.inf)
        # the cubic is increasing, so it changes sign once, at the root
        return all(sign * (2 * b ** 3 + r * (c1 * b + c0)) > 0
                   for sign, b in ((-1, Fraction(low)), (1, Fraction(high))))

    def test_root_within_three_ulps(self):
        # the closed form alone misses three ulps at some of these points; its
        # one Newton step brings every point within them
        rng = np.random.default_rng(11)
        for alpha, log_rho in zip(rng.uniform(1e-3, 1.999, 300), rng.uniform(-30, 300, 300)):
            rho = 10.0 ** log_rho
            assert self.within_ulps(alpha, rho, ss.solve_beta(alpha, rho), 3), (alpha, rho)

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 1.5])
    def test_root_within_an_ulp_near_the_largest_double(self, alpha):
        # rho c1 overflows here, so the Newton step runs on the cubic divided
        # by rho; undivided, its derivative is inf and the step does nothing
        assert self.within_ulps(alpha, 1.7e308, ss.solve_beta(alpha, 1.7e308), 1)


class TestCovarianceBlocks:
    @pytest.mark.parametrize("rho,alpha,beta_table", oracles.GAIN_TABLE)
    def test_lyapunov_residuals(self, rho, alpha, beta_table):
        period, meas_var = 1.0, 1.0
        beta = ss.solve_beta(alpha, rho)
        g = ss.SteadyStateGains(alpha, beta)
        process_var = rho * meas_var / period**2
        f = ss.fbar(g, period)
        k = ss.kbar(g, period)
        el = oracles.lbar(g, period)
        q = np.array([[0.0, 0.0], [0.0, process_var]])

        mn = ss.steady_mn(g, period, meas_var)
        res_n = f @ mn @ f.T + np.outer(k, k) * meas_var - mn
        assert np.linalg.norm(res_n) / np.linalg.norm(mn) < 1e-10

        mq = ss.steady_mq(g, period, process_var)
        res_q = f @ mq @ f.T + el @ q @ el.T - mq
        assert np.linalg.norm(res_q) / np.linalg.norm(mq) < 1e-10

    def test_fixed_point_iteration_oracle(self):
        period, meas_var = 1.0, 1.0
        g = ss.SteadyStateGains(0.2, 0.04385)
        process_var = 2.0
        f = ss.fbar(g, period)
        mn_iter = oracles.iterate_lyapunov(
            f, np.outer(ss.kbar(g, period), ss.kbar(g, period)) * meas_var)
        np.testing.assert_allclose(ss.steady_mn(g, period, meas_var), mn_iter,
                                   rtol=1e-8)
        el = oracles.lbar(g, period)
        q = np.array([[0.0, 0.0], [0.0, process_var]])
        mq_iter = oracles.iterate_lyapunov(f, el @ q @ el.T)
        np.testing.assert_allclose(ss.steady_mq(g, period, process_var), mq_iter,
                                   rtol=1e-8)

    def test_zero_beta_limit_of_mn(self):
        alpha, meas_var = 0.35, 2.5
        g = ss.SteadyStateGains(alpha, 0.0)
        expected = meas_var / (alpha * (4 - 2 * alpha)) * np.array(
            [[2 * alpha**2, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(ss.steady_mn(g, 1.0, meas_var), expected)

    def test_zero_process_noise_gives_zero_mq(self):
        g = ss.SteadyStateGains(0.2, 0.04385)
        np.testing.assert_allclose(ss.steady_mq(g, 1.0, 0.0), np.zeros((2, 2)))

    def test_overflowing_blocks_raise(self):
        with pytest.raises(NonFiniteCovariance):
            ss.steady_mq(ss.SteadyStateGains(1e110, 0.5), 1.0, 2.0)
        with pytest.raises(NonFiniteCovariance):
            ss.steady_mn(ss.SteadyStateGains(0.2, 0.04385), 0.0, 1.0)

    def test_degenerate_denominators(self):
        with pytest.raises(DegenerateDenominator):
            ss.steady_mn(ss.SteadyStateGains(0.3, 4 - 0.6), 1.0, 1.0)
        with pytest.raises(DegenerateDenominator):
            ss.steady_mq(ss.SteadyStateGains(0.3, 0.0), 1.0, 1.0)


class TestPredictedCovariances:
    def test_zero_bias_variance(self):
        g = ss.SteadyStateGains(0.2, ss.solve_beta(0.2, 2.0))
        cfg = ss.SteadyStateConfig.from_rho(2.0, bias_var=0.0)
        cov = ss.predicted_covariances(g, cfg)
        np.testing.assert_allclose(cov.s_dot, cov.m_dot)

    def test_bias_sensitivity_identity(self):
        # steady posterior sensitivity solves (F - I) d = -C
        for alpha, beta in [(0.2, 0.04385), (0.4, 0.1866), (0.5, 0.2959)]:
            g = ss.SteadyStateGains(alpha, beta)
            f = ss.fbar(g, 1.0)
            c = oracles.cbar(g, 1.0)
            d = -np.linalg.solve(f - np.eye(2), c)
            np.testing.assert_allclose(d, oracles.dbar(), atol=1e-12)
            np.testing.assert_allclose(f @ d, oracles.ddot(g, 1.0), atol=1e-12)

    def test_prediction_matches_propagated_update(self):
        for rho, alpha in [(2.0, 0.2), (6.0, 0.4), (10.0, 0.5)]:
            period = 1.5
            cfg = ss.SteadyStateConfig.from_rho(rho, period=period, meas_var=2.0,
                                                bias_var=3.0)
            g = ss.SteadyStateGains(alpha, ss.solve_beta(alpha, rho))
            cov = ss.predicted_covariances(g, cfg)
            phi = np.array([[1.0, period], [0.0, 1.0]])
            expected = phi @ cov.m_bar @ phi.T + cfg.to_filter_model().process_noise
            np.testing.assert_allclose(cov.m_dot, expected, rtol=1e-12)
            assert cov.s_dot[0, 0] == pytest.approx(cov.m_dot[0, 0] + cfg.bias_var)
            assert cov.s_dot[1, 0] == pytest.approx(cov.m_dot[1, 0])

    def test_gain_self_consistency(self):
        # on the solved (alpha, beta) curve the two steady gain equations
        # hold in their cross-multiplied form alpha T M12 = beta M11
        for rho, alpha in [(2.0, 0.2), (4.0, 0.2), (6.0, 0.4), (10.0, 0.5)]:
            period = 1.0
            cfg = ss.SteadyStateConfig.from_rho(rho, period=period, bias_var=4.0)
            g = ss.SteadyStateGains(alpha, ss.solve_beta(alpha, rho))
            cov = ss.predicted_covariances(g, cfg)
            m11 = cov.s_dot[0, 0] - cfg.bias_var
            m12 = cov.s_dot[0, 1]
            resid = alpha * period * m12 - g.beta * m11
            assert abs(resid) / abs(g.beta * m11) < 1e-9


class TestValidateGains:
    def cfg(self):
        return ss.SteadyStateConfig.from_rho(2.0)

    def test_excluded_root_fails_condition_three(self):
        report = ss.validate_gains(ss.SteadyStateGains(0.2, 3.6), self.cfg())
        assert not report.beta_not_excluded
        assert not report.ok
        assert "beta_not_excluded" in report.failures

    def test_valid_pair_passes_everything(self):
        report = ss.validate_gains(ss.SteadyStateGains(0.2, 0.04385), self.cfg())
        assert report.ok

    def test_zero_beta_fails_condition_two(self):
        report = ss.validate_gains(ss.SteadyStateGains(0.2, 0.0), self.cfg())
        assert not report.beta_nonzero
        assert "beta_nonzero" in report.failures

    def test_zero_alpha_fails_condition_one(self):
        report = ss.validate_gains(ss.SteadyStateGains(0.0, 0.1), self.cfg())
        assert not report.alpha_nonzero


class TestConfig:
    def test_from_rho_round_trip(self):
        cfg = ss.SteadyStateConfig.from_rho(2.0, period=0.5, meas_var=4.0)
        assert cfg.process_var == pytest.approx(2.0 * 4.0 / 0.25)

    def test_noiseless_config_allowed(self):
        ss.SteadyStateConfig(period=1.0, meas_var=0.0, process_var=0.0)

    def test_fields_are_the_noise_levels(self):
        assert [f.name for f in fields(ss.SteadyStateConfig)] == [
            "period", "meas_var", "process_var", "bias_var"]

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            ss.SteadyStateConfig(period=0.0, meas_var=1.0, process_var=1.0)

    @pytest.mark.parametrize("period", [1e200, 1e-170])
    def test_period_square_out_of_range(self, period):
        # the square overflows or underflows a double, which the closed forms divide by
        with pytest.raises(ValueError) as info:
            ss.SteadyStateConfig(period=period, meas_var=1.0, process_var=1.0)
        assert str(info.value).startswith(f"period {period} must be positive")

    @pytest.mark.parametrize("rho, period, meas_var", [(1e308, 1.0, 10.0), (2.0, 1e-160, 1.0)])
    def test_from_rho_names_an_overflowing_process_var(self, rho, period, meas_var):
        # rho meas_var / period^2 overflows although all three are finite
        with pytest.raises(ValueError) as info:
            ss.SteadyStateConfig.from_rho(rho, period=period, meas_var=meas_var)
        assert str(info.value) == (f"rho {rho} gives process_var = rho meas_var / period^2 "
                                   "= inf: it overflows a double")

    @pytest.mark.parametrize("field", ["meas_var", "process_var", "bias_var"])
    def test_negative_variance_rejected(self, field):
        kwargs = dict(period=1.0, meas_var=1.0, process_var=2.0, bias_var=4.0)
        kwargs[field] = -1e-300
        with pytest.raises(ValueError, match="^variances must be nonnegative$"):
            ss.SteadyStateConfig(**kwargs)

    def test_from_rho_rejects_a_vanishing_period_square(self):
        # 1e-200 squared underflows to zero, which process_var would divide by
        with pytest.raises(ValueError, match=r"^period\^2 = 0\.0 must be positive$"):
            ss.SteadyStateConfig.from_rho(2.0, period=1e-200)

    @pytest.mark.parametrize("field", ["period", "meas_var", "process_var", "bias_var"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_rejected(self, field, bad):
        kwargs = dict(period=1.0, meas_var=1.0, process_var=2.0, bias_var=4.0)
        kwargs[field] = bad
        with pytest.raises(ValueError, match="finite"):
            ss.SteadyStateConfig(**kwargs)


class TestGainSweep:
    def test_header_columns(self):
        assert ss.GAIN_SWEEP_HEADER == (
            "rho", "alpha", "beta", "eig1_mod", "eig2_mod", "S11dot", "S21dot",
            "excluded_root")
        assert ss.gain_table([2.0], [0.2]).shape == (1, len(ss.GAIN_SWEEP_HEADER))

    def test_grid_rows(self):
        table = ss.gain_table([2.0, 10.0], [0.2, 0.5])
        assert len(table) == 4
        by_key = {(row[0], row[1]): row for row in table.tolist()}
        assert abs(by_key[(2.0, 0.2)][2] - 0.04385) < 5e-5
        assert abs(by_key[(10.0, 0.5)][2] - 0.2959) < 5e-5
        for _, alpha, _, eig1_mod, eig2_mod, _, _, excluded in table.tolist():
            assert excluded == pytest.approx(4 - 2 * alpha)
            assert max(eig1_mod, eig2_mod) < 1.0


class TestGainTable:
    """The grid evaluated as arrays, with the row-by-row loop's errors."""

    def test_columns_match_scalar_entry_points(self):
        # each column, in header order, is what the single-point function gives
        table = ss.gain_table([2.0, 10.0], [0.2, 0.5], period=1.5, meas_var=2.0,
                              bias_var=3.0)
        assert table.shape == (4, 8)
        for rho, alpha, *rest in table.tolist():
            gains = ss.SteadyStateGains(alpha, ss.solve_beta(alpha, rho))
            s_dot = ss.predicted_covariances(gains, ss.SteadyStateConfig.from_rho(
                rho, period=1.5, meas_var=2.0, bias_var=3.0)).s_dot
            beta, *moduli = rest[:3]
            assert [beta, *rest[3:]] == [gains.beta, s_dot[0, 0], s_dot[1, 0],
                                         ss.excluded_root(alpha)]
            assert np.abs(np.sort(moduli) - fbar_moduli(alpha, beta)).max() < 1e-12
        # row-major: rho outer, alpha inner
        np.testing.assert_array_equal(table[:, :2], [[2, 0.2], [2, 0.5], [10, 0.2], [10, 0.5]])

    def test_matches_generic_reference(self):
        rhos, alphas = [0.05, 2.0, 30.0, 900.0], [0.05, 0.3, 0.9, 1.0, 1.6]
        table = ss.gain_table(rhos, alphas, period=0.7, meas_var=1.3, bias_var=2.0)
        ref = oracles.gain_grid_reference(rhos, alphas, period=0.7, meas_var=1.3,
                                          bias_var=2.0)
        got = np.column_stack([table[:, 2], np.sort(table[:, 3:5], axis=1), table[:, 5:7]])
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-12)

    def test_empty_grid(self):
        assert ss.gain_table([], [0.2]).shape == (0, 8)
        assert ss.gain_table([2.0], []).shape == (0, 8)

    def test_nonpositive_rho_reported_first(self):
        with pytest.raises(NoValidRoot, match=r"^noise ratio must be positive, got 0\.0$"):
            ss.gain_table([2.0, 0.0], [0.5])

    def test_invalid_alpha_reports_its_roots(self):
        with pytest.raises(NoValidRoot) as info:
            ss.gain_table([2.0], [0.5, 2.5, 3.0])
        assert str(info.value) == ("no valid velocity gain for alpha=2.5, rho=2.0 "
                                   "(roots found: -0.802512, -1)")
        assert info.value.roots[1] == -1.0

    def test_first_failure_in_row_major_order(self):
        # (2.0, 2.5) precedes (0.0, 0.5) in row-major order
        with pytest.raises(NoValidRoot, match="alpha=2.5, rho=2.0"):
            ss.gain_table([2.0, 0.0], [0.5, 2.5])

    def test_config_error_after_root_checks(self):
        with pytest.raises(ValueError, match=r"^period 1e\+200 must be positive with a finite "
                                             r"nonzero square$"):
            ss.gain_table([2.0], [0.2], period=1e200, meas_var=1e-200)
        # a point whose root fails is reported before the row's config error
        with pytest.raises(NoValidRoot):
            ss.gain_table([2.0], [2.5, 0.2], period=1e200, meas_var=1e-200)

    def test_degenerate_denominator_matches_scalar(self):
        beta = ss.solve_beta(2e-6, 1e3)
        with pytest.raises(DegenerateDenominator) as scalar:
            ss.steady_mq(ss.SteadyStateGains(2e-6, beta), 1.0, 1e3)
        with pytest.raises(DegenerateDenominator) as table:
            ss.gain_table([1e3], [0.3, 2e-6])
        assert str(table.value) == str(scalar.value)

    def test_overflowing_covariance_raises(self):
        rho = 1.7976931348623157e308
        with pytest.raises(NonFiniteCovariance,
                           match="^steady covariance overflows for alpha=0.5, beta=0.3"):
            ss.gain_table([2.0, rho], [0.5, 1.0])
        cfg = ss.SteadyStateConfig.from_rho(rho)
        with pytest.raises(NonFiniteCovariance):
            ss.predicted_covariances(ss.SteadyStateGains(1.0, ss.solve_beta(1.0, rho)), cfg)


class TestValidateGainsNeverRaises:
    def test_overflowing_gain(self):
        report = ss.validate_gains(ss.SteadyStateGains(1e110, 0.5),
                                   ss.SteadyStateConfig.from_rho(2.0))
        assert not report.stable
        assert not report.mq_positive_definite

    def test_degenerate_denominator_is_not_definite(self):
        # passes checks 1-3 while alpha beta (beta + 2 alpha - 4) vanishes
        report = ss.validate_gains(ss.SteadyStateGains(1e-7, 1e-7),
                                   ss.SteadyStateConfig.from_rho(2.0))
        assert report.alpha_nonzero and report.beta_nonzero and report.beta_not_excluded
        assert not report.mq_positive_definite


class TestDefiniteness:
    """validate_gains' definiteness rules, one input on each side."""

    GAINS = ss.SteadyStateGains(0.5, 0.2)

    def test_zero_variance_block_is_zero_and_passes(self):
        report = ss.validate_gains(self.GAINS, ss.SteadyStateConfig(1.0, 1.0, 0.0))
        assert report.ok and report.mq_positive_definite

    def test_positive_variance_block_that_underflows_to_zero_fails(self):
        report = ss.validate_gains(self.GAINS, ss.SteadyStateConfig(1.0, 5e-324, 1.0))
        assert not report.mn_positive_definite and report.mq_positive_definite

    def test_zero_variance_block_that_overflows_fails(self):
        # 0 * inf: the block is nan, not zero
        report = ss.validate_gains(ss.SteadyStateGains(1e200, 0.2),
                                   ss.SteadyStateConfig(1.0, 0.0, 1.0))
        assert not report.mn_positive_definite

    def test_blocks_not_judged_when_a_denominator_condition_fails(self):
        # with beta 0 the measurement block is a finite zero-variance block, which
        # would pass; it is reported as not definite with the failed condition
        report = ss.validate_gains(ss.SteadyStateGains(0.5, 0.0),
                                   ss.SteadyStateConfig(1.0, 0.0, 1.0))
        assert report.failures == ("beta_nonzero", "stable", "mn_positive_definite",
                                   "mq_positive_definite")


def test_from_rho_names_a_negative_rho():
    with pytest.raises(ValueError, match="^rho must be nonnegative$"):
        ss.SteadyStateConfig.from_rho(-1.0)


def test_gain_table_checks_the_noise_levels_of_every_point():
    # every root is valid; the negative bias variance fails each point's config
    with pytest.raises(ValueError, match="^variances must be nonnegative$"):
        ss.gain_table([2.0], [0.2, 0.5], bias_var=-1.0)
