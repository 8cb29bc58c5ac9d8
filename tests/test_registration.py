import math
import sys

import numpy as np
import pytest

from radarbias import registration as reg
from radarbias.coords import SphericalTriple
from radarbias.errors import SingularGeometry, SingularSystem
from radarbias.sim_harness import synth_registration_scenario

import oracles


def make_problem(example):
    ex = oracles.REGISTRATION_EXAMPLES[example]
    return reg.RegistrationProblem(
        relative_bias=np.array(ex["relative_bias"]),
        geom1=reg.SensorGeometry(*ex["geom1"]),
        geom2=reg.SensorGeometry(*ex["geom2"]),
        weights=reg.BiasCostWeights(**oracles.EXAMPLE_WEIGHTS),
    )


def increments(solution):
    return np.concatenate([solution.bias1.as_array(), solution.bias2.as_array()])


def assert_increments(actual, expected, rel=1e-3):
    for got, want in zip(actual, expected):
        assert got == pytest.approx(want, rel=rel, abs=1e-12)


class TestBuildA:
    def test_unit_geometry_is_identity(self):
        a = reg.build_A(reg.SensorGeometry(1.0, 0.0, 0.0))
        np.testing.assert_allclose(a, np.eye(3), atol=1e-15)

    def test_first_column_is_range_direction(self):
        a = reg.build_A(reg.SensorGeometry(25000.0, 0.0, np.pi / 4))
        np.testing.assert_allclose(
            a[:, 0], [np.cos(np.pi / 4), 0.0, np.sin(np.pi / 4)])

    def test_matches_componentwise_bias_map(self):
        # oracle: the ENU bias vector written out term by term
        rng = np.random.default_rng(5)
        for _ in range(300):
            p = rng.uniform(1e2, 1e5)
            psi = rng.uniform(-np.pi, np.pi)
            th = rng.uniform(-1.4, 1.4)
            dr, dpsi, dth = rng.normal(0, [100.0, 1e-2, 1e-2])
            expected = np.array([
                dr * np.cos(th) * np.cos(psi)
                - dpsi * np.sin(psi) * p - dth * np.sin(th) * np.cos(psi) * p,
                dr * np.cos(th) * np.sin(psi)
                + dpsi * np.cos(psi) * p - dth * np.sin(th) * np.sin(psi) * p,
                dr * np.sin(th) + dth * np.cos(th) * p,
            ])
            got = reg.build_A(reg.SensorGeometry(p, psi, th)) @ [dr, dpsi, dth]
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_degenerate_geometry_rejected(self):
        with pytest.raises(SingularGeometry, match="sensor 2"):
            reg.build_A(reg.SensorGeometry(0.0, 0.0, 0.0), "sensor 2")
        # pointing at the pole is not degenerate: A is a rotation times diag(1, p, p)
        a = reg.build_A(reg.SensorGeometry(1e4, 0.0, np.pi / 2))
        np.testing.assert_allclose(np.linalg.svd(a, compute_uv=False), [1e4, 1e4, 1.0],
                                   rtol=1e-12)

    @pytest.mark.parametrize("field", ["p_t", "azimuth", "elevation"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_geometry_rejected(self, field, bad):
        values = dict(p_t=25000.0, azimuth=0.0, elevation=0.5)
        values[field] = bad
        with pytest.raises(ValueError, match="finite"):
            reg.SensorGeometry(**values)


class TestRelativeBias:
    def test_zero(self):
        np.testing.assert_allclose(
            reg.relative_bias_from_positions(np.zeros(3), np.zeros(3), np.zeros(3)),
            np.zeros(3))

    def test_arithmetic(self):
        out = reg.relative_bias_from_positions(
            [100.0, 0.0, 0.0], [50.0, 0.0, 0.0], [40.0, 0.0, 0.0])
        np.testing.assert_allclose(out, [10.0, 0.0, 0.0])

    def test_ground_truth_construction(self):
        # manufacture consistent positions from chosen biases and recover
        # the bias difference
        rng = np.random.default_rng(13)
        for _ in range(50):
            b1 = rng.normal(0, 100, 3)
            b2 = rng.normal(0, 100, 3)
            target = rng.normal(0, 1e5, 3)
            baseline = rng.normal(0, 1e4, 3)
            p1 = target - b1
            p2 = target - baseline - b2
            out = reg.relative_bias_from_positions(p1, p2, baseline)
            np.testing.assert_allclose(out, b2 - b1, rtol=1e-9, atol=1e-9)


class TestCosts:
    def test_zero_increments(self):
        # a zero relative bias is met by zero increments, at zero cost
        problem = make_problem("a")
        sol = reg.solve_absolute_bias(reg.RegistrationProblem(
            np.zeros(3), problem.geom1, problem.geom2, problem.weights))
        assert increments(sol).tolist() == [0.0] * 6
        assert (sol.objective, sol.cost) == (0.0, 0.0)

    def test_matches_quadratic_form(self):
        # the reported figures are the quadratic forms at the returned increments
        w = reg.BiasCostWeights(**oracles.EXAMPLE_WEIGHTS)
        d = np.concatenate([w.sensor1(), w.sensor2()])
        for name in "abcd":
            sol = reg.solve_absolute_bias(make_problem(name))
            e = increments(sol)
            assert sol.objective == pytest.approx(e @ np.diag(d / 2.0) @ e, rel=1e-12)
            assert sol.cost == pytest.approx(e @ np.diag(1.0 / d) @ e, rel=1e-12)

    def test_weights_must_be_positive(self):
        # an infinite weight once passed, and every solve then failed as a
        # domain error: inf * 0 made the objective nan
        for value in (0.0, -1.0, np.inf, np.nan):
            bad = dict(oracles.EXAMPLE_WEIGHTS, k_r1_sq=value)
            with pytest.raises(ValueError, match="k_r1_sq must be finite and positive"):
                reg.BiasCostWeights(**bad)


class TestConstraint:
    def test_zero_feasible(self):
        problem = make_problem("a")
        problem = reg.RegistrationProblem(
            relative_bias=np.zeros(3), geom1=problem.geom1,
            geom2=problem.geom2, weights=problem.weights)
        zero = SphericalTriple(0.0, 0.0, 0.0)
        np.testing.assert_allclose(
            oracles.constraint_residual(zero, zero, problem), np.zeros(3))

    def test_matches_matrix_arithmetic(self):
        rng = np.random.default_rng(19)
        problem = make_problem("a")
        a1 = reg.build_A(problem.geom1)
        a2 = reg.build_A(problem.geom2)
        for _ in range(20):
            e1 = rng.normal(0, [100, 1e-2, 1e-2])
            e2 = rng.normal(0, [100, 1e-2, 1e-2])
            expected = a2 @ e2 - a1 @ e1 - problem.relative_bias
            got = oracles.constraint_residual(SphericalTriple.from_array(e1),
                                              SphericalTriple.from_array(e2), problem)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_relative_bias_rejected(self, bad):
        problem = make_problem("a")
        for component in range(3):
            bias = [1.0, 2.0, 3.0]
            bias[component] = bad
            with pytest.raises(ValueError, match="relative_bias must be finite"):
                reg.RegistrationProblem(np.array(bias), problem.geom1,
                                        problem.geom2, problem.weights)


class TestProblem:
    @pytest.mark.parametrize("bias", [np.zeros(2), np.zeros((3, 1)), np.zeros(4)])
    def test_relative_bias_must_be_a_3_vector(self, bias):
        base = make_problem("a")
        with pytest.raises(ValueError, match="^relative_bias must be a 3-vector, got shape "):
            reg.RegistrationProblem(relative_bias=bias, geom1=base.geom1, geom2=base.geom2,
                                    weights=base.weights)


class TestSolve:
    @pytest.mark.parametrize("name", ["a", "b", "c", "d"])
    def test_reference_examples(self, name):
        ex = oracles.REGISTRATION_EXAMPLES[name]
        sol = reg.solve_absolute_bias(make_problem(name))
        assert_increments(increments(sol), ex["expected"])
        assert sol.cost == pytest.approx(ex["cost"], rel=1e-3)
        assert sol.constraint_residual < 1e-6
        assert sol.kkt_residual < 1e-9

    def test_zero_relative_bias(self):
        base = make_problem("a")
        problem = reg.RegistrationProblem(
            relative_bias=np.zeros(3), geom1=base.geom1,
            geom2=base.geom2, weights=base.weights)
        sol = reg.solve_absolute_bias(problem)
        np.testing.assert_allclose(increments(sol), np.zeros(6), atol=1e-12)
        assert sol.cost == 0.0
        assert sol.objective == 0.0

    def test_sign_swap_symmetry(self):
        # flipping sensor 2 azimuth by pi with the matching elevation
        # reflection flips only that sensor's angle increments
        sol_a = reg.solve_absolute_bias(make_problem("a"))
        sol_c = reg.solve_absolute_bias(make_problem("c"))
        assert sol_c.cost == pytest.approx(sol_a.cost, rel=1e-3)
        np.testing.assert_allclose(sol_c.bias1.as_array(), sol_a.bias1.as_array(),
                                   rtol=1e-3)
        assert sol_c.bias2.range_m == pytest.approx(sol_a.bias2.range_m, rel=1e-3)
        assert sol_c.bias2.azimuth == pytest.approx(-sol_a.bias2.azimuth, rel=1e-3)
        assert sol_c.bias2.elevation == pytest.approx(-sol_a.bias2.elevation, rel=1e-3)

    def test_scaling_property(self):
        base = make_problem("a")
        sol = reg.solve_absolute_bias(base)
        for s in (0.5, 3.0, -2.0):
            scaled = reg.RegistrationProblem(
                relative_bias=s * base.relative_bias, geom1=base.geom1,
                geom2=base.geom2, weights=base.weights)
            sol_s = reg.solve_absolute_bias(scaled)
            np.testing.assert_allclose(increments(sol_s), s * increments(sol),
                                       rtol=1e-9)
            assert sol_s.objective == pytest.approx(s * s * sol.objective, rel=1e-9)
            assert sol_s.cost == pytest.approx(s * s * sol.cost, rel=1e-9)

    def test_kkt_and_feasibility_random(self):
        for seed in range(30):
            problem, _ = synth_registration_scenario(seed)
            sol = reg.solve_absolute_bias(problem)
            scale = max(1.0, float(np.linalg.norm(problem.relative_bias)))
            assert sol.constraint_residual < 1e-6 * scale
            assert sol.kkt_residual < 1e-9

    def test_kkt_residual_off_stationarity(self):
        # a solution is stationary to rounding, so its KKT residual is rounding
        # noise; off stationarity the figure is |d e - C' a| / |d e| to 1e-9
        rng = np.random.default_rng(11)
        for _ in range(200):
            c = rng.normal(size=(3, 6)) * 10.0 ** rng.uniform(-40, 40)
            d = 10.0 ** rng.uniform(-40, 40, 6)
            e = rng.normal(size=6) * 10.0 ** rng.uniform(-40, 40)
            a = rng.normal(size=3) * 10.0 ** rng.uniform(-40, 40)
            grad = d * e
            want = np.linalg.norm(grad - c.T @ a) / np.linalg.norm(grad)
            assert reg._kkt_residual(c, d, e, a) == pytest.approx(want, rel=1e-9)
        want = np.linalg.norm(c.T @ a)
        assert reg._kkt_residual(c, d, np.zeros(6), a) == pytest.approx(want, rel=1e-9)

    def test_independent_minimizer_agreement(self):
        problems = [synth_registration_scenario(seed)[0] for seed in range(10)]
        problems.append(reg.RegistrationProblem.from_dict(oracles.WIDE_WEIGHT_SPREAD_CONFIG))
        for problem in problems:
            sol = reg.solve_absolute_bias(problem)
            weights6 = np.concatenate([problem.weights.sensor1(),
                                       problem.weights.sensor2()])
            geom1 = (problem.geom1.p_t, problem.geom1.azimuth, problem.geom1.elevation)
            geom2 = (problem.geom2.p_t, problem.geom2.azimuth, problem.geom2.elevation)
            rows = oracles.constraint_rows(geom1, geom2)
            e_oracle = oracles.minimize_weighted_quadratic(
                weights6, rows, problem.relative_bias)
            cost_oracle = oracles.quadratic_cost(weights6, e_oracle)
            assert sol.objective == pytest.approx(cost_oracle, rel=1e-6)
            np.testing.assert_allclose(increments(sol), e_oracle,
                                       rtol=1e-5, atol=1e-10)

    def test_ill_conditioned_matches_exact_solution(self):
        cases = (
            # condition 2.4e13: a step through G = U S^-2 U' formed whole is
            # about 6e-10 off here, the step through the factors about 1e-15
            (oracles.ILL_CONDITIONED_CONFIG, oracles.ILL_CONDITIONED_INCREMENTS,
             oracles.ILL_CONDITIONED_COST),
            # condition 3.4e13: two refinement passes stop about 4e-12 off
            (oracles.THREE_PASS_CONFIG, oracles.THREE_PASS_INCREMENTS,
             oracles.THREE_PASS_COST),
        )
        for config, want, cost in cases:
            sol = reg.solve_absolute_bias(reg.RegistrationProblem.from_dict(config))
            want = np.array(want)
            np.testing.assert_allclose(increments(sol), want, rtol=0.0,
                                       atol=1e-13 * np.max(np.abs(want)))
            assert sol.cost == pytest.approx(cost, rel=1e-13)

    def test_global_optimality_sampled(self):
        # feasible perturbations keep the constraint via the sensor 2
        # elimination; the quadratic must not improve
        rng = np.random.default_rng(43)
        for seed in (0, 1, 2):
            problem, _ = synth_registration_scenario(seed)
            sol = reg.solve_absolute_bias(problem)
            a1 = reg.build_A(problem.geom1)
            a2 = reg.build_A(problem.geom2)
            e1_star = sol.bias1.as_array()
            w = problem.weights
            for _ in range(1000):
                delta = rng.normal(0, [10.0, 1e-4, 1e-4])
                e1 = e1_star + delta
                e2 = np.linalg.solve(a2, a1 @ e1 + problem.relative_bias)
                perturbed = oracles.registration_objective(e1, e2, w)
                assert perturbed >= sol.objective - 1e-9

    def test_singular_geometry_reported_by_sensor(self):
        base = make_problem("a")
        bad = reg.RegistrationProblem(
            relative_bias=base.relative_bias, geom1=base.geom1,
            geom2=reg.SensorGeometry(0.0, 0.0, 0.0), weights=base.weights)
        with pytest.raises(SingularGeometry, match="sensor 2"):
            reg.solve_absolute_bias(bad)

    @pytest.mark.parametrize("bias,p_t,weights,message", [
        # B is finite and well conditioned, but e = diag(d)^-1/2 V S^-1 U' b overflows
        ((1e300, 1e300, 1e300), (1e-3, 1e-3), (1e300,) * 6, "solution overflows"),
        # B = C diag(d)^-1/2 overflows: p_t 1e300 over sqrt(k_psi1_sq) 1e-150
        ((100.0, 200.0, 300.0), (1e300, 5e4), (2.0, 1e-300, 1e9, 2.0, 5e9, 5e9),
         "weighted constraint matrix overflows"),
    ])
    def test_overflow_raises_singular_system(self, bias, p_t, weights, message):
        problem = reg.RegistrationProblem(
            np.array(bias), reg.SensorGeometry(p_t[0], 0.3, 0.2),
            reg.SensorGeometry(p_t[1], 1.1, -0.5), reg.BiasCostWeights(*weights))
        with pytest.raises(SingularSystem, match=f"^{message}$"):
            reg.solve_absolute_bias(problem)

    def test_overflowing_stationarity_check_raises_singular_system(self):
        # the relative bias along both sensors' common line of sight, weights
        # near the largest double: e and the costs are finite, but C' a
        # overflows in the stationarity residual, so the KKT check is not finite
        psi = theta = math.pi / 4
        line_of_sight = [math.cos(theta) * math.cos(psi), math.cos(theta) * math.sin(psi),
                         math.sin(theta)]
        geom = reg.SensorGeometry(5.0, psi, theta)
        problem = reg.RegistrationProblem(np.array(line_of_sight), geom, geom,
                                          reg.BiasCostWeights(*[1.5e308] * 6))
        with pytest.raises(SingularSystem, match="^solution overflows$"):
            reg.solve_absolute_bias(problem)


def _pair_problem(relative_bias, p_t=1.0, elevation1=0.0, weights=None):
    """Both sensors at azimuth 0 and distance p_t; sensor 2 at elevation 0.

    The default weights, 1 for range and p_t^2 for the angles, make B B' a
    multiple of the identity, so the solve is as well conditioned as it gets.
    """
    angle = p_t * p_t
    return reg.RegistrationProblem(
        np.array(relative_bias, dtype=float), reg.SensorGeometry(p_t, 0.0, elevation1),
        reg.SensorGeometry(p_t, 0.0, 0.0),
        reg.BiasCostWeights(*(weights or (1.0, angle, angle) * 2)))


class TestDocumentedLimits:
    """Inputs on either side of each limit the README and the module document."""

    def test_condition_limit_is_1e14(self):
        # at azimuth and elevation 0, B B' = diag(2, 2, 2 / k_theta): condition k_theta
        def weights(k_theta):
            return (1.0, 1.0, k_theta, 1.0, 1.0, k_theta)
        sol = reg.solve_absolute_bias(_pair_problem([1.0, 1.0, 1.0], weights=weights(3e13)))
        assert sol.constraint_residual <= 1e-9 * np.sqrt(3.0)
        with pytest.raises(SingularSystem, match=r"condition 3e\+14"):
            reg.solve_absolute_bias(_pair_problem([1.0, 1.0, 1.0], weights=weights(3e14)))

    # a target 1e20 m out makes the angle increments subnormal, so they carry
    # few digits and the constraint residual is their rounding
    SUBNORMAL_WEIGHTS = (1.0, 2e40, 2e40) * 2

    def test_constraint_residual_limit_is_1e9_of_the_bias(self):
        problem = _pair_problem([0.0, 7e-294, 0.0], 1e20, weights=self.SUBNORMAL_WEIGHTS)
        sol = reg.solve_absolute_bias(problem)
        assert 1e-12 < sol.constraint_residual / 7e-294 < 1e-9
        problem = _pair_problem([0.0, 3e-297, 0.0], 1e20, weights=self.SUBNORMAL_WEIGHTS)
        with pytest.raises(SingularSystem, match="misses the constraint") as info:
            reg.solve_absolute_bias(problem)
        missed = float(str(info.value).split(" by ")[1].split()[0])
        assert 1e-9 < missed / 3e-297 < 1e-6 and missed > sys.float_info.min

    def test_elevations_up_to_the_pole_solve(self):
        # the cross-azimuth A stays a rotation times diag(1, p, p) up to the pole
        near_pole = math.pi / 2 - 1e-7
        assert 1e-8 < math.cos(near_pole) < 1e-6
        sol = reg.solve_absolute_bias(_pair_problem([1.0, 2.0, 3.0], elevation1=near_pole))
        assert sol.constraint_residual <= 1e-9 * np.sqrt(14.0)
        # |cos el| below 1e-8, and the poles themselves, solve as well
        at_pole = math.pi / 2 - 1e-9
        assert 1e-10 < math.cos(at_pole) < 1e-8
        for elevation in (at_pole, math.pi / 2, -math.pi / 2):
            sol = reg.solve_absolute_bias(_pair_problem([1.0, 2.0, 3.0], elevation1=elevation))
            assert sol.constraint_residual <= 1e-9 * np.sqrt(14.0)

    @pytest.mark.parametrize("p_t", [reg.MIN_RANGE_M, 1e-4])
    def test_target_distances_from_1e6_m_solve(self, p_t):
        sol = reg.solve_absolute_bias(_pair_problem([1e-7, 2e-7, 3e-7], p_t))
        assert sol.constraint_residual <= 1e-9 * np.sqrt(14.0) * 1e-7

    def test_target_distance_below_1e6_m_is_singular(self):
        with pytest.raises(SingularGeometry, match="sensor 1 .target distance 1e-07 m"):
            reg.solve_absolute_bias(_pair_problem([1e-7, 2e-7, 3e-7], 1e-7))
