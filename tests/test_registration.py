import numpy as np
import pytest

from radarbias import registration as reg
from radarbias.coords import SphericalTriple
from radarbias.errors import SingularGeometry
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
        with pytest.raises(SingularGeometry):
            reg.build_A(reg.SensorGeometry(1e4, 0.0, np.pi / 2))

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
        w = reg.BiasCostWeights(**oracles.EXAMPLE_WEIGHTS)
        zero = SphericalTriple(0.0, 0.0, 0.0)
        assert reg.evaluate_cost(zero, zero, w) == 0.0
        assert reg.normalized_cost(zero, zero, w) == 0.0

    def test_matches_quadratic_form(self):
        rng = np.random.default_rng(17)
        w = reg.BiasCostWeights(**oracles.EXAMPLE_WEIGHTS)
        d1 = np.diag(w.sensor1()) / 2.0
        d2 = np.diag(w.sensor2()) / 2.0
        for _ in range(50):
            e1 = rng.normal(0, [100, 1e-2, 1e-2])
            e2 = rng.normal(0, [100, 1e-2, 1e-2])
            direct = e1 @ d1 @ e1 + e2 @ d2 @ e2
            got = reg.evaluate_cost(SphericalTriple.from_array(e1),
                                    SphericalTriple.from_array(e2), w)
            assert got == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("name", ["a", "b", "c", "d"])
    def test_normalized_cost_reproduces_tables(self, name):
        # the tabulated cost convention, evaluated on the tabulated increments
        ex = oracles.REGISTRATION_EXAMPLES[name]
        w = reg.BiasCostWeights(**oracles.EXAMPLE_WEIGHTS)
        e = ex["expected"]
        got = reg.normalized_cost(SphericalTriple.from_array(e[:3]),
                                  SphericalTriple.from_array(e[3:]), w)
        assert got == pytest.approx(ex["cost"], rel=1e-3)

    def test_weights_must_be_positive(self):
        bad = dict(oracles.EXAMPLE_WEIGHTS, k_r1_sq=0.0)
        with pytest.raises(ValueError):
            reg.BiasCostWeights(**bad)


class TestConstraint:
    def test_zero_feasible(self):
        problem = make_problem("a")
        problem = reg.RegistrationProblem(
            relative_bias=np.zeros(3), geom1=problem.geom1,
            geom2=problem.geom2, weights=problem.weights)
        zero = SphericalTriple(0.0, 0.0, 0.0)
        np.testing.assert_allclose(
            reg.constraint_residual(zero, zero, problem), np.zeros(3))

    def test_matches_matrix_arithmetic(self):
        rng = np.random.default_rng(19)
        problem = make_problem("a")
        a1 = reg.build_A(problem.geom1)
        a2 = reg.build_A(problem.geom2)
        for _ in range(20):
            e1 = rng.normal(0, [100, 1e-2, 1e-2])
            e2 = rng.normal(0, [100, 1e-2, 1e-2])
            expected = a2 @ e2 - a1 @ e1 - problem.relative_bias
            got = reg.constraint_residual(SphericalTriple.from_array(e1),
                                          SphericalTriple.from_array(e2), problem)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_relative_bias_rejected(self, bad):
        problem = make_problem("a")
        with pytest.raises(ValueError, match="relative_bias"):
            reg.RegistrationProblem(np.array([1.0, bad, 0.0]), problem.geom1,
                                    problem.geom2, problem.weights)


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
                perturbed = reg.evaluate_cost(SphericalTriple.from_array(e1),
                                              SphericalTriple.from_array(e2), w)
                assert perturbed >= sol.objective - 1e-9

    def test_singular_geometry_reported_by_sensor(self):
        base = make_problem("a")
        bad = reg.RegistrationProblem(
            relative_bias=base.relative_bias, geom1=base.geom1,
            geom2=reg.SensorGeometry(0.0, 0.0, 0.0), weights=base.weights)
        with pytest.raises(SingularGeometry, match="sensor 2"):
            reg.solve_absolute_bias(bad)
