"""Property tests over wide input ranges (hypothesis)."""

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from radarbias import coords
from radarbias import registration as reg
from radarbias import steady_state as ss
from radarbias.sim_harness import synth_registration_scenario
from radarbias.errors import (DegenerateDenominator, NonFiniteCovariance, NoValidRoot,
                              SingularGeometry, SingularSystem)

import oracles

MAX_FLOAT = 1.7976931348623157e308


@settings(max_examples=500, deadline=None)
@given(rho=st.floats(min_value=5e-324, max_value=MAX_FLOAT),
       alpha=st.floats(min_value=0.0, max_value=2.0, exclude_min=True, exclude_max=True))
@example(rho=5e-324, alpha=1.0)
@example(rho=MAX_FLOAT, alpha=1.9)
@example(rho=1e300, alpha=1.9)
@example(rho=1e-6, alpha=1e-3)
def test_solve_beta_root_or_no_valid_root(rho, alpha):
    """A returned gain is a root of the gain cubic; anything else is NoValidRoot."""
    try:
        beta = ss.solve_beta(alpha, rho)
    except NoValidRoot:
        return
    # the cubic 2 b^3 + rho (c1 b + c0) divided by max(rho, 1) so it stays finite
    c1 = alpha * alpha - 2 * alpha + 2
    c0 = alpha * alpha * (alpha - 2)
    scale = max(rho, 1.0)
    cubic = 2 * beta * beta * beta / scale + rho / scale * (c1 * beta + c0)
    size = 2 * abs(beta) ** 3 / scale + rho / scale * (c1 * abs(beta) + abs(c0))
    assert abs(cubic) <= 1e-13 * size
    assert 0.0 < beta < ss.excluded_root(alpha)


#: valid companions of the drawn point, so it is evaluated among others
_OTHER_ALPHAS = (0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 1.0, 1.15)


@settings(max_examples=300, deadline=None)
@given(rho=st.floats(min_value=1e-6, max_value=1e12),
       alpha=st.floats(min_value=0.0, max_value=2.0, exclude_min=True, exclude_max=True))
@example(rho=1e3, alpha=2e-6)
@example(rho=1e-6, alpha=1.999)
def test_gain_table_rows_equal_scalar_entry_points(rho, alpha):
    """gain_table and the scalar functions run one code path, so they agree exactly."""
    noise = dict(period=0.5, meas_var=2.0, bias_var=3.0)
    try:
        beta = ss.solve_beta(alpha, rho)
        gains = ss.SteadyStateGains(alpha, beta)
        cov = ss.predicted_covariances(gains, ss.SteadyStateConfig.from_rho(rho, **noise))
    except (NoValidRoot, DegenerateDenominator, NonFiniteCovariance) as exc:
        for alphas in ([alpha], [*_OTHER_ALPHAS[:5], alpha, *_OTHER_ALPHAS[5:]]):
            with pytest.raises(type(exc)) as info:
                ss.gain_table([rho], alphas, **noise)
            assert str(info.value) == str(exc)
        return
    want = [rho, alpha, beta, cov.s_dot[0, 0], cov.s_dot[1, 0], ss.excluded_root(alpha)]
    (row,) = ss.gain_table([rho], [alpha], **noise).tolist()
    # the moduli have no scalar entry point: validate_gains judges stability on them
    assert [*row[:3], *row[5:]] == want and max(row[3:5]) < 1.0
    assert ss.validate_gains(gains, ss.SteadyStateConfig.from_rho(rho, **noise)).stable
    # the same point in the middle of a row of other points
    table = ss.gain_table([rho], [*_OTHER_ALPHAS[:5], alpha, *_OTHER_ALPHAS[5:]], **noise)
    assert table[5].tolist() == row


def _scalar_chain_error(rho, alpha, noise):
    """The error solve_beta, from_rho and predicted_covariances raise at one point, or None."""
    try:
        gains = ss.SteadyStateGains(alpha, ss.solve_beta(alpha, rho))
        ss.predicted_covariances(gains, ss.SteadyStateConfig.from_rho(rho, **noise))
    except ValueError as exc:
        return exc
    return None


_NOISE = dict(period=0.5, meas_var=2.0, bias_var=3.0)
#: period^2 overflows here, so every row's config fails
_OVERFLOWING_PERIOD_NOISE = dict(period=1e200, meas_var=1e-200)


@settings(max_examples=300, deadline=None)
@given(rhos=st.lists(st.one_of(st.floats(min_value=1e-3, max_value=1e3),
                               st.floats(min_value=-1e3, max_value=0.0), st.just(1e3),
                               st.floats(min_value=1e307, max_value=MAX_FLOAT)),
                     min_size=1, max_size=4),
       alphas=st.lists(st.one_of(st.floats(min_value=0.05, max_value=1.9),
                                 st.floats(min_value=2.0, max_value=10.0), st.just(2e-6)),
                       min_size=1, max_size=4),
       noise=st.sampled_from([_NOISE, _OVERFLOWING_PERIOD_NOISE]))
@example(rhos=[2.0], alphas=[0.5, 2.5, 3.0], noise=_NOISE)
@example(rhos=[2.0, 0.0], alphas=[0.5, 2.5], noise=_NOISE)
@example(rhos=[1e3], alphas=[0.3, 2e-6], noise=_NOISE)
@example(rhos=[2.0, MAX_FLOAT], alphas=[0.5, 1.0], noise=_NOISE)
@example(rhos=[2.0], alphas=[0.2], noise=_OVERFLOWING_PERIOD_NOISE)
@example(rhos=[2.0], alphas=[2.5, 0.2], noise=_OVERFLOWING_PERIOD_NOISE)
def test_gain_table_raises_the_scalar_chain_error_of_the_first_failing_point(rhos, alphas,
                                                                           noise):
    """gain_table fails exactly when a grid point fails the scalar functions, with the
    error they raise on the first such point in row-major order."""
    errors = (_scalar_chain_error(rho, alpha, noise) for rho in rhos for alpha in alphas)
    first = next((exc for exc in errors if exc is not None), None)
    if first is None:
        table = ss.gain_table(rhos, alphas, **noise)
        assert table.shape == (len(rhos) * len(alphas), 8) and np.isfinite(table).all()
        return
    with pytest.raises(ValueError) as info:
        ss.gain_table(rhos, alphas, **noise)
    assert type(info.value) is type(first) and str(info.value) == str(first)


@settings(max_examples=300, deadline=None)
@given(rho=st.floats(min_value=1e-100, max_value=1e100),
       period=st.floats(min_value=1e-50, max_value=1e50),
       meas_var=st.floats(min_value=1e-100, max_value=1e100))
@example(rho=1e-100, period=1e50, meas_var=1e-100)
@example(rho=1e100, period=1e-50, meas_var=1e100)
def test_from_rho_process_noise_gives_back_the_ratio(rho, period, meas_var):
    """process_var * period^2 / meas_var is rho again, to four roundings.

    Over these ranges no intermediate value is subnormal or overflows: the
    process noise lies in [1e-300, 1e300] and period^2 is formed the same
    way both times, so only the two products and two quotients round.
    """
    cfg = ss.SteadyStateConfig.from_rho(rho, period=period, meas_var=meas_var)
    assert cfg.process_var * (period * period) / meas_var == pytest.approx(rho, rel=5e-16)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(alpha=_FINITE, beta=_FINITE)
@example(alpha=1e110, beta=0.5)
@example(alpha=1e-7, beta=1e-7)
@example(alpha=1.7976931348623157e308, beta=-1.7976931348623157e308)
def test_validate_gains_reports_any_finite_gains(alpha, beta):
    """validate_gains returns a report for any finite gains and raises nothing."""
    report = ss.validate_gains(ss.SteadyStateGains(alpha, beta),
                               ss.SteadyStateConfig.from_rho(2.0, bias_var=4.0))
    assert all(type(v) is bool for v in report.__dict__.values())
    if report.ok:
        assert report.stable and 0 < beta < ss.excluded_root(alpha)


def _registration_problem(bias, p_t, azimuths, elevations, weights):
    geoms = [reg.SensorGeometry(p, az, el) for p, az, el in zip(p_t, azimuths, elevations)]
    return reg.RegistrationProblem(np.array(bias), *geoms, reg.BiasCostWeights(*weights))


def _pair(strategy):
    return st.tuples(strategy, strategy)


_ANGLE = st.floats(min_value=-math.pi, max_value=math.pi)


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None)
@given(bias=st.tuples(*[st.floats(min_value=-1e300, max_value=1e300)] * 3),
       p_t=_pair(st.floats(min_value=1e-6, max_value=1e308)),
       azimuths=_pair(_ANGLE), elevations=_pair(_ANGLE),
       weights=st.tuples(*[st.floats(min_value=5e-324, max_value=MAX_FLOAT)] * 6))
# B = C diag(d)^-1/2 overflows: p_t 1e300 over sqrt(k_psi1_sq) 1e-150
@example(bias=(100.0, 200.0, 300.0), p_t=(1e300, 5e4), azimuths=(0.3, 1.1),
         elevations=(0.2, -0.5), weights=(2.0, 1e-300, 1e9, 2.0, 5e9, 5e9))
# B is finite and well conditioned, but e = diag(d)^-1/2 V S^-1 U' b overflows
@example(bias=(1e300, 1e300, 1e300), p_t=(1e-3, 1e-3), azimuths=(0.3, 1.1),
         elevations=(0.2, -0.5), weights=(1e300,) * 6)
# the objective gradient d e reaches 1.5e158, so its squared entries overflow
@example(bias=(717.5098049197081, -325.404988502602, 587.3090555173121),
         p_t=(9884.08030936275, 93383.34190299478),
         azimuths=(1.4248018967413616, 0.008143226502757006),
         elevations=(0.5341721593787583, 0.552477750604643),
         weights=(7.99107135433303e150, 1.4871482158739896e156, 3.532263623769733e173,
                  5.680037816716631e183, 1.2820587318996103e182, 5.4520761989867855e157))
# singular values of B near 5e154: s^2 overflows, so S^-2 must never be formed
@example(bias=(0.0, 2872411494445433.0, 0.0), p_t=(9.339079857202503e+307, 1e+308),
         azimuths=(-0.00390625, 0.14186591344230592), elevations=(2.0, 0.0),
         weights=(18647152777233.0, 4.0550362386713335e+306, 1.6732734652793561e+308, 1.0,
                  6.477304069222615e+307, 1.2704566765491444e+308))
# the multipliers (about 1e-560) underflow to zero, so e = 0 misses the constraint
@example(bias=(0.0, 0.0, 1.0), p_t=(8.539111099945366e+272, 7.185327670879022e+279),
         azimuths=(0.0, 0.0), elevations=(0.0, 1.0), weights=(1.0,) * 6)
# the stationarity residual is one subnormal entry against a gradient of 1.7e17
@example(bias=(1.9774787707373844e+16, -4.049289740596061e+16, -5.478708156052205e+16),
         p_t=(1.5125573196513022e+307, 5.713819934055139e+307), azimuths=(1.25, 0.0),
         elevations=(0.0, 0.5888973107571154),
         weights=(1.0, 3.7110890166882857e+307, 1.0439199628251882e+308, 1.0,
                  1.7976931348623157e+308, 9.401334070263133e+307))
# the residual is a cancellation of 2e-146 terms with subnormal multipliers, so
# C' a taken by another product routine differs from the solve's in the second
# digit: only the rounding budget of the product holds the two together
@example(bias=(0.0, 0.0, 1.0), p_t=(3.2110313063224687e+162, 6.478470760948815e+307),
         azimuths=(0.0, 0.0), elevations=(1.0, 0.0),
         weights=(1.0, 5522.0, 10648064991.0, 1.0, 1.2947575701066162e+295,
                  1.3561521655319911e+308))
def test_registration_finite_or_documented_error(bias, p_t, azimuths, elevations, weights):
    """The solve returns all-finite fields or raises SingularGeometry/SingularSystem.

    A returned solution meets the constraint to 1e-9 of the relative bias,
    or to the smallest normal double. The KKT residual matches the same
    ratio of norms, each vector's norm taken on its entries scaled by its
    own largest entry, so it is nonzero whenever the stationarity residual
    is, however large the gradient or small the residual. The residual is
    formed here independently of the solve, so the two may also differ by
    the rounding of C' a: a few ulps of its largest terms and a few
    subnormal steps per entry, over the gradient norm.
    """
    problem = _registration_problem(bias, p_t, azimuths, elevations, weights)
    try:
        sol = reg.solve_absolute_bias(problem)
    except (SingularGeometry, SingularSystem):
        return
    values = [*sol.bias1.as_array(), *sol.bias2.as_array(), *sol.multipliers, sol.cost,
              sol.objective, sol.constraint_residual, sol.kkt_residual]
    assert all(map(math.isfinite, values))
    assert sol.constraint_residual <= max(1e-9 * math.hypot(*bias), sys.float_info.min)
    c = np.hstack([-reg.build_A(problem.geom1), reg.build_A(problem.geom2)])
    grad = np.array(weights) * np.concatenate([sol.bias1.as_array(), sol.bias2.as_array()])
    resid = grad - c.T @ sol.multipliers
    # three products and two sums per entry of C' a, rounded by two routines
    rounding = (4 * np.finfo(float).eps * np.abs(c.T * sol.multipliers)).sum(axis=1) + 8 * 5e-324

    def norm(v):
        top = np.max(np.abs(v))
        return top * np.linalg.norm(v / top) if top > 0.0 else 0.0

    scale = norm(grad) if norm(grad) > 0.0 else 1.0
    expected = norm(resid) / scale
    assert sol.kkt_residual == pytest.approx(expected, rel=1e-9, abs=norm(rounding) / scale)


@settings(max_examples=300, deadline=None)
@given(bias=st.tuples(*[st.floats(min_value=-1e6, max_value=1e6)] * 3),
       p_t=_pair(st.floats(min_value=1e2, max_value=1e7)),
       azimuths=_pair(_ANGLE), elevations=_pair(_ANGLE),
       factors=st.tuples(*[st.floats(min_value=-3.0, max_value=3.0).map(lambda x: 10.0**x)] * 6))
# the weights of oracles.WIDE_WEIGHT_SPREAD_CONFIG
@example(bias=(50.0, 100.0, -15.0), p_t=(766800.0, 216500.0), azimuths=(-1.256, -2.245),
         elevations=(-1.207, 1.387),
         factors=(16.84, 6.056e10 / (2 * 766800.0**2), 8.932e13 / (2 * 766800.0**2),
                  0.0647, 2.806e12 / (2 * 216500.0**2), 3.044e12 / (2 * 216500.0**2)))
def test_registration_solves_convention_range(bias, p_t, azimuths, elevations, factors):
    """Weights within 10^+-3 of unit range weights and 2 p_t^2 angle weights always solve."""
    assume(all(abs(math.cos(el)) >= 1e-6 for el in elevations))
    convention = [1.0, 2 * p_t[0] ** 2, 2 * p_t[0] ** 2, 1.0, 2 * p_t[1] ** 2, 2 * p_t[1] ** 2]
    weights = [w * f for w, f in zip(convention, factors)]
    sol = reg.solve_absolute_bias(_registration_problem(bias, p_t, azimuths, elevations,
                                                        weights))
    assert sol.constraint_residual <= 1e-9 * max(1.0, math.hypot(*bias))
    assert sol.kkt_residual <= 1e-9


def _multiplier_condition(problem) -> float:
    """(s_max/s_min)^2 of B = C diag(d)^-1/2, from the literal constraint rows."""
    g1, g2 = problem.geom1, problem.geom2
    rows = oracles.constraint_rows((g1.p_t, g1.azimuth, g1.elevation),
                                   (g2.p_t, g2.azimuth, g2.elevation))
    d = np.concatenate([problem.weights.sensor1(), problem.weights.sensor2()])
    with np.errstate(all="ignore"):
        s = np.linalg.svd(rows / np.sqrt(d), compute_uv=False)
        return float((s[0] / s[-1]) ** 2)


@settings(max_examples=400, deadline=None)
@given(bias=st.tuples(*[st.floats(min_value=-1e6, max_value=1e6)] * 3),
       p_t=_pair(st.floats(min_value=1e2, max_value=1e7)),
       azimuths=_pair(_ANGLE), elevations=_pair(_ANGLE), convention=st.booleans(),
       factors=st.tuples(*[st.floats(min_value=-3.0, max_value=3.0)] * 6),
       spread=st.tuples(*[st.floats(min_value=-6.0, max_value=12.0)] * 6))
# degenerate pointing: elevation pi/2 leaves cos(elevation) below the tolerance
@example(bias=(200.0, 500.0, 300.0), p_t=(25000.0, 50000.0), azimuths=(0.0, 0.0),
         elevations=(0.7854, math.pi / 2), convention=True, factors=(0.0,) * 6,
         spread=(0.0,) * 6)
# 1 m targets with angle weights 1e12: the multiplier system's condition is 1e18
@example(bias=(200.0, 500.0, 300.0), p_t=(1.0, 1.0), azimuths=(0.0, 0.0),
         elevations=(0.0, 0.0), convention=False, factors=(0.0,) * 6,
         spread=(-6.0, 12.0, 12.0, -6.0, 12.0, 12.0))
# a subnormal relative bias: the constraint residual is one rounding step of 5e-324
@example(bias=(0.0, 0.0, 5e-324), p_t=(100.0, 100.0), azimuths=(0.0, 0.0),
         elevations=(0.0, 0.0), convention=False, factors=(0.0,) * 6, spread=(0.0,) * 6)
def test_registration_matches_reference_solve(bias, p_t, azimuths, elevations, convention,
                                              factors, spread):
    """The solve agrees with the solve as first written within 1e-12 relative.

    Weights are the unit range and 2 p_t^2 angle convention times 10^+-3,
    or spread across 1e-6 to 1e12. Both forms raise the same error with
    the same message on the same inputs. Problems within a factor of 2 of
    the condition limit are skipped, since rounding can put the two forms
    on either side of it.

    Both sensors' increments are held to the largest of the six, since the
    solve is accurate relative to the whole solution. Above condition about
    1e3 the bound widens to 4 eps cond, the order of either form's own
    forward error: at condition 7.1e4 both stand about 5e-12 from the exact
    increments, on opposite sides. Differences below the smallest normal
    double are ignored, since subnormal results carry fewer significant bits.
    """
    if convention:
        base = [1.0, 2 * p_t[0] ** 2, 2 * p_t[0] ** 2, 1.0, 2 * p_t[1] ** 2, 2 * p_t[1] ** 2]
        weights = [w * 10.0**x for w, x in zip(base, factors)]
    else:
        weights = [10.0**x for x in spread]
    problem = _registration_problem(bias, p_t, azimuths, elevations, weights)
    cond = _multiplier_condition(problem)
    assume(not reg._COND_LIMIT / 2 <= cond <= 2 * reg._COND_LIMIT)
    try:
        e, multipliers, cost, objective = oracles.registration_solve_reference(problem)
    except (SingularGeometry, SingularSystem) as exc:
        with pytest.raises(type(exc)) as info:
            reg.solve_absolute_bias(problem)
        assert str(info.value) == str(exc)
        return
    sol = reg.solve_absolute_bias(problem)
    rtol = max(1e-12, 4 * np.finfo(float).eps * cond)
    for name, got, want, scale in (("bias1", sol.bias1.as_array(), e[:3], e),
                                   ("bias2", sol.bias2.as_array(), e[3:], e),
                                   ("multipliers", sol.multipliers, multipliers, multipliers),
                                   ("cost", sol.cost, cost, cost),
                                   ("objective", sol.objective, objective, objective)):
        atol = rtol * np.max(np.abs(scale)) + np.finfo(float).tiny
        np.testing.assert_allclose(got, want, rtol=rtol, atol=atol, err_msg=name)


_OFF_POLE_SITE = st.builds(coords.GeodeticSite, _ANGLE, st.floats(min_value=-1.5, max_value=1.5))
_POINT = st.tuples(*[st.floats(min_value=-1e6, max_value=1e6)] * 3)


def _max_abs_diff(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a, dtype=np.longdouble) - np.asarray(b))))


@settings(max_examples=300, deadline=None)
@given(site1=_OFF_POLE_SITE, site2=_OFF_POLE_SITE, point=_POINT)
# the same site: the transform is the identity
@example(site1=coords.GeodeticSite(0.4, -0.7), site2=coords.GeodeticSite(0.4, -0.7),
         point=(1e6, -1e6, 1e6))
# antipodal sites, the farthest pair
@example(site1=coords.GeodeticSite(0.0, 1.5), site2=coords.GeodeticSite(math.pi, -1.5),
         point=(-1e6, 1e6, -1e6))
def test_inter_site_position_round_trips(site1, site2, point):
    """The long-double inter-site transforms invert each other within 1e-9 m.

    ENU(1) -> ENU(2) -> ENU(1) and ENU -> ECI -> ENU return the point, and
    ENU(1) -> ENU(2) matches the three-product form R2 R1' p - R2 (o2 - o1).
    """
    p = np.array(point)
    p2 = coords.enu1_position_to_enu2(p, site1, site2)
    assert _max_abs_diff(coords.enu2_position_to_enu1(p2, site1, site2), p) <= 1e-9
    assert _max_abs_diff(p2, oracles.enu_position_through_rotation(
        p, site1, site2, coords.WGS84)) <= 1e-9
    for site in (site1, site2):
        p_eci = coords.enu_position_to_eci(p, site)
        assert _max_abs_diff(coords.eci_position_to_enu(p_eci, site), p) <= 1e-9


_EPS = float(np.finfo(float).eps)
#: a coordinate of magnitude 1e-150 to 1e150, or zero; squares neither
#: overflow nor underflow to zero unless the coordinate is zero
_WIDE = st.one_of(st.just(0.0), st.floats(min_value=1e-150, max_value=1e150),
                  st.floats(min_value=-1e150, max_value=-1e-150))
_WIDE_VECTOR = st.tuples(_WIDE, _WIDE, _WIDE).filter(any)


@settings(max_examples=300, deadline=None)
@given(point=_WIDE_VECTOR)
@example(point=(0.0, 0.0, -1e-150))  # on the pole
@example(point=(-1e150, 0.0, 1e-150))  # azimuth pi
@example(point=(1e150, -1e-150, 1e150))
def test_cartesian_spherical_cartesian_round_trip(point):
    """Cartesian -> spherical -> cartesian returns the point within 8 eps of its norm."""
    v = np.array(point)
    back = coords.spherical_to_cartesian(coords.cartesian_to_spherical(v))
    assert np.max(np.abs(back - v)) <= 8 * _EPS * math.hypot(*point)


@settings(max_examples=300, deadline=None)
@given(range_m=st.floats(min_value=1e-150, max_value=1e150),
       azimuth=st.floats(min_value=-math.pi, max_value=math.pi, exclude_min=True),
       elevation=st.floats(min_value=-math.pi / 2, max_value=math.pi / 2))
@example(range_m=1e-150, azimuth=math.pi, elevation=math.pi / 2)
@example(range_m=1e150, azimuth=math.nextafter(-math.pi, 0.0), elevation=-1.5)
def test_spherical_cartesian_spherical_round_trip(range_m, azimuth, elevation):
    """Spherical -> cartesian -> spherical returns the triple within 8 eps.

    The range is compared relative to itself, the elevation in radians, and
    the azimuth in radians times cos(elevation), the arc it spans on the
    unit sphere: near the poles the azimuth is ill-conditioned.
    """
    back = coords.cartesian_to_spherical(coords.spherical_to_cartesian(
        coords.SphericalTriple(range_m, azimuth, elevation)))
    assert abs(back.range_m - range_m) <= 8 * _EPS * range_m
    assert abs(back.elevation - elevation) <= 8 * _EPS
    d_azimuth = math.remainder(back.azimuth - azimuth, 2 * math.pi)
    assert abs(d_azimuth) * math.cos(elevation) <= 8 * _EPS


@settings(max_examples=300, deadline=None)
@given(p_t=st.floats(min_value=1.0, max_value=1e6), azimuth=_ANGLE,
       elevation=st.floats(min_value=-1.2, max_value=1.2))
@example(p_t=2.5e4, azimuth=0.0, elevation=0.7854)
def test_build_a_is_the_spherical_jacobian_with_cross_azimuth(p_t, azimuth, elevation):
    """build_A is d(spherical_to_cartesian)/d(r, psi, theta) diag(1, 1/cos theta, 1).

    The Jacobian comes from central differences of ``coords``; the azimuth
    column divided by cos(theta) makes the solve's azimuth increment a
    cross-azimuth one, cos(theta) dpsi. Columns are compared relative to
    their scale (1 for range, p_t for the angles), to 1e-8: the
    differences carry about 1e-10 of truncation and rounding.
    """
    point = np.array([p_t, azimuth, elevation])
    steps = np.array([0.5 * p_t, 1e-5, 1e-5])     # range enters linearly
    jac = np.column_stack([
        (coords.spherical_to_cartesian(coords.SphericalTriple.from_array(point + h))
         - coords.spherical_to_cartesian(coords.SphericalTriple.from_array(point - h)))
        / (2 * h[i]) for i, h in enumerate(np.diag(steps))])
    want = jac * np.array([1.0, 1.0 / math.cos(elevation), 1.0])
    got = reg.build_A(reg.SensorGeometry(p_t, azimuth, elevation))
    np.testing.assert_allclose((got - want) / np.array([1.0, p_t, p_t]), 0.0, atol=1e-8)


#: a sensor's view of a target: 5-100 km out, |elevation| <= 1.2
_VIEW = st.builds(reg.SensorGeometry, st.floats(min_value=5e3, max_value=1e5), _ANGLE,
                  st.floats(min_value=-1.2, max_value=1.2))
#: a bias of the paper's size, up to four sigma: 200 m in range, 5 mrad in the
#: cross-azimuth and elevation increments
_BIAS = st.tuples(st.floats(min_value=-800.0, max_value=800.0),
                  *[st.floats(min_value=-0.02, max_value=0.02)] * 2)


def _track(view, bias) -> np.ndarray:
    """Where a sensor that reports its polar view less ``bias`` puts the target.

    ``bias`` holds range, cross-azimuth and elevation increments; the
    cross-azimuth one is cos(elevation) times the azimuth increment.
    """
    dr, cross, dtheta = bias
    return coords.spherical_to_cartesian(coords.SphericalTriple(
        view.p_t - dr, view.azimuth - cross / math.cos(view.elevation), view.elevation - dtheta))


def _linear_model_miss(view, bias) -> np.ndarray:
    """The exact polar map's bias vector minus build_A's, A d."""
    return _track(view, (0.0,) * 3) - _track(view, bias) - reg.build_A(view) @ bias


@settings(max_examples=300, deadline=None)
@given(view=_VIEW, bias=_BIAS)
@example(view=reg.SensorGeometry(5e3, 0.0, 1.2), bias=(800.0, 0.02, -0.02))
@example(view=reg.SensorGeometry(1e5, -3.0, -1.2), bias=(0.0, 1e-4, 0.0))
def test_linear_bias_model_misses_the_exact_map_at_second_order(view, bias):
    """The miss of A d against the exact polar map shrinks 4x when d halves.

    Beyond a 1e-4 angle increment the quadratic term exceeds 2e-5 m, far
    above rounding, and the cubic term is a few percent of it.
    """
    assume(math.hypot(bias[1], bias[2]) >= 1e-4)
    ratio = (np.linalg.norm(_linear_model_miss(view, bias))
             / np.linalg.norm(_linear_model_miss(view, np.multiply(0.5, bias))))
    assert 3.8 < ratio < 4.2


@settings(max_examples=200, deadline=None)
@given(view1=_VIEW, bias1=_BIAS, bias2=_BIAS,
       site_offset=st.tuples(*[st.floats(min_value=-5e-3, max_value=5e-3)] * 2))
def test_two_site_relative_bias_is_the_linear_model_at_second_order(view1, bias1, bias2,
                                                                    site_offset):
    """Two biased tracks of one target give A2 d2 - A1 d1 to second order.

    Sensor 1 sees the target through ``view1`` from its site; sensor 2, on a
    site up to about 30 km away, sees it in its own ENU(2) frame. Each
    reports its view less its bias. The relative bias of the two tracks in
    ENU(1) misses A2 d2 - A1 d1 (A2 d2 rotated from ENU(2) into ENU(1)) by
    exactly the two sensors' own misses, each second order (above), to
    within 1e-8 m of rounding: the site transforms add no error of their own.
    """
    site1 = coords.GeodeticSite(0.3, 0.6)
    site2 = coords.GeodeticSite(0.3 + site_offset[0], 0.6 + site_offset[1])
    target = coords.spherical_to_cartesian(coords.SphericalTriple(
        view1.p_t, view1.azimuth, view1.elevation))
    seen = coords.cartesian_to_spherical(np.array(
        coords.enu1_position_to_enu2(target, site1, site2), dtype=float))
    assume(seen.range_m >= 5e3 and abs(seen.elevation) <= 1.2)
    view2 = reg.SensorGeometry(seen.range_m, seen.azimuth, seen.elevation)
    baseline = np.array(coords.enu2_position_to_enu1(np.zeros(3), site1, site2), dtype=float)

    def to_enu1(v):   # a vector of ENU(2) in ENU(1): the rotation alone
        return np.array(coords.enu1_velocity_to_enu2(v, site2, site1), dtype=float)

    relative_bias = reg.relative_bias_from_positions(
        _track(view1, bias1), to_enu1(_track(view2, bias2)), baseline)
    model = to_enu1(reg.build_A(view2) @ bias2) - reg.build_A(view1) @ bias1
    misses = to_enu1(_linear_model_miss(view2, bias2)) - _linear_model_miss(view1, bias1)
    np.testing.assert_allclose(relative_bias - model, misses, rtol=0.0, atol=1e-8)


@settings(max_examples=300, deadline=None)
@given(point=_WIDE_VECTOR, azimuth=_ANGLE, elevation=_ANGLE)
def test_enu_face_enu_round_trip(point, azimuth, elevation):
    """ENU -> face -> ENU returns the vector within 8 eps of its norm."""
    v = np.array(point)
    face = coords.enu_to_face(azimuth, elevation) @ v
    back = coords.face_to_enu(azimuth, elevation) @ face
    assert np.max(np.abs(back - v)) <= 8 * _EPS * math.hypot(*point)


# ROADMAP item 9: exact invariances, pinned from outside with no oracle


def _increments(problem) -> np.ndarray:
    sol = reg.solve_absolute_bias(problem)
    return np.concatenate([sol.bias1.as_array(), sol.bias2.as_array()])


_SCENARIO_SEED = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=300, deadline=None)
@given(seed=_SCENARIO_SEED)
def test_registration_weights_scaled_by_four_keep_the_increments(seed):
    """All six weights times 4 give bit-identical increments: sqrt(4 d) = 2 sqrt(d) exactly."""
    problem, _ = synth_registration_scenario(seed)
    scaled = reg.BiasCostWeights(*(4.0 * w for w in dataclasses.astuple(problem.weights)))
    assert np.array_equal(_increments(dataclasses.replace(problem, weights=scaled)),
                          _increments(problem))


@settings(max_examples=300, deadline=None)
@given(seed=_SCENARIO_SEED)
def test_registration_swapped_sensors_swap_the_increments(seed):
    """Swapping the sensors' geometries and weights and negating b swaps the increments.

    Compared in meters (angles times p_t), to 2e-15 of the largest increment.
    """
    problem, _ = synth_registration_scenario(seed)
    weights = dataclasses.astuple(problem.weights)
    swapped = reg.RegistrationProblem(-problem.relative_bias, problem.geom2, problem.geom1,
                                      reg.BiasCostWeights(*weights[3:], *weights[:3]))
    e, e_swapped = _increments(problem), _increments(swapped)
    p1, p2 = problem.geom1.p_t, problem.geom2.p_t
    meters = np.array([1.0, p1, p1, 1.0, p2, p2])
    gap = np.abs((np.concatenate([e_swapped[3:], e_swapped[:3]]) - e) * meters)
    assert gap.max() <= 2e-15 * np.abs(e * meters).max()


#: a seeded grid with rho in 1e-4..1e6 and alpha in (0, 2), every point valid
_RHOS = (10.0 ** np.random.default_rng(11).uniform(-4.0, 6.0, 40)).tolist()
_ALPHAS = np.random.default_rng(12).uniform(0.01, 1.99, 40).tolist()
_UNIT_TABLE = ss.gain_table(_RHOS, _ALPHAS)
#: rho, alpha, beta, the two moduli and the excluded root
_NOISE_FREE = [0, 1, 2, 3, 4, 7]


@settings(max_examples=100, deadline=None)
@given(period=st.floats(min_value=1e-3, max_value=1e3),
       meas_var=st.floats(min_value=1e-4, max_value=1e4))
@example(period=0.5, meas_var=2.0)
@example(period=40.0, meas_var=1e-4)
def test_gain_table_at_fixed_rho_scales_with_period_and_meas_var(period, meas_var):
    """At fixed rho, beta and the moduli keep their bits; S11 scales by N and S21 by N/T."""
    table = ss.gain_table(_RHOS, _ALPHAS, period=period, meas_var=meas_var)
    assert np.array_equal(table[:, _NOISE_FREE], _UNIT_TABLE[:, _NOISE_FREE])
    eps = np.finfo(float).eps
    np.testing.assert_allclose(table[:, 5], meas_var * _UNIT_TABLE[:, 5], rtol=8 * eps, atol=0)
    np.testing.assert_allclose(table[:, 6], meas_var / period * _UNIT_TABLE[:, 6],
                               rtol=8 * eps, atol=0)


@settings(max_examples=100, deadline=None)
@given(bias_var=st.floats(min_value=0.0, max_value=1e12))
@example(bias_var=4.0)
@example(bias_var=1e-300)
def test_gain_table_bias_variance_adds_to_s11_only(bias_var):
    """The bias variance leaves S21 and the gains bit-identical and adds itself to S11."""
    noise = dict(period=0.7, meas_var=3.0)
    base = ss.gain_table(_RHOS, _ALPHAS, **noise)
    table = ss.gain_table(_RHOS, _ALPHAS, bias_var=bias_var, **noise)
    assert np.array_equal(table[:, [*_NOISE_FREE, 6]], base[:, [*_NOISE_FREE, 6]])
    # one rounding of the sum
    np.testing.assert_allclose(table[:, 5], base[:, 5] + bias_var,
                               rtol=np.finfo(float).eps, atol=0)
