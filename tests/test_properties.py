"""Property tests over wide input ranges (hypothesis)."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from radarbias import registration as reg
from radarbias import steady_state as ss
from radarbias.errors import (DegenerateDenominator, NonFiniteCovariance, NoValidRoot,
                              SingularGeometry, SingularSystem)

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
    eig1, eig2 = ss.fbar_eigenvalues(gains)
    want = [rho, alpha, beta, abs(eig1), abs(eig2), cov.s11_dot, cov.s21_dot,
            ss.excluded_root(alpha)]
    assert ss.gain_table([rho], [alpha], **noise).tolist() == [want]
    # the same point in the middle of a row of other points
    table = ss.gain_table([rho], [*_OTHER_ALPHAS[:5], alpha, *_OTHER_ALPHAS[5:]], **noise)
    assert table[5].tolist() == want


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
def test_registration_finite_or_documented_error(bias, p_t, azimuths, elevations, weights):
    """The solve returns all-finite fields or raises SingularGeometry/SingularSystem.

    The KKT residual matches the same ratio of norms taken on entries
    scaled by the largest gradient entry, so it is nonzero whenever the
    stationarity residual is, however large the gradient.
    """
    problem = _registration_problem(bias, p_t, azimuths, elevations, weights)
    try:
        sol = reg.solve_absolute_bias(problem)
    except (SingularGeometry, SingularSystem):
        return
    values = [*sol.bias1.as_array(), *sol.bias2.as_array(), *sol.multipliers, sol.cost,
              sol.objective, sol.constraint_residual, sol.kkt_residual]
    assert all(map(math.isfinite, values))
    c = np.hstack([-reg.build_A(problem.geom1), reg.build_A(problem.geom2)])
    grad = np.array(weights) * np.concatenate([sol.bias1.as_array(), sol.bias2.as_array()])
    resid = grad - c.T @ sol.multipliers
    top = np.max(np.abs(grad))
    if top > 0.0:
        expected = np.linalg.norm(resid / top) / np.linalg.norm(grad / top)
    else:
        expected = np.linalg.norm(resid)
    assert sol.kkt_residual == pytest.approx(expected, rel=1e-9, abs=0.0)


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
