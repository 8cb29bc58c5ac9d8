"""Property tests over wide input ranges (hypothesis)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radarbias import steady_state as ss
from radarbias.errors import DegenerateDenominator, NonFiniteCovariance, NoValidRoot

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
