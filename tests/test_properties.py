"""Property tests over wide input ranges (hypothesis)."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from radarbias import steady_state as ss
from radarbias.errors import NoValidRoot

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
