"""Independent oracles and frozen reference values shared by the tests.

Everything here is deliberately written from first principles (literal
trigonometric expressions, generic iterative minimization, textbook filter
recursions) so it exercises none of the code paths under test.
"""

import numpy as np

# ---------------------------------------------------------------------------
# reference registration examples: inputs as printed, expected outputs
# (dr1, dpsi1, dtheta1, dr2, dpsi2, dtheta2) and the tabulated cost

EXAMPLE_WEIGHTS = dict(
    k_r1_sq=2.0, k_psi1_sq=1.25e9, k_theta1_sq=1.25e9,
    k_r2_sq=2.0, k_psi2_sq=5.0e9, k_theta2_sq=5.0e9,
)

REGISTRATION_EXAMPLES = {
    "a": dict(
        relative_bias=(200.0, 500.0, 300.0),
        geom1=(25000.0, 0.0, 7.8540e-1),
        geom2=(50000.0, 0.0, 2.3562),
        expected=(-1.7678e2, -1.0000e-2, -1.4142e-3,
                  3.5355e1, 5.0000e-3, -3.5355e-3),
        cost=1.6250e4,
    ),
    "b": dict(
        relative_bias=(200.0, 0.0, 500.0),
        geom1=(25000.0, 0.0, 7.8540e-1),
        geom2=(50000.0, 0.0, 2.3562),
        expected=(-2.4749e2, 0.0, -4.2426e-3,
                  1.0607e2, 0.0, -4.9497e-3),
        cost=3.6250e4,
    ),
    "c": dict(
        relative_bias=(200.0, 500.0, 300.0),
        geom1=(25000.0, 0.0, 7.8540e-1),
        geom2=(50000.0, np.pi, np.pi / 4),
        expected=(-1.7678e2, -1.0000e-2, -1.4142e-3,
                  3.5355e1, -5.0000e-3, 3.5355e-3),
        cost=1.6250e4,
    ),
    "d": dict(
        relative_bias=(200.0, 500.0, 300.0),
        geom1=(25000.0, 0.0, 7.8540e-1),
        geom2=(50000.0, np.pi / 2, np.pi / 4),
        expected=(-1.7678e2, -1.0000e-2, -1.4142e-3,
                  2.8284e2, -2.0000e-3, -1.4142e-3),
        cost=5.5625e4,
    ),
}

# (rho, alpha) -> tabulated velocity gain; the second tabulated root is
# always 4 - 2 alpha and is excluded
GAIN_TABLE = (
    (2.0, 0.2, 0.04385),
    (4.0, 0.2, 0.04386),
    (6.0, 0.2, 0.04389),
    (6.0, 0.4, 0.1866),
    (8.0, 0.2, 0.04389),
    (8.0, 0.4, 0.1870),
    (10.0, 0.2, 0.04389),
    (10.0, 0.4, 0.1873),
    (10.0, 0.5, 0.2959),
)


def constraint_rows(geom1, geom2):
    """3x6 coefficient matrix of the equality constraint, written literally.

    geom = (p_t, psi, theta). Row order east, north, up; column order
    (dr1, dpsi1, dtheta1, dr2, dpsi2, dtheta2). The constraint is
    rows @ e = relative_bias.
    """
    p1, psi1, th1 = geom1
    p2, psi2, th2 = geom2
    c1, s1 = np.cos(psi1), np.sin(psi1)
    ct1, st1 = np.cos(th1), np.sin(th1)
    c2, s2 = np.cos(psi2), np.sin(psi2)
    ct2, st2 = np.cos(th2), np.sin(th2)
    return np.array([
        [-ct1 * c1, s1 * p1, st1 * c1 * p1, ct2 * c2, -s2 * p2, -st2 * c2 * p2],
        [-ct1 * s1, -c1 * p1, st1 * s1 * p1, ct2 * s2, c2 * p2, -st2 * s2 * p2],
        [-st1, 0.0, -ct1 * p1, st2, 0.0, ct2 * p2],
    ])


def enu_rotation_chain(site1, site2):
    """ENU(1) -> ENU(2) rotation as three literal rotations.

    Rotate down to the equator from latitude 1, along the equator by the
    longitude difference, then up to latitude 2.
    """
    d_lon = site2.longitude - site1.longitude
    l1, l2 = site1.latitude, site2.latitude
    down = np.array([
        [1.0, 0.0, 0.0],
        [0.0, np.cos(l1), np.sin(l1)],
        [0.0, -np.sin(l1), np.cos(l1)],
    ])
    along = np.array([
        [np.cos(d_lon), 0.0, -np.sin(d_lon)],
        [0.0, 1.0, 0.0],
        [np.sin(d_lon), 0.0, np.cos(d_lon)],
    ])
    up = np.array([
        [1.0, 0.0, 0.0],
        [0.0, np.cos(l2), -np.sin(l2)],
        [0.0, np.sin(l2), np.cos(l2)],
    ])
    return up @ along @ down


def minimize_weighted_quadratic(weights6, rows, rhs, iterations=40):
    """Method-of-multipliers minimizer of sum(w_i e_i^2)/2 s.t. rows @ e = rhs.

    The variables are rescaled by sqrt(w) so the objective is isotropic
    and the penalty parameter is scale free; the multiplier estimate is
    refined until the constraint is satisfied to machine precision.
    """
    w = np.asarray(weights6, dtype=float)
    scale = np.sqrt(w)
    a = rows / scale[None, :]
    # normalize constraint rows so the penalty weight is dimensionless
    row_norm = np.linalg.norm(a, axis=1)
    a = a / row_norm[:, None]
    b = np.asarray(rhs, dtype=float) / row_norm
    mu = 1e4
    lhs = np.eye(6) + mu * a.T @ a
    y = np.zeros(3)
    v = np.zeros(6)
    for _ in range(iterations):
        v = np.linalg.solve(lhs, a.T @ (mu * b - y))
        y = y + mu * (a @ v - b)
    return v / scale


def quadratic_cost(weights6, e):
    return 0.5 * float(np.asarray(weights6) @ np.asarray(e) ** 2)


def classic_kalman_step(phi, h, q, r, x, p, z):
    """Textbook predict-update: returns (x, P, K) after one measurement."""
    x_pred = phi @ x
    p_pred = phi @ p @ phi.T + q
    innov_cov = h @ p_pred @ h.T + r
    gain = p_pred @ h.T @ np.linalg.inv(innov_cov)
    x_new = x_pred + gain @ (z - h @ x_pred)
    closure = np.eye(len(x)) - gain @ h
    p_new = closure @ p_pred @ closure.T + gain @ r @ gain.T
    return x_new, 0.5 * (p_new + p_new.T), gain


def iterate_lyapunov(f, g, iterations=4000):
    """Fixed point of X = F X F' + G by plain propagation from zero."""
    x = np.zeros_like(g)
    for _ in range(iterations):
        x = f @ x @ f.T + g
    return x


def gain_grid_reference(rhos, alphas, period, meas_var, bias_var):
    """Gain-table rows (beta, sorted eigenvalue moduli, S11dot, S21dot), point by point.

    Uses generic numerics only: the real root of the gain cubic from
    ``np.roots``, a dense eigensolve of the closed loop, and the steady
    covariance from the Kronecker-product solve of X = F X F' + G.
    """
    rows = []
    for rho in rhos:
        q = np.array([[0.0, 0.0], [0.0, rho * meas_var / period**2]])
        phi = np.array([[1.0, period], [0.0, 1.0]])
        for a in alphas:
            roots = np.roots([2.0, 0.0, rho * (a * a - 2 * a + 2), rho * a * a * (a - 2)])
            b = float(roots[np.argmin(np.abs(roots.imag))].real)
            k = np.array([[a], [b / period]])
            el = np.eye(2) - k @ np.array([[1.0, 0.0]])
            f = el @ phi
            g = k @ k.T * meas_var + el @ q @ el.T
            m_bar = np.linalg.solve(np.eye(4) - np.kron(f, f), g.ravel()).reshape(2, 2)
            s_dot = phi @ m_bar @ phi.T + q + np.diag([bias_var, 0.0])
            moduli = sorted(np.abs(np.linalg.eigvals(f)))
            rows.append([b, *moduli, s_dot[0, 0], s_dot[1, 0]])
    return np.array(rows)
