"""Independent oracles and frozen reference values shared by the tests.

Everything here is deliberately written from first principles (literal
trigonometric expressions, generic iterative minimization, textbook filter
recursions) so it exercises none of the code paths under test. The
registration solve reference reuses the library's A matrix and errors and
keeps only the solve's own arithmetic in its first form.
"""

import json

import numpy as np

from radarbias import sim_harness as sim
from radarbias.errors import SingularSystem
from radarbias.registration import _COND_LIMIT, _constraint_matrix, build_A
from radarbias.steady_state import kbar

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

#: a well-posed ``register`` document: its multiplier system B B' has
#: condition about 479, but its weights span 0.06 to 9e13, so eliminating
#: one sensor through diag(d1) gives a 3x3 system of condition about 1.4e14
WIDE_WEIGHT_SPREAD_CONFIG = {
    "relative_bias": [50.0, 100.0, -15.0],
    "sensor1": {"p_t": 766800.0, "azimuth": -1.256, "elevation": -1.207},
    "sensor2": {"p_t": 216500.0, "azimuth": -2.245, "elevation": 1.387},
    "weights": {"k_r1_sq": 16.84, "k_psi1_sq": 6.056e10, "k_theta1_sq": 8.932e13,
                "k_r2_sq": 0.0647, "k_psi2_sq": 2.806e12, "k_theta2_sq": 3.044e12},
}

#: a ``register`` document whose multiplier system has condition 2.4e13,
#: with its increments and normalized cost from a 50-digit solve of the
#: same first-order conditions
ILL_CONDITIONED_CONFIG = {
    "relative_bias": [-905.0, 527.0, 645.0],
    "sensor1": {"p_t": 272200.0, "azimuth": -1.71, "elevation": 0.8},
    "sensor2": {"p_t": 2403250.0, "azimuth": -2.74, "elevation": 1.2},
    "weights": {"k_r1_sq": 1e11, "k_psi1_sq": 1e4, "k_theta1_sq": 1e-6,
                "k_r2_sq": 10.0, "k_psi2_sq": 1e11, "k_theta2_sq": 1e7},
}
ILL_CONDITIONED_INCREMENTS = (
    -5.9511802264804647e-13, -0.0037511222449541331, -0.008163314225686526,
    0.004748174302812827, 8.559537704907234e-7, -0.0010370772043850909,
)
ILL_CONDITIONED_COST = 66.639701403219129

#: a ``register`` document with condition 3.4e13 on which two refinement
#: passes of the solve stop about 4e-12 (relative to the largest increment)
#: from its 50-digit solution below, and three passes within 1e-15
THREE_PASS_CONFIG = {
    "relative_bias": [824.0, -143.0, -168.0],
    "sensor1": {"p_t": 8380000.0, "azimuth": -2.3, "elevation": -1.28},
    "sensor2": {"p_t": 153000.0, "azimuth": -1.88, "elevation": 0.34},
    "weights": {"k_r1_sq": 1e12, "k_psi1_sq": 1e12, "k_theta1_sq": 0.1,
                "k_r2_sq": 1e4, "k_psi2_sq": 1e11, "k_theta2_sq": 1e-5},
}
THREE_PASS_INCREMENTS = (
    1.3744398060846500437e-12, -8.3894053285849698899e-5, 5.6308332590087282693e-5,
    3.9483841032317184668e-4, 1.4231791940808252981e-5, -2.2676971447601437943e-4,
)
THREE_PASS_COST = 0.0051424820622262359333

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


def enu_position_through_rotation(p_enu1, site1, site2, earth):
    """ENU(1) -> ENU(2) position as first written, in np.longdouble.

    Three products: site 2's rotation applied to the origin difference,
    and the composed rotation R2 R1' applied to the point. Each site frame
    is built from its own literal trigonometry.
    """
    def frame(site):
        lon, lat = np.longdouble(site.longitude), np.longdouble(site.latitude)
        radius, ecc = np.longdouble(earth.equatorial_radius_m), np.longdouble(earth.eccentricity)
        rot = np.array([
            [-np.sin(lon), np.cos(lon), 0.0],
            [-np.sin(lat) * np.cos(lon), -np.sin(lat) * np.sin(lon), np.cos(lat)],
            [np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)],
        ], dtype=np.longdouble)
        e2 = ecc * ecc
        scale = radius / np.sqrt(1 - e2 * np.sin(lat) ** 2)
        origin = scale * np.array([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon),
                                   (1 - e2) * np.sin(lat)], dtype=np.longdouble)
        return rot, origin

    r1, o1 = frame(site1)
    r2, o2 = frame(site2)
    return -(r2 @ (o2 - o1)) + (r2 @ r1.T) @ np.asarray(p_enu1, dtype=np.longdouble)


def registration_solve_reference(problem):
    """The two-radar registration solve as first written.

    Returns (e, multipliers, cost, objective): the six increments, the
    three multipliers and the normalized and quadratic costs. C is the
    hstack of build_A's two matrices, every refinement pass steps through
    the SVD factors as u @ ((u.T @ r) / s**2), and the costs are taken from
    each sensor's three weights. Raises SingularGeometry and SingularSystem
    on the same conditions as the library solve.
    """
    c = np.hstack([-build_A(problem.geom1, "sensor 1"), build_A(problem.geom2, "sensor 2")])
    w1, w2 = problem.weights.sensor1(), problem.weights.sensor2()
    d = np.concatenate([w1, w2])
    b = problem.relative_bias
    with np.errstate(all="ignore"):
        bmat = c / np.sqrt(d)
        if not np.all(np.isfinite(bmat)):
            raise SingularSystem("weighted constraint matrix overflows")
        u, s, _ = np.linalg.svd(bmat, full_matrices=False)
        cond = (s[0] / s[-1]) ** 2
        if not cond <= _COND_LIMIT:
            raise SingularSystem(f"multiplier system is not invertible (condition {cond:.3g})")
        multipliers, e, resid = np.zeros(3), np.zeros(6), -b
        for _ in range(3):
            step = u @ ((u.T @ resid) / s**2)
            multipliers, e = multipliers - step, e - (c.T @ step) / d
            resid = c @ e - b
        cost = float(e[:3] ** 2 @ (1.0 / w1) + e[3:] ** 2 @ (1.0 / w2))
        objective = 0.5 * float(w1 @ e[:3] ** 2 + w2 @ e[3:] ** 2)
        grad = d * e
        kkt, scale = np.hypot.reduce(grad - c.T @ multipliers), np.hypot.reduce(grad)
        checks = [*e, *multipliers, cost, objective, np.linalg.norm(resid),
                  kkt / scale if scale else kkt]
    if not np.all(np.isfinite(checks)):
        raise SingularSystem("solution overflows")
    return e, multipliers, cost, objective


def constraint_residual(bias1, bias2, problem):
    """Constraint value A2 e2 - A1 e1 - relative_bias (zero when feasible)."""
    e = np.concatenate([bias1.as_array(), bias2.as_array()])
    return _constraint_matrix(problem).dot(e) - problem.relative_bias


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


def registration_objective(e1, e2, weights):
    """The minimized objective sum k^2 d^2 / 2 at both sensors' increments."""
    return quadratic_cost([*weights.sensor1(), *weights.sensor2()], [*e1, *e2])


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


def monte_carlo_reference(scenario):
    """``run_monte_carlo``'s empirical S from a serial loop that draws each step in turn.

    No pool and no ring: each step's process and measurement draws are
    made where the loop uses them, and the sums are formed as the library
    forms them, so the two agree bit for bit.
    """
    cfg, seed, n_runs = scenario.config, scenario.master_seed, scenario.n_runs
    burn_in = scenario.effective_burn_in
    bias = sim.stream_draws(seed, sim.BIAS, 0, n_runs, np.sqrt(cfg.bias_var))
    gain_pos, gain_vel = kbar(scenario.gains, cfg.period)
    err = np.zeros((2, n_runs))
    acc = np.zeros((2, 2))
    for k in range(scenario.n_steps):
        err[0] += cfg.period * err[1]
        err[1] += sim.stream_draws(seed, sim.PROCESS, k, n_runs, np.sqrt(cfg.process_var))
        if k >= burn_in:
            acc += np.einsum("ir,jr->ij", err, err)
        innovation = (err[0] + sim.stream_draws(seed, sim.MEASUREMENT, k, n_runs,
                                                np.sqrt(cfg.meas_var)) + bias)
        err[0] -= gain_pos * innovation
        err[1] -= gain_vel * innovation
    return acc / (n_runs * (scenario.n_steps - burn_in))


def augmented_filter_step(model, x, p_aug, z, gain=None):
    """One predict-update as the covariance of the augmented error: returns (x, P, K).

    P is the covariance of [e; lambda - mean], e the posterior estimation
    error. The bias function sees the true state x(k), linearized at the
    predicted estimate and the mean bias, so with L_e = I - K He the next
    error is L_e (Phi e + m) - K n - K W J_b (lambda - mean), and
    P <- F P F' + G blockdiag(Q, N) G' with F = [[L_e Phi, -K W J_b], [0, I]]
    and G = [[L_e, -K], [0, 0]]. Without a gain, K is the augmented Kalman
    gain restricted to the state rows, [P- Ha']_e (Ha P- Ha' + N)^-1 with
    Ha = [He, W J_b]: the textbook minimizer of the posterior trace of P_ee.
    It shares no recursion with the library's split into M and D.
    """
    phi, h, w = model.transition, model.output, model.bias_matrix
    n, (q, p) = len(x), (len(model.meas_noise), len(model.bias_cov))
    x = phi @ x
    w_jb = w @ np.atleast_2d(model.bias_jac_bias(x, model.bias_mean))
    h_eff = h + w @ np.atleast_2d(model.bias_jac_state(x, model.bias_mean))
    if gain is None:
        a = np.block([[phi, np.zeros((n, p))], [np.zeros((p, n)), np.eye(p)]])
        p_pred = a @ p_aug @ a.T
        p_pred[:n, :n] += model.process_noise
        h_aug = np.hstack([h_eff, w_jb])
        gain = np.linalg.solve(h_aug @ p_pred @ h_aug.T + model.meas_noise,
                               (p_pred @ h_aug.T)[:n].T).T
    l_eff = np.eye(n) - gain @ h_eff
    f = np.block([[l_eff @ phi, -gain @ w_jb], [np.zeros((p, n)), np.eye(p)]])
    g = np.block([[l_eff, -gain], [np.zeros((p, n + q))]])
    noise = np.block([[model.process_noise, np.zeros((n, q))],
                      [np.zeros((q, n)), model.meas_noise]])
    x_new = x + gain @ (z - h @ x - w @ np.atleast_1d(model.bias_fn(x, model.bias_mean)))
    return x_new, f @ p_aug @ f.T + g @ noise @ g.T, gain


def augmented_run(model, x0, cov0, zs, gain=None):
    """States (x, M, D, S, K) of ``augmented_filter_step`` from a posterior start with D = 0.

    S = P_ee, D = P_e,lambda Lambda^-1 and M = S - D Lambda D'.
    """
    lam = model.bias_cov
    n, p = len(x0), len(lam)
    x = np.asarray(x0, dtype=float)
    p_aug = np.block([[cov0, np.zeros((n, p))], [np.zeros((p, n)), lam]])
    states = []
    for z in zs:
        x, p_aug, k = augmented_filter_step(model, x, p_aug, z, gain)
        s, d = p_aug[:n, :n], np.linalg.solve(lam, p_aug[:n, n:].T).T
        states.append((x, s - d @ lam @ d.T, d, s, k))
    return states


# closed forms of the steady error recursion that only the tests use
def lbar(gains, period):
    """I - K H for the steady-state gain (alpha, beta/T)."""
    return np.array([[1.0 - gains.alpha, 0.0], [-gains.beta / period, 1.0]])


def cbar(gains, period):
    """Bias coupling -K of the steady error recursion."""
    return -np.array([gains.alpha, gains.beta / period])


def dbar():
    """Steady posterior bias sensitivity: (-1, 0) for any valid gains."""
    return np.array([-1.0, 0.0])


def ddot(gains, period):
    """Steady predicted bias sensitivity F dbar = (alpha - 1, beta/T)."""
    return np.array([gains.alpha - 1.0, gains.beta / period])


def gain_polynomial(alpha, beta, rho):
    """Quartic in beta linking the two gains through the noise ratio.

    2 b^4 + (4a - 8) b^3
      + rho ((a^2 - 2a + 2) b^2 + (3a^3 - 10a^2 + 12a - 8) b
             + (2a^4 - 8a^3 + 8a^2))

    Zero along the consistent (alpha, beta) curve; factors into
    (b + 2a - 4) times the cubic of ``cubic_factor``.
    """
    a, b = alpha, beta
    return (2 * b**4 + (4 * a - 8) * b**3
            + rho * ((a * a - 2 * a + 2) * b * b
                     + (3 * a**3 - 10 * a**2 + 12 * a - 8) * b
                     + (2 * a**4 - 8 * a**3 + 8 * a**2)))


def cubic_factor(alpha, beta, rho):
    """The rho-dependent cubic factor of the gain quartic."""
    a, b = alpha, beta
    return 2 * b**3 + rho * ((a * a - 2 * a + 2) * b + a * a * (a - 2))


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


def gains_json_reference(table, columns):
    """``radarbias gains --format json`` text through the standard encoder.

    Each value is rounded to six significant digits and the row objects
    are printed by ``json.dumps(..., indent=2, allow_nan=False)``.
    """
    rounded = [{c: float(f"{v:.6g}") for c, v in zip(columns, row)} for row in table.tolist()]
    return json.dumps(rounded, indent=2, allow_nan=False) + "\n"
