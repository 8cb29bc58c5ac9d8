"""Statistics helpers and independent correctness oracles of the benchmark.

Nothing in this module imports radarbias. Each oracle is written from the
paper's equations (the literal measurement matrix, a dense KKT solve, the
gain cubic, the closed-loop eigenvalues) so that a defect in the library
cannot hide inside its own check.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

#: percentiles a timing may be reported at, lowest first
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)
#: a percentile is reported only with at least this many samples beyond it
MIN_SAMPLES_BEYOND = 10
#: significant digits of the numbers the CLI prints
PRINTED_DIGITS = 6


# --------------------------------------------------------------------------
# statistics


def samples_beyond(n: int, p: float) -> int:
    """Samples strictly above the nearest-rank p-th percentile of n samples."""
    rank = math.ceil(round(p * n, 9) / 100.0)
    return n - max(rank, 1)


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ten samples beyond it.

    None when not even the median has ten samples beyond it.
    """
    allowed = [p for p in PERCENTILE_LADDER if samples_beyond(n, p) >= MIN_SAMPLES_BEYOND]
    return allowed[-1] if allowed else None


def percentile(values, p: float) -> float:
    """Nearest-rank p-th percentile (the smallest value with p% at or below)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = math.ceil(round(p * len(ordered), 9) / 100.0)
    return ordered[max(rank, 1) - 1]


def summary(values) -> dict:
    """Median, quartiles and sample count of a list of timings."""
    values = list(values)
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def self_times(spans) -> list[int]:
    """Self time of each span: its duration minus what its children cover.

    ``spans`` holds ``(name, start, end, parent)`` tuples, ``parent`` being
    the index of the enclosing span or -1. Child intervals are clipped to
    the parent and merged before they are subtracted, so overlapping or
    overhanging children are not counted twice.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


# --------------------------------------------------------------------------
# registration oracle


def a_matrix(p_t: float, azimuth: float, elevation: float) -> np.ndarray:
    """(range, azimuth, elevation) increments to the ENU bias vector, written literally."""
    c_psi, s_psi = math.cos(azimuth), math.sin(azimuth)
    c_th, s_th = math.cos(elevation), math.sin(elevation)
    return np.array([
        [c_th * c_psi, -p_t * s_psi, -p_t * s_th * c_psi],
        [c_th * s_psi, p_t * c_psi, -p_t * s_th * s_psi],
        [s_th, 0.0, p_t * c_th],
    ])


def kkt_solve(relative_bias, geom1, geom2, weights1, weights2) -> np.ndarray:
    """Minimizer of sum(w e^2)/2 subject to A2 e2 - A1 e1 = b, by one dense KKT solve.

    ``geom`` is (p_t, azimuth, elevation) and ``weights`` the three squared
    costs of that sensor. The angle increments are scaled to meters (times
    p_t) so the 9x9 system is well conditioned. Returns the six increments
    (dr1, dpsi1, dtheta1, dr2, dpsi2, dtheta2).
    """
    scale = np.array([1.0, geom1[0], geom1[0], 1.0, geom2[0], geom2[0]])
    rows = np.hstack([-a_matrix(*geom1), a_matrix(*geom2)]) / scale
    kkt = np.zeros((9, 9))
    kkt[:6, :6] = np.diag(np.concatenate([weights1, weights2]) / scale**2)
    kkt[:6, 6:] = rows.T
    kkt[6:, :6] = rows
    rhs = np.concatenate([np.zeros(6), np.asarray(relative_bias, dtype=float)])
    return np.linalg.solve(kkt, rhs)[:6] / scale


# --------------------------------------------------------------------------
# gain oracles


def gain_cubic(alpha, beta, rho):
    """2 b^3 + rho ((a^2 - 2a + 2) b + a^2 (a - 2)): zero at the valid velocity gain."""
    return 2 * beta**3 + rho * ((alpha * alpha - 2 * alpha + 2) * beta
                                + alpha * alpha * (alpha - 2))


def printed_half_unit(value):
    """Half a unit in the last printed place of ``value`` at six significant digits."""
    magnitude = np.floor(np.log10(np.abs(value)))
    return 0.5 * 10.0 ** (magnitude - (PRINTED_DIGITS - 1))


def cubic_root_within_print(alpha, beta_printed, rho):
    """True where the cubic's root lies within the printed precision of beta.

    The cubic is strictly increasing in beta for rho > 0, so its root lies
    within half a printed unit of ``beta_printed`` exactly when the cubic
    changes sign across that interval. Works elementwise on arrays.
    """
    half = printed_half_unit(beta_printed)
    return ((gain_cubic(alpha, beta_printed - half, rho) <= 0.0)
            & (gain_cubic(alpha, beta_printed + half, rho) >= 0.0))


def cubic_root(alpha: float, rho: float) -> float:
    """The single real root of the gain cubic, by bisection to full precision."""
    lo, hi = 0.0, 1.0
    while gain_cubic(alpha, hi, rho) < 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if gain_cubic(alpha, mid, rho) < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def closed_loop_moduli(alpha, beta, period: float = 1.0) -> np.ndarray:
    """Eigenvalue moduli of (I - K H) Phi for each gain pair, shape (n, 2)."""
    alpha, beta = np.atleast_1d(alpha), np.atleast_1d(beta)
    f = np.empty((alpha.size, 2, 2))
    f[:, 0, 0] = 1.0 - alpha
    f[:, 0, 1] = (1.0 - alpha) * period
    f[:, 1, 0] = -beta / period
    f[:, 1, 1] = 1.0 - beta
    return np.abs(np.linalg.eigvals(f))
