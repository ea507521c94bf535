"""Independent answers for the benchmark's output checks.

Nothing here imports ``pendulum_vib``: the checks must not share code with
what they audit.  With a = A - C and c = cos(phi), the interior equilibria
of V(phi) = B / (2 sin^2 phi) + a sin^2 phi / 2 - cos phi are the roots
c in (-1, 1) of the quintic

    (1 - c^2)^2 (a c + 1) - B c = 0            (sin^3 phi * dV = 0)

For a <= 1 there is exactly one.  For a > 1 the critical curve gamma is met
where the quintic has a double root, i.e. at the c in (-1, 0) solving
4 a c^3 + 3 c^2 + 1 = 0, which gives B* = -(1 - c^2)^3 / (4 c^3).  Below B*
there are three equilibria (domain II), above it one (domain I).
"""

from __future__ import annotations

import math

import numpy as np

# Points whose B lies within this relative distance of gamma may carry
# either neighbouring label, or "boundary".
NEAR_GAMMA_REL = 1e-9
# |dV| at a reported equilibrium, relative to the size of the terms of dV.
DV_REL_TOL = 1e-6


def gamma_b(a: float) -> float | None:
    """B on the critical curve at A - C = a, or None when a <= 1 (no fold)."""
    if a <= 1.0:
        return None
    lo, hi = -1.0, -0.5 / a  # 4ac^3 + 3c^2 + 1 rises from < 0 to > 0 here
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if 4.0 * a * mid ** 3 + 3.0 * mid * mid + 1.0 < 0.0:
            lo = mid
        else:
            hi = mid
    c = 0.5 * (lo + hi)
    return -((1.0 - c * c) ** 3) / (4.0 * c ** 3)


def gamma_distance(a: float, b: float) -> float:
    """Relative distance |B - B*| / B* to gamma along B; inf when a <= 1."""
    bs = gamma_b(a)
    return math.inf if bs is None else abs(b - bs) / bs


def label(a: float, b: float) -> tuple[str, int]:
    """Closed-form domain label and equilibrium count for B > 0."""
    if not (b > 0.0):
        raise ValueError("the domain is defined for B > 0")
    bs = gamma_b(a)
    if bs is None or b > bs:
        return "I", 1
    if b < bs:
        return "II", 3
    return "boundary", 2


def dv(phi, a: float, b: float):
    """dV/dphi, written out again from the potential."""
    s = np.sin(phi)
    c = np.cos(phi)
    return -b * c / s ** 3 + a * s * c + s


def dv_scale(phi, a: float, b: float):
    """Size of the largest term of dV, for relative residuals."""
    s = np.abs(np.sin(phi))
    c = np.abs(np.cos(phi))
    return np.maximum(np.maximum(b * c / s ** 3, abs(a) * s * c), s)


def v(phi, a: float, b: float):
    s = np.sin(phi)
    return b / (2.0 * s * s) + 0.5 * a * s * s - np.cos(phi)


def _sin3_dv(phi, a: float, b: float):
    # sin^3(phi) dV = sin^4 (a cos + 1) - B cos: finite at the poles, where it
    # is -B at phi = 0 and +B at phi = pi.
    s = np.sin(phi)
    c = np.cos(phi)
    return s ** 4 * (a * c + 1.0) - b * c


def _scan_grid(n: int = 20000) -> np.ndarray:
    # Uniform in the middle, geometric towards both poles so that roots within
    # 1e-300 of a pole are still bracketed.
    tiny = np.geomspace(1e-300, 0.1, 600) * math.pi
    grid = np.unique(np.concatenate([np.linspace(0.0, math.pi, n + 1), tiny, math.pi - tiny]))
    return grid[(grid > 0.0) & (grid < math.pi)]


def equilibria(a: float, b: float) -> np.ndarray:
    """Transversal equilibria in (0, pi) by a dense sign scan and bisection."""
    x = _scan_grid()
    f = _sin3_dv(x, a, b)
    idx = np.nonzero(np.sign(f[:-1]) * np.sign(f[1:]) < 0)[0]
    left, right, f_left = x[idx], x[idx + 1], f[idx]
    for _ in range(80):
        mid = 0.5 * (left + right)
        f_mid = _sin3_dv(mid, a, b)
        same = np.sign(f_mid) == np.sign(f_left)
        left = np.where(same, mid, left)
        f_left = np.where(same, f_mid, f_left)
        right = np.where(same, right, mid)
    return 0.5 * (left + right)
