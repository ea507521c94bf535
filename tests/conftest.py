"""Shared independent oracles for the test suite.

These deliberately re-derive results with the dumbest method available
(finite differences, dense sign scans, plain bisection) so they stay
independent of the library code paths they audit.
"""

import math

import numpy as np

QUADRATURE_INTERVALS = 4096


def central_diff(f, x: float, h: float = 1e-6) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def close_rel(a: float, b: float, rtol: float = 1e-6, floor: float = 1.0) -> bool:
    """|a - b| <= rtol * max(floor, |a|, |b|)."""
    return abs(a - b) <= rtol * max(floor, abs(a), abs(b))


def brute_force_sign_changes(f, lo: float, hi: float, n: int) -> int:
    """Transversal zero crossings of f on a dense uniform grid."""
    xs = np.linspace(lo, hi, n + 1)
    vs = np.array([f(float(x)) for x in xs])
    signs = np.sign(vs)
    return int(np.sum(signs[:-1] * signs[1:] < 0))


def brute_force_roots(f, lo: float, hi: float, n: int, width: float = 1e-13) -> list:
    """Roots of f by dense scan plus plain bisection."""
    xs = np.linspace(lo, hi, n + 1)
    vs = np.array([f(float(x)) for x in xs])
    roots = []
    for i in range(n):
        a, b = float(xs[i]), float(xs[i + 1])
        fa, fb = float(vs[i]), float(vs[i + 1])
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb >= 0.0:
            continue
        while b - a > width:
            mid = 0.5 * (a + b)
            fm = f(mid)
            if fm == 0.0:
                a = b = mid
                break
            if fa * fm < 0.0:
                b, fb = mid, fm
            else:
                a, fa = mid, fm
        roots.append(0.5 * (a + b))
    return roots


def sin3_dv(phi, a: float, b: float):
    """sin^3(phi) dV/dphi = sin^4 phi (a cos phi + 1) - b cos phi, finite at the poles."""
    s = np.sin(phi)
    c = np.cos(phi)
    return s ** 4 * (a * c + 1.0) - b * c


def pole_aware_roots(a: float, b: float, focus=(), n: int = 20000) -> np.ndarray:
    """Transversal roots of sin^3(phi) dV in (0, pi), sorted.

    A dense uniform scan, refined geometrically towards both poles and
    around each angle in ``focus`` (down to 1e-15 away), then plain
    vectorised bisection of every bracketed sign change.
    """
    tiny = np.geomspace(1e-15, 0.1, 600)
    parts = [np.linspace(0.0, np.pi, n + 1), tiny, np.pi - tiny]
    for phi in focus:
        parts += [phi - tiny, [phi], phi + tiny]
    xs = np.unique(np.concatenate(parts))
    xs = xs[(xs > 0.0) & (xs < np.pi)]
    vs = sin3_dv(xs, a, b)
    idx = np.nonzero(np.sign(vs[:-1]) * np.sign(vs[1:]) < 0.0)[0]
    lo, hi, f_lo = xs[idx], xs[idx + 1], vs[idx]
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        f_mid = sin3_dv(mid, a, b)
        same = np.sign(f_mid) == np.sign(f_lo)
        lo, f_lo = np.where(same, mid, lo), np.where(same, f_mid, f_lo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def series_derivative_samples(series, s: np.ndarray) -> np.ndarray:
    """The derivative of a HarmonicSeries at an array of phases, term by term."""
    out = np.zeros_like(s, dtype=float)
    for k, a in enumerate(series.cosine_coeffs, start=1):
        out -= k * a * np.sin(k * s)
    for k, b in enumerate(series.sine_coeffs, start=1):
        out += k * b * np.cos(k * s)
    return out


def velocity_moments_quadrature(e, n: int = QUADRATURE_INTERVALS) -> np.ndarray:
    """The 3x3 velocity moment matrix of an Excitation by composite Simpson.

    Integrates the velocity products over one period of the fast phase with
    ``n`` uniform intervals (n even), independent of the closed form.
    """
    assert n % 2 == 0 and n >= 2
    s = np.linspace(0.0, 2.0 * math.pi, n + 1)
    h = 2.0 * math.pi / n
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= h / 3.0
    d = [series_derivative_samples(ax, s) for ax in (e.tau, e.eta, e.xi)]
    m = np.array([[np.sum(w * di * dj) for dj in d] for di in d])
    return e.omega * e.omega * m / (2.0 * math.pi)


def fold_b(a: float) -> float:
    """B on the critical curve at A - C = a > 1, by bisection of the fold cubic.

    4 a c^3 + 3 c^2 + 1 rises from 4 - 4a < 0 at c = -1 to a positive value
    at c = -1/(2a); its root c* there gives B* = -(1 - c*^2)^3 / (4 c*^3).
    """
    lo, hi = -1.0, -0.5 / a
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if 4.0 * a * mid ** 3 + 3.0 * mid * mid + 1.0 < 0.0:
            lo = mid
        else:
            hi = mid
    return -((1.0 - mid * mid) ** 3) / (4.0 * mid ** 3)
