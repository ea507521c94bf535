"""Periodic pivot excitations.

The suspension point moves along each Cartesian axis as
``epsilon * f(omega * t / epsilon)`` where ``f`` is a 2*pi-periodic,
zero-average function represented by a finite trigonometric series.
Velocities are then O(omega) and independent of epsilon, so the
time-averaged products of pivot velocities (the "moments") depend on the
series coefficients and omega only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

__all__ = [
    "HarmonicSeries",
    "Excitation",
    "MomentMatrix",
    "SymmetryReport",
    "SymmetryViolationError",
    "eval_displacement",
    "eval_velocity",
    "velocity_moments",
    "check_symmetry",
    "excitation_from_dict",
    "excitation_to_dict",
    "load_excitation",
]

DEFAULT_SYMMETRY_TOL = 1e-9


@dataclass(frozen=True)
class HarmonicSeries:
    """Finite trigonometric series sum_k a_k cos(k s) + b_k sin(k s), k >= 1.

    2*pi-periodic with zero average by construction (no constant term).
    The empty series is the zero function.
    """

    cosine_coeffs: tuple[float, ...] = ()
    sine_coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        for name in ("cosine_coeffs", "sine_coeffs"):
            coeffs = tuple(float(x) for x in getattr(self, name))
            if not all(math.isfinite(x) for x in coeffs):
                raise ValueError(f"{name} must be finite, got {coeffs}")
            object.__setattr__(self, name, coeffs)

    def value(self, s: float) -> float:
        out = 0.0
        for k, a in enumerate(self.cosine_coeffs, start=1):
            out += a * math.cos(k * s)
        for k, b in enumerate(self.sine_coeffs, start=1):
            out += b * math.sin(k * s)
        return out

    def derivative(self, s: float) -> float:
        out = 0.0
        for k, a in enumerate(self.cosine_coeffs, start=1):
            out -= k * a * math.sin(k * s)
        for k, b in enumerate(self.sine_coeffs, start=1):
            out += k * b * math.cos(k * s)
        return out


_ZERO_SERIES = HarmonicSeries()


@dataclass(frozen=True)
class Excitation:
    """Fast periodic pivot motion with amplitude scale epsilon and frequency scale omega.

    Axis order is (tau, eta, xi): two horizontal directions, then vertical.
    Displacement along an axis at time t is ``epsilon * f(omega * t / epsilon)``.
    """

    epsilon: float
    omega: float
    tau: HarmonicSeries = _ZERO_SERIES
    eta: HarmonicSeries = _ZERO_SERIES
    xi: HarmonicSeries = _ZERO_SERIES

    def __post_init__(self):
        for name in ("epsilon", "omega"):
            value = getattr(self, name)
            if not (0.0 < value < math.inf):
                raise ValueError(f"{name} must be positive and finite, got {value}")

    @property
    def fast_period(self) -> float:
        """Time for the fast phase omega*t/epsilon to advance by 2*pi."""
        return 2.0 * math.pi * self.epsilon / self.omega

    @property
    def axes(self) -> tuple[HarmonicSeries, HarmonicSeries, HarmonicSeries]:
        return (self.tau, self.eta, self.xi)


def eval_displacement(e: Excitation, t: float) -> tuple[float, float, float]:
    """Pivot displacement (tau, eta, xi) at time t."""
    s = e.omega * t / e.epsilon
    return (e.epsilon * e.tau.value(s), e.epsilon * e.eta.value(s), e.epsilon * e.xi.value(s))


def eval_velocity(e: Excitation, t: float) -> tuple[float, float, float]:
    """Pivot velocity (tau', eta', xi') at time t; epsilon cancels."""
    s = e.omega * t / e.epsilon
    return (
        e.omega * e.tau.derivative(s),
        e.omega * e.eta.derivative(s),
        e.omega * e.xi.derivative(s),
    )


@dataclass(frozen=True)
class MomentMatrix:
    """Time-averaged products of pivot velocities, axis order (tau, eta, xi).

    Symmetric and positive semidefinite: it is the Gram matrix of the three
    velocity signals under the mean-over-one-period inner product.  ``m`` is
    stored as three rows of three floats.
    """

    m: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        rows = tuple(tuple(float(x) for x in row) for row in self.m)
        if len(rows) != 3 or any(len(row) != 3 for row in rows):
            raise ValueError(f"moment matrix must be 3x3, got rows of {[len(r) for r in rows]}")
        if any(rows[i][j] != rows[j][i] for i in range(3) for j in range(3)):
            raise ValueError("moment matrix must be exactly symmetric")
        object.__setattr__(self, "m", rows)

    @property
    def tau_tau(self) -> float:
        return self.m[0][0]

    @property
    def eta_eta(self) -> float:
        return self.m[1][1]

    @property
    def xi_xi(self) -> float:
        return self.m[2][2]

    @property
    def tau_eta(self) -> float:
        return self.m[0][1]

    @property
    def tau_xi(self) -> float:
        return self.m[0][2]

    @property
    def eta_xi(self) -> float:
        return self.m[1][2]

    @classmethod
    def zero(cls) -> "MomentMatrix":
        return cls(((0.0,) * 3,) * 3)


def _series_cross_moment(f: HarmonicSeries, g: HarmonicSeries) -> float:
    # (1/2pi) * integral of f'(s) g'(s) over one period.  Distinct harmonics
    # and the cos/sin families are orthogonal, so only matching terms survive.
    total = 0.0
    for k in range(min(len(f.cosine_coeffs), len(g.cosine_coeffs))):
        total += (k + 1) ** 2 * f.cosine_coeffs[k] * g.cosine_coeffs[k]
    for k in range(min(len(f.sine_coeffs), len(g.sine_coeffs))):
        total += (k + 1) ** 2 * f.sine_coeffs[k] * g.sine_coeffs[k]
    return 0.5 * total


def velocity_moments(e: Excitation) -> MomentMatrix:
    """Closed-form moment matrix: entry (f, g) = mean of f'(t) g'(t) over a period."""
    axes = e.axes
    w2 = e.omega * e.omega
    m = [[0.0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            m[i][j] = m[j][i] = w2 * _series_cross_moment(axes[i], axes[j])
    return MomentMatrix(m)


@dataclass(frozen=True)
class SymmetryReport:
    """Residuals of the conditions making the azimuth a cyclic coordinate.

    The averaged dynamics is rotation-invariant about the vertical iff the two
    horizontal mean squares agree and all cross moments vanish.
    """

    diag_residual: float
    tau_eta: float
    tau_xi: float
    eta_xi: float
    tol: float
    passed: bool

    def residuals(self) -> tuple[float, float, float, float]:
        return (self.diag_residual, self.tau_eta, self.tau_xi, self.eta_xi)


class SymmetryViolationError(ValueError):
    """Excitation fails the rotational-symmetry conditions required here."""

    def __init__(self, report: SymmetryReport):
        super().__init__(
            "excitation violates the symmetry conditions: residuals "
            f"{report.residuals()} exceed tol {report.tol}"
        )
        self.report = report


def check_symmetry(mm: MomentMatrix, tol: float = DEFAULT_SYMMETRY_TOL) -> SymmetryReport:
    """Test the rotational-symmetry conditions on a moment matrix."""
    if tol < 0.0:
        raise ValueError("tol must be nonnegative")
    diag = abs(mm.tau_tau - mm.eta_eta)
    te = abs(mm.tau_eta)
    tx = abs(mm.tau_xi)
    ex = abs(mm.eta_xi)
    passed = diag <= tol and te <= tol and tx <= tol and ex <= tol
    return SymmetryReport(diag, te, tx, ex, tol, passed)


def _series_from_dict(doc: dict | None) -> HarmonicSeries:
    if doc is None:
        return HarmonicSeries()
    if not isinstance(doc, dict):
        raise ValueError("axis entry must be an object with 'cos'/'sin' lists")
    return HarmonicSeries(tuple(doc.get("cos", ())), tuple(doc.get("sin", ())))


def excitation_from_dict(doc: dict) -> Excitation:
    """Build an Excitation from its JSON document form.

    Schema: ``{"epsilon": r, "omega": r, "tau": {"cos": [...], "sin": [...]},
    "eta": {...}, "xi": {...}}``; missing axes default to the zero series.
    """
    if not isinstance(doc, dict):
        raise ValueError("excitation document must be a JSON object")
    try:
        epsilon = float(doc["epsilon"])
        omega = float(doc["omega"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"excitation document needs numeric 'epsilon' and 'omega': {exc}")
    return Excitation(
        epsilon=epsilon,
        omega=omega,
        tau=_series_from_dict(doc.get("tau")),
        eta=_series_from_dict(doc.get("eta")),
        xi=_series_from_dict(doc.get("xi")),
    )


def excitation_to_dict(e: Excitation) -> dict:
    return {
        "epsilon": e.epsilon,
        "omega": e.omega,
        "tau": {"cos": list(e.tau.cosine_coeffs), "sin": list(e.tau.sine_coeffs)},
        "eta": {"cos": list(e.eta.cosine_coeffs), "sin": list(e.eta.sine_coeffs)},
        "xi": {"cos": list(e.xi.cosine_coeffs), "sin": list(e.xi.sine_coeffs)},
    }


def load_excitation(path) -> Excitation:
    """Read an Excitation from a JSON file."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}")
    return excitation_from_dict(doc)
