"""Periodic pivot excitations.

The suspension point moves along each Cartesian axis as
``epsilon * f(omega * t / epsilon)`` where ``f`` is a 2*pi-periodic,
zero-average function represented by a finite trigonometric series.
Velocities are then O(omega) and independent of epsilon, so the
time-averaged products of pivot velocities (the "moments") depend on the
series coefficients and omega only.

The records (HarmonicSeries, Excitation, MomentMatrix, SymmetryReport) are
slotted immutable classes that compare and hash by value.
"""

from __future__ import annotations

import json
import math

from ._frozen import Frozen

__all__ = [
    "HarmonicSeries",
    "Excitation",
    "MomentMatrix",
    "SymmetryReport",
    "SymmetryViolationError",
    "eval_velocity",
    "velocity_moments",
    "check_symmetry",
    "excitation_from_dict",
    "load_excitation",
]

DEFAULT_SYMMETRY_TOL = 1e-9


class HarmonicSeries(Frozen):
    """Finite trigonometric series sum_k a_k cos(k s) + b_k sin(k s), k >= 1.

    2*pi-periodic with zero average by construction (no constant term).
    The empty series is the zero function.  The coefficients are stored as
    tuples of floats.
    """

    __slots__ = ("cosine_coeffs", "sine_coeffs")

    def __init__(self, cosine_coeffs: tuple[float, ...] = (), sine_coeffs: tuple[float, ...] = ()):
        values = []
        for name, given in (("cosine_coeffs", cosine_coeffs), ("sine_coeffs", sine_coeffs)):
            coeffs = tuple(float(x) for x in given)
            if not all(math.isfinite(x) for x in coeffs):
                raise ValueError(f"{name} must be finite, got {coeffs}")
            values.append(coeffs)
        self._freeze(*values)


_ZERO_SERIES = HarmonicSeries()


class Excitation(Frozen):
    """Fast periodic pivot motion with amplitude scale epsilon and frequency scale omega.

    Axis order is (tau, eta, xi): two horizontal directions, then vertical.
    Displacement along an axis at time t is ``epsilon * f(omega * t / epsilon)``.
    """

    __slots__ = ("epsilon", "omega", "tau", "eta", "xi")

    def __init__(
        self,
        epsilon: float,
        omega: float,
        tau: HarmonicSeries = _ZERO_SERIES,
        eta: HarmonicSeries = _ZERO_SERIES,
        xi: HarmonicSeries = _ZERO_SERIES,
    ):
        for name, value in (("epsilon", epsilon), ("omega", omega)):
            if not (0.0 < value < math.inf):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        self._freeze(epsilon, omega, tau, eta, xi)

    @property
    def fast_period(self) -> float:
        """Time for the fast phase omega*t/epsilon to advance by 2*pi."""
        return 2.0 * math.pi * self.epsilon / self.omega

    @property
    def axes(self) -> tuple[HarmonicSeries, HarmonicSeries, HarmonicSeries]:
        return (self.tau, self.eta, self.xi)


def eval_velocity(e: Excitation, t: float) -> tuple[float, float, float]:
    """Pivot velocity (tau', eta', xi') at time t; epsilon cancels.

    Each axis is ``omega`` times the term-by-term derivative at the phase
    ``s = omega * t / epsilon``, summed from ``0.0``: ``out -= k*a*sin(k*s)``
    for each cosine coefficient ``a``, then ``out += k*b*cos(k*s)`` for each
    sine coefficient ``b``.  A ``±0.0`` coefficient is skipped: at a finite
    phase its term changes no bit of a sum from ``0.0``.
    """
    s = e.omega * t / e.epsilon
    out = []
    for series in e.axes:
        v = 0.0
        for k, a in enumerate(series.cosine_coeffs, start=1):
            if a != 0.0:
                v -= k * a * math.sin(k * s)
        for k, b in enumerate(series.sine_coeffs, start=1):
            if b != 0.0:
                v += k * b * math.cos(k * s)
        out.append(e.omega * v)
    return tuple(out)


class MomentMatrix(Frozen):
    """Time-averaged products of pivot velocities, axis order (tau, eta, xi).

    Symmetric and positive semidefinite: it is the Gram matrix of the three
    velocity signals under the mean-over-one-period inner product.  ``m`` is
    stored as three rows of three floats.
    """

    __slots__ = ("m",)

    def __init__(self, m: tuple[tuple[float, float, float], ...]):
        rows = tuple(tuple(float(x) for x in row) for row in m)
        if len(rows) != 3 or any(len(row) != 3 for row in rows):
            raise ValueError(f"moment matrix must be 3x3, got rows of {[len(r) for r in rows]}")
        if any(rows[i][j] != rows[j][i] for i in range(3) for j in range(3)):
            raise ValueError("moment matrix must be exactly symmetric")
        self._freeze(rows)

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
    # omega^2 or a coefficient product past the float range is inf, and
    # inf * 0 or inf - inf puts NaN beside it: name an infinite moment first
    names = ("tau", "eta", "xi")
    bad = [(f"{names[i]}_{names[j]}", m[i][j])
           for i in range(3) for j in range(i, 3) if not math.isfinite(m[i][j])]
    if bad:
        name, value = min(bad, key=lambda item: math.isnan(item[1]))
        raise ValueError(f"velocity moments overflow the float range: {name} = {value!r}")
    return MomentMatrix(m)


class SymmetryReport(Frozen):
    """Residuals of the conditions making the azimuth a cyclic coordinate.

    The averaged dynamics is rotation-invariant about the vertical iff the two
    horizontal mean squares agree and all cross moments vanish.
    """

    __slots__ = ("diag_residual", "tau_eta", "tau_xi", "eta_xi", "tol", "passed")

    def __init__(
        self, diag_residual: float, tau_eta: float, tau_xi: float, eta_xi: float, tol: float,
        passed: bool,
    ):
        self._freeze(diag_residual, tau_eta, tau_xi, eta_xi, tol, passed)

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
    if not tol >= 0.0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    diag = abs(mm.tau_tau - mm.eta_eta)
    te = abs(mm.tau_eta)
    tx = abs(mm.tau_xi)
    ex = abs(mm.eta_xi)
    passed = diag <= tol and te <= tol and tx <= tol and ex <= tol
    return SymmetryReport(diag, te, tx, ex, tol, passed)


def _check_keys(doc: dict, allowed: tuple[str, ...], where: str) -> None:
    # a misspelt key would otherwise read as a missing one, that is as zero
    for key in doc:
        if key not in allowed:
            raise ValueError(f"{where}: unknown key {key!r}, expected one of {', '.join(allowed)}")


def _number(value, what: str) -> float:
    # json gives a number as int or float; bool is an int to Python alone
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a JSON number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise ValueError(f"{what} is too large for a float")
    # json reads Infinity and NaN as floats
    if not math.isfinite(x):
        raise ValueError(f"{what} must be finite, got {x!r}")
    return x


def _series_from_dict(doc: dict | None, axis: str) -> HarmonicSeries:
    if doc is None:
        return HarmonicSeries()
    if not isinstance(doc, dict):
        raise ValueError("axis entry must be an object with 'cos'/'sin' lists")
    _check_keys(doc, ("cos", "sin"), f"axis {axis!r}")
    coeffs = []
    for key in ("cos", "sin"):
        values = doc.get(key, [])
        if not isinstance(values, list):
            raise ValueError(f"{axis}.{key} must be a JSON array of numbers, got {values!r}")
        coeffs.append(tuple(_number(x, f"{axis}.{key}[{k}]") for k, x in enumerate(values)))
    return HarmonicSeries(*coeffs)


def excitation_from_dict(doc: dict) -> Excitation:
    """Build an Excitation from its JSON document form.

    Schema: ``{"epsilon": r, "omega": r, "tau": {"cos": [...], "sin": [...]},
    "eta": {...}, "xi": {...}}``; missing axes default to the zero series.
    Any other key is refused, and so is a value of ``epsilon``, ``omega`` or
    a coefficient that is not a finite JSON number (a string, ``true`` or
    ``Infinity`` included).
    """
    if not isinstance(doc, dict):
        raise ValueError("excitation document must be a JSON object")
    _check_keys(doc, ("epsilon", "omega", "tau", "eta", "xi"), "excitation document")
    try:
        epsilon, omega = doc["epsilon"], doc["omega"]
    except KeyError as exc:
        raise ValueError(f"excitation document needs numeric 'epsilon' and 'omega': {exc}")
    return Excitation(
        epsilon=_number(epsilon, "epsilon"),
        omega=_number(omega, "omega"),
        tau=_series_from_dict(doc.get("tau"), "tau"),
        eta=_series_from_dict(doc.get("eta"), "eta"),
        xi=_series_from_dict(doc.get("xi"), "xi"),
    )


def load_excitation(path) -> Excitation:
    """Read an Excitation from a JSON file; a document nested deeper than
    the JSON decoder can recurse raises ValueError."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}")
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read")
    return excitation_from_dict(doc)
