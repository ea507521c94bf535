"""Effective potential of the symmetry-reduced averaged system.

With dimensionless parameters A (vertical vibration intensity), B (squared
azimuthal momentum) and C (horizontal vibration intensity), the polar angle
moves in the potential

    V(phi) = B / (2 sin^2 phi) + (1/2) (A - C) sin^2 phi - cos phi

Everything here is about V: its derivatives, its equilibria, the critical
curve gamma in the (A - C, B) plane where an equilibrium degenerates, and the
one- vs three-equilibrium domain classification, all in closed form.  With
a = A - C and c = cos phi, sin^3(phi) dV = (1 - c^2)^2 (a c + 1) - B c.  For
B > 0 this quintic has one root with c > 0, a minimum.  On c < 0 it vanishes
where B = (1 - c^2)^2 (a c + 1) / c, which for a > 1 rises from 0 at c = -1
to its maximum B* at the root c* of the fold cubic 4 a c^3 + 3 c^2 + 1 = 0
and falls back to 0 at c = -1/a.  So for B < B* (domain II) there is also a
maximum in (c*, -1/a) and a minimum in (-1, c*); for B > B* or a <= 1
(domain I) nothing more; on gamma, B = B*, one degenerate equilibrium at c*.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal

if TYPE_CHECKING:
    from .excitation import MomentMatrix

__all__ = [
    "PhysicalParams",
    "AveragedParams",
    "averaged_params",
    "Equilibrium",
    "GammaPoint",
    "DomainLabel",
    "SingularConfigurationError",
    "InconsistentCountError",
    "v_bar",
    "dv",
    "d2v",
    "find_equilibria",
    "gamma_point",
    "gamma_curve",
    "classify_domain",
    "gamma_curve_to_csv",
    "equilibrium_report",
]

DEDUP_TOL = 1e-9
# Relative distance |B - B*| / B* to gamma within which a point is "boundary".
BOUNDARY_REL = 1e-12

DomainLabel = Literal["I", "II", "boundary"]
EquilibriumKind = Literal["stable", "unstable", "degenerate"]


class SingularConfigurationError(ValueError):
    """Evaluation on the vertical axis where the azimuthal barrier diverges."""


class InconsistentCountError(RuntimeError):
    """The equilibria found disagree with what the theory says they must be."""


@dataclass(frozen=True)
class AveragedParams:
    """Dimensionless parameters (A, B, C) of the reduced averaged system.

    A and C are means of squared velocities, B a squared momentum, so all
    three are finite and nonnegative; the reduced dynamics depends on A and C
    only through the difference A - C.
    """

    A: float
    B: float
    C: float = 0.0

    def __post_init__(self):
        for name in ("A", "B", "C"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")

    @property
    def a_minus_c(self) -> float:
        return self.A - self.C

    @classmethod
    def from_a_minus_c(cls, a_minus_c: float, b: float) -> "AveragedParams":
        """Parameters with the given difference, using the smaller of A, C as zero."""
        if a_minus_c >= 0.0:
            return cls(A=a_minus_c, B=b, C=0.0)
        return cls(A=0.0, B=b, C=-a_minus_c)


@dataclass(frozen=True)
class PhysicalParams:
    """Bob mass, rod length, gravity; all strictly positive and finite."""

    m: float = 1.0
    l: float = 1.0
    g: float = 1.0

    def __post_init__(self):
        for name in ("m", "l", "g"):
            value = getattr(self, name)
            if not (0.0 < value < math.inf):
                raise ValueError(f"{name} must be positive and finite, got {value}")


def averaged_params(mm: MomentMatrix, p_alpha: float, p: PhysicalParams) -> AveragedParams:
    """Nondimensionalise the moments and azimuthal momentum to (A, B, C).

    A = <xi'^2> / (g l), C = <eta'^2> / (g l), B = p_alpha^2 / (m^2 l^3 g);
    the matching time unit is sqrt(l / g).
    """
    gl = p.g * p.l
    return AveragedParams(
        A=mm.xi_xi / gl,
        B=p_alpha * p_alpha / (p.m * p.m * p.l ** 3 * p.g),
        C=mm.eta_eta / gl,
    )


def _check_regular(s: float, b: float) -> None:
    # sin^4 is the highest power the derivatives divide by.
    if s * s * s * s == 0.0 and b != 0.0:
        raise SingularConfigurationError("sin(phi) = 0 with a nonzero azimuthal barrier")


def v_bar(phi: float, ap: AveragedParams) -> float:
    """Effective potential V(phi)."""
    s = math.sin(phi)
    _check_regular(s, ap.B)
    barrier = ap.B / (2.0 * s * s) if ap.B != 0.0 else 0.0
    return barrier + 0.5 * ap.a_minus_c * s * s - math.cos(phi)


def dv(phi: float, ap: AveragedParams) -> float:
    """First derivative dV/dphi."""
    s = math.sin(phi)
    c = math.cos(phi)
    _check_regular(s, ap.B)
    barrier = -ap.B * c / (s * s * s) if ap.B != 0.0 else 0.0
    return barrier + ap.a_minus_c * s * c + s


def d2v(phi: float, ap: AveragedParams) -> float:
    """Second derivative d2V/dphi2."""
    s = math.sin(phi)
    c = math.cos(phi)
    _check_regular(s, ap.B)
    if ap.B != 0.0:
        s2 = s * s
        barrier = 3.0 * ap.B * c * c / (s2 * s2) + ap.B / s2
    else:
        barrier = 0.0
    return barrier + ap.a_minus_c * (c * c - s * s) + c


@dataclass(frozen=True)
class Equilibrium:
    """Critical point of V with its stability classification."""

    phi: float
    kind: EquilibriumKind
    v_value: float
    second_derivative: float


def _classify(phi: float, ap: AveragedParams, second: float) -> Equilibrium:
    # d2V grows with the parameters; scale the degeneracy tolerance accordingly.
    if abs(second) <= 1e-8 * max(1.0, abs(ap.a_minus_c), ap.B):
        kind: EquilibriumKind = "degenerate"
    elif second > 0.0:
        kind = "stable"
    else:
        kind = "unstable"
    return Equilibrium(phi=phi, kind=kind, v_value=v_bar(phi, ap), second_derivative=second)


def _dedup(values: list[float], tol: float = DEDUP_TOL) -> list[float]:
    out: list[float] = []
    for x in sorted(values):
        if not out or x - out[-1] > tol:
            out.append(x)
    return out


def _fold(a: float) -> tuple[float, float]:
    """(w*, B*) where gamma crosses A - C = a > 1, with w* = 1 - |c*|.

    In x = -1/c the fold cubic reads x^3 + 3 x = 4 a, so x = 2 sinh(asinh(2 a) / 3).
    One Newton step in r = x - 1 on r^3 + 3 r^2 + 6 r = 4 (a - 1) keeps r accurate
    for a close to 1.  Then w* = r / (1 + r) and B* = (r (r + 2) / (r + 1))^3 / 4.
    """
    r = 2.0 * math.sinh(math.asinh(2.0 * a) / 3.0) - 1.0
    r -= (r * (r * (r + 3.0) + 6.0) - 4.0 * (a - 1.0)) / (3.0 * (r * (r + 2.0) + 2.0))
    b_star = (r * (r + 2.0) / (r + 1.0)) ** 3 / 4.0
    if not (math.isfinite(b_star) and b_star > 0.0):
        raise ValueError(f"A - C = {a} is out of range")
    return r / (1.0 + r), b_star


def _domain(a: float, b: float) -> tuple[DomainLabel, float]:
    """Domain label at (A - C, B) = (a, b > 0), and w* (0 when there is no fold)."""
    if a <= 1.0:
        return "I", 0.0
    w_star, b_star = _fold(a)
    gap = (b - b_star) / b_star
    if abs(gap) <= BOUNDARY_REL:
        return "boundary", w_star
    return ("II" if gap < 0.0 else "I"), w_star


def _root(a: float, b: float, sign: float, lo: float, hi: float) -> float:
    """The one root w = 1 - |cos phi| in [lo, hi] of sin^3(phi) dV, by bisection.

    sign is the sign of cos phi.  sin^2 phi = w (2 - w) and a cos phi + 1 =
    (1 + sign a) - sign a w keep their relative accuracy next to the poles,
    where w is tiny, and the bracket is split at its geometric mean while it
    spans more than a factor of two, so a root there (w ~ sqrt(B)) takes the
    same 60-odd steps to the last bit as any other.
    """

    def f(w):
        s2 = w * (2.0 - w)
        return s2 * s2 * ((1.0 + sign * a) - sign * a * w) - sign * b * (1.0 - w)

    f_lo = f(lo)
    if (f_lo < 0.0) == (f(hi) < 0.0):
        raise InconsistentCountError(f"no equilibrium with 1 - |cos phi| in [{lo}, {hi}]")
    while True:
        floor = max(lo, sys.float_info.min)
        mid = math.sqrt(floor) * math.sqrt(hi) if hi > 2.0 * floor else 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if (f(mid) < 0.0) == (f_lo < 0.0):
            lo = mid
        else:
            hi = mid


def find_equilibria(ap: AveragedParams) -> list[Equilibrium]:
    """All equilibria of V on [0, pi], sorted by phi.

    For B > 0 the domain label fixes the number, kinds and brackets of the
    roots of sin^3(phi) dV (see the module docstring); on gamma the merged
    pair is one "degenerate" equilibrium at c*.  A bracket without a sign
    change, or a d2V whose sign disagrees with the kind, raises
    :class:`InconsistentCountError`.  For B = 0 the poles are equilibria and
    the interior ones solve (A - C) cos phi + 1 = 0.
    """
    if ap.B == 0.0:
        return _find_equilibria_planar(ap)

    a, b = ap.a_minus_c, ap.B
    label, w_star = _domain(a, b)
    found = [(_root(a, b, 1.0, 0.0, 1.0), 1.0, "stable")]
    if label == "II":
        found.append((_root(a, b, -1.0, w_star, 1.0), -1.0, "unstable"))
        found.append((_root(a, b, -1.0, 0.0, w_star), -1.0, "stable"))
    elif label == "boundary":
        found.append((w_star, -1.0, "degenerate"))

    eqs = []
    for w, sign, kind in found:
        half = 2.0 * math.asin(math.sqrt(0.5 * w))  # 1 - |cos(half)| = w
        # pi - half, rounded once: sin(math.pi) is the part of pi that math.pi drops
        phi = half if sign > 0.0 else math.pi - (half - math.sin(math.pi))
        second = d2v(phi, ap)
        if kind != "degenerate" and (second > 0.0) != (kind == "stable"):
            raise InconsistentCountError(f"{kind} equilibrium at phi = {phi} has d2V = {second}")
        eqs.append(Equilibrium(phi=phi, kind=kind, v_value=v_bar(phi, ap), second_derivative=second))
    return eqs


def _find_equilibria_planar(ap: AveragedParams) -> list[Equilibrium]:
    # B = 0: dV = sin(phi) ((A - C) cos(phi) + 1).  Poles are equilibria with
    # limiting curvatures (A - C) + 1 at phi = 0 and (A - C) - 1 at phi = pi.
    amc = ap.a_minus_c
    phis = [0.0, math.pi]
    if abs(amc) >= 1.0:
        phis.append(math.acos(-1.0 / amc))
    return [_classify(x, ap, d2v(x, ap)) for x in _dedup(phis)]


@dataclass(frozen=True)
class GammaPoint:
    """Point of the critical curve, parametrised by the degenerate angle phi."""

    phi: float
    a_minus_c: float
    b: float


def gamma_point(phi: float) -> GammaPoint:
    """Critical-curve point whose degenerate equilibrium sits at phi.

    Defined for phi in (pi/2, pi]; outside that range the construction would
    require a negative B.
    """
    if not (0.5 * math.pi < phi <= math.pi):
        raise ValueError(f"gamma curve is parametrised by phi in (pi/2, pi], got {phi}")
    s = math.sin(phi)
    c = math.cos(phi)
    c3 = c * c * c
    a_minus_c = -(3.0 * c * c + 1.0) / (4.0 * c3)
    b = -0.25 * s ** 6 / c3
    return GammaPoint(phi=phi, a_minus_c=a_minus_c, b=b)


def gamma_curve(phi_values) -> list[GammaPoint]:
    """Critical-curve points for each parameter value."""
    return [gamma_point(float(phi)) for phi in phi_values]


def classify_domain(ap: AveragedParams) -> DomainLabel:
    """Parameter-plane domain in closed form (B > 0 only).

    "I" (one equilibrium) when A - C <= 1 or B is above gamma's
    B* = -(1 - c*^2)^3 / (4 c*^3), with c* from the fold cubic; "II" (three)
    below it; "boundary" within a relative distance BOUNDARY_REL of it.
    """
    if not (ap.B > 0.0):
        raise ValueError("domain classification is defined for B > 0")
    return _domain(ap.a_minus_c, ap.B)[0]


def gamma_curve_to_csv(points: list[GammaPoint]) -> str:
    """CSV rendering of the critical curve: phi, a_minus_c, b."""
    lines = ["phi,a_minus_c,b"]
    for pt in points:
        lines.append(f"{pt.phi!r},{pt.a_minus_c!r},{pt.b!r}")
    return "\n".join(lines) + "\n"


def equilibrium_report(ap: AveragedParams) -> dict:
    """JSON-ready equilibrium set with the domain label (null on the B = 0 edge)."""
    eqs = find_equilibria(ap)
    if ap.B > 0.0:
        domain = classify_domain(ap)
    else:
        domain = None
    return {
        "params": {"A": ap.A, "B": ap.B, "C": ap.C, "a_minus_c": ap.a_minus_c},
        "equilibria": [
            {"phi": eq.phi, "kind": eq.kind, "v": eq.v_value, "d2v": eq.second_derivative}
            for eq in eqs
        ],
        "domain": domain,
    }
