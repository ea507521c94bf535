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

The records (AveragedParams, PhysicalParams, Equilibrium, GammaPoint) are
slotted immutable classes that compare and hash by value.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Callable, Literal

from ._frozen import Frozen

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

# Relative distance |B - B*| / B* to gamma within which a point is "boundary".
BOUNDARY_REL = 1e-12
# the root finder's variables, as named in error messages: w on the pole
# half |cos phi| >= 1/2 and u on the equator half (see _between)
_W, _U = "1 - |cos phi|", "|cos phi|"

DomainLabel = Literal["I", "II", "boundary"]
EquilibriumKind = Literal["stable", "unstable", "degenerate"]
# an angle phi with its sine and cosine
Point = tuple[float, float, float]


class SingularConfigurationError(ValueError):
    """Evaluation on the vertical axis where the azimuthal barrier diverges."""


class InconsistentCountError(RuntimeError):
    """The equilibria found disagree with what the theory says they must be."""


class AveragedParams(Frozen):
    """Dimensionless parameters (A, B, C) of the reduced averaged system.

    A and C are means of squared velocities, B a squared momentum, so all
    three are finite and nonnegative; the reduced dynamics depends on A and C
    only through the difference A - C.
    """

    __slots__ = ("A", "B", "C")

    def __init__(self, A: float, B: float, C: float = 0.0):
        for name, value in (("A", A), ("B", B), ("C", C)):
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
        # + 0.0 turns a -0.0 into 0.0: these are means of squares
        self._freeze(A + 0.0, B + 0.0, C + 0.0)

    @property
    def a_minus_c(self) -> float:
        return self.A - self.C

    @classmethod
    def from_a_minus_c(cls, a_minus_c: float, b: float) -> "AveragedParams":
        """Parameters with the given difference, using the smaller of A, C as zero."""
        if not math.isfinite(a_minus_c):
            raise ValueError(f"A - C must be finite, got {a_minus_c}")
        if a_minus_c >= 0.0:
            return cls(A=a_minus_c, B=b, C=0.0)
        return cls(A=0.0, B=b, C=-a_minus_c)


class PhysicalParams(Frozen):
    """Bob mass, rod length, gravity; all strictly positive and finite."""

    __slots__ = ("m", "l", "g")

    def __init__(self, m: float = 1.0, l: float = 1.0, g: float = 1.0):
        for name, value in (("m", m), ("l", l), ("g", g)):
            if not (0.0 < value < math.inf):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        self._freeze(m, l, g)


def averaged_params(mm: MomentMatrix, p_alpha: float, p: PhysicalParams) -> AveragedParams:
    """Nondimensionalise the moments and azimuthal momentum to (A, B, C).

    A = <xi'^2> / (g l), C = <eta'^2> / (g l), B = p_alpha^2 / (m^2 l^3 g);
    the matching time unit is sqrt(l / g).  Each quotient, and each divisor,
    is a ratio of exact integer products (``float.as_integer_ratio``)
    rounded once, so no intermediate leaves the float range or rounds.  A
    divisor that rounds to 0 or past the float range, a quotient that rounds
    past it, or a p_alpha that is not finite, raises ValueError.
    """
    if not math.isfinite(p_alpha):
        raise ValueError(f"p_alpha must be finite, got {p_alpha!r}")
    (pn, pd), (mn, md), (ln, ld), (gn, gd) = map(float.as_integer_ratio, (p_alpha, p.m, p.l, p.g))
    gl_num, gl_den = gn * ln, gd * ld
    ml_num, ml_den = mn * mn * ln ** 3 * gn, md * md * ld ** 3 * gd  # m^2 l^3 g
    for name, num, den in (("g l", gl_num, gl_den), ("m^2 l^3 g", ml_num, ml_den)):
        value = _rounded(num, den)
        if not (0.0 < value < math.inf):
            raise ValueError(f"{name} = {value!r} is outside the positive float range for {p!r}")
    (an, ad), (cn, cd) = map(float.as_integer_ratio, (mm.xi_xi, mm.eta_eta))
    quotients = []
    for name, arg, value, num, den in (
        ("xi_xi / (g l)", "xi_xi", mm.xi_xi, an * gl_den, ad * gl_num),
        ("p_alpha^2 / (m^2 l^3 g)", "p_alpha", p_alpha, pn * pn * ml_den, pd * pd * ml_num),
        ("eta_eta / (g l)", "eta_eta", mm.eta_eta, cn * gl_den, cd * gl_num),
    ):
        q = _rounded(num, den)
        if q == math.inf:
            raise ValueError(f"{name} overflows the float range for {arg}={value!r}, {p!r}")
        quotients.append(q)
    return AveragedParams(*quotients)


def _rounded(num: int, den: int) -> float:
    """num / den for ints, den > 0, rounded once; inf past the float range."""
    try:
        return num / den  # int / int is correctly rounded
    except OverflowError:
        return math.inf


def _check_regular(s: float, b: float) -> None:
    # sin^4 is the highest power the derivatives divide by.
    if s * s * s * s == 0.0 and b != 0.0:
        raise SingularConfigurationError("sin(phi) = 0 with a nonzero azimuthal barrier")


def v_bar(phi: float, ap: AveragedParams) -> float:
    """Effective potential V(phi)."""
    return _v(math.sin(phi), math.cos(phi), ap)


def _v(s: float, c: float, ap: AveragedParams) -> float:
    """V at the angle whose sine and cosine are s and c."""
    _check_regular(s, ap.B)
    barrier = ap.B / (2.0 * s * s) if ap.B != 0.0 else 0.0
    return barrier + 0.5 * ap.a_minus_c * s * s - c


def dv(phi: float, ap: AveragedParams) -> float:
    """First derivative dV/dphi."""
    s = math.sin(phi)
    c = math.cos(phi)
    _check_regular(s, ap.B)
    barrier = -ap.B * c / (s * s * s) if ap.B != 0.0 else 0.0
    return barrier + ap.a_minus_c * s * c + s


def d2v(phi: float, ap: AveragedParams) -> float:
    """Second derivative d2V/dphi2.

    Its non-barrier part a (c^2 - s^2) + c is written around the nearer
    pole, as (1 + a) - s^2 (2 a + 1 / (1 + c)) for c >= 0 and
    (a - 1) - s^2 (2 a - 1 / (1 - c)) for c < 0.  Next to a pole the plain
    sum cancels and absorbs the barrier: at A - C = -1, where cos phi rounds
    to 1, it reads 0 while this form gives 1.5 s^2.
    """
    return _d2v(math.sin(phi), math.cos(phi), ap)


def _d2v(s: float, c: float, ap: AveragedParams) -> float:
    """d2V at the angle whose sine and cosine are s and c."""
    _check_regular(s, ap.B)
    s2 = s * s
    if ap.B != 0.0:
        barrier = 3.0 * ap.B * c * c / (s2 * s2) + ap.B / s2
    else:
        barrier = 0.0
    a = ap.a_minus_c
    if c >= 0.0:
        return barrier + ((1.0 + a) - s2 * (2.0 * a + 1.0 / (1.0 + c)))
    return barrier + ((a - 1.0) - s2 * (2.0 * a - 1.0 / (1.0 - c)))


class Equilibrium(Frozen):
    """Critical point of V with its stability classification."""

    __slots__ = ("phi", "kind", "v_value", "second_derivative")

    def __init__(self, phi: float, kind: EquilibriumKind, v_value: float, second_derivative: float):
        self._freeze(phi, kind, v_value, second_derivative)


def _fold(a: float) -> tuple[float, float]:
    """(r, B*) where gamma crosses A - C = a > 1, with r = -1/c* - 1.

    In x = -1/c the fold cubic reads x^3 + 3 x = 4 a, so x = 2 sinh(asinh(2 a) / 3).
    One Newton step in r = x - 1 on r^3 + 3 r^2 + 6 r = 4 (a - 1) keeps r accurate
    for a close to 1.  Then |c*| = 1 / (1 + r), 1 - |c*| = r / (1 + r) and
    B* = (r (r + 2) / (r + 1))^3 / 4.
    """
    r = 2.0 * math.sinh(math.asinh(2.0 * a) / 3.0) - 1.0
    r -= (r * (r * (r + 3.0) + 6.0) - 4.0 * (a - 1.0)) / (3.0 * (r * (r + 2.0) + 2.0))
    b_star = (r * (r + 2.0) / (r + 1.0)) ** 3 / 4.0
    if not (math.isfinite(b_star) and b_star > 0.0):
        raise ValueError(f"A - C = {a} is out of range")
    return r, b_star


def _domain(a: float, b: float) -> tuple[DomainLabel, float]:
    """Domain label at (A - C, B) = (a, b > 0), and the fold's r (0 when there is none)."""
    if a <= 1.0:
        return "I", 0.0
    r, b_star = _fold(a)
    gap = (b - b_star) / b_star
    if abs(gap) <= BOUNDARY_REL:
        return "boundary", r
    return ("II" if gap < 0.0 else "I"), r


def _in_w(a: float, b: float, sign: float) -> Callable[[float], float]:
    """sin^3(phi) dV as a function of w = 1 - |cos phi|; sign is that of cos phi.

    sin^2 phi = w (2 - w) and a cos phi + 1 = (1 + sign a) - sign a w keep
    their relative accuracy next to the poles, where w is tiny.
    """

    def f(w):
        s2 = w * (2.0 - w)
        return s2 * s2 * ((1.0 + sign * a) - sign * a * w) - sign * b * (1.0 - w)

    return f


def _in_u(a: float, b: float, sign: float) -> Callable[[float], float]:
    """sin^3(phi) dV as a function of u = |cos phi|; sign is that of cos phi.

    a cos phi + 1 = 1 + sign a u keeps its relative accuracy next to the
    equator, where 1 - u rounds to 1 once u is below the float spacing there.
    """

    def f(u):
        s2 = (1.0 - u) * (1.0 + u)
        return s2 * s2 * (1.0 + sign * a * u) - sign * b * u

    return f


def _root(f: Callable[[float], float], lo: float, hi: float, var: str) -> float:
    """The one root in [lo, hi] of f, by the Illinois method.

    A chord step cuts the bracket at the zero of the chord through the ends'
    weighted values of f, or at the float next to an end that the zero
    rounds to, and halves the weight of an end that two chord steps in a row
    leave in place, so that the next chord reaches past the root.  A chord
    step that leaves the bracket holding the point where bisection would
    have split it is followed by a bisection step, which moves an end and
    keeps its weight; so no root takes more than about twice bisection's
    evaluations.  Bisection splits at the geometric mean while the bracket
    spans more than a factor of two, so a root next to lo = 0 (w ~ sqrt(B)
    next to a pole) takes as few halvings as any other.  The sign change
    stays bracketed throughout; the search stops at an exact zero of f, or
    when no float lies strictly between lo and hi.
    """
    f_lo, f_hi = f(lo), f(hi)
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise InconsistentCountError(f"no equilibrium with {var} in [{lo}, {hi}]")
    k_lo = k_hi = 1.0  # the chord's weights on f_lo and f_hi
    moved = 0  # the end that the last chord step moved: -1 for lo, 1 for hi
    split = math.nan  # where bisection would have split the last step's bracket
    tiny = sys.float_info.min
    while True:
        floor = lo if lo > tiny else tiny
        mid = math.sqrt(floor) * math.sqrt(hi) if hi > 2.0 * floor else 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        chord = not lo < split < hi
        if chord:
            x = lo + (hi - lo) * (k_lo * f_lo / (k_lo * f_lo - k_hi * f_hi))
            if x <= lo:
                x = math.nextafter(lo, hi)
            elif x >= hi:
                x = math.nextafter(hi, lo)
            chord = lo < x < hi  # False only when x is NaN
        if not chord:
            x = mid
        split = mid
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == (f_lo < 0.0):
            lo, f_lo = x, fx
            if chord:
                if moved < 0:
                    k_hi *= 0.5
                k_lo, moved = 1.0, -1
        else:
            hi, f_hi = x, fx
            if chord:
                if moved > 0:
                    k_lo *= 0.5
                k_hi, moved = 1.0, 1


def find_equilibria(ap: AveragedParams) -> list[Equilibrium]:
    """All equilibria of V on [0, pi], sorted by phi.

    For B > 0 the domain label fixes the number, kinds and brackets of the
    roots of sin^3(phi) dV (see the module docstring); on gamma the merged
    pair is one "degenerate" equilibrium at c*.  For B = 0 the poles are
    equilibria, and so is acos(-1 / (A - C)) when |A - C| > 1; their kinds
    are the signs of the curvatures (A - C) + 1, (A - C) - 1 and
    (1 - (A - C)^2) / (A - C), except that within BOUNDARY_REL of
    |A - C| = 1 the pole where the interior root merges, and that root, are
    "degenerate".  A bracket without a sign change, or a d2V whose sign
    disagrees with the kind, raises :class:`InconsistentCountError`.  A
    subnormal B raises ValueError: the minimum next to phi = 0 sits at
    phi ~ B^(1/4), where sin^4 phi underflows and d2V loses its digits.
    So does a minimum at sin(phi) ~ (B / |A - C|)^(1/4) where sin^4 phi
    underflows (A - C = 1e300 with B = 1e-300), a V or d2V past the float
    range (2 (A - C) overflows for |A - C| above ~8.99e307), and a d2V that
    cancels to 0 where the kind says it cannot (A - C = B = 1e200 puts the
    minimum ~1e-67 from phi = pi/2, where d2V's terms of 1e200 cancel;
    A - C = B = 1e16, with the minimum ~3.7e-6 from it, is answered, but
    past ~1e14 there d2V keeps fewer of its digits as B grows).
    V and d2V are evaluated from the sine and cosine of each equilibrium's
    distance to its pole, so one closer to pi than the float spacing there
    gets its own values, not those at phi = math.pi.
    """
    if ap.B == 0.0:
        found = _planar(ap.a_minus_c)
    elif ap.B < sys.float_info.min:
        raise ValueError(
            f"B = {ap.B!r} is subnormal: equilibria need B = 0 or B >= {sys.float_info.min!r}"
        )
    else:
        found = _barrier(ap.a_minus_c, ap.B)

    eqs = []
    for (phi, s, c), kind in found:
        if ap.B != 0.0 and s * s * s * s == 0.0:
            raise ValueError(
                f"A - C = {ap.a_minus_c} with B = {ap.B} puts a minimum of V next to a pole"
                " past the float range, where sin(phi)^4 underflows"
            )
        second, v = _d2v(s, c, ap), _v(s, c, ap)
        if not (math.isfinite(v) and math.isfinite(second)):
            raise ValueError(f"A - C = {ap.a_minus_c} with B = {ap.B} is out of range")
        if second == 0.0 and kind != "degenerate":
            raise ValueError(
                f"A - C = {ap.a_minus_c} with B = {ap.B} is out of range:"
                f" d2V cancels to 0 at the {kind} equilibrium at phi = {phi}"
            )
        if kind != "degenerate" and (second > 0.0) != (kind == "stable"):
            raise InconsistentCountError(f"{kind} equilibrium at phi = {phi} has d2V = {second}")
        eqs.append(Equilibrium(phi=phi, kind=kind, v_value=v, second_derivative=second))
    return eqs


def _planar(a: float) -> list[tuple[Point, EquilibriumKind]]:
    """(point, kind) of the equilibria at B = 0, where dV = sin(phi) (a cos(phi) + 1).

    Each kind is the sign of the curvature d2V there.  The interior root
    acos(-1 / a) merges with the pole at pi as a -> 1 and with the pole at 0
    as a -> -1, and within BOUNDARY_REL of |a| = 1 both are "degenerate".
    It is the pole itself at |a| == 1, and for any float beyond it lies at
    least ~2e-8 from both poles (at a = nextafter(±1, ±2)).
    """
    merged = abs(abs(a) - 1.0) <= BOUNDARY_REL
    found = [(_point(0.0, 1.0), a + 1.0, a < 0.0)]
    if abs(a) > 1.0:
        found.append((_on(math.acos(-1.0 / a)), (1.0 - a * a) / a, True))
    found.append((_point(0.0, -1.0), a - 1.0, a > 0.0))
    return [
        (pt, "degenerate" if merged and merging else "stable" if curvature > 0.0 else "unstable")
        for pt, curvature, merging in found
    ]


def _barrier(a: float, b: float) -> list[tuple[Point, EquilibriumKind]]:
    """(point, kind) of the equilibria at B = b > 0, in the domain's brackets.

    Each root of sin^3(phi) dV lies between two of the pole, the equator
    and, in domain II, the fold, each given as its (w, u) = (1 - |cos phi|,
    |cos phi|) with neither taken from the other; :func:`_between` solves
    it on the half that holds it.
    """
    label, r = _domain(a, b)
    pole, equator, fold = (0.0, 1.0), (1.0, 0.0), (r / (1.0 + r), 1.0 / (1.0 + r))
    found = [(_between(a, b, 1.0, pole, equator, -b), "stable")]
    if label == "II":
        found.append((_between(a, b, -1.0, fold, equator, -1.0), "unstable"))
        found.append((_between(a, b, -1.0, pole, fold, b), "stable"))
    elif label == "boundary":
        found.append((_point(fold[0], -1.0), "degenerate"))
    return found


def _between(a: float, b: float, sign: float, near: tuple[float, float],
             far: tuple[float, float], f_near: float) -> Point:
    """The point of the one root, with cos phi of the given sign, between
    the (w, u) ends near and far; near is the end nearer the pole, and the
    theory gives sin^3(phi) dV the sign of f_near there.

    A root keeps its digits in w where |cos phi| >= 1/2 and in u below
    that, so it is solved in w on [near, min(far, 1/2)] or in u on
    [far, min(near, 1/2)].  Where both ends lie in one half that half holds
    it; otherwise the sign of f at |cos phi| = 1/2 tells which half does,
    read in the variable of the bracket that ends there, since _root reads
    it again.  Where in_w and in_u round f there to opposite signs, 1/2 is
    the root.  A root found in u takes phi from acos(sign u).
    """
    in_w, in_u = _in_w(a, b, sign), _in_u(a, b, sign)
    if far[0] <= 0.5 or (near[0] < 0.5 and (in_w(0.5) < 0.0) != (f_near < 0.0)):
        return _point(_root(in_w, near[0], min(far[0], 0.5), _W), sign)
    if near[0] >= 0.5 or (in_u(0.5) < 0.0) == (f_near < 0.0):
        return _on(math.acos(sign * _root(in_u, far[1], min(near[1], 0.5), _U)))
    return _point(0.5, sign)


def _point(w: float, sign: float) -> Point:
    """(phi, sin phi, cos phi) for the phi in [0, pi] with 1 - |cos phi| = w
    and cos phi of the given sign.

    The sine and cosine are taken of the distance ``half`` to the pole, so
    they keep their digits where phi = pi - half rounds to pi: there V and
    d2V at the rounded phi read the barrier at sin(math.pi) ~ 1.2e-16.
    """
    half = 2.0 * math.asin(math.sqrt(0.5 * w))  # 1 - |cos(half)| = w
    if sign > 0.0:
        return half, math.sin(half), math.cos(half)
    # pi - half, rounded once: sin(math.pi) is the part of pi that math.pi drops
    return math.pi - (half - math.sin(math.pi)), math.sin(half), -math.cos(half)


def _on(phi: float) -> Point:
    """(phi, sin phi, cos phi)."""
    return phi, math.sin(phi), math.cos(phi)


class GammaPoint(Frozen):
    """Point of the critical curve, parametrised by the degenerate angle phi."""

    __slots__ = ("phi", "a_minus_c", "b")

    def __init__(self, phi: float, a_minus_c: float, b: float):
        self._freeze(phi, a_minus_c, b)


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
    # for B > 0, find_equilibria lists one equilibrium in domain I, two on
    # gamma (a minimum and the degenerate one) and three in domain II
    domain = {1: "I", 2: "boundary", 3: "II"}[len(eqs)] if ap.B > 0.0 else None
    return {
        "params": {"A": ap.A, "B": ap.B, "C": ap.C, "a_minus_c": ap.a_minus_c},
        "equilibria": [
            {"phi": eq.phi, "kind": eq.kind, "v": eq.v_value, "d2v": eq.second_derivative}
            for eq in eqs
        ],
        "domain": domain,
    }
