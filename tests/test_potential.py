import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    brute_force_sign_changes,
    central_diff,
    close_rel,
    fold_b,
    last_bit_bisection,
    minimum_cos,
    pole_aware_roots,
    sin3_dv,
)

from pendulum_vib import potential
from pendulum_vib.excitation import MomentMatrix
from pendulum_vib.potential import (
    AveragedParams,
    PhysicalParams,
    SingularConfigurationError,
    averaged_params,
    classify_domain,
    d2v,
    dv,
    equilibrium_report,
    find_equilibria,
    gamma_curve,
    gamma_curve_to_csv,
    gamma_point,
    v_bar,
)

PLAIN = AveragedParams.from_a_minus_c(0.0, 0.0)
KAPITSA = AveragedParams.from_a_minus_c(2.0, 0.0)


def test_v_bar_examples():
    assert v_bar(0.0, PLAIN) == -1.0
    assert v_bar(math.pi / 2, AveragedParams.from_a_minus_c(2.0, 0.5)) == pytest.approx(1.25, abs=1e-14)
    assert v_bar(math.pi, AveragedParams.from_a_minus_c(1.0, 0.0)) == pytest.approx(1.0, abs=1e-14)


def test_v_bar_singular_at_pole_with_barrier():
    with pytest.raises(SingularConfigurationError):
        v_bar(0.0, AveragedParams.from_a_minus_c(0.0, 0.5))
    # sin(phi)^4 underflows to zero: the barrier is singular to working precision
    with pytest.raises(SingularConfigurationError):
        d2v(1e-90, AveragedParams.from_a_minus_c(0.0, 0.5))


def test_dv_examples():
    assert dv(math.pi / 2, AveragedParams.from_a_minus_c(-3.0, 7.0)) == pytest.approx(1.0, abs=1e-12)
    assert dv(2 * math.pi / 3, KAPITSA) == pytest.approx(0.0, abs=1e-15)
    assert dv(math.pi / 4, PLAIN) == pytest.approx(math.sin(math.pi / 4), abs=1e-15)


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(2000):
        ap = AveragedParams.from_a_minus_c(float(rng.uniform(-4, 4)), float(rng.uniform(0, 2)))
        phi = float(rng.uniform(0.05, math.pi - 0.05))
        fd1 = central_diff(lambda x: v_bar(x, ap), phi)
        fd2 = central_diff(lambda x: dv(x, ap), phi)
        assert close_rel(dv(phi, ap), fd1)
        assert close_rel(d2v(phi, ap), fd2)


def test_find_equilibria_plain_pendulum():
    eqs = find_equilibria(PLAIN)
    assert [(eq.phi, eq.kind) for eq in eqs] == [(0.0, "stable"), (math.pi, "unstable")]


def test_find_equilibria_inverted_stabilisation():
    eqs = find_equilibria(KAPITSA)
    assert len(eqs) == 3
    assert eqs[0].phi == 0.0 and eqs[0].kind == "stable"
    assert eqs[1].phi == pytest.approx(2 * math.pi / 3, abs=1e-12)
    assert eqs[1].kind == "unstable"
    assert eqs[1].v_value == pytest.approx(1.25, abs=1e-12)
    assert eqs[2].phi == math.pi and eqs[2].kind == "stable"


def test_find_equilibria_single_well_with_barrier():
    eqs = find_equilibria(AveragedParams.from_a_minus_c(0.0, 0.1))
    assert len(eqs) == 1
    (eq,) = eqs
    # root of sin^4(phi) = 0.1 cos(phi), located independently by bisection
    assert eq.phi == pytest.approx(0.5689536962663325, abs=1e-9)
    assert eq.kind == "stable"


def test_equilibria_zero_first_derivative():
    rng = np.random.default_rng(17)
    for _ in range(50):
        ap = AveragedParams.from_a_minus_c(float(rng.uniform(-3, 4)), float(rng.uniform(0.01, 1.5)))
        for eq in find_equilibria(ap):
            assert abs(dv(eq.phi, ap)) < 1e-10
            # for cos phi < 0, d2V is taken from the sine and cosine of the
            # distance to pi, not of the rounded phi: the last digits differ
            if math.cos(eq.phi) >= 0.0:
                assert eq.second_derivative == d2v(eq.phi, ap)
            else:
                assert math.isclose(eq.second_derivative, d2v(eq.phi, ap), rel_tol=1e-12)


def test_find_equilibria_sorted_by_phi():
    eqs = find_equilibria(AveragedParams.from_a_minus_c(3.5, 0.01))
    phis = [eq.phi for eq in eqs]
    assert phis == sorted(phis)
    assert len(eqs) == 3


def test_planar_tilted_equilibrium_for_strong_horizontal():
    eqs = find_equilibria(AveragedParams.from_a_minus_c(-2.0, 0.0))
    kinds = {round(eq.phi, 6): eq.kind for eq in eqs}
    assert kinds[0.0] == "unstable"  # bottom destabilised by horizontal shaking
    assert kinds[round(math.pi / 3, 6)] == "stable"
    assert kinds[round(math.pi, 6)] == "unstable"


def test_planar_threshold_is_degenerate():
    # at |A - C| == 1 the third root acos(-1 / (A - C)) is the pole itself;
    # one float further out it is a root of its own, ~2e-8 from the pole
    for amc, pole in (
        (1.0, math.pi),
        (-1.0, 0.0),
        (math.nextafter(1.0, 2.0), math.pi),
        (math.nextafter(-1.0, -2.0), 0.0),
    ):
        eqs = find_equilibria(AveragedParams.from_a_minus_c(amc, 0.0))
        top = [eq for eq in eqs if eq.phi == pole]
        assert len(top) == 1 and top[0].kind == "degenerate", amc
        phis = [eq.phi for eq in eqs]
        assert phis == sorted(set(phis)), amc
        assert len(phis) == (2 if abs(amc) == 1.0 else 3), amc


def test_degenerate_equilibrium_on_critical_curve():
    gp = gamma_point(2.6)
    ap = AveragedParams.from_a_minus_c(gp.a_minus_c, gp.b)
    degenerate = [eq for eq in find_equilibria(ap) if eq.kind == "degenerate"]
    assert len(degenerate) == 1
    assert degenerate[0].phi == pytest.approx(2.6, abs=1e-6)


def test_gamma_endpoint_is_the_planar_threshold():
    gp = gamma_point(math.pi)
    assert abs(gp.a_minus_c - 1.0) <= 1e-12
    assert abs(gp.b) <= 1e-12


def test_gamma_values():
    gp = gamma_point(2 * math.pi / 3)
    assert gp.a_minus_c == pytest.approx(3.5, abs=1e-12)
    assert gp.b == pytest.approx(27.0 / 32.0, abs=1e-12)
    gp = gamma_point(3 * math.pi / 4)
    assert gp.a_minus_c == pytest.approx(1.7677669529663687, abs=1e-12)
    assert gp.b == pytest.approx(0.08838834764831843, abs=1e-12)


def test_gamma_zeroes_both_derivatives():
    for gp in gamma_curve(np.linspace(0.5 * math.pi + 0.01, math.pi, 1000)):
        ap = AveragedParams.from_a_minus_c(gp.a_minus_c, gp.b)
        assert abs(dv(gp.phi, ap)) < 1e-9
        assert abs(d2v(gp.phi, ap)) < 1e-9
        assert gp.b >= 0.0


def test_gamma_domain_errors():
    for phi in (0.3, 0.5 * math.pi, math.pi + 0.1):
        with pytest.raises(ValueError):
            gamma_point(phi)


def test_classify_domain():
    assert classify_domain(AveragedParams.from_a_minus_c(0.0, 0.1)) == "I"
    assert classify_domain(AveragedParams.from_a_minus_c(3.5, 0.01)) == "II"
    gp = gamma_point(2 * math.pi / 3)
    assert classify_domain(AveragedParams.from_a_minus_c(gp.a_minus_c, gp.b)) == "boundary"
    # just below the curve at the same a_minus_c: still three equilibria
    assert classify_domain(AveragedParams.from_a_minus_c(3.5, 27.0 / 128.0)) == "II"


def test_classify_domain_requires_positive_barrier():
    with pytest.raises(ValueError):
        classify_domain(KAPITSA)


def test_classify_domain_rejects_a_fold_beyond_float_range():
    # the closed form of the fold overflows there, so gamma's B* cannot be formed
    with pytest.raises(ValueError):
        classify_domain(AveragedParams.from_a_minus_c(1e308, 1.0))


def test_equilibrium_count_is_one_or_three():
    rng = np.random.default_rng(8)
    for _ in range(200):
        ap = AveragedParams.from_a_minus_c(float(rng.uniform(-3, 5)), float(rng.uniform(0.01, 2)))
        eqs = find_equilibria(ap)
        if any(eq.kind == "degenerate" for eq in eqs):
            continue
        assert len(eqs) in (1, 3)


def test_counts_match_brute_force_scan():
    rng = np.random.default_rng(9)
    for _ in range(25):
        ap = AveragedParams.from_a_minus_c(float(rng.uniform(-2, 4)), float(rng.uniform(0.02, 1.0)))
        eqs = [eq for eq in find_equilibria(ap) if eq.kind != "degenerate"]
        crossings = brute_force_sign_changes(
            lambda x: dv(x, ap), 1e-6, math.pi - 1e-6, 20000
        )
        assert len(eqs) == crossings


def test_count_changes_by_two_across_the_curve():
    gp = gamma_point(2.7)
    delta = 1e-3
    below = find_equilibria(AveragedParams.from_a_minus_c(gp.a_minus_c, gp.b - delta))
    above = find_equilibria(AveragedParams.from_a_minus_c(gp.a_minus_c, gp.b + delta))
    assert len(below) == 3
    assert len(above) == 1


def test_shift_invariance_in_a_and_c():
    # dyadic offsets keep A - C bit-identical, so outputs must match exactly
    for k in (0.5, 1.0, 2.0):
        base = AveragedParams(A=1.25, B=0.3, C=0.5)
        shifted = AveragedParams(A=1.25 + k, B=0.3, C=0.5 + k)
        assert find_equilibria(base) == find_equilibria(shifted)


def test_planar_limit_of_the_three_equilibria():
    # the outer roots approach the poles like B**(1/4); the saddle is regular
    target = np.array([0.0, 2 * math.pi / 3, math.pi])
    previous = None
    for b in (1e-6, 1e-9, 1e-12):
        eqs = find_equilibria(AveragedParams.from_a_minus_c(2.0, b))
        assert len(eqs) == 3
        gap = np.abs(np.array([eq.phi for eq in eqs]) - target)
        assert np.all(gap < 2.0 * b ** 0.25)
        if previous is not None:
            assert np.all(gap <= previous + 1e-15)
        previous = gap
    assert previous[1] < 1e-9


def check_against_pole_aware_scan(amc, b, focus=()):
    """Label, count, kinds and residuals of the equilibria against the oracle scan."""
    ap = AveragedParams.from_a_minus_c(amc, b)
    roots = pole_aware_roots(amc, b, focus)
    eqs = find_equilibria(ap)
    label = classify_domain(ap)
    assert (label, len(eqs)) == ({1: "I", 3: "II"}[len(roots)], len(roots)), (amc, b)
    # dV runs from -inf to +inf, so minima and maxima alternate from a minimum
    assert [eq.kind for eq in eqs] == ["stable", "unstable", "stable"][: len(eqs)]
    for eq, root in zip(eqs, roots):
        s, c = math.sin(eq.phi), math.cos(eq.phi)
        terms = max(s ** 4, abs(amc) * s ** 4 * abs(c), b * abs(c))
        assert abs(sin3_dv(eq.phi, amc, b)) <= 1e-6 * terms, (amc, b, eq.phi)
        assert abs(eq.phi - root) <= 1e-6 * min(root, math.pi - root) + 1e-15
    return label


def test_equilibria_next_to_the_poles():
    for amc, b in ((2.0, 1e-24), (3.5, 1e-30)):
        assert check_against_pole_aware_scan(amc, b) == "II"
    assert check_against_pole_aware_scan(0.5, 1e-28) == "I"
    # the outer minima sit about (B / |1 -+ (A-C)|)^(1/4) from the poles
    phis = [eq.phi for eq in find_equilibria(AveragedParams.from_a_minus_c(3.5, 1e-30))]
    assert phis[0] == pytest.approx((1e-30 / 4.5) ** 0.25, rel=1e-6)
    assert math.pi - phis[2] == pytest.approx((1e-30 / 2.5) ** 0.25, rel=1e-6)


@pytest.mark.parametrize("amc, b", [
    (1e49, 1.0), (1e49, 1e41), (1e200, 1e160), (1e200, 1e192), (1e300, 1e260), (1e300, 1e292),
])
def test_three_equilibria_at_a_huge_a_minus_c(amc, b):
    # |c*| ~ (4 (A - C))^(-1/3) is below the float spacing next to 1, so
    # 1 - |c*| rounds to 1; the saddle at cos phi ~ -1 / (A - C) sits nearer
    # pi/2 than any float phi, where sin^3(phi) dV is ~ (A - C) |cos phi| and
    # cannot be small, so each phi is checked against the scan and against a
    # sign change one float step either side of it
    ap = AveragedParams.from_a_minus_c(amc, b)
    roots = pole_aware_roots(amc, b)
    eqs = find_equilibria(ap)
    assert classify_domain(ap) == "II"
    assert len(roots) == 3
    assert [eq.kind for eq in eqs] == ["stable", "unstable", "stable"]
    for eq, root in zip(eqs, roots):
        assert abs(eq.phi - root) <= 1e-6 * min(root, math.pi - root) + 1e-15, (eq.phi, root)
        below = sin3_dv(math.nextafter(eq.phi, 0.0), amc, b)
        above = sin3_dv(math.nextafter(eq.phi, math.pi), amc, b)
        assert np.sign(below) != np.sign(above), eq.phi


@pytest.mark.parametrize("amc, b", [(-1e49, 1.0), (-1e200, 1e190), (-1e300, 1.0)])
def test_lone_minimum_at_a_hugely_negative_a_minus_c(amc, b):
    # the minimum sits at cos phi ~ 1 / (|A - C| + B), below pi/2 by far less
    # than the float spacing, so the float nearest it is math.pi / 2, which
    # lies below pi/2; found in w = 1 - cos phi, where (1 + a) - a w
    # cancels, it landed one float above
    eqs = find_equilibria(AveragedParams.from_a_minus_c(amc, b))
    assert [eq.kind for eq in eqs] == ["stable"]
    phi = eqs[0].phi
    assert phi == math.pi / 2
    below = sin3_dv(math.nextafter(phi, 0.0), amc, b)
    above = sin3_dv(math.nextafter(phi, math.pi), amc, b)
    assert np.sign(below) != np.sign(above), phi


@pytest.mark.parametrize("amc, b", [
    (1e8, 1e8), (1e10, 1e10), (1e12, 1e12), (1e14, 1e14), (1e16, 1e16), (1e20, 1.000000000001e20),
])
def test_a_barrier_above_a_large_a_minus_c_puts_the_minimum_at_the_equator(amc, b):
    # the minimum next to phi = 0 sits at cos phi ~ (1 / (2 (A - C)))^(1/3)
    # on A - C = B, and ~1e-8 short of pi/2 at (1e20, 1.000000000001e20);
    # solved in w = 1 - cos phi, where (1 + a) - a w drops the 1, it was
    # 3.3e-10 off at 1e12, 2.4e-8 at 1e14, and refused at 1e16.  Past 1e14
    # d2V's own terms of size B cancel, so only its position is held there
    eq = find_equilibria(AveragedParams.from_a_minus_c(amc, b))[0]
    c = minimum_cos(amc, b)
    assert eq.kind == "stable"
    assert abs(math.cos(eq.phi) - float(c)) <= 1e-11, (eq.phi, c)
    if amc <= 1e14:
        with localcontext() as ctx:
            ctx.prec = 60
            a, bd, s2 = Decimal(amc), Decimal(b), 1 - c * c
            exact = 3 * bd * c * c / (s2 * s2) + bd / s2 + a * (c * c - s2) + c
            assert abs(Decimal(eq.second_derivative) - exact) <= Decimal("1e-6") * exact


@pytest.mark.parametrize("amc, b", [(0.2, 1.2375), (0.16, 1.215), (-0.15, 1.0406250000000001)])
def test_a_minimum_at_cos_phi_one_half_is_found(amc, b):
    # B = 0.5625 (2 + (A - C)) puts the minimum at cos phi = 1/2, where
    # sin^3(phi) dV read in w = 1 - cos phi rounds to below 0 and read in
    # u = cos phi to 0: the root's half was picked by one reading and its
    # bracket checked with the other, which raised InconsistentCountError
    assert potential._in_w(amc, b, 1.0)(0.5) < 0.0 <= potential._in_u(amc, b, 1.0)(0.5)
    (eq,) = find_equilibria(AveragedParams.from_a_minus_c(amc, b))
    assert eq.kind == "stable"
    assert abs(math.cos(eq.phi) - float(minimum_cos(amc, b))) <= 1e-15, eq.phi


def test_lone_minimum_next_to_the_pole_at_a_minus_c_minus_one():
    # at A - C = -1 the minimum sits at phi ~ (2 B)^(1/6), where cos phi
    # rounds to 1 and a (c^2 - s^2) + c, summed as written, cancels to 0 and
    # absorbs the barrier: d2V read 0.0 and the minimum was refused.  Checked
    # against sin and cos of the float phi to 250 digits (a few terms of
    # their series; phi^8 / 8! is far below that), where c (1 - c) survives
    amc, b = -1.0, 1e-300
    (eq,) = find_equilibria(AveragedParams.from_a_minus_c(amc, b))
    assert eq.kind == "stable"
    with localcontext() as ctx:
        ctx.prec = 250

        def sin_cos(phi):
            x, term, s, c = Decimal(phi), Decimal(1), Decimal(0), Decimal(0)
            for k in range(8):
                if k % 2:
                    s += term if k % 4 == 1 else -term
                else:
                    c += term if k % 4 == 0 else -term
                term = term * x / (k + 1)
            return s, c

        a, bd = Decimal(amc), Decimal(b)

        def dv_exact(phi):
            s, c = sin_cos(phi)
            return -bd * c / s ** 3 + a * s * c + s

        s, c = sin_cos(eq.phi)
        exact = 3 * bd * c * c / s ** 4 + bd / s ** 2 + a * (c * c - s * s) + c
        assert abs(Decimal(eq.second_derivative) - exact) <= Decimal("1e-14") * exact
        # dV changes sign one float step either side of phi
        assert dv_exact(math.nextafter(eq.phi, 0.0)) < 0 < dv_exact(math.nextafter(eq.phi, 1.0))


def test_find_equilibria_refuses_a_subnormal_barrier():
    # the minimum sits at phi ~ B^(1/4), where sin^4 underflows: at 5e-324
    # the barrier read as singular, and at 1e-320 d2V came back 11.9956 for 12
    for amc in (0.5, 2.0):
        for b in (5e-324, 1e-320, math.nextafter(sys.float_info.min, 0.0)):
            ap = AveragedParams.from_a_minus_c(amc, b)
            with pytest.raises(ValueError, match=r"subnormal.*2\.2250738585072014e-308"):
                find_equilibria(ap)
            # the domain label needs no root, and is still given
            assert classify_domain(ap) == {0.5: "I", 2.0: "II"}[amc]
        # at the smallest normal B, B ~ s^4 (1 + A - C), so d2V ~ 3 B / s^4 + (1 + A - C)
        eq = find_equilibria(AveragedParams.from_a_minus_c(amc, sys.float_info.min))[0]
        assert eq.kind == "stable"
        assert eq.second_derivative == pytest.approx(4.0 * (1.0 + amc), rel=1e-6)


def test_find_equilibria_gives_finite_values_or_refuses_past_the_float_range():
    # 2 (A - C) in d2V overflows from |A - C| = 2^1023 (~8.99e307) up: V and
    # d2V at every equilibrium are finite, or find_equilibria refuses the
    # point as bad input, naming A - C wherever 2 (A - C) overflows
    rng = np.random.default_rng(3108)
    magnitudes = [10.0 ** float(x) for x in rng.uniform(300.0, math.log10(1.79e308), 40)]
    for magnitude in magnitudes + [2.0 ** 1023, 1.79e308]:
        for amc in (magnitude, -magnitude):
            for b in (0.0, 1e-300, 1.0, 1e300):
                try:
                    eqs = find_equilibria(AveragedParams.from_a_minus_c(amc, b))
                except ValueError as exc:
                    # every refusal names A - C; below 2^1023 only a minimum
                    # next to a pole, where sin^4 underflows, is refused
                    message = str(exc)
                    assert message.startswith(f"A - C = {amc}"), (amc, b, exc)
                    assert (magnitude >= 2.0 ** 1023
                            or message.endswith("where sin(phi)^4 underflows")), (amc, b, exc)
                    continue
                assert magnitude < 2.0 ** 1023 and eqs, (amc, b)
                for eq in eqs:
                    assert all(map(math.isfinite, (eq.phi, eq.v_value, eq.second_derivative)))


def test_just_inside_domain_two_near_gamma():
    b_star = fold_b(2.0)
    assert classify_domain(AveragedParams.from_a_minus_c(2.0, b_star * (1.0 - 1e-7))) == "II"
    assert classify_domain(AveragedParams.from_a_minus_c(2.0, b_star * (1.0 + 1e-7))) == "I"
    assert check_against_pole_aware_scan(2.0, b_star * (1.0 - 1e-7)) == "II"


def test_fold_next_to_the_planar_threshold():
    # For A - C = 1 + h with small h, gamma's B* = 16 h^3 / 27 (1 + O(h)).
    h = 2.0 ** -40
    b_star = 16.0 * h ** 3 / 27.0
    below = AveragedParams.from_a_minus_c(1.0 + h, b_star * (1.0 - 1e-6))
    assert classify_domain(below) == "II"
    assert [eq.kind for eq in find_equilibria(below)] == ["stable", "unstable", "stable"]
    assert classify_domain(AveragedParams.from_a_minus_c(1.0 + h, b_star * (1.0 + 1e-6))) == "I"


def test_wide_parameter_sweep_matches_the_pole_aware_scan():
    rng = np.random.default_rng(21)
    labels = set()
    for _ in range(300):
        b = float(10.0 ** rng.uniform(-30.0, 6.0))
        amc = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 6.0))
        labels.add(check_against_pole_aware_scan(amc, b))
    assert labels == {"I", "II"}


def test_near_gamma_sweep_matches_the_pole_aware_scan():
    rng = np.random.default_rng(22)
    for _ in range(300):
        # A - C from about 1.002 to 2e6; on the curve the merged root sits at phi
        phi = float(rng.uniform(0.5 * math.pi + 0.005, math.pi - 0.05))
        gp = gamma_point(phi)
        delta = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-10.0, -2.0))
        label = check_against_pole_aware_scan(gp.a_minus_c, gp.b * (1.0 + delta), focus=(phi,))
        assert label == ("I" if delta > 0.0 else "II")


def root_finder_sweep(gamma_exponents=(-4.0, -2.0)) -> list[tuple[float, float]]:
    """Seeded (A - C, B) points over the reproduce box, the band next to
    gamma and the corners, with B from the smallest normal float to 1e300.

    The band puts B at a relative distance 10^x from gamma, with x
    uniform between ``gamma_exponents``.
    """
    rng = np.random.default_rng(32)
    points = [(float(rng.uniform(-1.0, 4.0)), float(rng.uniform(0.05, 1.5))) for _ in range(150)]
    for _ in range(100):
        a = float(rng.uniform(1.05, 8.0))
        rel = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(*gamma_exponents))
        points.append((a, fold_b(a) * (1.0 + rel)))
    for low in (-30.0, math.log10(sys.float_info.min)):
        for _ in range(100):
            b = float(10.0 ** rng.uniform(low, 6.0))
            points.append((float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 6.0)), b))
    for b in (sys.float_info.min, 1e300):
        points += [(a, b) for a in (-1e6, -3.6, -1.0, 0.5, 2.0, 3.0, 5.0, 1e3, 1e6)]
    return points


def test_root_finder_averages_at_most_20_evaluations_a_root(monkeypatch):
    # bisection to the last bit took 63 evaluations of f a root on average
    # and 65 at most; the sweep, down to 1e-10 from gamma, must average at
    # most 20, the evaluation that picks a root's half included, and never
    # take more than twice bisection's most in one bracket
    calls, counts, brackets = [0], [], set()

    def counting(make):
        def made(a, b, sign):
            f = make(a, b, sign)

            def g(x):
                calls[0] += 1
                return f(x)

            g.sign = sign
            return g

        return made

    def recorded(f, lo, hi, var):
        before = calls[0]
        found = root(f, lo, hi, var)
        counts.append(calls[0] - before)
        brackets.add((var, f.sign, lo == 0.0))
        assert 0.0 <= lo < hi <= 0.5, (var, lo, hi)
        return found

    root = potential._root
    monkeypatch.setattr(potential, "_in_w", counting(potential._in_w))
    monkeypatch.setattr(potential, "_in_u", counting(potential._in_u))
    monkeypatch.setattr(potential, "_root", recorded)
    points = root_finder_sweep((-10.0, -2.0))
    for amc, b in points:
        find_equilibria(AveragedParams.from_a_minus_c(amc, b))
    assert calls[0] / len(counts) <= 20.0
    assert max(counts) <= 130
    # the sweep takes B over the float range, and every root is solved
    # inside one half, hi <= 1/2 in its variable; it takes w and u brackets
    # for both signs of cos phi, told apart by (variable, sign, lo == 0):
    # lo is the pole (w = 0), the equator (u = 0) or the fold
    assert (min(b for _, b in points), max(b for _, b in points)) == (sys.float_info.min, 1e300)
    w, u = "1 - |cos phi|", "|cos phi|"
    assert brackets == {
        (w, 1.0, True), (u, 1.0, True),
        (w, -1.0, True), (w, -1.0, False), (u, -1.0, True), (u, -1.0, False),
    }


def test_root_finder_lands_within_32_ulps_of_a_last_bit_bisection():
    # f is a polynomial rounded at every operation, so its sign is noise
    # within a few ulps of the root; plain bisection of the same f in the
    # same bracket pins down one of its sign changes to the last bit.  Closer
    # than 1e-4 to gamma two roots merge, f is flat between them and its
    # sign is noise over thousands of ulps (two bisections that split the
    # bracket at different points land up to ~3e4 ulps apart at 1e-10);
    # test_near_gamma_sweep_matches_the_pole_aware_scan holds those roots
    def bisected(f, lo, hi, var):
        return last_bit_bisection(f, lo, hi)

    for amc, b in root_finder_sweep():
        ap = AveragedParams.from_a_minus_c(amc, b)
        found = [eq.phi for eq in find_equilibria(ap)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(potential, "_root", bisected)
            reference = [eq.phi for eq in find_equilibria(ap)]
        assert len(found) == len(reference), (amc, b)
        ulps = np.abs(np.array(found).view(np.int64) - np.array(reference).view(np.int64))
        assert ulps.max() <= 32, (amc, b, found, reference)


def test_gamma_csv_round_trip():
    points = gamma_curve([2.0, 2.5, 3.0])
    text = gamma_curve_to_csv(points)
    lines = text.strip().splitlines()
    assert lines[0] == "phi,a_minus_c,b"
    parsed = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
    for gp, row in zip(points, parsed):
        assert row == (gp.phi, gp.a_minus_c, gp.b)


def test_equilibrium_report_schema():
    doc = equilibrium_report(AveragedParams.from_a_minus_c(3.5, 0.01))
    assert doc["domain"] == "II"
    assert {"phi", "kind", "v", "d2v"} == set(doc["equilibria"][0])
    assert doc["params"]["a_minus_c"] == 3.5
    doc0 = equilibrium_report(KAPITSA)
    assert doc0["domain"] is None


def test_averaged_params_validation():
    with pytest.raises(ValueError):
        AveragedParams(A=-0.1, B=0.0, C=0.0)
    with pytest.raises(ValueError):
        AveragedParams(A=0.0, B=-1.0, C=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            AveragedParams(A=bad, B=0.0, C=0.0)
        with pytest.raises(ValueError):
            AveragedParams.from_a_minus_c(1.0, bad)
    ap = AveragedParams.from_a_minus_c(-1.5, 0.2)
    assert ap.A == 0.0 and ap.C == 1.5 and ap.a_minus_c == -1.5


def test_averaged_params_takes_a_product_in_range_past_an_intermediate_out_of_range():
    # l ** 3 overflows and m * m underflows, though each m^2 l^3 g is in range;
    # a product that is out of range itself is still refused
    mm = MomentMatrix(((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.5)))
    for m, l, g in ((1e-150, 1e103, 1.0), (1e-200, 1e100, 1.0), (1e-170, 1e110, 3.0)):
        b = averaged_params(mm, 1.0, PhysicalParams(m, l, g)).B
        with localcontext() as ctx:
            ctx.prec = 60
            exact = Decimal(m) ** 2 * Decimal(l) ** 3 * Decimal(g)
            assert abs(Decimal(b) * exact - 1) <= 4 * Decimal(sys.float_info.epsilon)
    for m, l, g in ((1.0, 1e200, 1e-200), (1e-200, 1e-50, 1.0)):
        with pytest.raises(ValueError, match="outside the positive float range"):
            averaged_params(mm, 1.0, PhysicalParams(m, l, g))
    # B is the exact quotient of the exact products, rounded once
    for m, l, g in ((2.0, 3.0, 9.81), (0.3, 1e-30, 7.0), (1e100, 1e30, 1e-5)):
        exact = Fraction(1.5) ** 2 / (Fraction(m) ** 2 * Fraction(l) ** 3 * Fraction(g))
        assert averaged_params(mm, 1.5, PhysicalParams(m, l, g)).B == float(exact)
