import math

import numpy as np
import pytest

from conftest import (
    brute_force_sign_changes,
    central_diff,
    close_rel,
    fold_b,
    pole_aware_roots,
    sin3_dv,
)

from pendulum_vib.potential import (
    AveragedParams,
    SingularConfigurationError,
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
            assert eq.second_derivative == d2v(eq.phi, ap)


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
    eqs = find_equilibria(AveragedParams.from_a_minus_c(1.0, 0.0))
    top = [eq for eq in eqs if eq.phi == math.pi]
    assert len(top) == 1 and top[0].kind == "degenerate"


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
