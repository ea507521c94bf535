"""Acceptance suite.

One test per criterion, each asserting the stated tolerances and runtime
budget and printing a single pass line (run with ``pytest -s`` to see them).
Expected values are either analytic or produced by the independent oracles
in this file and in conftest.py, never by the code paths under audit.
"""

import math
import time

import numpy as np

from conftest import (
    brute_force_sign_changes,
    central_diff,
    close_rel,
    series_derivative_samples,
    written,
)

from pendulum_vib.dynamics import (
    FullState,
    compare_full_averaged,
    full_hamiltonian,
    full_rhs,
    integrate,
    reduced_rhs,
)
from pendulum_vib.excitation import Excitation, HarmonicSeries, velocity_moments
from pendulum_vib.dynamics import averaged_hamiltonian
from pendulum_vib.portrait import build_grid, extract_contours, render_svg
from pendulum_vib.potential import (
    AveragedParams,
    d2v,
    dv,
    find_equilibria,
    gamma_curve,
    gamma_point,
    v_bar,
)

CONVERGENCE_BAND = (1.4, 3.5)
DRIFT_FLOOR = 1e-12


def report(number: int, elapsed: float, budget: float, detail: str):
    print(f"criterion {number}: PASS ({elapsed * 1e3:.1f} ms <= {budget * 1e3:.0f} ms) {detail}")
    assert elapsed < budget, f"criterion {number} exceeded its runtime budget: {elapsed:.3f}s"


def test_criterion_1_gamma_endpoint():
    gamma_point(3.0)  # warm-up
    t0 = time.perf_counter()
    gp = gamma_point(math.pi)
    elapsed = time.perf_counter() - t0
    assert abs(gp.a_minus_c - 1.0) <= 1e-12
    assert abs(gp.b) <= 1e-12
    report(1, elapsed, 1e-3, f"(A-C, B) at phi=pi -> ({gp.a_minus_c}, {gp.b})")


def test_criterion_2_gamma_residuals():
    phis = np.linspace(0.5 * math.pi + 0.01, math.pi, 1000)
    t0 = time.perf_counter()
    worst = 0.0
    for gp in gamma_curve(phis):
        ap = AveragedParams.from_a_minus_c(gp.a_minus_c, gp.b)
        worst = max(worst, abs(dv(gp.phi, ap)), abs(d2v(gp.phi, ap)))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9
    report(2, elapsed, 0.1, f"max |dV'|, |dV''| residual over 1000 points = {worst:.2e}")


def _frozen_hamiltonian_samples(state: FullState, ts: np.ndarray, e: Excitation) -> np.ndarray:
    # full Hamiltonian (m = l = g = 1) at frozen state, re-derived for the oracle
    s_phase = e.omega * ts / e.epsilon
    td = e.omega * series_derivative_samples(e.tau, s_phase)
    ed = e.omega * series_derivative_samples(e.eta, s_phase)
    xd = e.omega * series_derivative_samples(e.xi, s_phase)
    sp, cp = math.sin(state.phi), math.cos(state.phi)
    sa, ca = math.sin(state.alpha), math.cos(state.alpha)
    u_phi = cp * ca * td + cp * sa * ed + sp * xd
    u_alpha = -sp * sa * td + sp * ca * ed
    return (
        0.5 * (state.p_phi - u_phi) ** 2
        + 0.5 * (state.p_alpha - u_alpha) ** 2 / (sp * sp)
        - cp
    )


def test_criterion_3_averaged_hamiltonian_is_the_time_average():
    rng = np.random.default_rng(2024)
    n = 4096
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0

    def random_series():
        k = int(rng.integers(0, 4))
        return HarmonicSeries(tuple(rng.uniform(-1, 1, k)), tuple(rng.uniform(-1, 1, k)))

    cases = []
    for _ in range(100):
        e = Excitation(
            epsilon=float(rng.uniform(0.05, 0.3)),
            omega=float(rng.uniform(0.5, 3.0)),
            tau=random_series(),
            eta=random_series(),
            xi=random_series(),
        )
        s = FullState(
            phi=float(rng.uniform(0.3, math.pi - 0.3)),
            alpha=float(rng.uniform(0.0, 2.0 * math.pi)),
            p_phi=float(rng.normal()),
            p_alpha=float(rng.normal()),
        )
        cases.append((e, s))

    t0 = time.perf_counter()
    worst = 0.0
    for e, s in cases:
        period = e.fast_period
        ts = np.linspace(0.0, period, n + 1)
        samples = _frozen_hamiltonian_samples(s, ts, e)
        mean = float(np.sum(w * samples)) * (period / n / 3.0) / period
        hbar = averaged_hamiltonian(s, velocity_moments(e))
        worst = max(worst, abs(mean - hbar))
    elapsed = time.perf_counter() - t0

    # tie the oracle to the library's full Hamiltonian at spot times
    e, s = cases[0]
    for t in (0.0, 0.3 * e.fast_period, 0.77 * e.fast_period):
        direct = full_hamiltonian(s, t, e)
        oracle = float(_frozen_hamiltonian_samples(s, np.array([t]), e)[0])
        assert abs(direct - oracle) < 1e-12

    assert worst <= 1e-10
    report(3, elapsed, 1.0, f"max |time-average - averaged H| over 100 pairs = {worst:.2e}")


def test_criterion_4_equilibrium_counts():
    t0 = time.perf_counter()
    cases = {
        (0.0, 0.1): 1,
        (3.5, 0.01): 3,
        # just below the critical curve at a_minus_c = 3.5 (the curve itself
        # passes through B = 27/32 there)
        (3.5, 27.0 / 128.0): 3,
    }
    for (amc, b), expected in cases.items():
        ap = AveragedParams.from_a_minus_c(amc, b)
        eqs = find_equilibria(ap)
        assert len(eqs) == expected, (amc, b)
        assert all(eq.kind != "degenerate" for eq in eqs)
        crossings = brute_force_sign_changes(lambda x: dv(x, ap), 1e-6, math.pi - 1e-6, 100000)
        assert crossings == expected

    # on-curve parameters constructed from the parametric representation
    gp = gamma_point(2.0 * math.pi / 3.0)
    ap = AveragedParams.from_a_minus_c(gp.a_minus_c, gp.b)
    degenerate = [eq for eq in find_equilibria(ap) if eq.kind == "degenerate"]
    assert len(degenerate) == 1
    assert abs(degenerate[0].phi - 2.0 * math.pi / 3.0) <= 1e-6
    # the tangential root is invisible to the sign-change oracle: the counts
    # of transversal crossings still agree
    crossings = brute_force_sign_changes(lambda x: dv(x, ap), 1e-6, math.pi - 1e-6, 100000)
    nondeg = [eq for eq in find_equilibria(ap) if eq.kind != "degenerate"]
    assert crossings == len(nondeg) == 1
    elapsed = time.perf_counter() - t0
    report(4, elapsed, 1.0, f"counts 1/3/3 + degenerate at phi = {degenerate[0].phi:.9f}")


def test_criterion_5_planar_vertical_edge():
    t0 = time.perf_counter()
    # stability of the inverted position flips at A = 1
    top_low = [eq for eq in find_equilibria(AveragedParams(A=0.5, B=0.0)) if eq.phi == math.pi]
    assert top_low[0].kind == "unstable"
    top_high = [eq for eq in find_equilibria(AveragedParams(A=2.0, B=0.0)) if eq.phi == math.pi]
    assert top_high[0].kind == "stable"

    for a in (0.25, 0.5, 0.99):
        eqs = find_equilibria(AveragedParams(A=a, B=0.0))
        assert [eq.phi for eq in eqs] == [0.0, math.pi]
    for a in (1.0, 1.5, 2.0, 3.5):
        eqs = find_equilibria(AveragedParams(A=a, B=0.0))
        root = math.acos(-1.0 / a)
        inner = [eq for eq in eqs if abs(eq.phi - root) <= 1e-10]
        assert len(inner) == 1
        if a > 1.0:
            assert inner[0].kind == "unstable"
    elapsed = time.perf_counter() - t0
    report(5, elapsed, 0.1, "inverted state flips at A = 1; saddle at arccos(-1/A) iff A >= 1")


def test_criterion_6_averaging_convergence():
    t0 = time.perf_counter()
    initial = FullState(2.0, 0.0, 0.0, 0.3)
    epsilons = (0.1, 0.05, 0.025)
    reports = [
        compare_full_averaged(
            Excitation(epsilon=eps, omega=1.0, xi=HarmonicSeries(sine_coeffs=(1.0,))),
            initial,
            10.0,
        )
        for eps in epsilons
    ]
    errs = [r.max_err_phi for r in reports]
    drifts = [r.p_alpha_drift for r in reports]
    assert errs[0] > errs[1] > errs[2]
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    for r in ratios:
        assert CONVERGENCE_BAND[0] <= r <= CONVERGENCE_BAND[1]
    # p_alpha drift must obey the same halving band whenever it is above
    # numerical noise; this vertical excitation leaves the Hamiltonian
    # independent of the azimuth, so the drift is exactly zero
    for a, b in zip(drifts, drifts[1:]):
        if a > DRIFT_FLOOR or b > DRIFT_FLOOR:
            assert CONVERGENCE_BAND[0] <= a / b <= CONVERGENCE_BAND[1]
    for eps, d in zip(epsilons, drifts):
        assert d <= max(DRIFT_FLOOR, 1.0 * eps)
    elapsed = time.perf_counter() - t0
    report(
        6,
        elapsed,
        0.5,
        f"phi errors {['%.3e' % e for e in errs]} ratios {['%.2f' % r for r in ratios]} "
        f"drift {['%.1e' % d for d in drifts]}",
    )


def test_criterion_7_reduced_flow_conservation():
    t0 = time.perf_counter()
    p_alpha = 0.3
    ap = AveragedParams(A=0.5, B=p_alpha * p_alpha, C=0.0)
    rhs = reduced_rhs(ap)
    traj = integrate(rhs, [2.0, 0.0], (0.0, 100.0), 1e-3)
    # p_alpha never enters the integrated state; it is frozen inside B
    assert traj.y.shape[1] == 2
    assert ap.B == p_alpha * p_alpha  # bit-identical before and after the run
    s = np.sin(traj.y[:, 0])
    energies = 0.5 * traj.y[:, 1] ** 2 + ap.B / (2.0 * s * s) + 0.5 * ap.a_minus_c * s * s - np.cos(traj.y[:, 0])
    drift = float(np.max(np.abs(energies - energies[0])))
    elapsed = time.perf_counter() - t0
    assert drift < 1e-8
    report(7, elapsed, 5.0, f"energy drift over t=100 at step 1e-3: {drift:.2e}")


def test_criterion_8_derivative_consistency():
    rng = np.random.default_rng(77)

    def random_series():
        k = int(rng.integers(0, 3))
        return HarmonicSeries(tuple(rng.uniform(-1, 1, k)), tuple(rng.uniform(-1, 1, k)))

    t0 = time.perf_counter()
    n = 10000
    h = 1e-6
    for i in range(n):
        ap = AveragedParams.from_a_minus_c(float(rng.uniform(-3, 4)), float(rng.uniform(0, 1.5)))
        phi = float(rng.uniform(0.05, math.pi - 0.05))
        assert close_rel(dv(phi, ap), central_diff(lambda x: v_bar(x, ap), phi, h))
        assert close_rel(d2v(phi, ap), central_diff(lambda x: dv(x, ap), phi, h))
        dphi, dp = reduced_rhs(ap)(0.0, phi, 0.7)
        assert dphi == 0.7
        assert close_rel(dp, -central_diff(lambda x: v_bar(x, ap), phi, h))

        # full flow vs gradient of the full Hamiltonian
        e = Excitation(
            epsilon=float(rng.uniform(0.05, 0.3)),
            omega=float(rng.uniform(0.5, 3.0)),
            tau=random_series(),
            eta=random_series(),
            xi=random_series(),
        )
        s = FullState(phi, float(rng.uniform(0, 2 * math.pi)), float(rng.normal()), float(rng.normal()))
        t = float(rng.uniform(0.0, 5.0))
        grad = full_rhs(e)(t, *s)

        def H(phi=s.phi, alpha=s.alpha, p_phi=s.p_phi, p_alpha=s.p_alpha):
            return full_hamiltonian(FullState(phi, alpha, p_phi, p_alpha), t, e)

        assert close_rel(grad[0], central_diff(lambda x: H(p_phi=x), s.p_phi, h))
        assert close_rel(grad[1], central_diff(lambda x: H(p_alpha=x), s.p_alpha, h))
        assert close_rel(grad[2], -central_diff(lambda x: H(phi=x), s.phi, h))
        assert close_rel(grad[3], -central_diff(lambda x: H(alpha=x), s.alpha, h))
    elapsed = time.perf_counter() - t0
    report(8, elapsed, 5.0, f"{n} samples at 1e-6 relative")


def test_criterion_9_portrait_properties():
    t0 = time.perf_counter()
    ap = AveragedParams.from_a_minus_c(2.0, 0.0)
    nx = ny = 512
    grid = build_grid(ap, nx=nx, ny=ny)

    v = np.array([v_bar(float(x), ap) for x in grid.phi])
    shifted = grid.values - grid.values[0]
    expected = (v - v[0])[:, None]
    assert float(np.max(np.abs(shifted - expected))) <= 1e-12

    assert np.array_equal(grid.p, -grid.p[::-1])
    assert np.array_equal(grid.values, grid.values[:, ::-1])

    assert len(grid.separatrix_levels) == 1
    assert abs(grid.separatrix_levels[0] - 1.25) <= 1e-9

    contours = extract_contours(grid)
    sep = [lc for lc in contours if lc.is_separatrix][0]
    saddle = [eq for eq in grid.equilibria if eq.kind == "unstable"][0]
    dphi = (grid.phi_range[1] - grid.phi_range[0]) / (nx - 1)
    dp = (grid.p_range[1] - grid.p_range[0]) / (ny - 1)
    cells = min(
        math.hypot((pt[0] - saddle.phi) / dphi, pt[1] / dp)
        for poly in sep.polylines
        for pt in poly
    )
    assert cells <= 2.0  # within the 2/nx interpolation tolerance of the window

    svg_a = written(render_svg, grid, contours)
    svg_b = written(render_svg, build_grid(ap, nx=nx, ny=ny), extract_contours(grid))
    assert svg_a.encode() == svg_b.encode()
    elapsed = time.perf_counter() - t0
    report(
        9,
        elapsed,
        1.0,
        f"separatrix level {grid.separatrix_levels[0]:.12f}, {cells:.2f} cells from saddle",
    )
