import itertools
import math
import random

import numpy as np
import pytest

from conftest import (
    CORNER_MOMENTA,
    CORNER_PHI,
    ZERO_MOMENTS,
    central_diff,
    close_rel,
    full_slopes,
)

from pendulum_vib import dynamics
from pendulum_vib.dynamics import (
    FullState,
    IntegrationBlowUpError,
    SymmetryViolationError,
    averaged_hamiltonian,
    averaged_params,
    compare_full_averaged,
    full_hamiltonian,
    full_rhs,
    integrate,
    reduced_rhs,
)
from pendulum_vib.excitation import (
    Excitation,
    HarmonicSeries,
    MomentMatrix,
    eval_velocity,
    velocity_moments,
)
from pendulum_vib.potential import (
    AveragedParams,
    PhysicalParams,
    SingularConfigurationError,
    v_bar,
)

ZERO_EXC = Excitation(epsilon=0.1, omega=1.0)
SIN = HarmonicSeries(sine_coeffs=(1.0,))
COS = HarmonicSeries(cosine_coeffs=(1.0,))

VERTICAL = Excitation(epsilon=0.1, omega=1.0, xi=SIN)
CIRCULAR = Excitation(epsilon=0.1, omega=1.0, tau=COS, eta=SIN)


def random_excitation(rng):
    def series():
        k = int(rng.integers(0, 4))
        return HarmonicSeries(tuple(rng.uniform(-1, 1, k)), tuple(rng.uniform(-1, 1, k)))

    return Excitation(
        epsilon=float(rng.uniform(0.05, 0.3)),
        omega=float(rng.uniform(0.5, 3.0)),
        tau=series(),
        eta=series(),
        xi=series(),
    )


def random_state(rng):
    return FullState(
        phi=float(rng.uniform(0.3, math.pi - 0.3)),
        alpha=float(rng.uniform(0.0, 2.0 * math.pi)),
        p_phi=float(rng.normal()),
        p_alpha=float(rng.normal()),
    )


def test_full_hamiltonian_rest_values():
    assert full_hamiltonian(FullState(math.pi / 2, 0.0, 0.0, 0.0), 0.0, ZERO_EXC) == pytest.approx(0.0, abs=1e-15)
    assert full_hamiltonian(FullState(0.0, 0.0, 0.0, 0.0), 0.0, ZERO_EXC) == -1.0


def test_full_hamiltonian_vertical_kick():
    e = Excitation(epsilon=0.1, omega=10.0, xi=SIN)
    h = full_hamiltonian(FullState(math.pi / 2, 0.0, 0.0, 0.0), 0.0, e)
    assert h == pytest.approx(50.0, abs=1e-12)


def test_full_hamiltonian_singular_pole():
    with pytest.raises(SingularConfigurationError):
        full_hamiltonian(FullState(0.0, 0.0, 0.0, 0.5), 0.0, ZERO_EXC)


def test_zero_excitation_full_equals_averaged():
    rng = np.random.default_rng(2)
    zero_mm = MomentMatrix(ZERO_MOMENTS)
    for _ in range(50):
        s = random_state(rng)
        h_full = full_hamiltonian(s, float(rng.uniform(0, 10)), ZERO_EXC)
        h_avg = averaged_hamiltonian(s, zero_mm)
        assert close_rel(h_full, h_avg, rtol=1e-14)


def test_full_rhs_planar_examples():
    f = full_rhs(ZERO_EXC)
    assert f(0.0, *FullState(math.pi / 2, 0.0, 0.0, 0.0)) == (0.0, 0.0, -1.0, 0.0)
    dphi, dalpha, dp_phi, dp_alpha = f(0.0, *FullState(math.pi / 2, 0.0, 0.3, 0.0))
    assert dphi == 0.3
    assert dp_alpha == 0.0


def test_full_rhs_matches_hamiltonian_gradient():
    rng = np.random.default_rng(4)
    h = 1e-6
    for _ in range(200):
        e = random_excitation(rng)
        s = random_state(rng)
        t = float(rng.uniform(0.0, 5.0))
        dphi, dalpha, dp_phi, dp_alpha = full_rhs(e)(t, *s)

        def H(phi=s.phi, alpha=s.alpha, p_phi=s.p_phi, p_alpha=s.p_alpha):
            return full_hamiltonian(FullState(phi, alpha, p_phi, p_alpha), t, e)

        assert close_rel(dphi, central_diff(lambda x: H(p_phi=x), s.p_phi, h))
        assert close_rel(dalpha, central_diff(lambda x: H(p_alpha=x), s.p_alpha, h))
        assert close_rel(dp_phi, -central_diff(lambda x: H(phi=x), s.phi, h))
        assert close_rel(dp_alpha, -central_diff(lambda x: H(alpha=x), s.alpha, h))


def test_averaged_hamiltonian_zero_moments():
    s = FullState(math.pi / 3, 0.0, 0.0, 0.0)
    assert averaged_hamiltonian(s, MomentMatrix(ZERO_MOMENTS)) == pytest.approx(-0.5, abs=1e-15)


def test_averaged_hamiltonian_vertical_only():
    mm = velocity_moments(Excitation(epsilon=0.1, omega=2.0, xi=SIN))
    assert mm.xi_xi == 2.0
    for alpha in (0.0, 1.0, 4.5):
        s = FullState(math.pi / 2, alpha, 0.0, 0.0)
        assert averaged_hamiltonian(s, mm) == pytest.approx(1.0, abs=1e-14)


def simpson_time_average(f, period, n=4096):
    ts = np.linspace(0.0, period, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(np.sum(w * np.array([f(t) for t in ts]))) * (period / n / 3.0) / period


def test_averaged_hamiltonian_is_the_fast_time_average():
    # frozen-state mean of the full Hamiltonian over one fast period
    rng = np.random.default_rng(12)
    for _ in range(20):
        e = random_excitation(rng)
        s = random_state(rng)
        avg = simpson_time_average(lambda t: full_hamiltonian(s, float(t), e), e.fast_period)
        assert abs(avg - averaged_hamiltonian(s, velocity_moments(e))) <= 1e-10


def test_averaged_params_nondimensionalisation():
    mm = velocity_moments(Excitation(epsilon=0.1, omega=2.0, xi=SIN))
    p = PhysicalParams(m=2.0, l=0.5, g=4.0)
    ap = averaged_params(mm, p_alpha=0.6, p=p)
    assert ap.A == pytest.approx(2.0 / (4.0 * 0.5))
    assert ap.C == 0.0
    assert ap.B == pytest.approx(0.36 / (4.0 * 0.125 * 4.0))


def test_reduced_rhs_examples():
    assert reduced_rhs(AveragedParams.from_a_minus_c(0.0, 0.0))(0.0, math.pi / 2, 0.0) == (0.0, -1.0)
    dphi, dp = reduced_rhs(AveragedParams.from_a_minus_c(2.0, 0.0))(0.0, 2 * math.pi / 3, 0.0)
    assert dphi == 0.0
    assert dp == pytest.approx(0.0, abs=1e-15)


def test_reduced_rhs_matches_potential_gradient():
    rng = np.random.default_rng(31)
    for _ in range(500):
        ap = AveragedParams.from_a_minus_c(float(rng.uniform(-3, 4)), float(rng.uniform(0, 1.5)))
        phi = float(rng.uniform(0.05, math.pi - 0.05))
        p_phi = float(rng.normal())
        dphi, dp = reduced_rhs(ap)(0.0, phi, p_phi)
        assert dphi == p_phi
        assert close_rel(dp, -central_diff(lambda x: v_bar(x, ap), phi))


def test_reduced_rhs_shift_invariance():
    rng = np.random.default_rng(32)
    for _ in range(200):
        a = float(rng.uniform(0, 3))
        c = float(rng.uniform(0, 3))
        k = float(rng.uniform(0, 5))
        b = float(rng.uniform(0, 1))
        phi = float(rng.uniform(0.1, math.pi - 0.1))
        base = reduced_rhs(AveragedParams(A=a, B=b, C=c))(0.0, phi, 0.3)
        shifted = reduced_rhs(AveragedParams(A=a + k, B=b, C=c + k))(0.0, phi, 0.3)
        assert abs(base[1] - shifted[1]) <= 1e-14 * max(1.0, abs(base[1]))


def test_integrate_zero_rhs_is_constant():
    traj = integrate(lambda t, *y: np.zeros_like(y), [1.0, -2.0], (0.0, 1.0), 0.1)
    assert np.all(traj.y == np.array([1.0, -2.0]))
    assert traj.t[0] == 0.0 and traj.t[-1] == 1.0


def test_integrate_lands_exactly_on_end_time():
    # t0 + 3 * 0.1 rounds past 0.3 and t0 + 7 * 0.1 past 0.7, so neither is a
    # whole step; 0.30000000000006005 lies past the third whole step's time
    cases = [(0.0, t1, 0.1) for t1 in (0.3, 0.7, 0.30000000000006005, 1.0, 0.95)]
    # the compare sweep's spans at each epsilon's step
    cases += [(0.0, 10.0, 2.0 * math.pi * eps / 64) for eps in (0.1, 0.05, 0.025)]
    rng = random.Random(1810)
    for _ in range(300):
        t0 = rng.uniform(-10.0, 10.0)
        cases.append((t0, t0 + rng.uniform(1e-3, 3.0), rng.choice((0.1, 0.3, 1.0 / 3.0))))
    for t0, t1, step in cases:
        ts = list(integrate(lambda t, *y: [1.0], [0.0], (t0, t1), step).ts)
        # a whole step for every k with t0 + k * step <= t1 as rounded, then
        # one shorter step to t1 if the last whole one falls short of it
        n = 0
        while t0 + (n + 1) * step <= t1:
            n += 1
        whole = [t0 + k * step for k in range(n + 1)]
        assert ts == whole + [t1] * (whole[-1] < t1), (t0, t1, step)
        assert ts[-1] == t1
    traj = integrate(lambda t, *y: np.ones_like(y), [0.0], (0.0, 0.95), 0.1)
    assert traj.y[-1, 0] == pytest.approx(0.95, abs=1e-12)


def test_integrate_takes_a_short_step_over_a_span_shorter_than_one():
    # a span shorter than a step is one short step, not zero steps ending at t0
    traj = integrate(lambda t, *y: [1.0 for _ in y], [0.0], (0.0, 1e-12), 0.1)
    assert len(traj.t) == 2
    assert traj.t[-1] == 1e-12
    assert traj.y[-1, 0] == 1e-12


def test_integrate_small_angle_period():
    # near the bottom the reduced flow is a unit-frequency oscillator
    rhs = reduced_rhs(AveragedParams.from_a_minus_c(0.0, 0.0))
    traj = integrate(rhs, [1e-3, 0.0], (0.0, 2.0 * math.pi), 1e-3)
    assert abs(traj.y[-1, 0] - 1e-3) < 1e-9
    assert abs(traj.y[-1, 1]) < 1e-9


def test_integrate_validates_inputs():
    rhs = lambda t, *y: y
    with pytest.raises(ValueError):
        integrate(rhs, [1.0], (0.0, 1.0), 0.0)
    with pytest.raises(ValueError):
        integrate(rhs, [1.0], (1.0, 1.0), 0.1)


def test_integrate_reports_blow_up_time():
    rhs = lambda t, *y: [v * v for v in y]
    with pytest.raises(IntegrationBlowUpError) as err:
        integrate(rhs, [1.0], (0.0, 50.0), 1.0)
    assert 0.0 < err.value.time <= 50.0


def test_integrate_reports_a_stage_overflow_as_a_blow_up():
    # the second stage is infinite, and math.cos refuses it with ValueError
    rhs = lambda t, *y: [1e308 * (1.0 + math.cos(y[0]))]
    with pytest.raises(IntegrationBlowUpError) as err:
        integrate(rhs, [0.0], (0.0, 1.0), 0.5)
    assert err.value.time == 0.5
    # a ValueError with finite stages is the rhs's own and passes through
    with pytest.raises(ValueError, match="math domain error"):
        integrate(lambda t, *y: [math.sqrt(y[0])], [-1.0], (0.0, 1.0), 0.5)


def test_integrate_refuses_too_many_steps():
    with pytest.raises(ValueError, match=r"takes 1\.5e\+06 steps, more than the limit of 1000000"):
        integrate(lambda t, *y: y, [1.0], (0.0, 1.5), 1e-6)
    with pytest.raises(ValueError, match="more than the limit"):
        integrate(lambda t, *y: y, [1.0], (-1e308, 1e308), 1.0)


def test_full_rhs_cache_matches_a_fresh_closure_bit_for_bit():
    # the pivot velocity is reused between stages at the same time; the
    # result must be what a fresh full_rhs closure gives at every stage
    for e in (VERTICAL, CIRCULAR):
        span, h = (0.0, 3.0), e.fast_period / dynamics.STEPS_PER_FAST_PERIOD
        fast = integrate(full_rhs(e), FullState(2.0, 0.5, 0.1, 0.3), span, h)
        plain = integrate(lambda t, *y: full_rhs(e)(t, *y),
                          FullState(2.0, 0.5, 0.1, 0.3), span, h)
        assert np.array_equal(fast.t, plain.t)
        assert np.array_equal(fast.y, plain.y)


def test_full_rhs_evaluates_the_velocity_under_three_times_a_step(monkeypatch):
    calls = []

    def counting(e, t):
        calls.append(t)
        return eval_velocity(e, t)

    monkeypatch.setattr(dynamics, "eval_velocity", counting)
    h = VERTICAL.fast_period / dynamics.STEPS_PER_FAST_PERIOD
    traj = integrate(full_rhs(VERTICAL), FullState(2.0, 0.0, 0.0, 0.3), (0.0, 10.0), h)
    steps = len(traj.t) - 1
    assert len(calls) < 3 * steps


def test_full_slopes_matches_the_term_by_term_equations_bit_for_bit():
    # the kernel shares sub-expressions of the term-by-term equations; every
    # output keeps their bits, the sign of a zero included (float.hex tells
    # -0.0 from 0.0)
    rng = random.Random(2001)

    def draw(scale):
        return rng.choice((0.0, -0.0, rng.uniform(-scale, scale), rng.gauss(0.0, scale)))

    for _ in range(4000):
        vel = (draw(3.0), draw(3.0), draw(3.0))
        state = (rng.choice((rng.uniform(-4.0, 4.0), rng.uniform(-1e-6, 1e-6))),
                 rng.uniform(-7.0, 7.0), draw(2.0), draw(2.0))
        got = dynamics._full_slopes(vel, *state)
        assert list(map(float.hex, got)) == list(map(float.hex, full_slopes(vel, *state))), (
            vel, state)

    # the s == 0 branch: a vertical pivot and p_alpha = 0 return, a nonzero
    # p_alpha or a horizontal velocity refuse with the same message
    for phi, alpha, p_phi, xd in itertools.product(
        (0.0, -0.0), (0.0, -0.0, 0.5, 3.0), (0.0, -0.0, 0.7, -2.0), (0.0, -0.0, 1.0, -1.5)
    ):
        for vel, p_alpha in (((0.0, 0.0, xd), 0.0), ((0.0, 0.0, xd), -0.0),
                             ((0.0, 0.0, xd), 0.3), ((0.4, 0.0, xd), 0.0)):
            try:
                expected = list(map(float.hex, full_slopes(vel, phi, alpha, p_phi, p_alpha)))
            except ValueError as exc:
                with pytest.raises(SingularConfigurationError) as err:
                    dynamics._full_slopes(vel, phi, alpha, p_phi, p_alpha)
                assert str(err.value) == str(exc)
                continue
            got = dynamics._full_slopes(vel, phi, alpha, p_phi, p_alpha)
            assert list(map(float.hex, got)) == expected, (vel, phi, alpha, p_phi, p_alpha)


def test_reduced_energy_conservation():
    ap = AveragedParams.from_a_minus_c(0.5, 0.09)
    rhs = reduced_rhs(ap)
    traj = integrate(rhs, [2.0, 0.0], (0.0, 10.0), 1e-3)
    energies = 0.5 * traj.y[:, 1] ** 2 + np.array([v_bar(float(x), ap) for x in traj.y[:, 0]])
    assert np.max(np.abs(energies - energies[0])) < 1e-9


def bench_like_excitation(rng):
    # circular harmonic 1 on tau/eta, vertical harmonics 2 and 3 only, as in
    # the benchmark's compare workload
    r = float(rng.uniform(0.2, 0.5))
    return Excitation(
        epsilon=0.1, omega=1.0, tau=HarmonicSeries((r,)), eta=HarmonicSeries((), (r,)),
        xi=HarmonicSeries((0.0, float(rng.uniform(0.05, 0.25))),
                          (0.0, float(rng.uniform(0.05, 0.25)), float(rng.uniform(0.02, 0.1)))),
    )


def table_full_rhs(e, t_end):
    """The full flow as compare_full_averaged steps it over (0, t_end): its
    equations at the table velocity ``eval_velocity(e, j * step / 2)`` at each
    whole step's stage times, as integrate computes them, and at its end, and
    at eval_velocity's own velocity at any other time."""
    step = e.fast_period / dynamics.STEPS_PER_FAST_PERIOD
    n = 2 * dynamics.STEPS_PER_FAST_PERIOD
    table = [eval_velocity(e, j * (0.5 * step)) for j in range(n)]
    at = {}
    t = 0.0
    for k, (t_next, h) in enumerate(dynamics._time_grid([], (0.0, t_end), step)[2]):
        if h == step:
            at.update({t: table[2 * k % n], t + 0.5 * h: table[(2 * k + 1) % n],
                       t + h: table[(2 * k + 2) % n], t_next: table[(2 * k + 2) % n]})
        t = t_next

    def f(t, *y):
        vel = at.get(t)
        return dynamics._full_slopes(eval_velocity(e, t) if vel is None else vel, *y)

    return f


def reference_norms(e, initial, t_end, full_flow):
    """The three norms from each flow integrated alone by integrate, the full
    flow as ``full_flow(e, t_end)`` returns it."""
    span, h = (0.0, t_end), e.fast_period / dynamics.STEPS_PER_FAST_PERIOD
    full = integrate(full_flow(e, t_end), initial, span, h)
    ap = averaged_params(velocity_moments(e), initial.p_alpha, PhysicalParams())
    red = integrate(reduced_rhs(ap), [initial.phi, initial.p_phi], span, h)
    assert np.array_equal(full.t, red.t)
    return full, (
        np.max(np.abs(full.y[:, 0] - red.y[:, 0])),
        np.max(np.abs(full.y[:, 2] - red.y[:, 1])),
        np.max(np.abs(full.y[:, 3] - initial.p_alpha)),
    )


def test_compare_steps_both_flows_as_one_product_system():
    # RK4 acts on each component separately, so the product system's norms
    # are bit-identical to those of each flow integrated alone, the full one
    # at the table's pivot velocities
    rng = np.random.default_rng(12)
    cases = [(e, FullState(2.0, 0.0, 0.0, 0.3)) for e in (VERTICAL, CIRCULAR)]
    cases += [
        (bench_like_excitation(rng), FullState(float(rng.uniform(0.8, 2.3)),
                                               float(rng.uniform(0.0, 2.0 * math.pi)),
                                               float(rng.uniform(-0.3, 0.3)),
                                               float(rng.uniform(0.2, 0.6))))
        for _ in range(4)
    ]
    for e, initial in cases:
        h = e.fast_period / dynamics.STEPS_PER_FAST_PERIOD
        # a span ending in a shorter final step, and one shorter than a step
        for t_end in (3.0, h / 3.0):
            report = compare_full_averaged(e, initial, t_end)
            full, norms = reference_norms(e, initial, t_end, table_full_rhs)
            assert 0.0 < full.t[-1] - full.t[-2] < h
            assert (report.max_err_phi, report.max_err_p_phi, report.p_alpha_drift) == norms


@pytest.mark.parametrize("eps", [0.1, 0.05, 0.025])
def test_compare_gap_matches_a_finer_reduced_flow(eps):
    # criterion-6 setting; the reduced flow at h / 8 stands in for the exact one
    e = Excitation(epsilon=eps, omega=1.0, xi=SIN)
    initial = FullState(2.0, 0.0, 0.0, 0.3)
    report = compare_full_averaged(e, initial, 10.0)
    h = e.fast_period / dynamics.STEPS_PER_FAST_PERIOD
    full = integrate(full_rhs(e), initial, (0.0, 10.0), h)
    ref = integrate(reduced_rhs(averaged_params(velocity_moments(e), 0.3, PhysicalParams())),
                    [2.0, 0.0], (0.0, 10.0), h / 8)
    # every 8th fine time is bit-identical to a full-grid time; the final
    # shorter step is left out
    n = len(full.t) - 1
    assert np.array_equal(ref.t[:8 * n:8], full.t[:n])
    gap = np.max(np.abs(full.y[:n, 0] - ref.y[:8 * n:8, 0]))
    assert report.max_err_phi == pytest.approx(gap, rel=1e-4)


def product_reference(e, initial, t_end):
    """compare_full_averaged's norms from integrate on the product system
    (phi, alpha, p_phi, p_alpha, phi_r, p_r), the full flow at the table's
    pivot velocities, or the exception it raises."""
    try:
        full = table_full_rhs(e, t_end)
        reduced = reduced_rhs(averaged_params(velocity_moments(e), initial.p_alpha,
                                              PhysicalParams()))
        y = integrate(lambda t, *z: (*full(t, *z[:4]), *reduced(t, *z[4:])),
                      (*initial, initial.phi, initial.p_phi), (0.0, t_end),
                      e.fast_period / dynamics.STEPS_PER_FAST_PERIOD).y
    except ValueError as exc:
        return exc
    return (np.max(np.abs(y[:, 0] - y[:, 4])), np.max(np.abs(y[:, 2] - y[:, 5])),
            np.max(np.abs(y[:, 3] - initial.p_alpha)))


def test_compare_fails_and_answers_as_the_product_reference_at_the_float_corners():
    # every corner state, each with a drawn azimuth and span, fails with the
    # reference's exception type, message and blow-up time, or gives its norms
    rng = random.Random(1207)
    corners = [(phi, p_phi, p_alpha) for phi in CORNER_PHI
               for p_phi in CORNER_MOMENTA for p_alpha in CORNER_MOMENTA]
    for e in (VERTICAL, CIRCULAR):
        for phi, p_phi, p_alpha in corners:
            initial = FullState(phi, rng.choice((0.0, 0.5)), p_phi, p_alpha)
            t_end = rng.choice((e.fast_period / 100.0, e.fast_period))
            expected = product_reference(e, initial, t_end)
            try:
                report = compare_full_averaged(e, initial, t_end)
            except ValueError as exc:
                assert isinstance(expected, Exception), (initial, t_end, exc)
                assert type(exc) is type(expected), (initial, t_end)
                assert str(exc) == str(expected), (initial, t_end)
                assert getattr(exc, "time", None) == getattr(expected, "time", None)
                continue
            assert not isinstance(expected, Exception), (initial, t_end, expected)
            assert (report.max_err_phi, report.max_err_p_phi, report.p_alpha_drift) == expected


def test_compare_replays_a_failing_step_at_its_own_velocities(monkeypatch):
    # the replay that tells a blow-up from the flow's own ValueError must see
    # the pivot velocities that the failing step's stages saw
    slopes, replay = dynamics._full_slopes, dynamics._replay_checked
    vels, starts = [], []
    monkeypatch.setattr(dynamics, "_full_slopes",
                        lambda vel, *y: (vels.append(vel), slopes(vel, *y))[1])
    monkeypatch.setattr(dynamics, "_replay_checked",
                        lambda *args: (starts.append(len(vels)), replay(*args))[1])
    longest = 0
    for e, phi, p_phi, p_alpha in itertools.product(
        (VERTICAL, CIRCULAR), CORNER_PHI, CORNER_MOMENTA, CORNER_MOMENTA
    ):
        vels.clear()
        starts.clear()
        try:
            compare_full_averaged(e, FullState(phi, 0.0, p_phi, p_alpha), e.fast_period)
        except ValueError:
            pass
        if starts:
            # the failing step's own stages begin at a multiple of four
            step_start = (starts[0] - 1) // 4 * 4
            replayed = vels[starts[0]:]
            assert replayed == vels[step_start:step_start + len(replayed)]
            longest = max(longest, len(replayed))
    assert longest >= 2


def test_compare_readme_sweep_is_pinned():
    # the README default sweep; any change to the integrator's arithmetic
    # moves these last digits
    initial = FullState(2.0, 0.0, 0.0, 0.3)
    errs = [
        compare_full_averaged(Excitation(epsilon=eps, omega=1.0, xi=SIN), initial, 10.0).max_err_phi
        for eps in (0.1, 0.05, 0.025)
    ]
    assert errs == [0.1406231067002821, 0.05629476893962004, 0.026580604698629884]


def test_compare_table_stays_within_1e_9_of_full_rhs():
    # a table phase differs from omega * t / epsilon by rounding alone, so the
    # norms stay within 1e-9 relative of those of full_rhs(e) integrated alone
    # (4.7e-11 measured), and a zero norm stays exactly zero; the shapes of
    # the README sweep, test_cli's four compare pins and three drawn
    # bench-like excitations, at the README sweep's amplitudes
    rng = np.random.default_rng(19)
    start = FullState(2.0, 0.0, 0.0, 0.3)
    cases = [(start, shape) for shape in (
        VERTICAL,
        Excitation(epsilon=0.1, omega=2.0, xi=SIN),
        Excitation(epsilon=0.1, omega=1.7, tau=HarmonicSeries((0.8,)),
                   eta=HarmonicSeries((), (0.8,))),
        Excitation(epsilon=0.1, omega=1.0, tau=HarmonicSeries((0.35,)),
                   eta=HarmonicSeries((), (0.35,)),
                   xi=HarmonicSeries((0.0, 0.15), (0.0, 0.12, 0.06))),
    )]
    cases += [
        (FullState(float(rng.uniform(0.8, 2.3)), float(rng.uniform(0.0, 2.0 * math.pi)),
                   float(rng.uniform(-0.3, 0.3)), float(rng.uniform(0.2, 0.6))),
         bench_like_excitation(rng))
        for _ in range(3)
    ]
    for initial, shape in cases:
        for eps in (0.1, 0.05, 0.025):
            e = Excitation(eps, shape.omega, shape.tau, shape.eta, shape.xi)
            report = compare_full_averaged(e, initial, 10.0)
            _, norms = reference_norms(e, initial, 10.0, lambda e, t_end: full_rhs(e))
            got = (report.max_err_phi, report.max_err_p_phi, report.p_alpha_drift)
            for new, old in zip(got, norms):
                if old == 0.0:
                    assert new == 0.0, (initial, e, got, norms)
                else:
                    assert abs(new - old) <= 1e-9 * old, (initial, e, got, norms)


def test_compare_evaluates_the_velocity_once_a_table_phase(monkeypatch):
    calls = []

    def counting(e, t):
        calls.append(t)
        return eval_velocity(e, t)

    monkeypatch.setattr(dynamics, "eval_velocity", counting)
    step = VERTICAL.fast_period / dynamics.STEPS_PER_FAST_PERIOD
    # a span ending in a shorter final step, and one of whole steps only
    for t_end, whole in ((10.0, False), (2.0 * VERTICAL.fast_period, True)):
        grid = list(dynamics._time_grid([], (0.0, t_end), step)[2])
        assert (grid[-1][1] == step) is whole
        calls.clear()
        compare_full_averaged(VERTICAL, FullState(2.0, 0.0, 0.0, 0.3), t_end)
        assert len(calls) <= 2 * dynamics.STEPS_PER_FAST_PERIOD + 3


def test_compare_computes_dv_inline_and_the_kernel_four_times_a_step(monkeypatch):
    # the README vertical sweep: the reduced stages never call dv, and every
    # step calls the full-flow kernel once a stage
    calls = {"dv": 0, "slopes": 0}
    dv, slopes = dynamics.dv, dynamics._full_slopes

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(dynamics, "dv", counting("dv", dv))
    monkeypatch.setattr(dynamics, "_full_slopes", counting("slopes", slopes))
    for eps in (0.1, 0.05, 0.025):
        e = Excitation(epsilon=eps, omega=1.0, xi=SIN)
        step = e.fast_period / dynamics.STEPS_PER_FAST_PERIOD
        n_steps = len(list(dynamics._time_grid([], (0.0, 10.0), step)[2]))
        calls.update(dv=0, slopes=0)
        compare_full_averaged(e, FullState(2.0, 0.0, 0.0, 0.3), 10.0)
        assert calls == {"dv": 0, "slopes": 4 * n_steps}, eps


def test_compare_zero_excitation_flows_coincide():
    # epsilon only sets the full step here, so a small value isolates the
    # integrator discrepancy between the two flows
    e = Excitation(epsilon=0.01, omega=1.0)
    report = compare_full_averaged(e, FullState(2.0, 0.0, 0.0, 0.3), 10.0)
    assert report.max_err_phi < 1e-8
    assert report.max_err_p_phi < 1e-8
    assert report.p_alpha_drift == 0.0


def test_compare_rejects_asymmetric_excitation():
    e = Excitation(epsilon=0.1, omega=1.0, tau=COS, eta=COS)
    with pytest.raises(SymmetryViolationError) as err:
        compare_full_averaged(e, FullState(2.0, 0.0, 0.0, 0.3), 1.0)
    assert err.value.report.tau_eta == pytest.approx(0.5)


def test_compare_vertical_errors_shrink_with_epsilon():
    initial = FullState(2.0, 0.0, 0.0, 0.3)
    reports = [
        compare_full_averaged(Excitation(epsilon=eps, omega=1.0, xi=SIN), initial, 5.0)
        for eps in (0.1, 0.05)
    ]
    assert reports[1].max_err_phi < reports[0].max_err_phi
    # vertical excitation leaves the Hamiltonian independent of the azimuth,
    # so p_alpha is conserved exactly even before averaging
    assert reports[0].p_alpha_drift == 0.0


def test_compare_circular_p_alpha_drift_halves():
    initial = FullState(2.0, 0.0, 0.0, 0.3)
    reports = [
        compare_full_averaged(
            Excitation(epsilon=eps, omega=1.0, tau=COS, eta=SIN), initial, 5.0
        )
        for eps in (0.1, 0.05, 0.025)
    ]
    for a, b in zip(reports, reports[1:]):
        assert 1.4 <= a.p_alpha_drift / b.p_alpha_drift <= 3.5
        assert 1.4 <= a.max_err_phi / b.max_err_phi <= 3.5


def test_physical_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(m=0.0)
    with pytest.raises(ValueError):
        PhysicalParams(g=-9.8)
    for name in ("m", "l", "g"):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
                PhysicalParams(**{name: bad})
