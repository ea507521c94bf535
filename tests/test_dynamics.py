import itertools
import math
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    CORNER_MOMENTA,
    CORNER_PHI,
    ZERO_MOMENTS,
    Bounded,
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
    compare_sweep,
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
# the shapes of test_cli's four compare pins, at the README sweep's first
# amplitude; the pins start at --initial's default
PIN_SHAPES = {
    "readme-vertical": VERTICAL,
    "vertical-omega-2": Excitation(epsilon=0.1, omega=2.0, xi=SIN),
    "circular": Excitation(epsilon=0.1, omega=1.7, tau=HarmonicSeries((0.8,)),
                           eta=HarmonicSeries((), (0.8,))),
    "bench-like": Excitation(epsilon=0.1, omega=1.0, tau=HarmonicSeries((0.35,)),
                             eta=HarmonicSeries((), (0.35,)),
                             xi=HarmonicSeries((0.0, 0.15), (0.0, 0.12, 0.06))),
}
README_SWEEP = (0.1, 0.05, 0.025)


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
    # full_rhs(e) keeps no state between calls: one closure stepped through a
    # run gives what a fresh closure gives at every stage
    for e in (VERTICAL, CIRCULAR):
        span, h = (0.0, 3.0), e.fast_period / dynamics.STEPS_PER_FAST_PERIOD
        fast = integrate(full_rhs(e), FullState(2.0, 0.5, 0.1, 0.3), span, h)
        plain = integrate(lambda t, *y: full_rhs(e)(t, *y),
                          FullState(2.0, 0.5, 0.1, 0.3), span, h)
        assert np.array_equal(fast.t, plain.t)
        assert np.array_equal(fast.y, plain.y)


def test_full_rhs_evaluates_the_velocity_once_a_stage(monkeypatch):
    calls = []

    def counting(e, t):
        calls.append(t)
        return eval_velocity(e, t)

    monkeypatch.setattr(dynamics, "eval_velocity", counting)
    h = VERTICAL.fast_period / dynamics.STEPS_PER_FAST_PERIOD
    traj = integrate(full_rhs(VERTICAL), FullState(2.0, 0.0, 0.0, 0.3), (0.0, 10.0), h)
    steps = len(traj.t) - 1
    assert len(calls) == 4 * steps


def test_full_slopes_is_within_the_forward_error_bound_of_the_exact_equations():
    # the term-by-term equations in exact arithmetic, from the kernel's own
    # floats (the velocity, the state and math.sin/math.cos of the angles);
    # every output of the kernel passes through at most 12 roundings, so it
    # lies within gamma_12 = 12 u / (1 - 12 u) times the magnitude of the
    # equations, which bounds the magnitude of the kernel's own expression
    rng = random.Random(2001)
    u = Fraction(1, 2 ** 53)
    bound = 12 * u / (1 - 12 * u)

    def draw(scale):
        return rng.choice((0.0, -0.0, rng.uniform(-scale, scale), rng.gauss(0.0, scale)))

    for _ in range(4000):
        vel = (draw(3.0), draw(3.0), draw(3.0))
        state = (rng.choice((rng.uniform(-4.0, 4.0), rng.uniform(-1e-6, 1e-6))),
                 rng.uniform(-7.0, 7.0), draw(2.0), draw(2.0))
        got = dynamics._full_slopes(vel, *state)
        for x, exact in zip(got, full_slopes(vel, *state, num=Bounded)):
            assert abs(Fraction(x) - exact.value) <= bound * exact.magnitude, (vel, state)

    # the s == 0 branch: a vertical pivot and p_alpha = 0 return the term-by-term
    # values, a nonzero p_alpha or a horizontal velocity refuse with the same message
    for phi, alpha, p_phi, xd in itertools.product(
        (0.0, -0.0), (0.0, -0.0, 0.5, 3.0), (0.0, -0.0, 0.7, -2.0), (0.0, -0.0, 1.0, -1.5)
    ):
        for vel, p_alpha in (((0.0, 0.0, xd), 0.0), ((0.0, 0.0, xd), -0.0),
                             ((0.0, 0.0, xd), 0.3), ((0.4, 0.0, xd), 0.0)):
            try:
                expected = full_slopes(vel, phi, alpha, p_phi, p_alpha)
            except ValueError as exc:
                with pytest.raises(SingularConfigurationError) as err:
                    dynamics._full_slopes(vel, phi, alpha, p_phi, p_alpha)
                assert str(err.value) == str(exc)
                continue
            got = dynamics._full_slopes(vel, phi, alpha, p_phi, p_alpha)
            assert got == expected, (vel, phi, alpha, p_phi, p_alpha)


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


def table_full_rhs(e, t_end, n=dynamics.STEPS_PER_FAST_PERIOD):
    """The full flow as compare_full_averaged steps it over (0, t_end) at
    ``n`` steps a fast period: its equations at the table velocity
    ``eval_velocity(e, j * step / 2)`` at each whole step's stage times, as
    integrate computes them, and at its end, and at eval_velocity's own
    velocity at any other time."""
    step = e.fast_period / n
    m = 2 * n
    table = [eval_velocity(e, j * (0.5 * step)) for j in range(m)]
    at = {}
    t = 0.0
    for k, (t_next, h) in enumerate(dynamics._time_grid([], (0.0, t_end), step)[2]):
        if h == step:
            at.update({t: table[2 * k % m], t + 0.5 * h: table[(2 * k + 1) % m],
                       t + h: table[(2 * k + 2) % m], t_next: table[(2 * k + 2) % m]})
        t = t_next

    def f(t, *y):
        vel = at.get(t)
        return dynamics._full_slopes(eval_velocity(e, t) if vel is None else vel, *y)

    return f


def reference_norms(e, initial, t_end, full_flow, n=dynamics.STEPS_PER_FAST_PERIOD):
    """The three norms from each flow integrated alone by integrate at ``n``
    steps a fast period, the full flow as ``full_flow(e, t_end)`` returns it."""
    step = e.fast_period / n
    full = integrate(full_flow(e, t_end), initial, (0.0, t_end), step)
    ap = averaged_params(velocity_moments(e), initial.p_alpha, PhysicalParams())
    red = integrate(reduced_rhs(ap), [initial.phi, initial.p_phi], (0.0, t_end), step)
    assert np.array_equal(red.t, full.t)
    return full, (
        np.max(np.abs(full.y[:, 0] - red.y[:, 0])),
        np.max(np.abs(full.y[:, 2] - red.y[:, 1])),
        np.max(np.abs(full.y[:, 3] - initial.p_alpha)),
    )


def compare_alone(e, initial, t_end, n):
    """One run of compare_sweep alone at ``n`` steps a fast period: no record
    to fill or read, and (A, B, C) from ``e``'s moments, unchecked."""
    ap = averaged_params(velocity_moments(e), initial.p_alpha, PhysicalParams())
    return dynamics._compare_run(e, ap, initial, t_end, n, None, False)


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


@pytest.mark.parametrize("sweep, per_period", [
    (README_SWEEP, (64, 32, 16)),
    ((0.1, 0.08, 0.05, 0.04), (64, 64, 32, 32)),
])
def test_compare_steps_each_run_at_the_fewest_steps_a_period_within_the_coarsest_step(
        monkeypatch, sweep, per_period):
    # 0.05 and 0.025 share 0.1's mantissa, so their steps at 32 and 16 a
    # period equal the coarsest step in floats, and the tie is taken
    assert (Excitation(0.05, 1.0).fast_period / 32 == Excitation(0.025, 1.0).fast_period / 16
            == Excitation(0.1, 1.0).fast_period / 64)
    calls = {"velocity": 0, "slopes": 0}
    velocity, slopes = dynamics.eval_velocity, dynamics._full_slopes

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(dynamics, "eval_velocity", counting("velocity", velocity))
    monkeypatch.setattr(dynamics, "_full_slopes", counting("slopes", slopes))
    run, seen = dynamics._compare_run, []

    def spy(e, ap, initial, t_end, n, record, read):
        calls.update(velocity=0, slopes=0)
        report = run(e, ap, initial, t_end, n, record, read)
        seen.append((e, n, dict(calls)))
        return report

    monkeypatch.setattr(dynamics, "_compare_run", spy)
    start = FullState(2.0, 0.0, 0.0, 0.3)
    compare_sweep(Excitation(sweep[0], 1.0, xi=SIN), sweep, start, 10.0)
    # a lone run keeps 64 steps a fast period
    for eps in sweep:
        compare_full_averaged(Excitation(eps, 1.0, xi=SIN), start, 10.0)
    assert [(e.epsilon, n) for e, n, _ in seen] == [*zip(sweep, per_period),
                                                   *((eps, 64) for eps in sweep)]
    for e, steps_a_period, counted in seen:
        grid = list(dynamics._time_grid([], (0.0, 10.0), e.fast_period / steps_a_period)[2])
        # a table of 2 n phases, and two velocities for the final shorter step
        assert counted == {"velocity": 2 * steps_a_period + 2, "slopes": 4 * len(grid)}, e
        assert grid[-1][1] < e.fast_period / steps_a_period


def test_compare_steps_a_sweep_run_as_each_flow_alone():
    # at 32 or 16 steps a fast period, the norms are bit-identical to those
    # of each flow integrated alone at the run's step, the full one at the
    # table's pivot velocities
    rng = np.random.default_rng(2611)
    cases = [(e, FullState(2.0, 0.0, 0.0, 0.3)) for e in PIN_SHAPES.values()]
    cases += [
        (bench_like_excitation(rng), FullState(float(rng.uniform(0.8, 2.3)),
                                               float(rng.uniform(0.0, 2.0 * math.pi)),
                                               float(rng.uniform(-0.3, 0.3)),
                                               float(rng.uniform(0.2, 0.6))))
        for _ in range(2)
    ]
    for shape, initial in cases:
        for eps, n in ((0.05, 32), (0.025, 16)):
            e = Excitation(eps, shape.omega, shape.tau, shape.eta, shape.xi)
            h = e.fast_period / n
            # spans ending in a shorter final step, one of whole steps, and
            # one shorter than a step
            for t_end in (3.0, 3.5 * h, 5 * h, 0.375 * h):
                report = compare_alone(e, initial, t_end, n)
                _, norms = reference_norms(e, initial, t_end,
                                           lambda e, t_end: table_full_rhs(e, t_end, n), n)
                assert (report.max_err_phi, report.max_err_p_phi, report.p_alpha_drift) == norms


@pytest.mark.parametrize("shape", PIN_SHAPES.values(), ids=PIN_SHAPES.keys())
def test_compare_sweep_runs_stay_within_a_hundredth_of_their_gap_of_a_fine_full_flow(shape):
    # each README-sweep run's full flow, as compare steps it (its norms are
    # those of this trajectory, bit for bit), against full_rhs(e) at 512
    # steps a fast period, at every step's time.  Its error under 1% of the
    # gap moves a halving ratio by under ~2%; measured up to 3.7e-3 of the
    # gap, at 16 steps a period for vertical-omega-2 at 0.025
    initial = FullState(2.0, 0.0, 0.0, 0.3)
    for eps, n in zip(README_SWEEP, (64, 32, 16)):
        e = Excitation(eps, shape.omega, shape.tau, shape.eta, shape.xi)
        report = compare_alone(e, initial, 10.0, n)
        full, norms = reference_norms(e, initial, 10.0,
                                      lambda e, t_end: table_full_rhs(e, t_end, n), n)
        assert (report.max_err_phi, report.max_err_p_phi, report.p_alpha_drift) == norms
        fine = integrate(full_rhs(e), initial, (0.0, 10.0), e.fast_period / 512)
        at = np.searchsorted(fine.t, full.t)
        assert np.array_equal(fine.t[at], full.t)
        err = np.max(np.abs(full.y[:, 0] - fine.y[at, 0]))
        assert err <= 1e-2 * report.max_err_phi, (eps, err, report.max_err_phi)


@pytest.mark.parametrize("shape", PIN_SHAPES.values(), ids=PIN_SHAPES.keys())
def test_compare_sweep_runs_reduced_flow_stays_within_2e_3_of_their_gap_of_a_fine_one(shape):
    # each README-sweep run's reduced flow at the run's step, as compare
    # steps it (test_compare_steps_a_sweep_run_as_each_flow_alone), against
    # the reduced flow at 1/64 of that step, at every step's time; measured
    # up to 1.35e-3 of the gap, for vertical-omega-2 at 0.025
    initial = FullState(2.0, 0.0, 0.0, 0.3)
    # the moments do not depend on epsilon, so runs that share a step share
    # the reduced flow: the README sweep's three runs do
    flows = {}
    for eps, n in zip(README_SWEEP, (64, 32, 16)):
        e = Excitation(eps, shape.omega, shape.tau, shape.eta, shape.xi)
        report = compare_alone(e, initial, 10.0, n)
        step = e.fast_period / n
        if step not in flows:
            g = reduced_rhs(averaged_params(velocity_moments(e), initial.p_alpha,
                                            PhysicalParams()))
            flows[step] = [integrate(g, [initial.phi, initial.p_phi], (0.0, 10.0), h)
                           for h in (step, step / 64)]
        red, fine = flows[step]
        at = np.searchsorted(fine.t, red.t)
        assert np.array_equal(fine.t[at], red.t)
        err = np.max(np.abs(red.y[:, 0] - fine.y[at, 0]))
        assert err <= 2e-3 * report.max_err_phi, (eps, err, report.max_err_phi)


def flows_alone(e, initial, t_end, n):
    """Each flow of compare_full_averaged at ``n`` steps a fast period,
    integrated alone: a trajectory, or the exception it raises."""
    try:
        ap = averaged_params(velocity_moments(e), initial.p_alpha, PhysicalParams())
    except ValueError as exc:
        return [exc]
    out = []
    for rhs, y0 in ((table_full_rhs(e, t_end, n), initial),
                    (reduced_rhs(ap), [initial.phi, initial.p_phi])):
        try:
            out.append(integrate(rhs, y0, (0.0, t_end), e.fast_period / n))
        except ValueError as exc:
            out.append(exc)
    return out


def test_compare_sweep_runs_fail_as_one_of_their_flows_alone_at_the_float_corners():
    # a run at 16 steps a fast period fails with the exception type, message
    # and blow-up time that one of its flows alone fails with, or gives the
    # norms of the two trajectories when neither fails
    rng = random.Random(2612)
    corners = [(phi, p_phi, p_alpha) for phi in CORNER_PHI
               for p_phi in CORNER_MOMENTA for p_alpha in CORNER_MOMENTA]
    failures = 0
    for shape in (VERTICAL, CIRCULAR):
        e = Excitation(0.025, shape.omega, shape.tau, shape.eta, shape.xi)
        for phi, p_phi, p_alpha in corners:
            if not (math.isfinite(p_phi) and math.isfinite(p_alpha)):
                continue  # refused before any step, whatever the step
            initial = FullState(phi, rng.choice((0.0, 0.5)), p_phi, p_alpha)
            # a whole step and a shorter one, or one fast period
            t_end = rng.choice((e.fast_period / 10.0, e.fast_period))
            alone = flows_alone(e, initial, t_end, 16)
            failed = [x for x in alone if isinstance(x, Exception)]
            try:
                report = compare_alone(e, initial, t_end, 16)
            except ValueError as exc:
                failures += 1
                assert any(type(exc) is type(x) and str(exc) == str(x)
                           and getattr(exc, "time", None) == getattr(x, "time", None)
                           for x in failed), (initial, t_end, exc, failed)
                continue
            assert not failed, (initial, t_end, failed)
            full, red = alone
            assert (report.max_err_phi, report.max_err_p_phi, report.p_alpha_drift) == (
                np.max(np.abs(full.y[:, 0] - red.y[:, 0])),
                np.max(np.abs(full.y[:, 2] - red.y[:, 1])),
                np.max(np.abs(full.y[:, 3] - initial.p_alpha)))
    assert failures > 0


def test_compare_reports_a_reduced_blow_up_at_the_end_of_its_own_step():
    # a p_phi near the float range's end overflows the reduced flow's first
    # step, as it does the full flow's: the run's one grid reports it at the
    # end of that step, fast_period / n at 64, 32 and 16 steps a fast period
    for eps, n in zip(README_SWEEP, (64, 32, 16)):
        e = Excitation(eps, 1.0, xi=SIN)
        with pytest.raises(IntegrationBlowUpError) as err:
            compare_alone(e, FullState(2.0, 0.0, 5e307, 0.0), e.fast_period, n)
        assert err.value.time == e.fast_period / n, eps


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
    # the pivot velocities that the failing step's stages saw, a lone run's
    # and a sweep run's at 16 full steps a fast period alike
    slopes, replay = dynamics._full_slopes, dynamics._replay_checked
    vels, starts = [], []
    monkeypatch.setattr(dynamics, "_full_slopes",
                        lambda vel, *y: (vels.append(vel), slopes(vel, *y))[1])
    monkeypatch.setattr(dynamics, "_replay_checked",
                        lambda *args: (starts.append(len(vels)), replay(*args))[1])
    runs = [(e, 64) for e in (VERTICAL, CIRCULAR)]
    runs += [(Excitation(0.025, e.omega, e.tau, e.eta, e.xi), 16) for e in (VERTICAL, CIRCULAR)]
    longest = 0
    for (e, n), phi, p_phi, p_alpha in itertools.product(
        runs, CORNER_PHI, CORNER_MOMENTA, CORNER_MOMENTA
    ):
        vels.clear()
        starts.clear()
        try:
            compare_alone(e, FullState(phi, 0.0, p_phi, p_alpha), e.fast_period, n)
        except ValueError:
            pass
        if starts:
            # the failing step's own stages begin at a multiple of four
            step_start = (starts[0] - 1) // 4 * 4
            replayed = vels[starts[0]:]
            assert replayed == vels[step_start:step_start + len(replayed)]
            longest = max(longest, len(replayed))
    assert longest >= 2


def norm_bits(report):
    return tuple(x.hex() for x in (report.max_err_phi, report.max_err_p_phi, report.p_alpha_drift))


@pytest.mark.parametrize("sweep, per_period, distinct", [
    # one step for the whole sweep
    (README_SWEEP, (64, 32, 16), 1),
    # the 0.1 and 0.05 runs share one step, the 0.08 and 0.04 runs another
    ((0.1, 0.08, 0.05, 0.04), (64, 64, 32, 32), 2),
    # the 0.1 and 0.05 runs share one step, and the 0.07 run has its own
    ((0.1, 0.07, 0.05), (64, 64, 32), 2),
])
def test_compare_sweep_steps_the_averaged_flow_once_a_step_and_reports_each_run_as_alone(
        monkeypatch, sweep, per_period, distinct):
    # the averaged flow has no epsilon, so a sweep steps it once for each
    # distinct step and the runs after the first on that step read its
    # states; every report is bit for bit that of the run alone.  The spy:
    # each full-flow slope takes two sines, each reduced stage one
    start = FullState(2.0, 0.0, 0.0, 0.3)
    calls = {"sin": 0, "slopes": 0}
    slopes = dynamics._full_slopes

    class CountingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        def sin(self, x):
            calls["sin"] += 1
            return math.sin(x)

    def counting_slopes(*args):
        calls["slopes"] += 1
        return slopes(*args)

    for shape in PIN_SHAPES.values():
        runs = [Excitation(eps, shape.omega, shape.tau, shape.eta, shape.xi) for eps in sweep]
        alone = [norm_bits(compare_alone(run, start, 10.0, n)) for run, n in zip(runs, per_period)]
        steps = {run.fast_period / n for run, n in zip(runs, per_period)}
        assert len(steps) == distinct
        reduced_steps = sum(len(list(dynamics._time_grid([], (0.0, 10.0), h)[2])) for h in steps)
        with monkeypatch.context() as m:
            m.setattr(dynamics, "math", CountingMath())
            m.setattr(dynamics, "_full_slopes", counting_slopes)
            calls.update(sin=0, slopes=0)
            swept = [norm_bits(r) for r in compare_sweep(shape, sweep, start, 10.0)]
        assert swept == alone, shape
        assert calls["sin"] - 2 * calls["slopes"] == 4 * reduced_steps, shape


def test_compare_sweep_fails_at_a_later_run_as_that_run_alone(monkeypatch):
    # the 0.025 run of the README sweep reads the averaged flow's states that
    # the 0.1 run recorded; its full flow is made to overflow at the midpoint
    # velocity of its fourth step, and the replay from the recorded
    # step-start state reports the lone run's blow-up
    start = FullState(2.0, 0.0, 0.0, 0.3)
    runs = [Excitation(eps, 1.0, xi=SIN) for eps in README_SWEEP]
    last = runs[-1]
    step = last.fast_period / 16
    assert step == runs[0].fast_period / dynamics.STEPS_PER_FAST_PERIOD
    bad = eval_velocity(last, 7 * (0.5 * step))
    slopes, run = dynamics._full_slopes, dynamics._compare_run
    current = []

    def failing(vel, *y):
        k = slopes(vel, *y)
        return (math.inf, *k[1:]) if current[-1] == last and vel == bad else k

    monkeypatch.setattr(dynamics, "_full_slopes", failing)
    monkeypatch.setattr(dynamics, "_compare_run",
                        lambda e, *args: (current.append(e), run(e, *args))[1])
    with pytest.raises(ValueError) as swept:
        compare_sweep(runs[0], README_SWEEP, start, 10.0)
    assert current == runs
    with pytest.raises(ValueError) as alone:
        compare_alone(last, start, 10.0, 16)
    assert type(swept.value) is type(alone.value) is IntegrationBlowUpError
    assert str(swept.value) == str(alone.value)
    assert swept.value.time == alone.value.time == 4 * step


@pytest.mark.parametrize("sweep, kept, live", [
    # per run: "fill" records its step's averaged flow, "read" reads it and
    # None does neither; then the records alive as the run starts
    (README_SWEEP, ("fill", "read", "read"), [0, 1, 1]),
    ((0.1, 0.08, 0.05, 0.04), ("fill", "fill", "read", "read"), [0, 1, 2, 1]),
    ((0.1, 0.07, 0.05), ("fill", None, "read"), [0, 1, 1]),
    ((0.1, 0.07), (None, None), [0, 0]),
])
def test_compare_sweep_records_a_step_only_for_its_later_runs_and_drops_it_after_them(
        monkeypatch, sweep, kept, live):
    # a record holds two doubles a step, so it is made only when a later run
    # shares its step and dropped after its last reader
    start = FullState(2.0, 0.0, 0.0, 0.3)
    runs = [Excitation(eps, 1.0, xi=SIN) for eps in sweep]
    run, seen, alive, refs = dynamics._compare_run, [], [], []

    def spy(e, ap, initial, t_end, n, record, read):
        alive.append(sum(ref() is not None for ref in refs))
        rep = run(e, ap, initial, t_end, n, record, read)
        seen.append(None if record is None else "read" if read else "fill")
        if seen[-1] == "fill":
            refs.append(weakref.ref(record))
            step = e.fast_period / n
            assert len(record) == 2 * len(list(dynamics._time_grid([], (0.0, t_end), step)[2]))
        return rep

    monkeypatch.setattr(dynamics, "_compare_run", spy)
    compare_sweep(runs[0], sweep, start, 10.0)
    assert (tuple(seen), alive) == (kept, live)
    assert all(ref() is None for ref in refs)
    seen.clear()
    compare_full_averaged(runs[0], start, 10.0)
    assert seen == [None]


def test_compare_sweep_computes_the_averaged_system_once_and_checks_symmetry_before_any_run(
        monkeypatch):
    # the moments, the symmetry check and (A, B, C) do not depend on
    # epsilon: one 3-run sweep computes each once, an asymmetric excitation
    # raises before any run, and each report is the lone run's at its n
    start = FullState(2.0, 0.0, 0.0, 0.3)
    calls, runs = {"velocity_moments": 0, "check_symmetry": 0, "averaged_params": 0}, []
    run = dynamics._compare_run

    def spy(e, ap, initial, t_end, n, record, read):
        runs.append((e, n))
        return run(e, ap, initial, t_end, n, record, read)

    with monkeypatch.context() as m:
        for name in calls:
            def counting(*args, name=name, fn=getattr(dynamics, name)):
                calls[name] += 1
                return fn(*args)
            m.setattr(dynamics, name, counting)
        m.setattr(dynamics, "_compare_run", spy)
        swept = compare_sweep(CIRCULAR, README_SWEEP, start, 10.0)
        assert calls == {"velocity_moments": 1, "check_symmetry": 1, "averaged_params": 1}
        made = runs.copy()
        with pytest.raises(SymmetryViolationError):
            compare_sweep(Excitation(0.1, 1.0, tau=COS, eta=COS), README_SWEEP, start, 10.0)
        assert runs == made
    assert [(e.epsilon, n) for e, n in made] == list(zip(README_SWEEP, (64, 32, 16)))
    assert [norm_bits(r) for r in swept] == [norm_bits(compare_alone(e, start, 10.0, n))
                                            for e, n in made]


def test_compare_readme_sweep_is_pinned():
    # the README default sweep; any change to the integrator's arithmetic
    # moves these last digits
    initial = FullState(2.0, 0.0, 0.0, 0.3)
    errs = [
        compare_full_averaged(Excitation(epsilon=eps, omega=1.0, xi=SIN), initial, 10.0).max_err_phi
        for eps in (0.1, 0.05, 0.025)
    ]
    assert errs == [0.1406231067002821, 0.0562947689396156, 0.026580604698629884]


def test_compare_table_stays_within_1e_9_of_full_rhs():
    # a table phase differs from omega * t / epsilon by rounding alone, so the
    # norms stay within 1e-9 relative of those of full_rhs(e) integrated alone
    # (4.7e-11 measured), and a zero norm stays exactly zero; the shapes of
    # the README sweep, test_cli's four compare pins and three drawn
    # bench-like excitations, at the README sweep's amplitudes
    rng = np.random.default_rng(19)
    start = FullState(2.0, 0.0, 0.0, 0.3)
    cases = [(start, shape) for shape in PIN_SHAPES.values()]
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
