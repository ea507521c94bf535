import math

import numpy as np
import pytest

from conftest import central_diff, close_rel

from pendulum_vib import dynamics
from pendulum_vib.dynamics import (
    FullState,
    IntegrationBlowUpError,
    PhysicalParams,
    SymmetryViolationError,
    averaged_hamiltonian,
    averaged_params,
    compare_full_averaged,
    convergence_sweep,
    full_hamiltonian,
    full_rhs,
    integrate,
    make_full_rhs,
    make_reduced_rhs,
    reduced_rhs,
)
from pendulum_vib.excitation import (
    Excitation,
    HarmonicSeries,
    MomentMatrix,
    eval_velocity,
    velocity_moments,
)
from pendulum_vib.potential import AveragedParams, SingularConfigurationError, v_bar

UNIT = PhysicalParams()
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
    assert full_hamiltonian(FullState(math.pi / 2, 0.0, 0.0, 0.0), 0.0, ZERO_EXC, UNIT) == pytest.approx(0.0, abs=1e-15)
    assert full_hamiltonian(FullState(0.0, 0.0, 0.0, 0.0), 0.0, ZERO_EXC, UNIT) == -1.0


def test_full_hamiltonian_vertical_kick():
    e = Excitation(epsilon=0.1, omega=10.0, xi=SIN)
    h = full_hamiltonian(FullState(math.pi / 2, 0.0, 0.0, 0.0), 0.0, e, UNIT)
    assert h == pytest.approx(50.0, abs=1e-12)


def test_full_hamiltonian_singular_pole():
    with pytest.raises(SingularConfigurationError):
        full_hamiltonian(FullState(0.0, 0.0, 0.0, 0.5), 0.0, ZERO_EXC, UNIT)


def test_zero_excitation_full_equals_averaged():
    rng = np.random.default_rng(2)
    zero_mm = MomentMatrix.zero()
    for _ in range(50):
        s = random_state(rng)
        h_full = full_hamiltonian(s, float(rng.uniform(0, 10)), ZERO_EXC, UNIT)
        h_avg = averaged_hamiltonian(s, zero_mm, UNIT)
        assert close_rel(h_full, h_avg, rtol=1e-14)


def test_full_rhs_planar_examples():
    assert full_rhs(FullState(math.pi / 2, 0.0, 0.0, 0.0), 0.0, ZERO_EXC, UNIT) == (0.0, 0.0, -1.0, 0.0)
    dphi, dalpha, dp_phi, dp_alpha = full_rhs(FullState(math.pi / 2, 0.0, 0.3, 0.0), 0.0, ZERO_EXC, UNIT)
    assert dphi == 0.3
    assert dp_alpha == 0.0


def test_full_rhs_matches_hamiltonian_gradient():
    rng = np.random.default_rng(4)
    h = 1e-6
    for _ in range(200):
        e = random_excitation(rng)
        s = random_state(rng)
        t = float(rng.uniform(0.0, 5.0))
        dphi, dalpha, dp_phi, dp_alpha = full_rhs(s, t, e, UNIT)

        def H(phi=s.phi, alpha=s.alpha, p_phi=s.p_phi, p_alpha=s.p_alpha):
            return full_hamiltonian(FullState(phi, alpha, p_phi, p_alpha), t, e, UNIT)

        assert close_rel(dphi, central_diff(lambda x: H(p_phi=x), s.p_phi, h))
        assert close_rel(dalpha, central_diff(lambda x: H(p_alpha=x), s.p_alpha, h))
        assert close_rel(dp_phi, -central_diff(lambda x: H(phi=x), s.phi, h))
        assert close_rel(dp_alpha, -central_diff(lambda x: H(alpha=x), s.alpha, h))


def test_averaged_hamiltonian_zero_moments():
    s = FullState(math.pi / 3, 0.0, 0.0, 0.0)
    assert averaged_hamiltonian(s, MomentMatrix.zero(), UNIT) == pytest.approx(-0.5, abs=1e-15)


def test_averaged_hamiltonian_vertical_only():
    mm = velocity_moments(Excitation(epsilon=0.1, omega=2.0, xi=SIN))
    assert mm.xi_xi == 2.0
    for alpha in (0.0, 1.0, 4.5):
        s = FullState(math.pi / 2, alpha, 0.0, 0.0)
        assert averaged_hamiltonian(s, mm, UNIT) == pytest.approx(1.0, abs=1e-14)


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
        avg = simpson_time_average(lambda t: full_hamiltonian(s, float(t), e, UNIT), e.fast_period)
        assert abs(avg - averaged_hamiltonian(s, velocity_moments(e), UNIT)) <= 1e-10


def test_averaged_params_nondimensionalisation():
    mm = velocity_moments(Excitation(epsilon=0.1, omega=2.0, xi=SIN))
    p = PhysicalParams(m=2.0, l=0.5, g=4.0)
    ap = averaged_params(mm, p_alpha=0.6, p=p)
    assert ap.A == pytest.approx(2.0 / (4.0 * 0.5))
    assert ap.C == 0.0
    assert ap.B == pytest.approx(0.36 / (4.0 * 0.125 * 4.0))


def test_reduced_rhs_examples():
    assert reduced_rhs(math.pi / 2, 0.0, AveragedParams.from_a_minus_c(0.0, 0.0)) == (0.0, -1.0)
    dphi, dp = reduced_rhs(2 * math.pi / 3, 0.0, AveragedParams.from_a_minus_c(2.0, 0.0))
    assert dphi == 0.0
    assert dp == pytest.approx(0.0, abs=1e-15)


def test_reduced_rhs_matches_potential_gradient():
    rng = np.random.default_rng(31)
    for _ in range(500):
        ap = AveragedParams.from_a_minus_c(float(rng.uniform(-3, 4)), float(rng.uniform(0, 1.5)))
        phi = float(rng.uniform(0.05, math.pi - 0.05))
        p_phi = float(rng.normal())
        dphi, dp = reduced_rhs(phi, p_phi, ap)
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
        base = reduced_rhs(phi, 0.3, AveragedParams(A=a, B=b, C=c))
        shifted = reduced_rhs(phi, 0.3, AveragedParams(A=a + k, B=b, C=c + k))
        assert abs(base[1] - shifted[1]) <= 1e-14 * max(1.0, abs(base[1]))


def test_integrate_zero_rhs_is_constant():
    traj = integrate(lambda t, y: np.zeros_like(y), [1.0, -2.0], (0.0, 1.0), 0.1)
    assert np.all(traj.y == np.array([1.0, -2.0]))
    assert traj.t[0] == 0.0 and traj.t[-1] == 1.0


def test_integrate_lands_exactly_on_end_time():
    traj = integrate(lambda t, y: np.ones_like(y), [0.0], (0.0, 0.95), 0.1)
    assert traj.t[-1] == 0.95
    assert traj.y[-1, 0] == pytest.approx(0.95, abs=1e-12)


def test_integrate_takes_a_short_step_over_a_span_shorter_than_one():
    # a span below step * 1e-9 is one short step, not zero steps ending at t0
    traj = integrate(lambda t, y: [1.0 for _ in y], [0.0], (0.0, 1e-12), 0.1)
    assert len(traj.t) == 2
    assert traj.t[-1] == 1e-12
    assert traj.y[-1, 0] == 1e-12


def test_integrate_small_angle_period():
    # near the bottom the reduced flow is a unit-frequency oscillator
    rhs = make_reduced_rhs(AveragedParams.from_a_minus_c(0.0, 0.0))
    traj = integrate(rhs, [1e-3, 0.0], (0.0, 2.0 * math.pi), 1e-3)
    assert abs(traj.y[-1, 0] - 1e-3) < 1e-9
    assert abs(traj.y[-1, 1]) < 1e-9


def test_integrate_validates_inputs():
    rhs = lambda t, y: y
    with pytest.raises(ValueError):
        integrate(rhs, [1.0], (0.0, 1.0), 0.0)
    with pytest.raises(ValueError):
        integrate(rhs, [1.0], (1.0, 1.0), 0.1)


def test_integrate_reports_blow_up_time():
    rhs = lambda t, y: [v * v for v in y]
    with pytest.raises(IntegrationBlowUpError) as err:
        integrate(rhs, [1.0], (0.0, 50.0), 1.0)
    assert 0.0 < err.value.time <= 50.0


def test_integrate_refuses_too_many_steps():
    with pytest.raises(ValueError, match=r"takes 1\.5e\+06 steps, more than the limit of 1000000"):
        integrate(lambda t, y: y, [1.0], (0.0, 1.5), 1e-6)
    with pytest.raises(ValueError, match="more than the limit"):
        integrate(lambda t, y: y, [1.0], (-1e308, 1e308), 1.0)


def test_make_full_rhs_matches_full_rhs_bit_for_bit():
    # the pivot velocity is reused between stages at the same time; the
    # result must be what full_rhs gives at every stage
    for e in (VERTICAL, CIRCULAR):
        span, h = (0.0, 3.0), e.fast_period / dynamics.STEPS_PER_FAST_PERIOD
        fast = integrate(make_full_rhs(e, UNIT), FullState(2.0, 0.5, 0.1, 0.3), span, h)
        plain = integrate(lambda t, y: full_rhs(FullState(*y), t, e, UNIT),
                          FullState(2.0, 0.5, 0.1, 0.3), span, h)
        assert np.array_equal(fast.t, plain.t)
        assert np.array_equal(fast.y, plain.y)


def test_make_full_rhs_evaluates_the_velocity_under_three_times_a_step(monkeypatch):
    calls = []

    def counting(e, t):
        calls.append(t)
        return eval_velocity(e, t)

    monkeypatch.setattr(dynamics, "eval_velocity", counting)
    h = VERTICAL.fast_period / dynamics.STEPS_PER_FAST_PERIOD
    traj = integrate(make_full_rhs(VERTICAL, UNIT), FullState(2.0, 0.0, 0.0, 0.3), (0.0, 10.0), h)
    steps = len(traj.t) - 1
    assert len(calls) < 3 * steps


def test_reduced_energy_conservation():
    ap = AveragedParams.from_a_minus_c(0.5, 0.09)
    rhs = make_reduced_rhs(ap)
    traj = integrate(rhs, [2.0, 0.0], (0.0, 10.0), 1e-3)
    energies = 0.5 * traj.y[:, 1] ** 2 + np.array([v_bar(float(x), ap) for x in traj.y[:, 0]])
    assert np.max(np.abs(energies - energies[0])) < 1e-9


@pytest.mark.parametrize("eps", [0.1, 0.05, 0.025])
def test_compare_gap_matches_a_finer_reduced_flow(monkeypatch, eps):
    # criterion-6 setting; the reduced flow at h / 8 stands in for the exact one
    e = Excitation(epsilon=eps, omega=1.0, xi=SIN)
    initial = FullState(2.0, 0.0, 0.0, 0.3)
    runs = []

    def recording_integrate(*args):
        runs.append(integrate(*args))
        return runs[-1]

    monkeypatch.setattr(dynamics, "integrate", recording_integrate)
    report = compare_full_averaged(e, initial, 10.0)
    full, red = runs
    assert np.array_equal(full.t, red.t)

    h = e.fast_period / dynamics.STEPS_PER_FAST_PERIOD
    ref = integrate(make_reduced_rhs(averaged_params(velocity_moments(e), 0.3, UNIT)),
                    [2.0, 0.0], (0.0, 10.0), h / 8)
    # every 8th fine time is bit-identical to a full-grid time; the final
    # shorter step is left out
    n = len(full.t) - 1
    assert np.array_equal(ref.t[:8 * n:8], full.t[:n])
    gap = np.max(np.abs(full.y[:n, 0] - ref.y[:8 * n:8, 0]))
    assert report.max_err_phi == pytest.approx(gap, rel=1e-4)


def test_compare_readme_sweep_is_pinned():
    # the README default sweep; any change to the integrator's arithmetic
    # moves these last digits
    initial = FullState(2.0, 0.0, 0.0, 0.3)
    errs = [
        compare_full_averaged(Excitation(epsilon=eps, omega=1.0, xi=SIN), initial, 10.0).max_err_phi
        for eps in (0.1, 0.05, 0.025)
    ]
    assert errs == [0.14062310670028966, 0.05629476893964136, 0.026580604698659638]


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


def test_convergence_sweep_schema():
    initial = FullState(2.0, 0.0, 0.0, 0.3)
    report = convergence_sweep(VERTICAL, [0.1, 0.05], initial, 2.0)
    assert set(report) == {"epsilons", "max_err_phi", "max_err_p_phi", "p_alpha_drift"}


def test_physical_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(m=0.0)
    with pytest.raises(ValueError):
        PhysicalParams(g=-9.8)
    for name in ("m", "l", "g"):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
                PhysicalParams(**{name: bad})
