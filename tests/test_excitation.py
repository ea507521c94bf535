import json
import math

import numpy as np
import pytest

from conftest import ZERO_MOMENTS, displacement, excitation_doc, velocity_moments_quadrature

from pendulum_vib.excitation import (
    Excitation,
    HarmonicSeries,
    MomentMatrix,
    check_symmetry,
    eval_velocity,
    excitation_from_dict,
    load_excitation,
    velocity_moments,
)

SIN = HarmonicSeries(sine_coeffs=(1.0,))
COS = HarmonicSeries(cosine_coeffs=(1.0,))


def random_series(rng, max_k=4):
    k = int(rng.integers(0, max_k + 1))
    return HarmonicSeries(tuple(rng.uniform(-1, 1, k)), tuple(rng.uniform(-1, 1, k)))


def random_excitation(rng):
    return Excitation(
        epsilon=float(rng.uniform(0.05, 0.5)),
        omega=float(rng.uniform(0.5, 3.0)),
        tau=random_series(rng),
        eta=random_series(rng),
        xi=random_series(rng),
    )


def test_zero_excitation_is_identically_zero():
    e = Excitation(epsilon=0.5, omega=2.0)
    for t in (0.0, 0.37, -4.0, 12.0):
        assert displacement(e, t) == (0.0, 0.0, 0.0)
        assert eval_velocity(e, t) == (0.0, 0.0, 0.0)


def test_displacement_vertical_sine():
    e = Excitation(epsilon=0.1, omega=1.0, xi=SIN)
    tau, eta, xi = displacement(e, math.pi * 0.1 / 2.0)
    assert tau == 0.0 and eta == 0.0
    assert xi == pytest.approx(0.1, abs=1e-15)


def test_displacement_horizontal_cosine():
    e = Excitation(epsilon=0.05, omega=2.0, tau=COS)
    assert displacement(e, 0.0)[0] == pytest.approx(0.05, abs=1e-15)


def test_velocity_vertical_sine():
    e = Excitation(epsilon=0.1, omega=2.0, xi=SIN)
    assert eval_velocity(e, 0.0)[2] == pytest.approx(2.0, abs=1e-15)


def test_velocity_matches_finite_differences():
    rng = np.random.default_rng(11)
    e = random_excitation(rng)
    h = 1e-6
    for t in rng.uniform(-5.0, 5.0, 25):
        v = eval_velocity(e, float(t))
        lo = displacement(e, float(t) - h)
        hi = displacement(e, float(t) + h)
        for vi, a, b in zip(v, lo, hi):
            assert abs(vi - (b - a) / (2.0 * h)) < 1e-6


def series_velocity(e, t):
    """The pivot velocity term by term in scalar math: per axis, omega times
    the sum from 0.0 of -k a sin(k s) for each cosine coefficient a, then
    k b cos(k s) for each sine coefficient b, at s = omega t / epsilon."""
    s = e.omega * t / e.epsilon
    out = []
    for series in e.axes:
        v = 0.0
        for k, a in enumerate(series.cosine_coeffs, start=1):
            v -= k * a * math.sin(k * s)
        for k, b in enumerate(series.sine_coeffs, start=1):
            v += k * b * math.cos(k * s)
        out.append(e.omega * v)
    return tuple(out)


def sparse_series(rng, max_k=4):
    # a third of the coefficients are +0.0 or -0.0
    def coeffs():
        k = int(rng.integers(0, max_k + 1))
        return tuple(float(rng.choice([0.0, -0.0, rng.uniform(-1, 1)], p=[1 / 6, 1 / 6, 2 / 3]))
                     for _ in range(k))

    return HarmonicSeries(coeffs(), coeffs())


def test_velocity_is_the_term_by_term_sum_bit_for_bit():
    rng = np.random.default_rng(808)
    for _ in range(300):
        e = Excitation(
            epsilon=float(rng.uniform(0.01, 0.5)),
            omega=float(rng.uniform(0.5, 3.0)),
            tau=sparse_series(rng),
            eta=sparse_series(rng),
            xi=sparse_series(rng),
        )
        for t in (0.0, -0.0, *rng.uniform(-1e3, 1e3, 20).tolist()):
            got, want = eval_velocity(e, t), series_velocity(e, t)
            # float.hex tells -0.0 from 0.0, which == does not
            assert [x.hex() for x in got] == [x.hex() for x in want], (e, t)


def test_velocity_skips_zero_coefficients():
    # at an infinite phase math.sin and math.cos refuse, so a term evaluated
    # for a +-0.0 coefficient would raise where a skipped one does not
    zeros = HarmonicSeries((0.0, -0.0), (-0.0,))
    e = Excitation(0.1, 1.0, tau=zeros, eta=zeros, xi=zeros)
    assert [x.hex() for x in eval_velocity(e, math.inf)] == [(0.0).hex()] * 3
    with pytest.raises(ValueError, match="math domain error"):
        eval_velocity(Excitation(0.1, 1.0, xi=HarmonicSeries((0.0,), (0.0, 1.0))), math.inf)


def test_moments_zero_excitation():
    mm = velocity_moments(Excitation(epsilon=0.1, omega=1.0))
    assert np.array_equal(mm.m, np.zeros((3, 3)))


def test_moments_vertical_sine():
    mm = velocity_moments(Excitation(epsilon=0.3, omega=2.0, xi=SIN))
    assert mm.xi_xi == pytest.approx(2.0, abs=1e-15)
    for value in (mm.tau_tau, mm.eta_eta, mm.tau_eta, mm.tau_xi, mm.eta_xi):
        assert value == 0.0


def test_moments_circular_horizontal():
    mm = velocity_moments(Excitation(epsilon=0.1, omega=1.0, tau=COS, eta=SIN))
    assert mm.tau_tau == pytest.approx(0.5, abs=1e-15)
    assert mm.eta_eta == pytest.approx(0.5, abs=1e-15)
    assert mm.tau_eta == 0.0


def test_closed_form_agrees_with_simpson():
    rng = np.random.default_rng(23)
    for _ in range(50):
        e = random_excitation(rng)
        a = np.array(velocity_moments(e).m)
        b = velocity_moments_quadrature(e)
        assert np.max(np.abs(a - b)) <= 1e-10


def test_moments_independent_of_epsilon():
    rng = np.random.default_rng(5)
    for _ in range(20):
        e = random_excitation(rng)
        m1 = velocity_moments(e).m
        m2 = velocity_moments(Excitation(0.01 * e.epsilon, e.omega, e.tau, e.eta, e.xi)).m
        assert np.array_equal(m1, m2)


def test_moments_scale_as_omega_squared():
    rng = np.random.default_rng(6)
    for _ in range(20):
        e = random_excitation(rng)
        base = np.array(velocity_moments(Excitation(e.epsilon, 1.0, e.tau, e.eta, e.xi)).m)
        scaled = np.array(velocity_moments(e).m)
        assert np.max(np.abs(scaled - e.omega ** 2 * base)) <= 1e-12 * max(1.0, np.max(np.abs(scaled)))


def test_moment_matrix_positive_semidefinite():
    # Gram-matrix property over 1000 random series triples.
    rng = np.random.default_rng(42)
    for _ in range(1000):
        mm = velocity_moments(random_excitation(rng))
        trace = np.trace(mm.m)
        assert np.min(np.diag(mm.m)) >= 0.0
        assert np.min(np.linalg.eigvalsh(mm.m)) >= -1e-12 * max(trace, 1.0)


def test_moment_matrix_requires_symmetry():
    bad = np.zeros((3, 3))
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        MomentMatrix(bad)


def test_moment_matrix_is_three_rows_of_three_floats():
    mm = MomentMatrix(np.eye(3))
    assert mm.m == ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    assert all(type(x) is float for row in mm.m for x in row)
    for bad in (np.zeros((2, 3)), np.zeros((3, 2)), [[0.0] * 3] * 4):
        with pytest.raises(ValueError, match="3x3"):
            MomentMatrix(bad)


def test_symmetry_zero_matrix_passes():
    rep = check_symmetry(MomentMatrix(ZERO_MOMENTS))
    assert rep.passed
    assert rep.residuals() == (0.0, 0.0, 0.0, 0.0)


def test_symmetry_circular_plus_second_harmonic_vertical():
    # Horizontal harmonic 1 and vertical harmonic 2 never beat against each
    # other, so all cross moments vanish and the diagonals match.
    e = Excitation(
        epsilon=0.1,
        omega=1.0,
        tau=COS,
        eta=SIN,
        xi=HarmonicSeries(sine_coeffs=(0.0, 1.0)),
    )
    mm = velocity_moments(e)
    assert mm.tau_tau == pytest.approx(0.5, abs=1e-15)
    assert mm.eta_eta == pytest.approx(0.5, abs=1e-15)
    assert check_symmetry(mm).passed


def test_symmetry_in_phase_horizontal_fails():
    e = Excitation(epsilon=0.1, omega=1.0, tau=COS, eta=COS)
    rep = check_symmetry(velocity_moments(e))
    assert not rep.passed
    assert rep.tau_eta == pytest.approx(0.5, abs=1e-15)


def test_vertical_excitation_passes_at_zero_tolerance():
    e = Excitation(epsilon=0.2, omega=1.7, xi=HarmonicSeries((0.3,), (0.4, 0.1)))
    assert check_symmetry(velocity_moments(e), tol=0.0).passed


def test_symmetry_refuses_a_nan_tolerance():
    # every comparison with NaN is false, so a NaN tol would fail any matrix
    for tol in (math.nan, -1.0):
        with pytest.raises(ValueError, match="^tol must be nonnegative"):
            check_symmetry(MomentMatrix(ZERO_MOMENTS), tol=tol)


def test_excitation_validation():
    with pytest.raises(ValueError):
        Excitation(epsilon=0.0, omega=1.0)
    with pytest.raises(ValueError):
        Excitation(epsilon=0.1, omega=-2.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="^epsilon must be positive and finite"):
            Excitation(epsilon=bad, omega=1.0)
        with pytest.raises(ValueError, match="^omega must be positive and finite"):
            Excitation(epsilon=0.1, omega=bad)
        with pytest.raises(ValueError, match="^cosine_coeffs must be finite"):
            HarmonicSeries(cosine_coeffs=(1.0, bad))
        with pytest.raises(ValueError, match="^sine_coeffs must be finite"):
            HarmonicSeries(sine_coeffs=(bad,))


def test_excitation_from_dict_full_document():
    doc = {
        "epsilon": 0.1,
        "omega": 2.0,
        "tau": {"cos": [1.0], "sin": []},
        "eta": {"cos": [], "sin": [0.5]},
        "xi": {"sin": [0.0, 1.0]},
    }
    e = excitation_from_dict(doc)
    assert e.tau.cosine_coeffs == (1.0,)
    assert e.eta.sine_coeffs == (0.5,)
    assert e.xi.sine_coeffs == (0.0, 1.0)


def test_excitation_from_dict_missing_axes_default_to_zero():
    e = excitation_from_dict({"epsilon": 0.1, "omega": 1.0})
    assert displacement(e, 1.23) == (0.0, 0.0, 0.0)


def test_excitation_from_dict_requires_scales():
    with pytest.raises(ValueError):
        excitation_from_dict({"omega": 1.0})
    with pytest.raises(ValueError):
        excitation_from_dict({"epsilon": 0.1})


def test_load_excitation_round_trip(tmp_path):
    e = Excitation(epsilon=0.25, omega=1.5, xi=HarmonicSeries((0.1,), (0.9,)))
    path = tmp_path / "exc.json"
    path.write_text(json.dumps(excitation_doc(e)))
    assert load_excitation(path) == e


def test_load_excitation_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        load_excitation(path)
