import math

import numpy as np
import pytest

import checks
import oracle


@pytest.mark.parametrize("a, b", [(2.0, 1e-24), (3.5, 1e-30)])
def test_known_corners_are_domain_two(a, b):
    assert oracle.label(a, b) == ("II", 3)
    roots = oracle.equilibria(a, b)
    assert len(roots) == 3
    assert np.all(np.abs(oracle.dv(roots, a, b)) <= oracle.DV_REL_TOL * oracle.dv_scale(roots, a, b))


def test_gamma_matches_its_parametrisation():
    for phi in np.linspace(0.5 * math.pi + 0.05, math.pi - 0.05, 25):
        s, c = math.sin(phi), math.cos(phi)
        a = -(3.0 * c * c + 1.0) / (4.0 * c ** 3)
        b = -0.25 * s ** 6 / c ** 3
        assert oracle.gamma_b(a) == pytest.approx(b, rel=1e-12)


def _sign_changes(a, b, n=200_000):
    phi = np.linspace(1e-4, math.pi - 1e-4, n + 1)
    s = np.sign(oracle.dv(phi, a, b))
    return int(np.sum(s[:-1] * s[1:] < 0))


def test_label_agrees_with_a_brute_force_scan():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 200:
        a = float(rng.uniform(-5.0, 20.0))
        b = float(10.0 ** rng.uniform(-3.0, 1.0))
        if oracle.gamma_distance(a, b) < 1e-2:
            continue
        assert _sign_changes(a, b) == oracle.label(a, b)[1], (a, b)
        checked += 1


def test_scan_agrees_with_the_closed_form_in_the_corners():
    rng = np.random.default_rng(8)
    for _ in range(200):
        b = float(10.0 ** rng.uniform(-30.0, 6.0))
        a = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 6.0))
        if oracle.gamma_distance(a, b) < 1e-6:
            continue
        assert len(oracle.equilibria(a, b)) == oracle.label(a, b)[1], (a, b)


def test_json_check_rejects_non_rfc_constants():
    assert checks.parse_json('{"x": 1.5}') == {"x": 1.5}
    for text in ('{"x": NaN}', '{"x": Infinity}', '{"x": -Infinity}'):
        with pytest.raises(ValueError):
            checks.parse_json(text)
