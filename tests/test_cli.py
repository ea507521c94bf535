import argparse
import errno
import hashlib
import importlib
import io
import json
import math
import os
import random
import signal
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from conftest import CORNER_MOMENTA, CORNER_PHI, fold_b, written

import pendulum_vib
from pendulum_vib import _fork, cli, dynamics, portrait
from pendulum_vib.cli import _ratio_verdict, main
from pendulum_vib.portrait import (
    build_grid,
    contours_to_csv,
    extract_contours,
    grid_to_csv,
    render_svg,
)
from pendulum_vib.excitation import MomentMatrix
from pendulum_vib.potential import (
    BOUNDARY_REL,
    AveragedParams,
    PhysicalParams,
    averaged_params,
)

VERTICAL_DOC = '{"epsilon": 0.1, "omega": 2.0, "xi": {"sin": [1.0]}}'
# the README's vertical convergence sweep
README_VERTICAL_DOC = '{"epsilon": 0.1, "omega": 1.0, "xi": {"sin": [1.0]}}'
IN_PHASE_DOC = '{"epsilon": 0.1, "omega": 1.0, "tau": {"cos": [1.0]}, "eta": {"cos": [1.0]}}'
EMPTY_DOC = '{"epsilon": 0.1, "omega": 1.0}'
# shaped like the benchmark's compare excitations: circular harmonic 1 on
# tau/eta, and vertical harmonics 2 and 3 with zero harmonic-1 coefficients,
# so sin s and cos s are shared across axes and two terms are zero
BENCH_LIKE_DOC = (
    '{"epsilon": 0.1, "omega": 1.0, "tau": {"cos": [0.35]}, "eta": {"sin": [0.35]}, '
    '"xi": {"cos": [0.0, 0.15], "sin": [0.0, 0.12, 0.06]}}'
)
# ROADMAP item 10's symmetric circular horizontal motion, whose full flow
# breaks down near the pole
ROADMAP_CIRCULAR_DOC = (
    '{"epsilon": 0.1, "omega": 1.0, "tau": {"cos": [0.8]}, "eta": {"sin": [0.8]}}'
)
# zero dynamics; small epsilon keeps the full integrator step small
ZERO_COMPARE_DOC = '{"epsilon": 0.02, "omega": 1.0}'


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def assert_exit_contract(code, captured, argv):
    """Exit 1 is one "error:" line and nothing on stdout; exit 0 or 2 prints
    RFC 8259 JSON, with no NaN or Infinity, and nothing on stderr."""

    def no_constants(name):
        raise ValueError(f"non-RFC JSON constant {name}")

    assert code in (0, 1, 2), argv
    if code == 1:
        assert captured.out == "", argv
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, argv
    else:
        assert captured.err == "", argv
        json.loads(captured.out, parse_constant=no_constants)


def run_fresh(argv, *python_flags):
    """``python -m pendulum_vib.cli argv`` in a new interpreter, on this checkout."""
    src = str(Path(pendulum_vib.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "pendulum_vib.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )


def test_moments_vertical(tmp_path, capsys):
    path = write(tmp_path, "v.json", VERTICAL_DOC)
    code, out = run(capsys, ["moments", "--excitation", path])
    doc = json.loads(out)
    assert code == 0
    assert doc["A"] == 2.0
    assert doc["B"] == 0.0
    assert doc["symmetry"]["passed"] is True


def test_moments_in_phase_horizontal_fails_symmetry(tmp_path, capsys):
    path = write(tmp_path, "p.json", IN_PHASE_DOC)
    code, out = run(capsys, ["moments", "--excitation", path, "--out", str(tmp_path / "m.json")])
    doc = json.loads(out)
    assert code == 2
    assert (tmp_path / "m.json").read_text(encoding="utf-8") == out
    assert doc["symmetry"]["residuals"]["tau_eta"] == pytest.approx(0.5)


def test_moments_empty_excitation_passes(tmp_path, capsys):
    path = write(tmp_path, "e.json", EMPTY_DOC)
    code, out = run(capsys, ["moments", "--excitation", path])
    doc = json.loads(out)
    assert code == 0
    assert all(v == 0.0 for v in doc["moments"].values())


def test_moments_nondimensionalises_with_phys(tmp_path, capsys):
    path = write(tmp_path, "v.json", VERTICAL_DOC)
    code, out = run(
        capsys, ["moments", "--excitation", path, "--phys", "2,0.5,4", "--p-alpha", "0.6"]
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["A"] == pytest.approx(2.0 / 2.0)
    assert doc["B"] == pytest.approx(0.36 / (4.0 * 0.125 * 4.0))


def test_moments_missing_file_is_input_error(capsys):
    code, _ = run(capsys, ["moments", "--excitation", "/nonexistent.json"])
    assert code == 1


def test_moments_malformed_json_is_input_error(tmp_path, capsys):
    path = write(tmp_path, "bad.json", "{oops")
    code, _ = run(capsys, ["moments", "--excitation", path])
    assert code == 1


@pytest.mark.parametrize(
    "doc",
    [
        # read as the coefficients [1, 2]
        '{"epsilon": 0.1, "omega": 1.0, "xi": {"sin": "12"}}',
        # an unknown axis, or axis key, would read as a zero series
        '{"epsilon": 0.1, "omega": 1.0, "vertical": {"sin": [1.0]}}',
        '{"epsilon": 0.1, "omega": 1.0, "xi": {"sine": [1.0]}}',
        '{"epsilon": 0.1, "omega": 1.0, "xi": {"sin": [[1.0]]}}',
        '{"epsilon": 0.1, "omega": 1.0, "xi": {"sin": [null]}}',
        '{"epsilon": 0.1, "omega": 1.0, "xi": {"sin": 5}}',
        '{"epsilon": "0.1", "omega": 1.0}',
        '{"epsilon": 0.1, "omega": true}',
        # a JSON integer past the float range
        '{"epsilon": 0.1, "omega": 1.0, "xi": {"sin": [1' + "0" * 400 + ']}}',
    ],
    ids=["string", "unknown-axis", "unknown-axis-key", "nested-list", "null", "scalar",
         "string-epsilon", "bool-omega", "huge-int"],
)
def test_moments_refuses_an_excitation_off_the_schema(tmp_path, capsys, doc):
    path = write(tmp_path, "x.json", doc)
    code = main(["moments", "--excitation", path])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("command", [["moments"], ["compare", "--eps-sweep", "0.1,0.05"]])
def test_a_too_deeply_nested_excitation_is_input_error(tmp_path, capsys, command):
    # the JSON decoder recurses once a level and gives up with RecursionError
    path = write(tmp_path, "deep.json", "[" * 100_000)
    out_file = tmp_path / "out.json"
    code = main([*command, "--excitation", path, "--out", str(out_file)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert path in captured.err
    assert not out_file.exists()


@pytest.mark.parametrize("phys, p_alpha", [
    ("1e-200,1e-200,1e-200", "0"),  # g l underflows to 0
    ("1e200,1e200,1e200", "1"),  # g l overflows
    ("1,1e200,1e-200", "1"),  # g l = 1, but l ** 3 overflows
])
def test_moments_refuses_physical_parameters_out_of_the_float_range(
    tmp_path, capsys, phys, p_alpha
):
    # each value is positive and finite, but a divisor of (A, B, C) is not
    path = write(tmp_path, "v.json", VERTICAL_DOC)
    code = main(["moments", "--excitation", path, "--phys", phys, "--p-alpha", p_alpha])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "outside the positive float range" in captured.err


def circular_doc(radius):
    return json.dumps({"epsilon": 0.1, "omega": 1.0,
                       "tau": {"cos": [radius]}, "eta": {"sin": [radius]}})


def moments_doc(tmp_path, capsys, radius, phys, p_alpha):
    path = write(tmp_path, "c.json", circular_doc(radius))
    code, out = run(capsys, ["moments", "--excitation", path, "--phys", phys,
                             "--p-alpha", p_alpha])
    assert code == 0
    return json.loads(out)


def relative_error(value, exact):
    with localcontext() as ctx:
        ctx.prec = 60
        return abs(Decimal(value) / exact - 1)


def test_moments_takes_a_product_in_range_past_a_nan_intermediate(tmp_path, capsys):
    # m * m is inf and l ** 3 is 0, so the plain m^2 l^3 g is NaN; the product is 1e-295
    doc = moments_doc(tmp_path, capsys, 1e-10, "1e170,1e-160,1e-155", "0")
    assert (doc["A"], doc["B"]) == (0.0, 0.0)
    assert doc["C"] > 0.0


def test_moments_keeps_b_precise_past_a_subnormal_intermediate(tmp_path, capsys):
    # m * m = 1e-320 keeps ~11 bits; the plain quotient read 1.000011132941258e+20
    doc = moments_doc(tmp_path, capsys, 0.3, "1e-160,1e100,1", "1")
    exact = 1 / (Decimal(1e-160) ** 2 * Decimal(1e100) ** 3)
    assert relative_error(doc["B"], exact) <= 4 * Decimal(sys.float_info.epsilon)


def test_moments_keeps_c_precise_over_a_subnormal_g_l(tmp_path, capsys):
    # g l = 1e-315 is subnormal: C is eta_eta / (g l) rounded once from the
    # exact product, not divided by the subnormal
    doc = moments_doc(tmp_path, capsys, 1e-10, "1e170,1e-160,1e-155", "0")
    eta_eta = doc["moments"]["eta_eta"]
    assert doc["C"] == float(Fraction(eta_eta) / (Fraction(1e-155) * Fraction(1e-160)))
    exact = Decimal(eta_eta) / (Decimal(1e-155) * Decimal(1e-160))
    assert relative_error(doc["C"], exact) <= 2 * Decimal(sys.float_info.epsilon)
    assert doc["C"] != eta_eta / (1e-155 * 1e-160)


def exact_quotients(a, c, p_alpha, m, l, g):
    """(A, B, C) as the exact quotients of the exact products, each rounded once."""
    a, c, p_alpha, m, l, g = map(Fraction, (a, c, p_alpha, m, l, g))
    return float(a / (g * l)), float(p_alpha ** 2 / (m ** 2 * l ** 3 * g)), float(c / (g * l))


def test_moments_are_the_exact_quotients_rounded_once(tmp_path, capsys):
    # a float expression rounds each product on its way: for m, l, g drawn
    # from [0.1, 10], xi_xi / (g * l) misses the correctly rounded A in 26%
    # of draws and p_alpha**2 / (m * m * l**3 * g) misses B in 50%
    for phys, p_alpha in (("2,0.5,4", "0.3"), ("1e100,1e30,1e-5", "1.5"), ("0.3,1e-30,7", "2")):
        doc = moments_doc(tmp_path, capsys, 0.3, phys, p_alpha)
        mm = doc["moments"]
        assert (doc["A"], doc["B"], doc["C"]) == exact_quotients(
            mm["xi_xi"], mm["eta_eta"], float(p_alpha), *map(float, phys.split(","))), phys
    rng = random.Random(1717)
    for _ in range(1000):
        a, c, p_alpha = rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0), rng.uniform(-3.0, 3.0)
        m, l, g = (10.0 ** rng.uniform(-1.0, 1.0) for _ in range(3))
        mm = MomentMatrix(((0.0, 0.0, 0.0), (0.0, c, 0.0), (0.0, 0.0, a)))
        ap = averaged_params(mm, p_alpha, PhysicalParams(m, l, g))
        assert (ap.A, ap.B, ap.C) == exact_quotients(a, c, p_alpha, m, l, g), (a, c, p_alpha, m, l, g)


PHYS_OVERFLOW = "PhysicalParams(m=1e+200, l=1e-155, g=1e-155)"
OVERFLOWS = [
    # omega^2 is inf, and inf * 0 puts NaN off the diagonal: not an asymmetry
    (["moments", "--excitation", "x.json"], "error: velocity moments overflow"),
    (["compare", "--excitation", "x.json", "--eps-sweep", "0.1,0.05"],
     "error: velocity moments overflow"),
    # finite moments and divisors, and a quotient A, B or C past the float range
    (["moments", "--excitation", "v.json", "--phys", "1e-100,1,1", "--p-alpha", "1e300"],
     "error: p_alpha^2 / (m^2 l^3 g) overflows the float range for p_alpha=1e+300, "
     "PhysicalParams(m=1e-100, l=1.0, g=1.0)\n"),
    (["moments", "--excitation", "v.json", "--phys", "1e200,1e-155,1e-155"],
     f"error: xi_xi / (g l) overflows the float range for xi_xi=2.0, {PHYS_OVERFLOW}\n"),
    (["moments", "--excitation", "c.json", "--phys", "1e200,1e-155,1e-155"],
     "error: eta_eta / (g l) overflows the float range for eta_eta=0.9248000000000001, "
     f"{PHYS_OVERFLOW}\n"),
    (["compare", "--excitation", "v.json", "--eps-sweep", "0.1,0.05", "--initial", "2,0,0,1e200"],
     "error: p_alpha^2 / (m^2 l^3 g) overflows the float range for p_alpha=1e+200, "
     "PhysicalParams(m=1.0, l=1.0, g=1.0)\n"),
]


@pytest.mark.parametrize("argv, message", OVERFLOWS,
                         ids=[f"argv{i}" for i in range(len(OVERFLOWS))])
def test_moments_that_overflow_are_refused_as_such(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "x.json", '{"epsilon": 0.1, "omega": 1e200, "xi": {"sin": [1.0]}}')
    write(tmp_path, "v.json", VERTICAL_DOC)
    write(tmp_path, "c.json", CIRCULAR_DOC)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(message)


@pytest.mark.parametrize(
    "option, argv",
    [
        ("--phys", ["moments", "--phys", ""]),
        ("--initial", ["compare", "--eps-sweep", "0.1,0.05", "--initial", ""]),
        ("--eps-sweep", ["compare", "--eps-sweep", ""]),
    ],
)
def test_an_empty_list_option_is_refused(tmp_path, capsys, option, argv):
    # an empty list holds no numbers; it does not ask for the default
    path = write(tmp_path, "v.json", VERTICAL_DOC)
    code = main([argv[0], "--excitation", path, *argv[1:]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {option}: expected comma-separated numbers, got ''\n"


def test_equilibria_planar_three(capsys):
    code, out = run(capsys, ["equilibria", "--a-minus-c", "2", "--b", "0"])
    doc = json.loads(out)
    assert code == 0
    phis = [eq["phi"] for eq in doc["equilibria"]]
    assert phis == pytest.approx([0.0, 2 * math.pi / 3, math.pi], abs=1e-9)
    assert doc["domain"] is None


@pytest.mark.parametrize("signed, unsigned", [
    (["equilibria", "--a-minus-c", "-0.0", "--b", "0.1"],
     ["equilibria", "--a-minus-c", "0", "--b", "0.1"]),
    (["equilibria", "--a-minus-c", "2", "--b", "-0.0"],
     ["equilibria", "--a-minus-c", "2", "--b", "0"]),
    (["domain", "--a-minus-c", "-0.0", "--b", "0.1"],
     ["domain", "--a-minus-c", "0", "--b", "0.1"]),
])
def test_equilibria_prints_a_negative_zero_parameter_as_zero(capsys, signed, unsigned):
    # A, B and C are means of squares: none of them, nor A - C, prints as -0.0
    code, out = run(capsys, signed)
    assert code == 0
    assert "-0.0" not in out
    assert (code, out) == run(capsys, unsigned)


@pytest.mark.parametrize("a_minus_c, kinds", [
    ("1.000000001", ["stable", "unstable", "stable"]),
    ("-1.000000001", ["unstable", "stable", "unstable"]),
])
def test_equilibria_next_to_the_planar_threshold_take_the_curvature_signs(
    capsys, a_minus_c, kinds
):
    # 1e-9 from |A - C| = 1 is outside the degenerate band, so each kind is
    # the sign of its curvature (A - C) + 1, (1 - (A - C)^2) / (A - C) or
    # (A - C) - 1
    code, out = run(capsys, ["equilibria", "--a-minus-c", a_minus_c, "--b", "0"])
    assert code == 0
    assert [eq["kind"] for eq in json.loads(out)["equilibria"]] == kinds


def test_equilibria_json_round_trips(tmp_path, capsys):
    out_file = tmp_path / "eq.json"
    code, out = run(
        capsys, ["equilibria", "--a-minus-c", "3.5", "--b", "0.01", "--out", str(out_file)]
    )
    assert code == 0
    text = out_file.read_text()
    assert text == out
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text


def test_curve_last_row_hits_the_planar_threshold(capsys):
    code, out = run(capsys, ["curve"])
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "phi,a_minus_c,b"
    assert len(lines) == 501
    phi, amc, b = (float(x) for x in lines[-1].split(","))
    assert phi == pytest.approx(math.pi, abs=1e-15)
    assert abs(amc - 1.0) < 1e-9
    assert abs(b) < 1e-9


def test_domain_labels(capsys):
    code, out = run(capsys, ["domain", "--a-minus-c", "0", "--b", "0.1"])
    assert code == 0 and json.loads(out)["domain"] == "I"
    code, out = run(capsys, ["domain", "--a-minus-c", "3.5", "--b", "0.01"])
    assert code == 0 and json.loads(out)["domain"] == "II"
    code, out = run(capsys, ["domain", "--a-minus-c", "3.5", "--b", "0.84375"])
    assert code == 0 and json.loads(out)["domain"] == "boundary"


def test_equilibria_agree_with_domain_at_a_huge_a_minus_c(capsys):
    # 1 - |cos phi| at the fold rounds to 1 here; the equator-side roots are
    # bracketed in |cos phi|
    code, out = run(capsys, ["domain", "--a-minus-c", "1e49", "--b", "1"])
    assert code == 0 and json.loads(out)["domain"] == "II"
    code, out = run(capsys, ["equilibria", "--a-minus-c", "1e49", "--b", "1"])
    doc = json.loads(out)
    assert code == 0
    assert doc["domain"] == "II"
    assert [eq["kind"] for eq in doc["equilibria"]] == ["stable", "unstable", "stable"]


def test_domain_rejects_planar_edge(capsys):
    code, _ = run(capsys, ["domain", "--a-minus-c", "1", "--b", "0"])
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["domain", "--a-minus-c", "nan", "--b", "1"],
        ["equilibria", "--a-minus-c", "1", "--b", "inf"],
        ["compare", "--excitation", "{exc}", "--eps-sweep", "0.1,0.05", "--t-end", "inf"],
        ["compare", "--excitation", "{exc}", "--eps-sweep", "0.1,0.05",
         "--initial", "nan,0,0,0.3"],
        # finite, but the trajectory overflows
        ["compare", "--excitation", "{exc}", "--eps-sweep", "0.1,0.05", "--t-end", "1",
         "--initial", "2,0,0,1e150"],
    ],
)
def test_non_finite_parameters_are_input_errors(tmp_path, capsys, argv):
    path = write(tmp_path, "v.json", VERTICAL_DOC)
    code = main([a.format(exc=path) for a in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    if "1e150" in argv[-1]:
        assert captured.err.startswith("error: non-finite state")


@pytest.mark.parametrize("command", ["equilibria", "domain", "portrait"])
@pytest.mark.parametrize("a_minus_c", ["nan", "inf", "-inf"])
def test_a_non_finite_a_minus_c_is_refused_as_such(tmp_path, capsys, command, a_minus_c):
    # it was refused as a C (nan and -inf) or an A (inf) that is not finite
    # and nonnegative, a value no one gave
    out = tmp_path / "out"
    code = main([command, f"--a-minus-c={a_minus_c}", "--b", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == f"error: A - C must be finite, got {float(a_minus_c)}\n"
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_moments_rejects_a_tolerance_that_is_not_positive_and_finite(tmp_path, capsys, tol):
    # a NaN or infinite tolerance used to pass the check and then fail in the
    # JSON writer with a message about float values
    path = write(tmp_path, "v.json", VERTICAL_DOC)
    code = main(["moments", "--excitation", path, "--tol", tol])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: --tol must be positive and finite\n"


def test_portrait_writes_files_deterministically(tmp_path, capsys):
    args = ["portrait", "--a-minus-c", "2", "--b", "0", "--nx", "64", "--ny", "64"]
    code, out = run(capsys, args + ["--out", str(tmp_path / "a")])
    assert code == 0
    assert "kind=unstable" in out
    code, _ = run(capsys, args + ["--out", str(tmp_path / "b")])
    assert code == 0
    for name in ("grid.csv", "contours.csv", "portrait.svg"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    svg = (tmp_path / "a" / "portrait.svg").read_text()
    assert 'class="separatrix"' in svg


# sha256 of stdout and of each written file; any change to a byte is a change
# to the numbers or the layout and must be deliberate.
PORTRAIT_PINS = [
    (
        ["--a-minus-c", "0", "--b", "0.1"],
        {
            "stdout": "9b7bf17230606c73f636e3746068571497562b316de6cf61d66306d7444be63d",
            "grid.csv": "f96dd5554371ce6a22bab4dc94cc08c27f3a8d14a995a290bf165ce9bcfc2566",
            "contours.csv": "b3f2613cb515ae5fbf64239362dcd93b97152a53f2fabfad0467410eb9ca49af",
            "portrait.svg": "a4ac7848baee8be145062a4725ea8e91f9ff65900b572eb963ad912d1c6c79c4",
        },
    ),
    (
        ["--a-minus-c", "3.5", "--b", "0.01"],
        {
            "stdout": "127329acd33fd395c399bca28f1e5fb37be6915d25012c98c3ee3e9fa2906a9a",
            "grid.csv": "f9513b98ba694a4883ec9ebabf5ce801d9486d593eccb63323ebd160c7fd35d0",
            "contours.csv": "277ebb6069905948c729dd4ea2c01108511a0164bb7835033b197cec016919a6",
            "portrait.svg": "ac86adf6c11a4916e45dd23f6cda04bc3818827294cbcdcdab8da11f828032cb",
        },
    ),
    (  # planar: the window is the full [0, pi]
        ["--a-minus-c", "2", "--b", "0"],
        {
            "stdout": "36090645df6517cbd83847417022557bdacea5a62361b46ef6b46a3ebd23d5a1",
            "grid.csv": "21e4c53143764029b9c3fe706518ee5bcccc38164dacde39c4ec87454888c639",
            "contours.csv": "99fa1fab249c1324b677ccb0168b4d484f05dfb3cb109a6f5912a42d205b1cb0",
            "portrait.svg": "0290d264a5e027f420ebdbd4c1e85b7f5bb1f6ba71eedcbc030a21114d812cd3",
        },
    ),
    (  # odd ny: a middle p = 0 column
        ["--a-minus-c", "3.5", "--b", "0.01", "--nx", "200", "--ny", "129", "--p-max", "2"],
        {
            "stdout": "127329acd33fd395c399bca28f1e5fb37be6915d25012c98c3ee3e9fa2906a9a",
            "grid.csv": "db9ac497cde751fb6df1c4e44fa103a366f3126bb9bc1426495c6cae8b9a98af",
            "contours.csv": "03b2d72b010062636e00f71a59e2d7c29c0cf06a3b301e2261f785390bc3b253",
            "portrait.svg": "d18ea77bba78752b7abc5360e3f931436513661f0b459398909c3d2a4b9792de",
        },
    ),
]


@pytest.mark.parametrize("args, pins", PORTRAIT_PINS)
def test_portrait_bytes_are_pinned(tmp_path, capsys, args, pins):
    code, out = run(capsys, ["portrait", *args, "--out", str(tmp_path)])
    assert code == 0
    digests = {"stdout": hashlib.sha256(out.encode()).hexdigest()}
    for name in ("grid.csv", "contours.csv", "portrait.svg"):
        digests[name] = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digests == pins


@pytest.mark.parametrize("a_minus_c, kinds", [("0", ["stable"]),
                                              ("3.5", ["stable", "unstable", "stable"])])
def test_portrait_draws_the_equilibria_inside_the_pole_inset(tmp_path, capsys, a_minus_c, kinds):
    # at B = 1e-7 each minimum lies within POLE_INSET of a pole; its window
    # edge moves to half its distance from the pole, and it is drawn
    argv = ["portrait", "--a-minus-c", a_minus_c, "--b", "1e-7", "--nx", "128", "--ny", "128"]
    code, out = run(capsys, [*argv, "--out", str(tmp_path)])
    assert code == 0
    svg = (tmp_path / "portrait.svg").read_text(encoding="utf-8")
    printed = [line.split("kind=")[1].split()[0] for line in out.splitlines()]
    assert printed == [part.split('"')[0] for part in svg.split('class="equilibrium-')[1:]]
    assert printed == kinds
    grid = build_grid(AveragedParams.from_a_minus_c(float(a_minus_c), 1e-7), nx=128, ny=128)
    lo, hi = grid.phi_range
    assert all(lo < eq.phi < hi for eq in grid.equilibria)
    assert lo == 0.5 * grid.equilibria[0].phi < 0.01


@pytest.mark.parametrize("a_minus_c, b", [(0.0, 0.1), (3.5, 0.01)])
def test_portrait_files_are_written_in_under_a_megabyte(tmp_path, capsys, monkeypatch, forks,
                                                        a_minus_c, b):
    # the 4.9 MB grid.csv goes out a row at a time, not as one string, by the
    # serial writer on 1 CPU and by the parent of the forked writers on 8; the
    # bound is on the writers, so the contours are traced before tracemalloc
    # starts (test_tracing_a_512_grid_takes_under_two_megabytes bounds tracing)
    grid = build_grid(AveragedParams.from_a_minus_c(a_minus_c, b), nx=512, ny=512)
    contours = extract_contours(grid)
    for cpus in (1, 8):
        out_dir = tmp_path / str(cpus)
        del forks[:]
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            m.setattr(portrait, "extract_contours", lambda g: contours)
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                cli._write_portrait(grid, out_dir)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        capsys.readouterr()
        # on 8 CPUs the contours go to one child and grid.csv's rows to 7 more
        assert len(forks) == {1: 0, 8: 1 + 7}[cpus]
        assert (out_dir / "grid.csv").stat().st_size > 4_000_000
        assert peak - start < 1_000_000, cpus


def test_portrait_writers_write_the_same_text_to_a_file_and_to_a_string(tmp_path, capsys):
    grid = build_grid(AveragedParams.from_a_minus_c(3.5, 0.01), nx=64, ny=65)
    contours = extract_contours(grid)
    cli._write_portrait(grid, tmp_path)
    capsys.readouterr()
    for name, writer, args in (
        ("grid.csv", grid_to_csv, (grid,)),
        ("contours.csv", contours_to_csv, (contours,)),
        ("portrait.svg", render_svg, (grid, contours)),
    ):
        assert (tmp_path / name).read_bytes() == written(writer, *args).encode(), name


CIRCULAR_DOC = '{"epsilon": 0.1, "omega": 1.7, "tau": {"cos": [0.8]}, "eta": {"sin": [0.8]}}'

# sha256 of stdout of the scalar subcommands
SCALAR_PINS = [
    (["curve", "--samples", "500"],
     "b9efb8d74dd76c478e510a49bee82edaa10c690235023193d98b6353eb177e67"),
    (["moments", "--excitation", "{vertical}", "--p-alpha", "0.3", "--phys", "2,0.5,4"],
     "cae956234acbd31e5f6477f0cc1cd37291f2967e297e10100f7736a82f6c7291"),
    (["moments", "--excitation", "{circular}", "--p-alpha", "0.3", "--phys", "2,0.5,4"],
     "f660f6e66d241ac57d5e95ce336e4b20ec85338c1863ea0502b809a9ea2a8953"),
    # r = 1 puts the fold at |cos phi| = 1/2, so the saddle is solved in u
    # on [0, 1/2]
    (["equilibria", "--a-minus-c", "3.5", "--b", "0.01"],
     "68e32733ed58c6b975ffc664b2ccf93ee9c126d3b547d62580a73487077a5426"),
    (["equilibria", "--a-minus-c", "0", "--b", "0.1"],
     "287d561354d9801a78070f7e508c24520de499e018ce735445ce890e19490da1"),
    (["domain", "--a-minus-c", "3.5", "--b", "0.01"],
     "6cf994e3313c3514a590f2febc5505b54b90cd8e7721348cfc0360f056fa3434"),
    (["domain", "--a-minus-c", "0", "--b", "0.1"],
     "3a72ec38a64aa26f761d2fbe7b441459d23e3290ee84b78532a5b85c3390a29b"),
]


@pytest.mark.parametrize("argv, pin", SCALAR_PINS)
def test_scalar_stdout_is_pinned(tmp_path, capsys, argv, pin):
    paths = {"vertical": write(tmp_path, "v.json", VERTICAL_DOC),
             "circular": write(tmp_path, "c.json", CIRCULAR_DOC)}
    code, out = run(capsys, [a.format(**paths) for a in argv])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == pin


@pytest.mark.parametrize("argv, v, d2v", [
    # at B = 1e-70 the minimum next to pi sits at pi - x with
    # x^4 ~ B / (A - C - 1), x ~ 3.2e-18, far below the float spacing at pi;
    # there V = 1 + O(x^2) and d2V = 3 B / x^4 + (A - C - 1) + O(x^2) =
    # 4 (A - C - 1) = 4, where d2V at phi = math.pi reads 1.0000013
    (["--a-minus-c", "2", "--b", "1e-70"], 1.0, 4.0),
    # at A - C = 1e300, B = 1, x^4 ~ 1e-300 and V = 1 / (2 x^2) + 1e300 x^2 / 2
    # = 1e150, where V at phi = math.pi reads 7.5e267
    (["--a-minus-c", "1e300", "--b", "1"], 1e150, 4e300),
    # at B = 0 the pole at pi is the equilibrium itself: V = 1 and
    # d2V = A - C - 1, where V at phi = math.pi reads 7.5e267
    (["--a-minus-c", "1e300", "--b", "0"], 1.0, 1e300),
])
def test_equilibria_gives_v_and_d2v_of_an_equilibrium_closer_to_pi_than_its_float_spacing(
        capsys, argv, v, d2v):
    code, out = run(capsys, ["equilibria", *argv])
    assert code == 0
    near_pi = json.loads(out)["equilibria"][-1]
    assert near_pi["phi"] == math.pi
    assert math.isclose(near_pi["v"], v, rel_tol=1e-9)
    assert math.isclose(near_pi["d2v"], d2v, rel_tol=1e-9)


@pytest.mark.parametrize("command", ["equilibria", "portrait"])
@pytest.mark.parametrize("a_minus_c, b", [("-1e308", "1"), ("-1e308", "0"), ("1e308", "0")])
def test_an_a_minus_c_whose_curvature_overflows_is_input_error(tmp_path, capsys, command,
                                                              a_minus_c, b):
    # 2 (A - C) in d2V overflows: it read inf or NaN at the equilibria, which
    # json refused, a kind check missed or a portrait drew
    out_dir = tmp_path / "out"
    argv = [command, f"--a-minus-c={a_minus_c}", "--b", b]
    code = main(argv + (["--nx", "16", "--out", str(out_dir)] if command == "portrait" else []))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    message = f"A - C = {float(a_minus_c)} with B = {float(b)} is out of range"
    assert captured.err == f"error: {message}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["equilibria", "portrait"])
@pytest.mark.parametrize("a_minus_c, b, reason", [
    # the minimum next to each pole sits ~(B / (A - C))^(1/4) = 1e-150 from
    # it, where sin^4 underflows: the refusal named neither parameter
    ("1e300", "1e-300", "puts a minimum of V next to a pole past the float range,"
                        " where sin(phi)^4 underflows"),
    # next to gamma the minimum sits ~1e-67 from pi/2, where d2V's terms of
    # 1e200 cancel: it read 0 at a stable equilibrium and exited 2
    ("1e200", "1e200", "is out of range: d2V cancels to 0 at the stable equilibrium"),
])
def test_a_minimum_past_the_float_resolution_is_input_error(tmp_path, capsys, command,
                                                            a_minus_c, b, reason):
    out_dir = tmp_path / "out"
    argv = [command, "--a-minus-c", a_minus_c, "--b", b]
    code = main(argv + (["--nx", "16", "--out", str(out_dir)] if command == "portrait" else []))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: A - C = {float(a_minus_c)} with B = {float(b)} {reason}")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("p_max", ["inf", "1e308", "1e-320", "1e200"])
def test_portrait_refuses_a_p_window_it_cannot_sample(tmp_path, capsys, p_max):
    # inf and 1e308 overflow to a NaN p axis; at the default 512 points,
    # 1e-320 gives subnormal p values that are not increasing; 1e200 gives a
    # good p axis whose p^2/2 overflows
    out_dir = tmp_path / "out"
    code = main(["portrait", "--a-minus-c", "0.5", "--b", "0.3", "--nx", "16",
                 "--p-max", p_max, "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not out_dir.exists()


def test_compare_zero_excitation_passes(tmp_path, capsys):
    path = write(tmp_path, "z.json", ZERO_COMPARE_DOC)
    code, out = run(
        capsys,
        ["compare", "--excitation", path, "--eps-sweep", "0.02,0.01", "--t-end", "5"],
    )
    doc = json.loads(out)
    assert code == 0
    assert all(err < 1e-8 for err in doc["max_err_phi"])
    assert doc["passed"] is True


def test_compare_vertical_band(tmp_path, capsys):
    path = write(tmp_path, "v.json", README_VERTICAL_DOC)
    code, out = run(
        capsys,
        ["compare", "--excitation", path, "--eps-sweep", "0.1,0.05,0.025", "--t-end", "10"],
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["epsilons"] == [0.1, 0.05, 0.025]
    for r in doc["ratios_phi"]:
        assert 1.4 <= r <= 3.5
    # alpha-independent excitation conserves p_alpha exactly
    assert all(d == 0.0 for d in doc["p_alpha_drift"])
    assert doc["ratios_p_alpha"] == [None, None]


# sha256 of compare's stdout over the README sweep; any change to the flows'
# arithmetic moves the last digits of the errors
COMPARE_PINS = [
    pytest.param(README_VERTICAL_DOC,
                 "61d247387201692193b0f545799959b6873b261fec7b84d8a43d249f85427dd8",
                 id="readme-vertical"),
    pytest.param(VERTICAL_DOC, "9a8f6ba124c7d9eeec907be0cf12ca3fd6b85d68b14af5a78670a0f61b63db2c",
                 id="vertical-omega-2"),
    pytest.param(CIRCULAR_DOC, "fc6cd8b0dceb4ad5e30a693f42ffda8c1945cc1f30d3dc994da6b62c84185070",
                 id="circular"),
    pytest.param(BENCH_LIKE_DOC,
                 "53a4148705992635e1432fea9b403aa3aff8c4861303811f57940df0ac22db97",
                 id="bench-like"),
]


@pytest.mark.parametrize("doc, pin", COMPARE_PINS)
def test_compare_stdout_is_pinned(tmp_path, capsys, doc, pin):
    path = write(tmp_path, "exc.json", doc)
    code, out = run(
        capsys,
        ["compare", "--excitation", path, "--eps-sweep", "0.1,0.05,0.025", "--t-end", "10"],
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == pin


@pytest.mark.parametrize("initial, shown", [
    ("nan,0,0,0", "[nan, 0.0, 0.0, 0.0]"),
    ("2,inf,0,0.3", "[2.0, inf, 0.0, 0.3]"),
    ("2,0,-inf,0.3", "[2.0, 0.0, -inf, 0.3]"),
])
def test_compare_names_the_given_initial_state_when_it_is_not_finite(tmp_path, capsys,
                                                                     initial, shown):
    # the four values given, not the six-float state the two flows step; a
    # non-finite state is bad input even with an asymmetric excitation
    for doc in (VERTICAL_DOC, IN_PHASE_DOC):
        path = write(tmp_path, "e.json", doc)
        code = main(["compare", "--excitation", path, "--eps-sweep", "0.1,0.05",
                     "--initial", initial])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: --initial must be finite, got {shown}\n"


@pytest.mark.parametrize("argv, message", [
    (["compare", "--t-end", "nan"], "--t-end must be positive and finite, got nan"),
    (["compare", "--t-end", "inf"], "--t-end must be positive and finite, got inf"),
    (["compare", "--t-end", "0"], "--t-end must be positive and finite, got 0.0"),
    (["compare", "--t-end=-1"], "--t-end must be positive and finite, got -1.0"),
    (["moments", "--p-alpha", "nan"], "--p-alpha must be finite, got nan"),
    (["compare", "--eps-sweep", "nan,0.05"],
     "--eps-sweep entries must be positive and finite, got [nan, 0.05]"),
    (["compare", "--eps-sweep", "inf,0.05"],
     "--eps-sweep entries must be positive and finite, got [inf, 0.05]"),
    (["compare", "--eps-sweep", "0.1,nan"],
     "--eps-sweep entries must be positive and finite, got [0.1, nan]"),
])
def test_an_option_is_checked_before_the_excitation_file_is_read(tmp_path, capsys, argv, message):
    # the missing file was reported first; with a real file the error read
    # "t_span must be finite, got (0.0, nan)", "p_alpha must be finite" or
    # "epsilon must be positive and finite, got nan", naming no option
    sweep = ["--eps-sweep", "0.1,0.05"] if argv[0] == "compare" else []
    code = main([argv[0], "--excitation", str(tmp_path / "missing.json"), *sweep, *argv[1:]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_compare_refuses_asymmetric_excitation(tmp_path, capsys):
    path = write(tmp_path, "p.json", IN_PHASE_DOC)
    code, out = run(
        capsys, ["compare", "--excitation", path, "--eps-sweep", "0.1,0.05",
                 "--out", str(tmp_path / "c.json")]
    )
    assert code == 2
    # the violation document is written to --out as it is printed
    assert (tmp_path / "c.json").read_text(encoding="utf-8") == out
    doc = json.loads(out)
    assert doc["error"] == "symmetry violation"
    assert doc["residuals"]["tau_eta"] == pytest.approx(0.5)


@pytest.mark.parametrize("t_end", ["1e-12", "0.3"])
def test_compare_refuses_a_span_shorter_than_one_fast_period(tmp_path, capsys, t_end):
    # the fast period of the largest epsilon is 2 pi 0.1 / 2 = 0.314...; over
    # a shorter span every error can sit below ERROR_FLOOR, where no ratio is
    # checked, and the sweep would pass having shown nothing
    path = write(tmp_path, "v.json", VERTICAL_DOC)
    code = main(["compare", "--excitation", path, "--eps-sweep", "0.1,0.05", "--t-end", t_end])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "fast period" in captured.err


@pytest.mark.xfail(strict=True, reason="ROADMAP item 16: compare's step rule ignores the "
                   "excitation's harmonics")
def test_compare_does_not_blame_the_theory_for_rk4_error_at_harmonic_6(tmp_path, capsys):
    # a vertical harmonic 6 has a sixth of the fast period: the finest run
    # takes ~2.7 steps a period of its own motion, and its RK4 error pulls
    # the ratios to 1.98 and 1.22, so compare exits 2
    path = write(tmp_path, "h6.json",
                 '{"epsilon": 0.1, "omega": 1.0, "xi": {"sin": [0, 0, 0, 0, 0, 0.15]}}')
    code = main(["compare", "--excitation", path, "--eps-sweep", "0.1,0.05,0.025"])
    capsys.readouterr()
    assert code != 2


def test_compare_refuses_an_overlong_integration(tmp_path, capsys):
    path = write(tmp_path, "v.json", VERTICAL_DOC)
    t0 = time.perf_counter()
    code = main(["compare", "--excitation", path, "--eps-sweep", "0.1,0.05", "--t-end", "1e9"])
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "steps" in captured.err
    assert elapsed < 1.0


def test_compare_writes_an_infinite_ratio_as_null(tmp_path, capsys, monkeypatch):
    # a finer error of exactly 0 gives an infinite ratio, which fails the band
    assert _ratio_verdict([1.0, 0.0]) == ([math.inf], False)

    errs = {0.1: 1.0, 0.05: 0.0}

    def compare(e, ap, initial, t_end, n, record, read):
        err = errs[e.epsilon]
        return dynamics.ComparisonReport(e.epsilon, t_end, err, err, 0.0)

    monkeypatch.setattr(dynamics, "_compare_run", compare)
    path = write(tmp_path, "v.json", VERTICAL_DOC)
    code, out = run(capsys, ["compare", "--excitation", path, "--eps-sweep", "0.1,0.05"])
    assert code == 2

    def no_constants(name):
        raise AssertionError(f"non-RFC JSON constant {name}")

    doc = json.loads(out, parse_constant=no_constants)
    assert doc["ratios_phi"] == [None]
    assert doc["passed"] is False


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children that ``os.fork`` makes during a test, every
    one of which must be reaped when the test ends, with every pipe end
    closed: the test ends with the file descriptors it began with."""
    made = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    fds = open_fds()
    yield made
    assert_no_child_left()
    assert open_fds() == fds


def open_fds():
    """How many file descriptors this process has open; None where /proc
    cannot tell."""
    try:
        return len(os.listdir("/proc/self/fd"))
    except FileNotFoundError:
        return None


def run_on_cpus(monkeypatch, capsys, argv, cpus):
    """``main(argv)`` as a process that may run on ``cpus`` CPUs (None: this
    host's own count); exit code, stdout and stderr."""
    with monkeypatch.context() as m:
        if cpus is not None:
            m.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("doc, sweep, initial, err", [
    (README_VERTICAL_DOC, "0.1,1e-300", "2,0,0,0.3",
     "error: integrating (0.0, 10.0) at step 3.926990816987241e-301 takes 2.54648e+301 steps, "
     "more than the limit of 1000000\n"),
    # the circular horizontal motion near the pole: only the 0.025 run fails
    (ROADMAP_CIRCULAR_DOC, "0.1,0.05,0.025", "0.05,0,0,0",
     "error: non-finite state reached at t = 2.8863382504856223\n"),
    # every run fails, the finer ones sooner: the first run's error is reported
    (ROADMAP_CIRCULAR_DOC, "0.1,0.05,0.025", "0.001,0,0,0",
     "error: non-finite state reached at t = 4.516039439535327\n"),
])
def test_compare_reports_the_first_failing_run_of_the_sweep(tmp_path, capsys, doc, sweep,
                                                            initial, err):
    path = write(tmp_path, "exc.json", doc)
    code = main(["compare", "--excitation", path, "--eps-sweep", sweep, "--initial", initial,
                 "--out", str(tmp_path / "c.json")])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", err)
    assert not (tmp_path / "c.json").exists()


def test_compare_reports_the_first_failing_run_when_a_later_one_fails_first(
        tmp_path, capsys, monkeypatch):
    # the 0.05 and 0.025 runs fail with errors of their own; the sweep runs
    # in sweep order and stops at the 0.05 run's
    runs = []

    def compare(e, ap, initial, t_end, n, record, read):
        runs.append(e.epsilon)
        if e.epsilon < 0.1:
            raise ValueError(f"the {e.epsilon!r} run fails")
        return dynamics.ComparisonReport(e.epsilon, t_end, 1.0, 1.0, 0.0)

    monkeypatch.setattr(dynamics, "_compare_run", compare)
    path = write(tmp_path, "v.json", README_VERTICAL_DOC)
    code = main(["compare", "--excitation", path, "--eps-sweep", "0.1,0.05,0.025",
                 "--out", str(tmp_path / "c.json")])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", "error: the 0.05 run fails\n")
    assert not (tmp_path / "c.json").exists()
    assert runs == [0.1, 0.05]


def test_in_order_gives_item_i_to_worker_i_mod_w(monkeypatch, forks):
    for n, w in product((1, 2, 7, 16, 67), (1, 2, 3, 8)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(w)))
        pids = []
        _fork.in_order(n, lambda i: str(os.getpid()).encode(), lambda data: pids.append(int(data)))
        workers = pids[:w]
        assert workers[0] == os.getpid() and len(set(workers)) == min(n, w)
        assert pids == [workers[i % w] for i in range(n)]


def portrait_digests(out, out_dir):
    """sha256 of a portrait's stdout and of each file it wrote, as PORTRAIT_PINS holds them."""
    digests = {"stdout": hashlib.sha256(out.encode()).hexdigest()}
    for name in ("grid.csv", "contours.csv", "portrait.svg"):
        digests[name] = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("command", [["domain"], ["equilibria"], ["portrait", "--nx", "16"]])
def test_a_negative_exponent_value_is_given_after_an_equals_sign(tmp_path, capsys, command):
    # argparse reads "-2e3" after a space as an option, but takes it after "="
    answers = []
    for i, value in enumerate((["--a-minus-c=-2e3"], ["--a-minus-c", "-2000"])):
        out_dir = tmp_path / str(i)
        argv = [*command, *value, "--b", "0.5"]
        if command[0] == "portrait":
            argv += ["--out", str(out_dir)]
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        answers.append(portrait_digests(out, out_dir) if command[0] == "portrait" else out)
    assert answers[0] == answers[1]


@pytest.mark.parametrize("args, pins", PORTRAIT_PINS)
def test_portrait_gives_the_same_bytes_in_one_process_and_in_many(tmp_path, capsys, monkeypatch,
                                                                   forks, args, pins):
    for cpus in (1, None, 8):
        out_dir = tmp_path / str(cpus)
        del forks[:]
        code, out, err = run_on_cpus(monkeypatch, capsys,
                                     ["portrait", *args, "--out", str(out_dir)], cpus)
        assert (code, err) == (0, "")
        assert portrait_digests(out, out_dir) == pins, cpus
        if cpus is not None:
            # on 8 CPUs the contours go to one child and grid.csv's rows to 7 more
            assert len(forks) == {1: 0, 8: 1 + 7}[cpus]


def test_reproduce_gives_the_same_bytes_in_one_process_and_in_many(tmp_path, capsys, monkeypatch,
                                                                   forks):
    written_by = {}
    for cpus in (1, None, 8):
        out_dir = tmp_path / str(cpus)
        argv = ["reproduce", "--out", str(out_dir), "--nx", "48", "--ny", "48", "--samples", "50"]
        code, out, err = run_on_cpus(monkeypatch, capsys, argv, cpus)
        assert (code, err) == (0, "")
        files = {str(f.relative_to(out_dir)): f.read_bytes()
                 for f in sorted(out_dir.rglob("*")) if f.is_file()}
        written_by[cpus] = (out.replace(str(out_dir), "<out>"), files)
    assert len(written_by[1][1]) == 8
    assert written_by[1] == written_by[None] == written_by[8]
    assert forks


@pytest.mark.parametrize("kept", [lambda size: 0, lambda size: 4, lambda size: size // 2],
                         ids=["nothing", "half-the-length", "half-the-record"])
def test_a_portrait_child_killed_after_its_first_record_gives_the_pinned_bytes(
        tmp_path, capsys, monkeypatch, forks, kept):
    # each row child of grid.csv writes its first record whole, then dies
    # having written nothing, half the length or half the record of its
    # second; the parent formats the rest itself, and the contour child, which
    # sends one record, is left to finish
    parent = os.getpid()
    write = os.write
    sent = []

    def dying(fd, data):
        if os.getpid() != parent:
            if sent:
                write(fd, data[:kept(len(data))])
                os.kill(os.getpid(), signal.SIGKILL)
            sent.append(len(data))
        return write(fd, data)

    monkeypatch.setattr(os, "write", dying)
    args, pins = PORTRAIT_PINS[3]
    code, out, err = run_on_cpus(monkeypatch, capsys, ["portrait", *args, "--out", str(tmp_path)],
                                 8)
    assert (code, err) == (0, "")
    assert portrait_digests(out, tmp_path) == pins
    assert len(forks) == 1 + 7


@pytest.mark.parametrize("when", ["before-tracing", "mid-svg", "before-its-record"])
def test_a_portrait_contour_child_killed_before_its_record_gives_the_pinned_bytes(
        tmp_path, capsys, monkeypatch, forks, when):
    # the contour child dies before it traces, with half a portrait.svg on
    # disk, or with both its files closed but no record sent: the parent
    # traces the contours and writes contours.csv and portrait.svg itself
    parent = os.getpid()
    trace, render, write = portrait.extract_contours, portrait.render_svg, os.write
    traced_here = []

    def die():
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)

    def tracing(grid):
        if when == "before-tracing":
            die()
        traced_here.append(os.getpid())  # a child's list is its own
        return trace(grid)

    def rendering(grid, contours, out):
        if when == "mid-svg" and os.getpid() != parent:
            render(grid, contours[:1], out)
            out.flush()
            die()
        render(grid, contours, out)

    def sending(fd, data):
        if when == "before-its-record" and len(data) == 8 and bytes(data) == bytes(8):
            die()  # the contour item's record: its length 0, and no bytes
        return write(fd, data)

    monkeypatch.setattr(portrait, "extract_contours", tracing)
    monkeypatch.setattr(portrait, "render_svg", rendering)
    monkeypatch.setattr(os, "write", sending)
    args, pins = PORTRAIT_PINS[3]
    code, out, err = run_on_cpus(monkeypatch, capsys, ["portrait", *args, "--out", str(tmp_path)],
                                 8)
    assert (code, err) == (0, "")
    assert portrait_digests(out, tmp_path) == pins
    assert traced_here == [parent]
    assert len(forks) == 1 + 7


def test_a_grid_csv_that_cannot_be_written_kills_and_reaps_the_contour_child(
        tmp_path, capsys, monkeypatch, forks):
    parent = os.getpid()
    trace = portrait.extract_contours

    def slow(grid):
        if os.getpid() != parent:
            time.sleep(60)
        return trace(grid)

    def full(grid, out):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(portrait, "extract_contours", slow)
    monkeypatch.setattr(portrait, "grid_to_csv", full)
    args, _ = PORTRAIT_PINS[3]
    t0 = time.perf_counter()
    result = run_on_cpus(monkeypatch, capsys, ["portrait", *args, "--out", str(tmp_path)], 8)
    assert time.perf_counter() - t0 < 30.0
    assert result == (1, "", "error: [Errno 28] No space left on device\n")
    assert len(forks) == 1
    assert_no_child_left()
    assert not (tmp_path / "contours.csv").exists()


@pytest.mark.parametrize("forked", [0, 1, 2])
def test_portrait_formats_the_rows_itself_when_it_cannot_fork(tmp_path, capsys, monkeypatch,
                                                              forks, forked):
    # os.fork fails at once, after the contour child, or after the contour
    # child and one row child of grid.csv: the items of the children not made
    # are made in the parent
    counted = os.fork
    attempts = []

    def failing():
        attempts.append(None)
        if len(attempts) % (forked + 1) == 0:  # a caller stops forking at the first failure
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return counted()

    monkeypatch.setattr(os, "fork", failing)
    args, pins = PORTRAIT_PINS[3]
    code, out, err = run_on_cpus(monkeypatch, capsys, ["portrait", *args, "--out", str(tmp_path)],
                                 8)
    assert (code, err) == (0, "")
    assert portrait_digests(out, tmp_path) == pins
    # the contour item's fork is tried once; grid.csv's, unless it runs in the parent
    assert (len(attempts), len(forks)) == (max(2, forked + 1), forked)


@pytest.mark.parametrize("forked", [0, 1])
def test_portrait_makes_the_items_itself_when_no_pipe_is_left(
        tmp_path, capsys, monkeypatch, forks, forked):
    # os.pipe fails at once, or after one child (portrait's contour child),
    # as where every file descriptor is in use: the items of the children not
    # made are made in the parent
    counted = os.pipe
    attempts = []

    def failing():
        attempts.append(None)
        if len(attempts) % (forked + 1) == 0:  # each call stops forking at the first failure
            raise OSError(errno.EMFILE, "Too many open files")
        return counted()

    monkeypatch.setattr(os, "pipe", failing)
    args, pins = PORTRAIT_PINS[3]
    out_dir = tmp_path / "portrait"
    code, out, err = run_on_cpus(monkeypatch, capsys, ["portrait", *args, "--out", str(out_dir)],
                                 8)
    assert (code, err) == (0, "")
    assert portrait_digests(out, out_dir) == pins
    assert (len(attempts), len(forks)) == (2, forked)


def test_portrait_forks_nothing_while_other_threads_run(tmp_path, capsys, monkeypatch, forks):
    import threading

    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(30.0,))
    waiter.start()
    try:
        args, pins = PORTRAIT_PINS[3]
        code, out, _ = run_on_cpus(monkeypatch, capsys,
                                   ["portrait", *args, "--out", str(tmp_path)], 8)
    finally:
        release.set()
        waiter.join(30.0)
    assert not waiter.is_alive()
    assert code == 0 and portrait_digests(out, tmp_path) == pins
    assert forks == []


def test_an_interrupted_writer_kills_and_reaps_its_children(monkeypatch, forks):
    parent = os.getpid()

    def text(i):
        if os.getpid() != parent:
            time.sleep(60)
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        _fork.in_order(16, lambda i: text(i).encode(), lambda data: None)
    assert time.perf_counter() - t0 < 30.0
    assert len(forks) == 7
    assert_no_child_left()


@pytest.mark.parametrize("bad", [0, 3, 11, 15])
def test_an_item_that_raises_in_a_child_raises_the_serial_loops_exception(monkeypatch, forks,
                                                                          bad):
    # item 0 is the parent's, 3 and 11 the first and second of one child's,
    # and 15 the last item
    def text(i):
        if i == bad:
            raise ValueError(f"item {i} cannot be formatted")
        return f"item {i}\n"

    outcomes = []
    for cpus in (1, 8):
        out = io.StringIO()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        with pytest.raises(ValueError) as raised:
            _fork.in_order(16, lambda i: text(i).encode(), lambda data: out.write(data.decode()))
        outcomes.append((out.getvalue(), str(raised.value)))
        assert_no_child_left()
    assert outcomes[0] == outcomes[1] == ("".join(f"item {i}\n" for i in range(bad)),
                                          f"item {bad} cannot be formatted")
    assert len(forks) == 7


@pytest.mark.parametrize(
    "argv",
    [
        ["portrait", "--a-minus-c", "2", "--b", "0", "--nx", "4097"],
        ["portrait", "--a-minus-c", "2", "--b", "0", "--ny", "4097"],
        ["reproduce", "--nx", "4097"],
        ["reproduce", "--nx", "1"],
        ["reproduce", "--samples", "1000001"],
        ["curve", "--samples", "1000001"],
    ],
)
def test_size_options_are_bounded(tmp_path, capsys, argv):
    out_dir = tmp_path / "out"
    code = main(argv + ["--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not out_dir.exists()


def test_compare_requires_decreasing_sweep(tmp_path, capsys):
    path = write(tmp_path, "v.json", VERTICAL_DOC)
    code, _ = run(capsys, ["compare", "--excitation", path, "--eps-sweep", "0.05,0.1"])
    assert code == 1


def test_compare_refuses_a_sweep_of_one_amplitude(tmp_path, capsys, monkeypatch):
    # one amplitude gives no ratio to check: the sweep used to print
    # "ratios_phi": [] and "passed": true having checked nothing
    def compare(*args):
        raise AssertionError("a sweep of one amplitude was integrated")

    monkeypatch.setattr(dynamics, "compare_sweep", compare)
    path = write(tmp_path, "v.json", VERTICAL_DOC)
    code = main(["compare", "--excitation", path, "--eps-sweep", "0.1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: --eps-sweep needs at least two amplitudes, got 1\n"
    with pytest.raises(SystemExit):
        main(["compare", "--help"])
    assert "at least two strictly decreasing amplitudes" in " ".join(capsys.readouterr().out.split())


def test_reproduce_writes_the_figure_data(tmp_path, capsys):
    out_dir = tmp_path / "repro"
    code, out = run(
        capsys, ["reproduce", "--out", str(out_dir), "--nx", "48", "--ny", "48", "--samples", "50"]
    )
    assert code == 0
    assert (out_dir / "gamma.csv").exists()
    domains = (out_dir / "domains.csv").read_text().strip().splitlines()
    labels = {line.split(",")[2] for line in domains[1:]}
    assert {"I", "II"} <= labels
    for sub in ("portrait_domain_I", "portrait_domain_II"):
        for name in ("grid.csv", "contours.csv", "portrait.svg"):
            assert (out_dir / sub / name).exists()


def test_reproduce_default_output_directory_is_fixed(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, ["reproduce", "--nx", "48", "--ny", "48", "--samples", "50"])
    assert code == 0
    assert [p.name for p in tmp_path.iterdir()] == ["reproduction"]
    assert f"wrote {Path('reproduction', 'domains.csv')}" in out.splitlines()


def test_reproduce_rejects_too_few_samples(tmp_path, capsys):
    out_dir = tmp_path / "repro"
    code, out = run(capsys, ["reproduce", "--out", str(out_dir), "--samples", "0"])
    assert code == 1
    assert out == ""
    assert not out_dir.exists()


def test_reproduce_leaves_no_directory_when_a_portrait_fails(tmp_path, capsys):
    out_dir = tmp_path / "rp"
    code = main(["reproduce", "--out", str(out_dir), "--nx", "16", "--ny", "16",
                 "--samples", "10", "--p-max", "inf"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not out_dir.exists()


def test_linspace_equals_numpy_bit_for_bit():
    cases = [
        (0.5 * math.pi + 1e-3, math.pi, 500),  # the curve and reproduce defaults
        (0.5 * math.pi + 1e-3, math.pi, 10**6),
        (-1.0, 4.0, 41),  # the reproduce domain sweep
        (0.05, 1.5, 30),
        (0.0, 1.0, 2),
        (2.5, -7.25, 2),
    ]
    rng = np.random.default_rng(4242)
    for _ in range(3000):
        start, stop = rng.uniform(-1.0, 1.0, 2) * 10.0 ** rng.integers(-8, 9, 2)
        cases.append((float(start), float(stop), int(rng.integers(2, 400))))
    assert sum(stop < start for start, stop, _ in cases) > 1000
    for start, stop, num in cases:
        assert cli._linspace(start, stop, num) == np.linspace(start, stop, num).tolist()


# every name the package exported before its names were loaded lazily, less
# velocity_moments_quadrature, eval_displacement and excitation_to_dict (now
# test helpers in conftest) and the deleted trajectory_to_csv and
# convergence_sweep (the compare command sweeps epsilon itself)
PACKAGE_EXPORTS = (
    "Excitation HarmonicSeries MomentMatrix SymmetryReport check_symmetry "
    "eval_velocity excitation_from_dict load_excitation velocity_moments "
    "AveragedParams DomainLabel Equilibrium GammaPoint InconsistentCountError "
    "SingularConfigurationError classify_domain d2v dv find_equilibria gamma_curve "
    "gamma_point v_bar ComparisonReport FullState IntegrationBlowUpError PhysicalParams "
    "SymmetryViolationError Trajectory averaged_hamiltonian averaged_params "
    "compare_full_averaged compare_sweep full_hamiltonian full_rhs integrate "
    "reduced_rhs LevelContours PortraitGrid build_grid contours_to_csv extract_contours "
    "grid_to_csv render_svg __version__"
).split()


def test_package_names_resolve_on_first_access():
    for name in PACKAGE_EXPORTS:
        assert getattr(pendulum_vib, name) is not None, name
    assert sorted(pendulum_vib.__all__) == sorted(set(PACKAGE_EXPORTS) - {"__version__"})
    # test-only helpers stay in the tests
    for name in ("trajectory_to_csv", "velocity_moments_quadrature", "make_full_rhs",
                 "eval_displacement", "excitation_to_dict", "convergence_sweep"):
        assert getattr(pendulum_vib, name, None) is None
    for cls, name in ((pendulum_vib.HarmonicSeries, "value"), (pendulum_vib.MomentMatrix, "zero"),
                      (pendulum_vib.PortraitGrid, "nx"), (pendulum_vib.PortraitGrid, "ny")):
        assert not hasattr(cls, name), (cls, name)


def test_input_errors_raised_past_the_cli_are_value_errors():
    # main alone maps a ValueError to exit 1; no subcommand catches these
    for cls in (pendulum_vib.SingularConfigurationError, pendulum_vib.IntegrationBlowUpError):
        assert issubclass(cls, ValueError), cls


def test_module_exports_resolve_and_cover_the_package():
    # a stale entry would break ``from pendulum_vib.<module> import *``
    exported = set()
    for module in ("excitation", "potential", "dynamics", "portrait"):
        mod = importlib.import_module(f"pendulum_vib.{module}")
        for name in mod.__all__:
            assert hasattr(mod, name), (module, name)
        exported.update(mod.__all__)
    assert set(pendulum_vib.__all__) <= exported


def imported_modules(argv, code=0) -> set[str]:
    """Every module a fresh ``pendulum_vib.cli argv`` run imports, which must exit with code."""
    # -X importtime lists on stderr every module the run imports
    proc = run_fresh(argv, "-X", "importtime")
    assert proc.returncode == code, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def test_scalar_subcommands_do_not_import_numpy(tmp_path):
    exc = write(tmp_path, "v.json", VERTICAL_DOC)
    for argv in (
        ["domain", "--a-minus-c", "2", "--b", "0.1"],
        ["equilibria", "--a-minus-c", "3.5", "--b", "0.01"],
        ["curve", "--samples", "20"],
        ["moments", "--excitation", exc],
    ):
        imported = imported_modules(argv)
        assert "pendulum_vib.potential" in imported
        assert not {m for m in imported if m.split(".")[0] == "numpy"}, argv
        # dataclasses imports inspect, ast, dis and tokenize: more than the
        # rest of the import of a scalar subcommand
        assert not {"dataclasses", "inspect"} & imported, argv
        # (A, B, C) are exact int quotients; Fraction or Decimal would cost
        # more to import than the quotients take
        assert not {"fractions", "decimal"} & imported, argv
        assert ("pendulum_vib.excitation" in imported) == (argv[0] == "moments"), argv


def test_array_subcommands_do_not_import_dataclasses(tmp_path):
    # portrait needs numpy; compare steps plain floats and keeps running
    # norms, and loads numpy neither for a sweep nor for a violation
    zero = write(tmp_path, "z.json", ZERO_COMPARE_DOC)
    in_phase = write(tmp_path, "p.json", IN_PHASE_DOC)
    for argv, code in (
        (["portrait", "--a-minus-c", "3.5", "--b", "0.01", "--nx", "8", "--ny", "8",
          "--out", str(tmp_path / "portrait")], 0),
        (["compare", "--excitation", zero, "--eps-sweep", "0.02,0.01", "--t-end", "0.2"], 0),
        (["compare", "--excitation", in_phase, "--eps-sweep", "0.1,0.05"], 2),
    ):
        imported = imported_modules(argv, code)
        assert "pendulum_vib.potential" in imported
        numpy = {m for m in imported if m.split(".")[0] == "numpy"}
        assert bool(numpy) == (argv[0] == "portrait"), argv
        assert "dataclasses" not in imported, argv


def imported_by(code: str) -> set[str]:
    """Every module that a fresh interpreter running ``code`` on this checkout imports."""
    src = str(Path(pendulum_vib.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def test_compare_and_the_cli_import_no_process_pool(tmp_path):
    # portrait and reproduce fork their workers themselves, and compare runs
    # its sweep in one process: multiprocessing and concurrent.futures each
    # cost more to import than a short sweep takes, and start threads
    pools = {"multiprocessing", "concurrent.futures", "pickle"}
    passing = write(tmp_path, "v.json", README_VERTICAL_DOC)
    in_phase = write(tmp_path, "p.json", IN_PHASE_DOC)
    for argv, code in (
        (["compare", "--excitation", passing, "--eps-sweep", "0.1,0.05,0.025"], 0),
        (["compare", "--excitation", in_phase, "--eps-sweep", "0.1,0.05"], 2),
        (["compare", "--excitation", passing, "--eps-sweep", "0.1,1e-300"], 1),
    ):
        assert not (pools | {"pendulum_vib._fork"}) & imported_modules(argv, code), argv
    # numpy imports pickle itself; the writers add none of the three
    numpy = imported_by("import numpy")
    assert "pickle" in numpy
    for argv in (
        ["portrait", "--a-minus-c", "3.5", "--b", "0.01", "--nx", "64", "--ny", "64",
         "--out", str(tmp_path / "portrait")],
        ["reproduce", "--nx", "48", "--ny", "48", "--samples", "50",
         "--out", str(tmp_path / "reproduce")],
    ):
        imported = imported_modules(argv)
        assert "pendulum_vib._fork" in imported, argv
        assert not pools & (imported - numpy), argv
    # importing the CLI loads nothing for the workers: the forking module and
    # array load only when a subcommand that forks runs, and signal when it is
    # interrupted
    imported = imported_by("import pendulum_vib.cli")
    assert "pendulum_vib.cli" in imported
    assert not (pools | {"pendulum_vib._fork", "array", "signal"}) & imported


def test_a_failing_scalar_subcommand_imports_neither_excitation_nor_numpy():
    # main reports an error with what is loaded already
    proc = run_fresh(["equilibria", "--a-minus-c", "1", "--b", "-1"], "-X", "importtime")
    lines = proc.stderr.splitlines()
    imported = {line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")}
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert [line for line in lines if not line.startswith("import time:")][0].startswith("error: ")
    assert "pendulum_vib.potential" in imported
    assert "pendulum_vib.excitation" not in imported
    assert not {m for m in imported if m.split(".")[0] == "numpy"}


# magnitudes at the edges of the float line; the fuzz below takes each with
# both signs, and NaN
EDGE_MAGNITUDES = (
    0.0, 5e-324, 1e-320, 1e-300, 1e-200, math.nextafter(1.0, 0.0), 1.0,
    math.nextafter(1.0, 2.0), 3.5, 1e200, 1e300, 4e307, math.inf,
)
CORNERS = [v for x in EDGE_MAGNITUDES for v in (x, -x)] + [math.nan]


# relative offsets of B from gamma's B*, on both sides of BOUNDARY_REL
GAMMA_OFFSETS = (0.0, 1e-14, 1e-13, 5e-13, 2e-12, 1e-11, 1e-9)
# what equilibria lists in each domain, in increasing phi
KINDS = {"I": ["stable"], "II": ["stable", "unstable", "stable"],
         "boundary": ["stable", "degenerate"]}


def theory_label(a, b, b_star):
    """The domain at (A - C, B) = (a, b > 0), given gamma's 60-digit B* at
    a > 1, or None where b misses the edge of the boundary band by less than
    a tenth of BOUNDARY_REL, far more than fold_b's 1.2e-16 error."""
    if a <= 1.0:
        return "I"
    gap = (Fraction(b) - Fraction(b_star)) / Fraction(b_star)
    if abs(abs(gap) - Fraction(BOUNDARY_REL)) < Fraction(BOUNDARY_REL) / 10:
        return None
    return "boundary" if abs(gap) <= BOUNDARY_REL else "II" if gap < 0 else "I"


def planar_kinds(a):
    """The kinds at (A - C, B) = (a, 0), in increasing phi, from the signs of
    the curvatures a + 1 at 0, (1 - a^2) / a at acos(-1 / a) when |a| > 1,
    and a - 1 at pi.  Within BOUNDARY_REL of |a| = 1 the two whose curvature
    vanishes there are degenerate."""
    a = Fraction(a)
    curvatures = [a + 1] + ([(1 - a * a) / a] if abs(a) > 1 else []) + [a - 1]
    band = abs(abs(a) - 1) <= Fraction(BOUNDARY_REL)
    return ["degenerate" if band and abs(k) < 1 else "stable" if k > 0 else "unstable"
            for k in curvatures]


def test_scalar_subcommands_keep_the_exit_code_contract_at_the_float_corners(tmp_path, capsys):
    # every exit is 0, 1 or 2; exit 1 is an "error:" line and nothing on
    # stdout; any other exit prints RFC 8259 JSON; no exception escapes main.
    # Every domain label, equilibrium count and kind list that exits 0 is the
    # theory's: by gamma's 60-digit B* for B > 0, by the curvature signs for B = 0
    exc = write(tmp_path, "v.json", VERTICAL_DOC)
    rng = random.Random(20260)
    positive = [x for x in CORNERS if 0.0 < x < math.inf]
    argvs = [
        [command, f"--a-minus-c={a!r}", f"--b={b!r}"]
        for command in ("equilibria", "domain") for a in CORNERS for b in CORNERS
    ]
    # the planar edge next to the threshold |A - C| = 1, inside the
    # degenerate band and outside it
    argvs += [
        ["equilibria", f"--a-minus-c={s * (1.0 + t * 10.0 ** -k)!r}", "--b=0.0"]
        for k in range(1, 17) for s in (1.0, -1.0) for t in (1.0, -1.0)
    ]
    # every positive finite m, l, g, and a drawn p_alpha; then draws from all corners
    phys = [(m, l, g) for m in positive for l in positive for g in positive]
    phys += [tuple(rng.choice(CORNERS) for _ in range(3)) for _ in range(300)]
    argvs += [
        ["moments", "--excitation", exc, "--phys=" + ",".join(map(repr, mlg)),
         f"--p-alpha={rng.choice(CORNERS)!r}"]
        for mlg in phys
    ]

    def no_constants(name):
        raise ValueError(f"non-RFC JSON constant {name}")

    b_stars = {}
    labelled = 0
    for argv in argvs:
        code = main(argv)
        captured = capsys.readouterr()
        assert code in (0, 1, 2), argv
        if code == 1:
            assert captured.out == "" and captured.err.startswith("error: "), argv
            continue
        assert captured.err == "", argv
        doc = json.loads(captured.out, parse_constant=no_constants)
        if argv[0] == "moments":
            continue
        a, b = (float(arg.split("=")[1]) for arg in argv[1:])
        if b == 0.0:
            assert doc["domain"] is None, argv
            assert [eq["kind"] for eq in doc["equilibria"]] == planar_kinds(a), argv
        else:
            if a > 1.0 and a not in b_stars:
                b_stars[a] = fold_b(a)
            label = theory_label(a, b, b_stars.get(a))
            assert label is not None, argv
            assert doc["domain"] == label, argv
            if argv[0] == "equilibria":
                assert [eq["kind"] for eq in doc["equilibria"]] == KINDS[label], argv
        labelled += 1
    assert labelled > 500


def test_domain_and_equilibria_label_points_next_to_gamma_exactly(capsys):
    # the label and the equilibria follow the sign and size of the relative
    # gap to the 60-digit B*; fold_b is within 1.2e-16 of it, far inside the
    # 10% of BOUNDARY_REL by which a point must miss the boundary's edge
    rng = random.Random(1606)
    a_values = [1.0 + 10.0 ** rng.uniform(-6.0, math.log10(999.0)) for _ in range(74)] + [1e3]
    checked = 0
    for a in a_values:
        b_star = fold_b(a)
        for b in {b_star * (1.0 + s * d) for d in GAMMA_OFFSETS for s in (1.0, -1.0)}:
            label = theory_label(a, b, b_star)
            if label is None:
                continue
            argv = [f"--a-minus-c={a!r}", f"--b={b!r}"]
            code, out = run(capsys, ["domain", *argv])
            assert (code, json.loads(out)["domain"]) == (0, label), argv
            code, out = run(capsys, ["equilibria", *argv])
            doc = json.loads(out)
            assert (code, doc["domain"]) == (0, label), argv
            assert [eq["kind"] for eq in doc["equilibria"]] == KINDS[label], argv
            checked += 1
    assert checked > 900


def test_compare_keeps_the_exit_code_contract_at_the_float_corners(tmp_path, capsys):
    # every corner state on both excitations, each with a drawn azimuth, over
    # a span of a little over one fast period of eps = 0.1 on either
    paths = [write(tmp_path, "v.json", VERTICAL_DOC), write(tmp_path, "c.json", CIRCULAR_DOC)]
    rng = random.Random(1208)
    argvs = [
        ["compare", "--excitation", path, "--eps-sweep", "0.1,0.05", "--t-end", "0.4",
         "--initial", ",".join(map(repr, (phi, rng.choice((0.0, 0.5)), p_phi, p_alpha)))]
        for path in paths for phi in CORNER_PHI
        for p_phi in CORNER_MOMENTA for p_alpha in CORNER_MOMENTA
    ]
    # a state that blows up after many steps, not in the first: the 0.05
    # run, at 32 full steps a fast period, at its 46th
    argvs.append(["compare", "--excitation", write(tmp_path, "r.json", README_VERTICAL_DOC),
                  "--eps-sweep", "0.1,0.05", "--t-end", "1", "--initial", "2,0,0,1e150"])

    for argv in argvs:
        code = main(argv)
        captured = capsys.readouterr()
        assert_exit_contract(code, captured, argv)
    assert captured.err == "error: non-finite state reached at t = 0.45160394395353276\n"

    # malformed lists and spans, alone and together, each refused before a
    # step: exit 1 and one "error:" line; -inf as its own token is a usage error
    sweeps = ("0.1,,0.05", "0.1;0.05", "nan,0.1", "inf,0.1", "0.1,-0.0", "0.1,0.1", ",",
              "0.1,0.05")
    initials = ("2,0,0", "2,0,0,0.3,1", "nan,0,0,0.3", "2,inf,0,0.3", "2,0,0,-inf",
                "2,0,0,0.3")
    t_ends = ("inf", "nan", "0", "-inf", "1")
    for sweep, initial, t_end in product(sweeps, initials, t_ends):
        if (sweep, initial, t_end) == (sweeps[-1], initials[-1], t_ends[-1]):
            continue  # the one well-formed argv
        argv = ["compare", "--excitation", paths[0], "--eps-sweep", sweep,
                "--initial", initial, "--t-end", t_end]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1, argv
        assert captured.out == "", argv
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, argv


# the values a document's numbers take at the schema's edges; json.dumps
# writes inf and NaN as the Infinity and NaN that json.load reads back
DOC_EDGES = [v for x in (0.0, 5e-324, 1e-300, 1e160, 1e300, sys.float_info.max, math.inf)
             for v in (x, -x)] + [math.nan]


def test_moments_and_compare_keep_the_exit_code_contract_at_the_schema_edges(
    tmp_path, capsys
):
    base = {"epsilon": 0.1, "omega": 1.0}
    docs = [base, {**base, "tau": {}}, {**base, "eta": {"cos": []}},
            {**base, "xi": {"cos": [], "sin": []}},
            # one long list, zeros but for harmonic 3001
            {**base, "xi": {"sin": [0.0, -0.0] * 1500 + [1e-3]}}]
    for v in DOC_EDGES:
        docs += [
            {**base, "epsilon": v},
            {**base, "omega": v},
            {**base, "xi": {"sin": [v]}},
            {**base, "tau": {"cos": [v]}, "eta": {"sin": [v]}},
            {**base, "eta": {"cos": [0.5], "sin": [0.0, v]}},
        ]
    # drawn documents: each scale an edge or a plain value, each axis missing,
    # empty, or up to three edges in either list
    rng = random.Random(1616)
    for _ in range(150):
        doc = {key: rng.choice(DOC_EDGES + [plain]) for key, plain in base.items()}
        for axis in ("tau", "eta", "xi"):
            if rng.random() < 0.6:
                doc[axis] = {key: rng.choices(DOC_EDGES, k=rng.randrange(4))
                             for key in ("cos", "sin") if rng.random() < 0.7}
        docs.append(doc)

    codes = set()
    for k, doc in enumerate(docs):
        path = write(tmp_path, f"{k}.json", json.dumps(doc))
        for argv in (["moments", "--excitation", path],
                     ["compare", "--excitation", path, "--eps-sweep", "0.1,0.05",
                      "--t-end", "0.7"]):
            code = main(argv)
            assert_exit_contract(code, capsys.readouterr(), (argv, doc))
            codes.add((argv[0], code))
    assert {(c, code) for c in ("moments", "compare") for code in (0, 1, 2)} <= codes

    # a non-finite number is refused under its path in the document, and a
    # moment past the float range by its name
    for doc, error in (
        ({**base, "eta": {"cos": [0.5], "sin": [0.0, math.inf]}},
         "eta.sin[1] must be finite, got inf"),
        ({**base, "xi": {"sin": [1e300]}},
         "velocity moments overflow the float range: xi_xi = inf"),
    ):
        path = write(tmp_path, "edge.json", json.dumps(doc))
        for argv in (["moments", "--excitation", path],
                     ["compare", "--excitation", path, "--eps-sweep", "0.1,0.05"]):
            code = main(argv)
            assert (code, capsys.readouterr().err) == (1, f"error: {error}\n"), argv


def test_writing_subcommands_keep_the_exit_code_contract_at_the_float_corners(
    tmp_path, capsys
):
    # exit 1 is one "error:" line, nothing on stdout and no output made;
    # exit 0 writes every file, each non-empty, and a grid of nx + 1 lines
    rng = random.Random(1313)
    sizes = (1, 2, 3, 4097)
    p_maxes = ([], ["--p-max=1e-320"], ["--p-max=1e+300"], ["--p-max=inf"], ["--p-max=nan"])
    samples = (0, 1, 2, 10**6 + 1)
    # drawn corner points on grids it can draw, then every size at one point
    argvs = [
        ["portrait", f"--a-minus-c={rng.choice(CORNERS)!r}", f"--b={rng.choice(CORNERS)!r}",
         f"--nx={rng.choice((2, 3))}", f"--ny={rng.choice((2, 3))}", *rng.choice(p_maxes)]
        for _ in range(240)
    ]
    argvs += [
        ["portrait", "--a-minus-c=3.5", "--b=0.01", f"--nx={nx}", f"--ny={ny}", *p_max]
        for nx in sizes for ny in sizes for p_max in p_maxes
    ]
    argvs += [
        ["reproduce", f"--nx={rng.choice(sizes)}", f"--ny={rng.choice(sizes)}",
         f"--samples={rng.choice(samples)}", *rng.choice(p_maxes)]
        for _ in range(60)
    ]
    cases = [(argv, True) for argv in argvs]
    cases += [(["curve", f"--samples={n}"], to_file) for n in samples for to_file in (False, True)]

    seen = set()
    for k, (argv, to_file) in enumerate(cases):
        out = tmp_path / str(k)
        code = main([*argv, "--out", str(out)] if to_file else argv)
        captured = capsys.readouterr()
        seen.add((argv[0], code))
        if code != 0:
            assert code == 1, argv
            assert captured.out == "", argv
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, argv
            assert not out.exists(), argv
            continue
        assert captured.err == "", argv
        options = dict(a.lstrip("-").split("=") for a in argv[1:])
        if argv[0] == "curve":
            text = out.read_text() if to_file else captured.out
            assert len(text.splitlines()) == int(options["samples"]) + 1, argv
            continue
        subs = [out] if argv[0] == "portrait" else [
            out / "portrait_domain_I", out / "portrait_domain_II"]
        for sub in subs:
            for name in ("grid.csv", "contours.csv", "portrait.svg"):
                assert (sub / name).stat().st_size > 0, (argv, name)
            with open(sub / "grid.csv", encoding="utf-8") as f:
                assert sum(1 for _ in f) == int(options["nx"]) + 1, argv
    assert {(c, code) for c in ("portrait", "reproduce", "curve") for code in (0, 1)} <= seen


def test_unknown_flags_exit_nonzero(capsys):
    # a usage error is bad input: exit 1 and one "error:" line, as for any other
    for argv, message in (
        (["domain", "--a-minus-c", "1"], "the following arguments are required: --b"),
        (["portrait", "--a-minus-c", "1", "--b", "0.1", "--nx", "abc"],
         "argument --nx: invalid int value: 'abc'"),
        (["domain", "--a-minus-c", "1", "--b", "0.1", "--extra"],
         "unrecognized arguments: --extra"),
        # argparse takes -inf for an option, not for a value
        (["compare", "--excitation", "e.json", "--eps-sweep", "0.1,0.05", "--t-end", "-inf"],
         "argument --t-end: expected one argument"),
    ):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
    for command in ("domain", "portrait", "compare"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0


def test_one_process_answers_each_argv_as_a_fresh_one_would(capsys):
    # main shares one parser across calls; two subcommands and then a bad
    # argv, all in this process, print what each prints in a process of its own
    argvs = (
        ["domain", "--a-minus-c", "2", "--b", "0.1"],
        ["equilibria", "--a-minus-c", "3.5", "--b", "0.01"],
        [],
        ["nosuch"],
        ["--", "domain", "--a-minus-c", "2", "--b", "0.1"],
        ["domain", "--a-min=2", "--b=0.1"],
        ["domain", "--a-minus-c", "2", "--b", "0.1", "extra"],
        ["equilibria", "--a-minus-c", "two", "--b", "0.1"],
        ["domain", "--a-minus-c", "1"],  # missing --b
    )
    assert cli.build_parser() is cli.build_parser()
    for argv in argvs:
        code = main(argv)
        here = capsys.readouterr()
        fresh = run_fresh(argv)
        assert (code, here.out, here.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert code == 1 and "--b" in here.err


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["compare", "--excitation", "{in_phase}", "--eps-sweep", "0.1,0.05"], 2),
        (["moments", "--excitation", "{in_phase}"], 2),
        (["equilibria", "--a-minus-c", "1", "--b", "-1"], 1),
        (["moments", "--excitation", "{missing}"], 1),
        (["compare", "--excitation", "{missing}", "--eps-sweep", "0.1,0.05"], 1),
        # argvs that name no subcommand go to the top-level parser
        ([], 1),
        (["nosuch"], 1),
        (["--", "domain", "--a-minus-c", "2", "--b", "0.1"], 1),
        # the rest are parsed by the subcommand's own parser
        (["domain", "--a-min=2", "--b=0.1"], 0),
        (["domain", "--a-minus-c", "2", "--b", "0.1", "extra"], 1),
        (["equilibria", "--a-minus-c", "two", "--b", "0.1"], 1),
    ],
)
def test_exit_codes_are_the_same_in_process_and_in_a_fresh_one(tmp_path, capsys, argv, expected):
    # a fresh process loads excitation only in moments and compare
    paths = {"in_phase": write(tmp_path, "p.json", IN_PHASE_DOC),
             "missing": str(tmp_path / "missing.json")}
    argv = [a.format(**paths) for a in argv]
    code = main(argv)
    here = capsys.readouterr()
    fresh = run_fresh(argv)
    assert (code, here.out, here.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert code == expected
    if expected == 1:
        assert here.out == "" and here.err.startswith("error: ")
    elif argv[0] == "compare":
        assert here.err == "" and json.loads(here.out)["error"] == "symmetry violation"
    elif argv[0] == "moments":
        assert here.err == "" and json.loads(here.out)["symmetry"]["passed"] is False
    else:
        assert here.err == "" and json.loads(here.out)["domain"] == "II"


def test_main_parses_each_argv_as_the_top_level_parser_does(monkeypatch, capsys):
    # main hands the options after a subcommand's name to that subcommand's
    # parser; argparse's own top-level pass must agree with it, Namespace,
    # error text and exit code alike, on any Python that runs the package
    argvs = (
        ["domain", "--a-minus-c", "2", "--b", "0.1"],
        ["equilibria", "--a-minus-c=-2e3", "--b", "0.5", "--out", "eq.json"],
        ["domain", "--a-min=2", "--b=0.1"],
        ["domain", "--a", "2", "--b", "0.1", "--b", "0.2"],
        ["curve"],
        ["moments", "--excitation", "e.json", "--phys", "2,1,1"],
        ["portrait", "--a-minus-c", "1", "--b", "0.1", "--nx", "16", "--p-max", "3"],
        ["compare", "--excitation", "e.json", "--eps-sweep", "0.1,0.05"],
        ["reproduce", "--samples", "2", "--out", "r"],
        [],
        ["nosuch"],
        ["--", "domain", "--a-minus-c", "2", "--b", "0.1"],
        ["domain", "--", "--a-minus-c", "2", "--b", "0.1"],
        ["domain", "--a-minus-c", "1"],
        ["domain", "--a-minus-c", "2", "--b", "0.1", "extra"],
        ["domain", "--a-minus-c", "2", "--b", "0.1", "--extra"],
        ["equilibria", "--a-minus-c", "two", "--b", "0.1"],
        ["portrait", "--a-minus-c", "1", "--b", "0.1", "--nx", "abc"],
        ["moments", "--excitation", "e.json", "--p", "1"],
        ["compare", "--excitation", "e.json", "--eps-sweep", "0.1,0.05", "--t-end", "-inf"],
        ["domain", "--help"],
        ["--help"],
    )
    parser = cli.build_parser()

    def top_level(argv):
        try:
            return vars(parser.parse_args(argv)), "", ""
        except ValueError as exc:
            return 1, "", f"error: {exc}\n"
        except SystemExit as exc:
            return exc.code, capsys.readouterr().out, ""

    # main's parse, recorded; the subcommand it names does not run
    parsed = []

    def parse_args(self, args=None, namespace=None):
        ns = argparse.ArgumentParser.parse_args(self, args, namespace)
        parsed.append(dict(vars(ns)))
        ns.func = lambda ns: 0
        return ns

    for argv in argvs:
        expected = top_level(argv)
        with monkeypatch.context() as m:
            m.setattr(cli._Parser, "parse_args", parse_args)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        captured = capsys.readouterr()
        if isinstance(expected[0], dict):
            assert code == 0 and captured.err == "" and len(parsed) == 1, argv
            expected[0].pop("command")
            parsed[0].pop("command", None)
            assert parsed.pop() == expected[0], argv
        else:
            assert (code, captured.out, captured.err) == expected and parsed == [], argv


def random_json_doc(rng, depth=0):
    """A document of str keys, the scalars JSON writes and nested dicts,
    lists and tuples, with the float and string corners json.dumps handles."""
    kind = rng.randrange(10 if depth < 4 else 6)
    if kind == 0:
        return rng.choice((None, True, False))
    if kind == 1:
        # signal.SIGTERM is an int whose repr is not its number
        return rng.choice((0, -1, 2**64, -(2**64) - 1, rng.randrange(-(2**80), 2**80),
                           signal.SIGTERM))
    if kind == 2:
        return rng.choice((0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-5, 1e-7, 1e22, 0.1,
                           sys.float_info.max, -sys.float_info.max, sys.float_info.min,
                           float(rng.randrange(-(2**53), 2**53))))
    if kind == 3:
        # any finite bit pattern, some of them numpy scalars
        x = np.frombuffer(rng.randbytes(8), dtype=np.float64)[0]
        while not np.isfinite(x):
            x = np.frombuffer(rng.randbytes(8), dtype=np.float64)[0]
        return x if rng.random() < 0.2 else float(x)
    if kind in (4, 5):
        return random_json_text(rng)
    n = rng.choice((0, 1, 2, 3, 4))
    if kind in (6, 7):
        return {random_json_text(rng): random_json_doc(rng, depth + 1) for _ in range(n)}
    items = [random_json_doc(rng, depth + 1) for _ in range(n)]
    return tuple(items) if kind == 8 else items


def random_json_text(rng):
    alphabet = 'ab"\\/\b\f\n\r\t\x00\x1f\x7f é∞\u2028\U0001f600'
    return "".join(rng.choice(alphabet) for _ in range(rng.randrange(6)))


def test_json_writer_gives_json_dumps_bytes_and_refusals():
    rng = random.Random(3535)
    for i in range(10_000):
        doc = random_json_doc(rng)
        assert cli._json(doc) == json.dumps(doc, indent=2, sort_keys=True, allow_nan=False), i
    for bad in (math.nan, math.inf, -math.inf, np.float64("nan")):
        for doc in (bad, [1.0, bad], {"a": {"b": (bad,)}}):
            with pytest.raises(ValueError) as theirs:
                json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
            with pytest.raises(ValueError) as ours:
                cli._json(doc)
            assert str(ours.value) == str(theirs.value), doc
    assert str(ours.value).startswith("Out of range float values are not JSON compliant: ")
    for doc in ({1, 2}, {"a": [{1}]}, np.int64(1)):
        with pytest.raises(TypeError) as theirs:
            json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
        with pytest.raises(TypeError) as ours:
            cli._json(doc)
        assert str(ours.value) == str(theirs.value), doc


def test_a_refused_document_writes_nothing(tmp_path, monkeypatch, capsys):
    out = tmp_path / "eq.json"
    argv = ["equilibria", "--a-minus-c", "2", "--b", "0.1", "--out", str(out)]
    monkeypatch.setattr(cli, "equilibrium_report", lambda ap: {"a": [1.0, math.nan]})
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Out of range float values are not JSON compliant: nan\n"
    assert not out.exists()
    monkeypatch.setattr(cli, "equilibrium_report", lambda ap: {"a": {1.0}})
    with pytest.raises(TypeError):
        main(argv)
    assert capsys.readouterr().out == "" and not out.exists()
