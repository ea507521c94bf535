import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import pendulum_vib
from pendulum_vib import cli, dynamics
from pendulum_vib.cli import _ratio_verdict, main

VERTICAL_DOC = '{"epsilon": 0.1, "omega": 2.0, "xi": {"sin": [1.0]}}'
IN_PHASE_DOC = '{"epsilon": 0.1, "omega": 1.0, "tau": {"cos": [1.0]}, "eta": {"cos": [1.0]}}'
EMPTY_DOC = '{"epsilon": 0.1, "omega": 1.0}'
# zero dynamics; small epsilon keeps the full integrator step small
ZERO_COMPARE_DOC = '{"epsilon": 0.02, "omega": 1.0}'


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


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
    code, out = run(capsys, ["moments", "--excitation", path])
    doc = json.loads(out)
    assert code == 2
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


def test_equilibria_planar_three(capsys):
    code, out = run(capsys, ["equilibria", "--a-minus-c", "2", "--b", "0"])
    doc = json.loads(out)
    assert code == 0
    phis = [eq["phi"] for eq in doc["equilibria"]]
    assert phis == pytest.approx([0.0, 2 * math.pi / 3, math.pi], abs=1e-9)
    assert doc["domain"] is None


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
    ],
)
def test_non_finite_parameters_are_input_errors(tmp_path, capsys, argv):
    path = write(tmp_path, "v.json", VERTICAL_DOC)
    code = main([a.format(exc=path) for a in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")


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


CIRCULAR_DOC = '{"epsilon": 0.1, "omega": 1.7, "tau": {"cos": [0.8]}, "eta": {"sin": [0.8]}}'

# sha256 of stdout of the scalar subcommands
SCALAR_PINS = [
    (["curve", "--samples", "500"],
     "b9efb8d74dd76c478e510a49bee82edaa10c690235023193d98b6353eb177e67"),
    (["moments", "--excitation", "{vertical}", "--p-alpha", "0.3", "--phys", "2,0.5,4"],
     "cae956234acbd31e5f6477f0cc1cd37291f2967e297e10100f7736a82f6c7291"),
    (["moments", "--excitation", "{circular}", "--p-alpha", "0.3", "--phys", "2,0.5,4"],
     "f660f6e66d241ac57d5e95ce336e4b20ec85338c1863ea0502b809a9ea2a8953"),
    (["equilibria", "--a-minus-c", "3.5", "--b", "0.01"],
     "fb9944faffb704c52904a5f43dcbb80d63e7a1ac078983a78cac676e4429f487"),
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
    path = write(tmp_path, "v.json", '{"epsilon": 0.1, "omega": 1.0, "xi": {"sin": [1.0]}}')
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


def test_compare_refuses_asymmetric_excitation(tmp_path, capsys):
    path = write(tmp_path, "p.json", IN_PHASE_DOC)
    code, out = run(
        capsys, ["compare", "--excitation", path, "--eps-sweep", "0.1,0.05"]
    )
    assert code == 2
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

    def sweep(e, epsilons, initial, t_end):
        errs = [1.0, 0.0]
        return {"epsilons": epsilons, "max_err_phi": errs, "max_err_p_phi": errs,
                "p_alpha_drift": [0.0, 0.0]}

    monkeypatch.setattr(dynamics, "convergence_sweep", sweep)
    path = write(tmp_path, "v.json", VERTICAL_DOC)
    code, out = run(capsys, ["compare", "--excitation", path, "--eps-sweep", "0.1,0.05"])
    assert code == 2

    def no_constants(name):
        raise AssertionError(f"non-RFC JSON constant {name}")

    doc = json.loads(out, parse_constant=no_constants)
    assert doc["ratios_phi"] == [None]
    assert doc["passed"] is False


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
# velocity_moments_quadrature (now the test oracle in conftest) and the
# deleted trajectory_to_csv
PACKAGE_EXPORTS = (
    "Excitation HarmonicSeries MomentMatrix SymmetryReport check_symmetry eval_displacement "
    "eval_velocity excitation_from_dict excitation_to_dict load_excitation velocity_moments "
    "AveragedParams DomainLabel Equilibrium GammaPoint InconsistentCountError "
    "SingularConfigurationError classify_domain d2v dv find_equilibria gamma_curve "
    "gamma_point v_bar ComparisonReport FullState IntegrationBlowUpError PhysicalParams "
    "SymmetryViolationError Trajectory averaged_hamiltonian averaged_params "
    "compare_full_averaged convergence_sweep full_hamiltonian full_rhs integrate "
    "reduced_rhs LevelContours PortraitGrid build_grid contours_to_csv extract_contours "
    "grid_to_csv render_svg __version__"
).split()


def test_package_names_resolve_on_first_access():
    for name in PACKAGE_EXPORTS:
        assert getattr(pendulum_vib, name) is not None, name
    assert sorted(pendulum_vib.__all__) == sorted(set(PACKAGE_EXPORTS) - {"__version__"})
    for name in ("trajectory_to_csv", "velocity_moments_quadrature", "make_full_rhs"):
        assert getattr(pendulum_vib, name, None) is None


def test_scalar_subcommands_do_not_import_numpy(tmp_path):
    src = str(Path(pendulum_vib.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    exc = write(tmp_path, "v.json", VERTICAL_DOC)
    for argv in (
        ["domain", "--a-minus-c", "2", "--b", "0.1"],
        ["equilibria", "--a-minus-c", "3.5", "--b", "0.01"],
        ["curve", "--samples", "20"],
        ["moments", "--excitation", exc],
    ):
        # -X importtime lists on stderr every module the run imports
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "pendulum_vib.cli", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                    if line.startswith("import time:")}
        assert "pendulum_vib.potential" in imported
        assert not {m for m in imported if m.split(".")[0] == "numpy"}, argv


def test_unknown_flags_exit_nonzero(capsys):
    with pytest.raises(SystemExit):
        main(["domain", "--a-minus-c", "1"])  # missing --b
