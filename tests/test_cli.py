import hashlib
import json
import math
import time
from pathlib import Path

import pytest

from pendulum_vib import cli
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

    monkeypatch.setattr(cli, "convergence_sweep", sweep)
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


def test_unknown_flags_exit_nonzero(capsys):
    with pytest.raises(SystemExit):
        main(["domain", "--a-minus-c", "1"])  # missing --b
