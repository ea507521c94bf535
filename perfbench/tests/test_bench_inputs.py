import contextlib
import io
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import inputs
import oracle

BENCH = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", sorted(inputs.POOL_SIZE))
def test_same_seed_same_digest(workload):
    one = inputs.digest(inputs.generate(workload, 5, "w"))
    assert one == inputs.digest(inputs.generate(workload, 5, "w"))
    assert one != inputs.digest(inputs.generate(workload, 6, "w"))


def test_domain_map_skips_only_the_known_defect_zones():
    pool = inputs.generate("domain-map", 1, "w")
    assert {op.params["kind"] for op in pool} == {"box", "near-gamma", "corner"}
    assert not [op for op in pool if inputs.known_defect(op.params["a"], op.params["b"])]
    # The corners the program answers stay: tiny and huge B, huge |A - C|.
    assert any(op.params["b"] < 1e-20 for op in pool)
    assert any(op.params["b"] > 1e5 for op in pool)
    assert any(abs(op.params["a"]) > 1e5 for op in pool)


def test_known_defect_points_lie_in_the_skipped_zones():
    for a, b in inputs.KNOWN_DEFECT_POINTS:
        assert inputs.known_defect(a, b), (a, b)
    assert oracle.label(2.0, 1e-24) == ("II", 3)


@pytest.mark.xfail(strict=True, reason=(
    "known defect of the root finder (ROADMAP items 2 and 3); once this passes, "
    "drop the skipped zones from inputs.domain_map"))
@pytest.mark.parametrize("a, b", inputs.KNOWN_DEFECT_POINTS)
def test_program_answers_the_known_defect_points(a, b):
    from pendulum_vib import cli

    op = inputs.equilibria_op(a, b, "known-defect", 0)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(op.argv))
    assert checks.check_equilibria(op, code, out.getvalue()) is None


def test_outside_a_checkout_exits_nonzero_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in BENCH.glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "portrait", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
