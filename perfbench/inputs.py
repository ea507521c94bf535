"""Seeded inputs for the three workloads.

An op is one ``pendulum-vib`` invocation: the argv handed to
``pendulum_vib.cli.main`` plus the files it reads.  The program sees only
these; the parameters the checks need travel alongside in ``Op.params``.
Paths are relative to the checkout root, so the digest does not depend on
where the checkout lives.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

import oracle

# Pool sizes.  domain-map ops are short, so its pool is large enough that a
# run at today's speed hardly repeats a point; portrait and compare cycle
# their pools, which also gives the byte-identical-repeat check its inputs.
POOL_SIZE = {"domain-map": 4096, "portrait": 8, "compare": 4}

# domain-map mix: the reproduce sweep box, points close to gamma, hard corners.
BOX_SHARE, NEAR_GAMMA_SHARE = 0.70, 0.15

# Known defects of the program (ROADMAP items 2 and 3).  Its root finder scans
# dV on a grid inside [1e-6, pi - 1e-6], so it loses an equilibrium that lies
# within about 1e-6 of a pole and merges the two that approach each other near
# the fold gamma; where A - C is just above 1, gamma's B is tiny and the whole
# of domain II is that crowded.  There it labels points "I" or "boundary", or
# exits 2.  A benchmark measures ops that pass, so the domain-map pool skips
# these zones with a margin, and run.py probes KNOWN_DEFECT_POINTS, which lie
# inside them, separately and reports them without counting them.
POLE_CLEARANCE = 1e-5
GAMMA_CLEARANCE = 1e-4
FOLD_A_MIN = 1.05
KNOWN_DEFECT_POINTS = (
    (2.0, 1e-24),    # both pole equilibria within 1e-6 of the poles: labelled I
    (3.5, 1e-30),
    (0.5, 1e-28),    # the only equilibrium within 1e-6 of phi = 0: exit 2
    (2.0, oracle.gamma_b(2.0) * (1.0 - 1e-7)),  # just inside domain II: labelled I
)
EPS_SWEEP = "0.1,0.05,0.025"
T_END = "10"


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    params: dict
    files: tuple[tuple[str, str], ...] = ()
    out_dir: str | None = None
    key: int = 0


def _num(x: float) -> str:
    return repr(float(x))


def known_defect(a: float, b: float) -> str | None:
    """Why the program is known to answer wrongly at (A - C, B) = (a, b), or None."""
    # Equilibria next to a pole sit at sin(phi) ~ (B / |1 +- a|)^(1/4): near
    # phi = 0 when a > -1, near phi = pi when a > 1.
    floor = POLE_CLEARANCE ** 4
    if (a > -1.0 and b < floor * (1.0 + a)) or (a > 1.0 and b < floor * (a - 1.0)):
        return "an equilibrium next to a pole"
    if a > 1.0 and oracle.gamma_distance(a, b) < (GAMMA_CLEARANCE if a >= FOLD_A_MIN else 1.0):
        return "two equilibria close together near gamma"
    return None


def _domain_point(rng: np.random.Generator) -> tuple[float, float, str]:
    u = rng.random()
    if u < BOX_SHARE:
        return float(rng.uniform(-1.0, 4.0)), float(rng.uniform(0.05, 1.5)), "box"
    if u < BOX_SHARE + NEAR_GAMMA_SHARE:
        a = float(rng.uniform(FOLD_A_MIN, 4.0))
        rel = 10.0 ** rng.uniform(-4.0, -2.0) * (1.0 if rng.random() < 0.5 else -1.0)
        return a, oracle.gamma_b(a) * (1.0 + rel), "near-gamma"
    b = 10.0 ** rng.uniform(-30.0, 6.0)
    a = (1.0 if rng.random() < 0.5 else -1.0) * 10.0 ** rng.uniform(-3.0, 6.0)
    return float(a), float(b), "corner"


def domain_map(rng: np.random.Generator, n: int) -> list[Op]:
    ops = []
    for k in range(n):
        a, b, kind = _domain_point(rng)
        while known_defect(a, b):
            a, b, kind = _domain_point(rng)
        ops.append(equilibria_op(a, b, kind, k))
    return ops


def equilibria_op(a: float, b: float, kind: str, key: int) -> Op:
    argv = ("equilibria", f"--a-minus-c={_num(a)}", f"--b={_num(b)}")
    return Op(argv=argv, params={"a": a, "b": b, "kind": kind}, key=key)


def portrait(rng: np.random.Generator, n: int, work: str) -> list[Op]:
    ops = []
    for k in range(n):
        if k % 2 == 0:  # domain I, inside the reproduce box
            a = rng.uniform(-1.0, 1.0)
            b = rng.uniform(0.05, 1.5)
        else:  # domain II, well below gamma
            a = rng.uniform(2.0, 4.0)
            b = oracle.gamma_b(float(a)) * rng.uniform(0.1, 0.6)
        a, b = float(a), float(b)
        out = f"{work}/portrait-{k}"
        argv = ("portrait", f"--a-minus-c={_num(a)}", f"--b={_num(b)}", "--out", out)
        ops.append(Op(argv=argv, params={"a": a, "b": b}, out_dir=out, key=k))
    return ops


def excitation_doc(rng: np.random.Generator) -> dict:
    """Symmetric excitation: circular horizontal motion at harmonic 1, vertical
    harmonics 2 and 3 only, so every cross moment vanishes exactly.  omega is
    fixed, which fixes the number of RK4 steps per op.  The amplitudes keep
    eps = 0.1 inside the asymptotic regime, where the error ratios of the
    sweep sit well inside the convergence band."""
    r = rng.uniform(0.2, 0.5)
    return {
        "epsilon": 0.1,
        "omega": 1.0,
        "tau": {"cos": [r], "sin": []},
        "eta": {"cos": [], "sin": [r]},
        "xi": {
            "cos": [0.0, rng.uniform(0.05, 0.25)],
            "sin": [0.0, rng.uniform(0.05, 0.25), rng.uniform(0.02, 0.1)],
        },
    }


def compare(rng: np.random.Generator, n: int, work: str) -> list[Op]:
    ops = []
    for k in range(n):
        doc = excitation_doc(rng)
        path = f"{work}/excitation-{k}.json"
        initial = (
            rng.uniform(0.8, 2.3),  # phi, away from both poles
            rng.uniform(0.0, 2.0 * math.pi),
            rng.uniform(-0.3, 0.3),
            rng.uniform(0.2, 0.6),
        )
        argv = (
            "compare", "--excitation", path, "--eps-sweep", EPS_SWEEP,
            "--t-end", T_END, "--initial", ",".join(_num(x) for x in initial),
        )
        ops.append(Op(
            argv=argv,
            params={"sweep": [float(x) for x in EPS_SWEEP.split(",")]},
            files=((path, json.dumps(doc, sort_keys=True)),),
            key=k,
        ))
    return ops


def generate(workload: str, seed: int, work: str) -> list[Op]:
    """The op pool of a workload; the same seed gives the same pool."""
    rng = np.random.default_rng([seed, sorted(POOL_SIZE).index(workload)])
    n = POOL_SIZE[workload]
    if workload == "domain-map":
        return domain_map(rng, n)
    if workload == "portrait":
        return portrait(rng, n, work)
    return compare(rng, n, work)


def digest(ops: list[Op]) -> str:
    """sha256 over every argv and every generated file, in pool order."""
    h = hashlib.sha256()
    for op in ops:
        h.update(json.dumps([list(op.argv), [list(f) for f in op.files]]).encode())
    return h.hexdigest()
