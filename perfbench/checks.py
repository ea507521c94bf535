"""Output checks, independent of the program, one per workload.

Each check gets the op, its exit code and its captured stdout, and returns
None when the output is right or a short reason when it is not.  A failed
check counts the op as failed.  Repeats of a pool entry must reproduce the
first run's bytes exactly; the first run of an entry gets the full check.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import xml.etree.ElementTree as ET

import numpy as np

import oracle

# Grid geometry of ``pendulum-vib portrait`` at its defaults.
POLE_INSET = 0.02
RESOLUTION = 512
GRID_ROWS_CHECKED = 16
GRID_RTOL = 1e-9


def _reject_constant(name: str):
    raise ValueError(f"non-RFC JSON constant {name}")


def parse_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


class Checker:
    """Checks ops of one workload and remembers the bytes of first runs."""

    def __init__(self, workload: str):
        self.check = _CHECKS[workload]
        self._first: dict[int, str] = {}
        self._passed: set[int] = set()

    def __call__(self, op, code: int, stdout: str) -> str | None:
        fingerprint = _fingerprint(op, stdout)
        if self._first.setdefault(op.key, fingerprint) != fingerprint:
            return "output differs from an earlier run of the same op"
        if op.key in self._passed:
            return None
        reason = self.check(op, code, stdout)
        if reason is None:
            self._passed.add(op.key)
        return reason


def _fingerprint(op, stdout: str) -> str:
    """sha256 over stdout and every file the op wrote."""
    h = hashlib.sha256(stdout.encode())
    names = sorted(os.listdir(op.out_dir)) if op.out_dir and os.path.isdir(op.out_dir) else []
    for name in names:
        with open(os.path.join(op.out_dir, name), "rb") as f:
            h.update(name.encode() + b"\0" + hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def check_equilibria(op, code: int, stdout: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    try:
        doc = parse_json(stdout)
    except ValueError as exc:
        return f"bad JSON: {exc}"
    a, b = op.params["a"], op.params["b"]
    want_label, want_count = oracle.label(a, b)
    eqs = doc.get("equilibria")
    if not isinstance(eqs, list):
        return "no equilibria list"
    near = oracle.gamma_distance(a, b) <= oracle.NEAR_GAMMA_REL
    if near:
        if doc.get("domain") not in ("I", "II", "boundary"):
            return f"label {doc.get('domain')!r} near gamma"
    elif doc.get("domain") != want_label or len(eqs) != want_count:
        return f"got {doc.get('domain')} with {len(eqs)}, want {want_label} with {want_count}"
    phis = np.array([float(e["phi"]) for e in eqs])
    if len(phis) and not np.all(np.abs(oracle.dv(phis, a, b)) <= oracle.DV_REL_TOL * oracle.dv_scale(phis, a, b)):
        return "|dV| not small at a reported equilibrium"
    kinds = [e["kind"] for e in eqs]
    # dV runs from -inf to +inf, so minima and maxima alternate from a minimum.
    if not near and kinds != ["stable", "unstable", "stable"][:want_count]:
        return f"kinds {kinds}"
    return None


def _grid_axes(a: float, b: float):
    phi = np.linspace(POLE_INSET, math.pi - POLE_INSET, RESOLUTION)
    v = oracle.v(phi, a, b)
    p_max = math.sqrt(2.0 * float(v.max() - v.min()))
    p = np.linspace(-p_max, p_max, RESOLUTION)
    return phi, p, v


def check_portrait(op, code: int, stdout: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    a, b = op.params["a"], op.params["b"]
    roots = oracle.equilibria(a, b)
    printed = [line for line in stdout.splitlines() if line.startswith("equilibrium ")]
    if len(printed) != len(roots):
        return f"{len(printed)} equilibria printed, oracle has {len(roots)}"
    for line, root in zip(printed, roots):
        phi = float(line.split()[1].removeprefix("phi="))
        if abs(phi - root) > 2e-6:
            return f"equilibrium at {phi}, oracle at {root}"
    phi, p, v = _grid_axes(a, b)
    return (
        _check_grid_csv(os.path.join(op.out_dir, "grid.csv"), phi, p, v)
        or _check_contours_csv(os.path.join(op.out_dir, "contours.csv"), phi, p, v)
        or _check_svg(os.path.join(op.out_dir, "portrait.svg"), roots)
    )


def _check_grid_csv(path: str, phi, p, v) -> str | None:
    step = (RESOLUTION - 1) / (GRID_ROWS_CHECKED - 1)
    rows = {round(k * step) for k in range(GRID_ROWS_CHECKED)}
    seen = 0
    with open(path, encoding="utf-8") as f:
        header = f.readline().rstrip("\n").split(",")
        if header[0] != "phi" or not np.allclose(np.array(header[1:], float), p, rtol=GRID_RTOL, atol=0.0):
            return "grid.csv header is not the p axis"
        for i, line in enumerate(f):
            if i not in rows:
                continue
            cells = np.array(line.split(","), float)
            want = v[i] + 0.5 * p * p
            if not math.isclose(cells[0], phi[i], rel_tol=GRID_RTOL) or not np.allclose(
                cells[1:], want, rtol=GRID_RTOL, atol=GRID_RTOL * float(np.abs(want).max())
            ):
                return f"grid.csv row {i} differs from V(phi) + p^2/2"
            seen += 1
    return None if seen == len(rows) else "grid.csv has too few rows"


def _check_contours_csv(path: str, phi, p, v) -> str | None:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] == 0:
        return "contours.csv is empty"
    level, x, y = data[:, 0], data[:, 2], data[:, 3]
    # Each point sits on a grid edge whose two ends bracket its level; allow
    # the whole neighbourhood of one cell around it.
    dphi, dp = phi[1] - phi[0], p[1] - p[0]
    i = np.clip(np.floor((x - phi[0]) / dphi).astype(int), 0, len(phi) - 2)
    j = np.clip(np.floor((y - p[0]) / dp).astype(int), 0, len(p) - 2)
    half_p2 = 0.5 * p * p
    v_lo = np.full(len(x), np.inf)
    v_hi = np.full(len(x), -np.inf)
    q_lo = np.full(len(x), np.inf)
    q_hi = np.full(len(x), -np.inf)
    for d in (-1, 0, 1, 2):
        ii = np.clip(i + d, 0, len(phi) - 1)
        jj = np.clip(j + d, 0, len(p) - 1)
        v_lo, v_hi = np.minimum(v_lo, v[ii]), np.maximum(v_hi, v[ii])
        q_lo, q_hi = np.minimum(q_lo, half_p2[jj]), np.maximum(q_hi, half_p2[jj])
    slack = 1e-9 * np.maximum(1.0, np.abs(level))
    off = ~((v_lo + q_lo - slack <= level) & (level <= v_hi + q_hi + slack))
    if off.any():
        k = int(np.argmax(off))
        return f"contour point ({x[k]}, {y[k]}) is more than a cell from level {level[k]}"
    return None


def _check_svg(path: str, roots) -> str | None:
    try:
        tree = ET.parse(path)
    except ET.ParseError as exc:
        return f"portrait.svg is not XML: {exc}"
    markers = sum(
        1 for el in tree.iter() if (el.get("class") or "").startswith("equilibrium-")
    )
    inside = int(np.sum((roots >= POLE_INSET) & (roots <= math.pi - POLE_INSET)))
    if markers != inside:
        return f"{markers} equilibrium markers, oracle has {inside} in the window"
    return None


def check_compare(op, code: int, stdout: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    try:
        doc = parse_json(stdout)
    except ValueError as exc:
        return f"bad JSON: {exc}"
    if doc.get("passed") is not True:
        return "passed is not true"
    if doc.get("epsilons") != op.params["sweep"]:
        return "epsilons differ from the sweep asked for"
    errs = doc.get("max_err_phi", [])
    if len(errs) != len(op.params["sweep"]) or not all(e > 0.0 for e in errs):
        return "max_err_phi missing or not positive"
    return None


_CHECKS = {
    "domain-map": check_equilibria,
    "portrait": check_portrait,
    "compare": check_compare,
}
