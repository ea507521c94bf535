"""Command-line front end.

Exit codes: 0 success, 1 bad input or I/O trouble (a usage error and a
trajectory that reaches non-finite values included), 2 a scientific check
failed (symmetry violation, convergence band, impossible equilibrium count).
All outputs are deterministic functions of the inputs; written JSON re-reads
and re-emits byte-identically.  :func:`main` parses argv once, the options
after a subcommand's name with that subcommand's own parser, and hands the
``argparse.Namespace`` to the subcommand, which checks the range of each
option it reads before it reads or writes any file.  JSON is written by
_emit_json's writer, _json, whose test oracle is ``json.dumps(doc, indent=2,
sort_keys=True, allow_nan=False)``: the same bytes in about half the time.
Only portrait, and a read of ``Trajectory.t`` or ``.y``, loads numpy;
portrait and dynamics are imported only by the subcommands that use them, so
every subcommand but portrait and reproduce runs without numpy.  Likewise
excitation is imported only by moments and compare, and the forking module
_fork only by portrait and reproduce, the only subcommands that fork;
compare hands the excitation and its amplitudes to dynamics.compare_sweep,
which runs the sweep in this process.  portrait and reproduce build and
check every grid before they make a directory; each portrait's contours are
then traced and written in a forked child while grid.csv is written (see
_write_portrait).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .potential import (
    AveragedParams,
    InconsistentCountError,
    PhysicalParams,
    averaged_params,
    classify_domain,
    equilibrium_report,
    gamma_curve,
    gamma_curve_to_csv,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SCIENCE = 2

CONVERGENCE_BAND = (1.4, 3.5)
# Errors below this are integrator/rounding noise; ratio checks do not apply.
ERROR_FLOOR = 1e-8
# Largest accepted --nx/--ny (a 4096^2 grid writes ~0.3 GB of CSV) and --samples.
MAX_GRID = 4096
MAX_SAMPLES = 10**6


def _parse_float_list(text: str, expect: int | None = None, what: str = "list") -> list[float]:
    try:
        values = [float(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"{what}: expected comma-separated numbers, got {text!r}")
    if expect is not None and len(values) != expect:
        raise ValueError(f"{what}: expected {expect} values, got {len(values)}")
    return values


def _json(o, indent: str = "\n") -> str:
    """``o`` as ``json.dumps(o, indent=2, sort_keys=True, allow_nan=False)``
    writes it, and refuses what it refuses, in about half the time of json's
    pure-Python indent encoder; a key that is not a str raises TypeError.
    ``indent`` is a newline and the indentation of the enclosing value."""
    if isinstance(o, str):
        return _quote(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    # the base reprs, as json's: numpy 2 writes its scalars as np.float64(...)
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if math.isfinite(o):
            return float.__repr__(o)
        # RFC 8259 has no NaN or Infinity; a document holding one is refused.
        raise ValueError(f"Out of range float values are not JSON compliant: {o!r}")
    inner = indent + "  "
    if isinstance(o, dict):
        items, brackets = [_quote(k) + ": " + _json(o[k], inner) for k in sorted(o)], "{}"
    elif isinstance(o, (list, tuple)):
        items, brackets = [_json(v, inner) for v in o], "[]"
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def _emit_json(doc, out: str | None) -> None:
    text = _json(doc) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    sys.stdout.write(text)


def _emit_text(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _residuals(rep) -> dict:
    """The residuals of a symmetry report, as its JSON documents list them."""
    return {
        "diag": rep.diag_residual,
        "tau_eta": rep.tau_eta,
        "tau_xi": rep.tau_xi,
        "eta_xi": rep.eta_xi,
    }


def cmd_moments(args: argparse.Namespace) -> int:
    phys = PhysicalParams(*_parse_float_list(args.phys, expect=3, what="--phys"))
    if not (0.0 < args.tol < math.inf):
        raise ValueError("--tol must be positive and finite")
    if not math.isfinite(args.p_alpha):
        raise ValueError(f"--p-alpha must be finite, got {args.p_alpha}")
    from .excitation import check_symmetry, load_excitation, velocity_moments

    e = load_excitation(args.excitation)
    mm = velocity_moments(e)
    rep = check_symmetry(mm, args.tol)
    ap = averaged_params(mm, args.p_alpha, phys)
    doc = {
        "moments": {
            "tau_tau": mm.tau_tau,
            "eta_eta": mm.eta_eta,
            "xi_xi": mm.xi_xi,
            "tau_eta": mm.tau_eta,
            "tau_xi": mm.tau_xi,
            "eta_xi": mm.eta_xi,
        },
        "A": ap.A,
        "B": ap.B,
        "C": ap.C,
        "symmetry": {
            "passed": rep.passed,
            "tol": rep.tol,
            "residuals": _residuals(rep),
        },
    }
    _emit_json(doc, args.out)
    return EXIT_OK if rep.passed else EXIT_SCIENCE


def cmd_equilibria(args: argparse.Namespace) -> int:
    ap = AveragedParams.from_a_minus_c(args.a_minus_c, args.b)
    _emit_json(equilibrium_report(ap), args.out)
    return EXIT_OK


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """``num >= 2`` evenly spaced floats from start to stop, end points included.

    numpy's formula, ``i * step + start`` with the last value set to ``stop``,
    so unless the step underflows to 0 the values equal
    ``np.linspace(start, stop, num)`` bit for bit.
    """
    step = (stop - start) / (num - 1)
    values = [i * step + start for i in range(num)]
    values[-1] = stop
    return values


def _gamma_csv(samples: int) -> str:
    """The critical curve at ``samples`` values of phi in (pi/2, pi], as CSV."""
    if not (2 <= samples <= MAX_SAMPLES):
        raise ValueError(f"--samples must be between 2 and {MAX_SAMPLES}, got {samples}")
    return gamma_curve_to_csv(gamma_curve(_linspace(0.5 * math.pi + 1e-3, math.pi, samples)))


def cmd_curve(args: argparse.Namespace) -> int:
    _emit_text(_gamma_csv(args.samples), args.out)
    return EXIT_OK


def cmd_domain(args: argparse.Namespace) -> int:
    ap = AveragedParams.from_a_minus_c(args.a_minus_c, args.b)
    label = classify_domain(ap)
    doc = {"params": {"a_minus_c": ap.a_minus_c, "b": ap.B}, "domain": label}
    _emit_json(doc, args.out)
    return EXIT_OK


def _build_portrait(a_minus_c: float, b: float, args: argparse.Namespace):
    """The validated energy grid; nothing is traced or written."""
    for name in ("nx", "ny"):
        n = getattr(args, name)
        if not (2 <= n <= MAX_GRID):
            raise ValueError(f"--{name} must be between 2 and {MAX_GRID}, got {n}")
    from .portrait import build_grid

    ap = AveragedParams.from_a_minus_c(a_minus_c, b)
    return build_grid(ap, nx=args.nx, ny=args.ny, p_max=args.p_max)


def _write_portrait(grid, out_dir: Path) -> None:
    """Write grid.csv, contours.csv and portrait.svg into ``out_dir``, then
    print the equilibria.

    The files are the two items of one :func:`_fork.in_order` call: grid.csv,
    and the contours, traced and written to contours.csv and then
    portrait.svg.  Where in_order forks, the second item runs in a child that
    writes its files itself while this process and grid_to_csv's row children
    write grid.csv; an item returns no bytes once its files are closed, and
    one whose child dies first is made again here.  Each writer writes every
    row, polyline or element as it is formatted, to a file opened as
    ``Path.write_text`` opens it, so no whole document is held in memory.
    """
    from ._fork import in_order
    from .portrait import contours_to_csv, extract_contours, grid_to_csv, render_svg

    def item(i: int) -> bytes:
        if i == 0:
            with open(out_dir / "grid.csv", "w", encoding="utf-8") as out:
                grid_to_csv(grid, out)
        else:
            contours = extract_contours(grid)
            with open(out_dir / "contours.csv", "w", encoding="utf-8") as out:
                contours_to_csv(contours, out)
            with open(out_dir / "portrait.svg", "w", encoding="utf-8") as out:
                render_svg(grid, contours, out)
        return b""

    out_dir.mkdir(parents=True, exist_ok=True)
    in_order(2, item, lambda data: None)
    for eq in grid.equilibria:
        print(f"equilibrium phi={eq.phi:.6f} kind={eq.kind} V={eq.v_value:.6f}")


def cmd_portrait(args: argparse.Namespace) -> int:
    grid = _build_portrait(args.a_minus_c, args.b, args)
    _write_portrait(grid, Path(args.out) if args.out else Path("."))
    return EXIT_OK


def _ratio_verdict(errors: list[float]) -> tuple[list[float], bool]:
    """Successive halving ratios and whether each pair is in the band.

    Pairs where both errors sit below ERROR_FLOOR carry no information about
    the convergence order (they are integrator noise, e.g. an exactly
    conserved quantity) and pass.
    """
    lo, hi = CONVERGENCE_BAND
    ratios = []
    ok = True
    for a, b in zip(errors, errors[1:]):
        if a <= ERROR_FLOOR and b <= ERROR_FLOOR:
            ratios.append(float("nan"))
            continue
        r = a / b if b != 0.0 else float("inf")
        ratios.append(r)
        if not (lo <= r <= hi):
            ok = False
    return ratios, ok


def cmd_compare(args: argparse.Namespace) -> int:
    sweep = _parse_float_list(args.eps_sweep, what="--eps-sweep")
    # one amplitude gives no ratio to check, and the sweep would pass vacuously
    if len(sweep) < 2:
        raise ValueError(f"--eps-sweep needs at least two amplitudes, got {len(sweep)}")
    if not all(0.0 < x < math.inf for x in sweep):
        raise ValueError(f"--eps-sweep entries must be positive and finite, got {sweep}")
    if any(b >= a for a, b in zip(sweep, sweep[1:])):
        raise ValueError("--eps-sweep must be strictly decreasing")
    initial = _parse_float_list(args.initial, expect=4, what="--initial")
    if not all(map(math.isfinite, initial)):
        raise ValueError(f"--initial must be finite, got {initial}")
    if not (0.0 < args.t_end < math.inf):
        raise ValueError(f"--t-end must be positive and finite, got {args.t_end}")
    from .excitation import Excitation, SymmetryViolationError, load_excitation

    e = load_excitation(args.excitation)
    # a span shorter than one fast period of the largest epsilon cannot show
    # the averaging error: its errors can all sit below ERROR_FLOOR, where no
    # ratio is checked, and the sweep would pass having shown nothing
    period = Excitation(sweep[0], e.omega).fast_period
    if args.t_end < period:
        raise ValueError(
            f"--t-end {args.t_end!r} is shorter than one fast period ({period!r}) "
            f"of the largest epsilon {sweep[0]!r}"
        )
    from .dynamics import FullState, compare_sweep

    try:
        reports = compare_sweep(e, sweep, FullState(*initial), args.t_end)
    except SymmetryViolationError as exc:
        # checked once, before any run: the moments do not depend on epsilon
        rep = exc.report
        doc = {"error": "symmetry violation", "residuals": _residuals(rep), "tol": rep.tol}
        _emit_json(doc, args.out)
        return EXIT_SCIENCE
    doc = {
        "epsilons": sweep,
        "max_err_phi": [r.max_err_phi for r in reports],
        "max_err_p_phi": [r.max_err_p_phi for r in reports],
        "p_alpha_drift": [r.p_alpha_drift for r in reports],
    }
    ratios_phi, phi_ok = _ratio_verdict(doc["max_err_phi"])
    ratios_drift, drift_ok = _ratio_verdict(doc["p_alpha_drift"])
    # NaN (both errors at the floor) and inf (the finer error exactly 0) have
    # no JSON number; the verdict already records what they mean
    doc["ratios_phi"] = [r if math.isfinite(r) else None for r in ratios_phi]
    doc["ratios_p_alpha"] = [r if math.isfinite(r) else None for r in ratios_drift]
    doc["band"] = list(CONVERGENCE_BAND)
    doc["passed"] = bool(phi_ok and drift_ok)
    _emit_json(doc, args.out)
    return EXIT_OK if doc["passed"] else EXIT_SCIENCE


def cmd_reproduce(args: argparse.Namespace) -> int:
    # everything that can fail on the input runs before the directory is made
    gamma_text = _gamma_csv(args.samples)
    lines = ["a_minus_c,b,domain"]
    for amc in _linspace(-1.0, 4.0, 41):
        for b in _linspace(0.05, 1.5, 30):
            label = classify_domain(AveragedParams.from_a_minus_c(amc, b))
            lines.append(f"{amc!r},{b!r},{label}")
    grids = {
        name: _build_portrait(amc, b, args)
        for name, amc, b in (("domain_I", 0.0, 0.1), ("domain_II", 3.5, 0.01))
    }

    out_dir = Path(args.out) if args.out else Path("reproduction")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "gamma.csv").write_text(gamma_text, encoding="utf-8")
    print(f"wrote {out_dir / 'gamma.csv'}")
    (out_dir / "domains.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {out_dir / 'domains.csv'}")
    for name, grid in grids.items():
        sub = out_dir / f"portrait_{name}"
        _write_portrait(grid, sub)
        print(f"wrote {sub}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors raise ValueError, which
    :func:`main` reports as bad input (exit 1), not argparse's exit 2."""

    def error(self, message: str):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Building it costs several times what parsing one argv and running a
    scalar subcommand do; parsing leaves it unchanged, so every call of
    :func:`main` in a process shares it.  Its ``commands`` maps each
    subcommand's name to that subcommand's own parser, the one argparse
    hands the options after the name.
    """
    parser = _Parser(
        prog="pendulum-vib",
        description="Averaged dynamics of a spherical pendulum with a fast-vibrating pivot.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}

    def add(name, func, help_text):
        p = parser.commands[name] = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    # argparse converts a string default with the option's type, as if it
    # were given on the command line, and help prints it as written here
    p = add("moments", cmd_moments, "velocity moments, (A, B, C) and the symmetry verdict")
    p.add_argument("--excitation", required=True, help="path to an excitation JSON file")
    p.add_argument("--p-alpha", type=float, default="0",
                   help="azimuthal momentum (default %(default)s)")
    p.add_argument("--phys", default="1,1,1",
                   help="physical parameters m,l,g (default %(default)s)")
    p.add_argument("--tol", type=float, default="1e-9",
                   help="symmetry tolerance (default %(default)s)")
    p.add_argument("--out", help="also write the JSON report to this file")

    p = add("equilibria", cmd_equilibria, "equilibria of the effective potential")
    p.add_argument("--a-minus-c", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--out")

    p = add("curve", cmd_curve, "parametric critical curve as CSV")
    p.add_argument("--samples", type=int, default=500,
                   help="number of phi samples (default %(default)s)")
    p.add_argument("--out")

    p = add("domain", cmd_domain, "parameter-plane domain label (B > 0)")
    p.add_argument("--a-minus-c", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--out")

    p = add("portrait", cmd_portrait, "phase-portrait grid, contours and SVG")
    p.add_argument("--a-minus-c", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--nx", type=int, default=512)
    p.add_argument("--ny", type=int, default=512)
    p.add_argument("--p-max", type=float)
    p.add_argument("--out", help="output directory (default current)")

    p = add("compare", cmd_compare, "full vs averaged convergence experiment")
    p.add_argument("--excitation", required=True)
    p.add_argument("--eps-sweep", required=True,
                   help="at least two strictly decreasing amplitudes, e.g. 0.1,0.05,0.025")
    p.add_argument("--t-end", type=float, default="10",
                   help="time horizon (default %(default)s)")
    p.add_argument("--initial", default="2,0,0,0.3",
                   help="phi,alpha,p_phi,p_alpha (default %(default)s)")
    p.add_argument("--out")

    p = add("reproduce", cmd_reproduce, "regenerate curve, domain sweep and both portraits")
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--nx", type=int, default=512)
    p.add_argument("--ny", type=int, default=512)
    p.add_argument("--p-max", type=float)
    p.add_argument("--out", help="output directory (default reproduction)")

    return parser


def main(argv=None) -> int:
    """Run the subcommand that argv names and return its exit code.

    The options after a subcommand's name are parsed by that subcommand's own
    parser, which is what argparse's top-level pass would hand them to, for
    under half the cost; any other argv (none, ``--help``, an unknown command)
    goes to the top-level parser, which reports it.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser = build_parser()
        command = parser.commands.get(argv[0]) if argv else None
        args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
        return args.func(args)
    except InconsistentCountError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCIENCE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
