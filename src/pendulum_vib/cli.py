"""Command-line front end.

Exit codes: 0 success, 1 bad input or I/O trouble (a trajectory that reaches
non-finite values included), 2 a scientific check failed (symmetry violation,
convergence band, impossible equilibrium count).
All outputs are deterministic functions of the inputs; written JSON re-reads
and re-emits byte-identically.  The scalar subcommands (moments, equilibria,
curve, domain) run without numpy: portrait and dynamics, which need it, are
imported only by the subcommands that use them.  Likewise excitation is
imported only by moments and compare, and by :func:`main` on an error that
may be its symmetry violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
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


class RunConfig:
    """Validated per-invocation options shared by the subcommands.

    The class attributes are the defaults; :meth:`from_args` sets on the
    instance each option given.
    """

    phys: PhysicalParams = PhysicalParams()
    p_alpha: float = 0.0
    tol: float = 1e-9
    excitation_path: str | None = None
    out: str | None = None
    a_minus_c: float = 0.0
    b: float = 0.0
    nx: int = 512
    ny: int = 512
    p_max: float | None = None
    eps_sweep: tuple[float, ...] = ()
    t_end: float = 10.0
    initial: tuple[float, float, float, float] = (2.0, 0.0, 0.0, 0.3)
    samples: int = 500

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        cfg = cls()
        if getattr(args, "phys", None):
            m, l, g = _parse_float_list(args.phys, expect=3, what="--phys")
            cfg.phys = PhysicalParams(m, l, g)
        for name in ("p_alpha", "tol", "excitation", "out", "a_minus_c", "b",
                     "nx", "ny", "p_max", "t_end", "samples"):
            attr = "excitation_path" if name == "excitation" else name
            if getattr(args, name, None) is not None:
                setattr(cfg, attr, getattr(args, name))
        if not (0.0 < cfg.tol < math.inf):
            raise ValueError("--tol must be positive and finite")
        for name in ("nx", "ny"):
            n = getattr(cfg, name)
            if not (2 <= n <= MAX_GRID):
                raise ValueError(f"--{name} must be between 2 and {MAX_GRID}, got {n}")
        if not (2 <= cfg.samples <= MAX_SAMPLES):
            raise ValueError(f"--samples must be between 2 and {MAX_SAMPLES}, got {cfg.samples}")
        if getattr(args, "eps_sweep", None):
            sweep = _parse_float_list(args.eps_sweep, what="--eps-sweep")
            # one amplitude gives no ratio to check, and the sweep would pass vacuously
            if len(sweep) < 2:
                raise ValueError(f"--eps-sweep needs at least two amplitudes, got {len(sweep)}")
            if any(x <= 0.0 for x in sweep):
                raise ValueError("--eps-sweep entries must be positive")
            if any(b >= a for a, b in zip(sweep, sweep[1:])):
                raise ValueError("--eps-sweep must be strictly decreasing")
            cfg.eps_sweep = tuple(sweep)
        if getattr(args, "initial", None):
            cfg.initial = tuple(_parse_float_list(args.initial, expect=4, what="--initial"))
        return cfg


def _parse_float_list(text: str, expect: int | None = None, what: str = "list") -> list[float]:
    try:
        values = [float(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"{what}: expected comma-separated numbers, got {text!r}")
    if expect is not None and len(values) != expect:
        raise ValueError(f"{what}: expected {expect} values, got {len(values)}")
    return values


def _json_text(doc) -> str:
    # RFC 8259 has no NaN or Infinity; a document holding one is refused.
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _emit_json(doc, out: str | None) -> None:
    text = _json_text(doc)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    sys.stdout.write(text)


def _emit_text(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_moments(cfg: RunConfig) -> int:
    from .excitation import check_symmetry, load_excitation, velocity_moments

    if cfg.excitation_path is None:
        raise ValueError("--excitation is required")
    e = load_excitation(cfg.excitation_path)
    mm = velocity_moments(e)
    rep = check_symmetry(mm, cfg.tol)
    ap = averaged_params(mm, cfg.p_alpha, cfg.phys)
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
            "residuals": {
                "diag": rep.diag_residual,
                "tau_eta": rep.tau_eta,
                "tau_xi": rep.tau_xi,
                "eta_xi": rep.eta_xi,
            },
        },
    }
    _emit_json(doc, cfg.out)
    return EXIT_OK if rep.passed else EXIT_SCIENCE


def cmd_equilibria(cfg: RunConfig) -> int:
    ap = AveragedParams.from_a_minus_c(cfg.a_minus_c, cfg.b)
    _emit_json(equilibrium_report(ap), cfg.out)
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
    return gamma_curve_to_csv(gamma_curve(_linspace(0.5 * math.pi + 1e-3, math.pi, samples)))


def cmd_curve(cfg: RunConfig) -> int:
    _emit_text(_gamma_csv(cfg.samples), cfg.out)
    return EXIT_OK


def cmd_domain(cfg: RunConfig) -> int:
    ap = AveragedParams.from_a_minus_c(cfg.a_minus_c, cfg.b)
    label = classify_domain(ap)
    doc = {"params": {"a_minus_c": cfg.a_minus_c, "b": cfg.b}, "domain": label}
    _emit_json(doc, cfg.out)
    return EXIT_OK


def _build_portrait(a_minus_c: float, b: float, cfg: RunConfig):
    """The validated energy grid and its level sets; nothing is written."""
    from .portrait import build_grid, extract_contours

    ap = AveragedParams.from_a_minus_c(a_minus_c, b)
    grid = build_grid(ap, nx=cfg.nx, ny=cfg.ny, p_max=cfg.p_max)
    return grid, extract_contours(grid)


def _write_portrait(portrait, out_dir: Path) -> None:
    from .portrait import contours_to_csv, grid_to_csv, render_svg

    grid, contours = portrait
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "grid.csv").write_text(grid_to_csv(grid), encoding="utf-8")
    (out_dir / "contours.csv").write_text(contours_to_csv(contours), encoding="utf-8")
    (out_dir / "portrait.svg").write_text(render_svg(grid, contours), encoding="utf-8")
    for eq in grid.equilibria:
        print(f"equilibrium phi={eq.phi:.6f} kind={eq.kind} V={eq.v_value:.6f}")


def cmd_portrait(cfg: RunConfig) -> int:
    portrait = _build_portrait(cfg.a_minus_c, cfg.b, cfg)
    _write_portrait(portrait, Path(cfg.out) if cfg.out else Path("."))
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


def cmd_compare(cfg: RunConfig) -> int:
    from .excitation import Excitation, load_excitation

    if cfg.excitation_path is None:
        raise ValueError("--excitation is required")
    if not cfg.eps_sweep:
        raise ValueError("--eps-sweep is required")
    e = load_excitation(cfg.excitation_path)
    # a span shorter than one fast period of the largest epsilon cannot show
    # the averaging error: its errors can all sit below ERROR_FLOOR, where no
    # ratio is checked, and the sweep would pass having shown nothing
    period = Excitation(cfg.eps_sweep[0], e.omega, e.tau, e.eta, e.xi).fast_period
    if cfg.t_end < period:
        raise ValueError(
            f"--t-end {cfg.t_end!r} is shorter than one fast period ({period!r}) "
            f"of the largest epsilon {cfg.eps_sweep[0]!r}"
        )
    from .dynamics import FullState, convergence_sweep

    report = convergence_sweep(e, cfg.eps_sweep, FullState(*cfg.initial), cfg.t_end)
    ratios_phi, phi_ok = _ratio_verdict(report["max_err_phi"])
    ratios_drift, drift_ok = _ratio_verdict(report["p_alpha_drift"])
    doc = dict(report)
    # NaN (both errors at the floor) and inf (the finer error exactly 0) have
    # no JSON number; the verdict already records what they mean
    doc["ratios_phi"] = [r if math.isfinite(r) else None for r in ratios_phi]
    doc["ratios_p_alpha"] = [r if math.isfinite(r) else None for r in ratios_drift]
    doc["band"] = list(CONVERGENCE_BAND)
    doc["passed"] = bool(phi_ok and drift_ok)
    _emit_json(doc, cfg.out)
    return EXIT_OK if doc["passed"] else EXIT_SCIENCE


def cmd_reproduce(cfg: RunConfig) -> int:
    # everything that can fail on the input runs before the directory is made
    gamma_text = _gamma_csv(cfg.samples)
    lines = ["a_minus_c,b,domain"]
    for amc in _linspace(-1.0, 4.0, 41):
        for b in _linspace(0.05, 1.5, 30):
            label = classify_domain(AveragedParams.from_a_minus_c(amc, b))
            lines.append(f"{amc!r},{b!r},{label}")
    portraits = {
        name: _build_portrait(amc, b, cfg)
        for name, amc, b in (("domain_I", 0.0, 0.1), ("domain_II", 3.5, 0.01))
    }

    out_dir = Path(cfg.out) if cfg.out else Path("reproduction")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "gamma.csv").write_text(gamma_text, encoding="utf-8")
    print(f"wrote {out_dir / 'gamma.csv'}")
    (out_dir / "domains.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {out_dir / 'domains.csv'}")
    for name, portrait in portraits.items():
        sub = out_dir / f"portrait_{name}"
        _write_portrait(portrait, sub)
        print(f"wrote {sub}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Building it costs several times what parsing one argv and running a
    scalar subcommand do; parsing leaves it unchanged, so every call of
    :func:`main` in a process shares it.
    """
    parser = argparse.ArgumentParser(
        prog="pendulum-vib",
        description="Averaged dynamics of a spherical pendulum with a fast-vibrating pivot.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("moments", cmd_moments, "velocity moments, (A, B, C) and the symmetry verdict")
    p.add_argument("--excitation", required=True, help="path to an excitation JSON file")
    p.add_argument("--p-alpha", dest="p_alpha", type=float, help="azimuthal momentum (default 0)")
    p.add_argument("--phys", help="physical parameters m,l,g (default 1,1,1)")
    p.add_argument("--tol", type=float, help="symmetry tolerance (default 1e-9)")
    p.add_argument("--out", help="also write the JSON report to this file")

    p = add("equilibria", cmd_equilibria, "equilibria of the effective potential")
    p.add_argument("--a-minus-c", dest="a_minus_c", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--out")

    p = add("curve", cmd_curve, "parametric critical curve as CSV")
    p.add_argument("--samples", type=int, help="number of phi samples (default 500)")
    p.add_argument("--out")

    p = add("domain", cmd_domain, "parameter-plane domain label (B > 0)")
    p.add_argument("--a-minus-c", dest="a_minus_c", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--out")

    p = add("portrait", cmd_portrait, "phase-portrait grid, contours and SVG")
    p.add_argument("--a-minus-c", dest="a_minus_c", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--nx", type=int)
    p.add_argument("--ny", type=int)
    p.add_argument("--p-max", dest="p_max", type=float)
    p.add_argument("--out", help="output directory (default current)")

    p = add("compare", cmd_compare, "full vs averaged convergence experiment")
    p.add_argument("--excitation", required=True)
    p.add_argument("--eps-sweep", dest="eps_sweep", required=True,
                   help="at least two strictly decreasing amplitudes, e.g. 0.1,0.05,0.025")
    p.add_argument("--t-end", dest="t_end", type=float, help="time horizon (default 10)")
    p.add_argument("--initial", help="phi,alpha,p_phi,p_alpha (default 2,0,0,0.3)")
    p.add_argument("--out")

    p = add("reproduce", cmd_reproduce, "regenerate curve, domain sweep and both portraits")
    p.add_argument("--samples", type=int)
    p.add_argument("--nx", type=int)
    p.add_argument("--ny", type=int)
    p.add_argument("--p-max", dest="p_max", type=float)
    p.add_argument("--out", help="output directory (default reproduction)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.from_args(args)
        return args.func(cfg)
    except InconsistentCountError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCIENCE
    except (OSError, ValueError) as exc:
        # compare raises SymmetryViolationError, a ValueError; imported here,
        # excitation costs the scalar subcommands nothing unless they fail
        from .excitation import SymmetryViolationError

        if isinstance(exc, SymmetryViolationError):
            rep = exc.report
            doc = {
                "error": "symmetry violation",
                "residuals": {
                    "diag": rep.diag_residual,
                    "tau_eta": rep.tau_eta,
                    "tau_xi": rep.tau_xi,
                    "eta_xi": rep.eta_xi,
                },
                "tol": rep.tol,
            }
            sys.stdout.write(_json_text(doc))
            return EXIT_SCIENCE
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RuntimeError as exc:
        # dynamics, which needs numpy, is already loaded if compare raised this
        from .dynamics import IntegrationBlowUpError

        if not isinstance(exc, IntegrationBlowUpError):
            raise
        # the input is beyond the range of states the integrator can carry
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
