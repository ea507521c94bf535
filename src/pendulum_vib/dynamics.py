"""Hamiltonian flows of the pendulum with a vibrating pivot.

The full flow is time dependent through the pivot velocities; additive terms
of the Hamiltonian that depend on time alone are dropped, since they do not
enter Hamilton's equations.  Averaging over one period of the fast phase
(state frozen) yields the averaged Hamiltonian, which under the symmetry
conditions reduces to one degree of freedom: phi moving in the effective
potential of :mod:`pendulum_vib.potential`.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .excitation import (
    Excitation,
    MomentMatrix,
    SymmetryViolationError,
    check_symmetry,
    eval_velocity,
    velocity_moments,
)
from .potential import (
    AveragedParams,
    PhysicalParams,
    SingularConfigurationError,
    averaged_params,
    dv,
)

__all__ = [
    "PhysicalParams",
    "FullState",
    "Trajectory",
    "ComparisonReport",
    "IntegrationBlowUpError",
    "SymmetryViolationError",
    "full_hamiltonian",
    "full_rhs",
    "averaged_hamiltonian",
    "averaged_params",
    "reduced_rhs",
    "make_full_rhs",
    "make_reduced_rhs",
    "rk4_step",
    "integrate",
    "compare_full_averaged",
    "convergence_sweep",
]

STEPS_PER_FAST_PERIOD = 64
# Ten times the longest integration the acceptance suite runs; a longer one is
# almost certainly a mistyped span, and would only fill memory.
MAX_STEPS = 10**6


UNIT_PARAMS = PhysicalParams(1.0, 1.0, 1.0)


class FullState(NamedTuple):
    """Canonical state (phi, alpha, p_phi, p_alpha) of the full system."""

    phi: float
    alpha: float
    p_phi: float
    p_alpha: float


def _pivot_projections(
    s: float, c: float, sa: float, ca: float, vel: tuple[float, float, float]
) -> tuple[float, float]:
    # Pivot velocity resolved along the two angular directions.
    td, ed, xd = vel
    u_phi = c * ca * td + c * sa * ed + s * xd
    u_alpha = -s * sa * td + s * ca * ed
    return u_phi, u_alpha


def full_hamiltonian(state: FullState, t: float, e: Excitation, p: PhysicalParams) -> float:
    """Hamiltonian of the full time-dependent system.

    With zero excitation this is the standard spherical pendulum; additive
    functions of time alone are dropped.
    """
    vel = eval_velocity(e, t)
    s = math.sin(state.phi)
    c = math.cos(state.phi)
    sa = math.sin(state.alpha)
    ca = math.cos(state.alpha)
    u_phi, u_alpha = _pivot_projections(s, c, sa, ca, vel)
    ml = p.m * p.l
    ml2 = p.m * p.l * p.l
    d_phi = state.p_phi - ml * u_phi
    if s == 0.0:
        if state.p_alpha != 0.0:
            raise SingularConfigurationError("sin(phi) = 0 with p_alpha != 0")
        # u_alpha carries a factor sin(phi); the azimuthal term has a finite limit.
        w = -ml * (-sa * vel[0] + ca * vel[1])
    else:
        w = (state.p_alpha - ml * u_alpha) / s
    return (d_phi * d_phi + w * w) / (2.0 * ml2) - p.m * p.g * p.l * c


def full_rhs(
    state: Sequence[float], t: float, e: Excitation, p: PhysicalParams
) -> tuple[float, float, float, float]:
    """Hamilton's equations of the full system: (dphi, dalpha, dp_phi, dp_alpha).

    ``state`` is a :class:`FullState` or any sequence in the same order.
    """
    return _full_rhs_at(state, eval_velocity(e, t), p)


def _full_rhs_at(
    state: Sequence[float], vel: tuple[float, float, float], p: PhysicalParams
) -> tuple[float, float, float, float]:
    # full_rhs given the pivot velocity at the state's time.
    phi, alpha, p_phi, p_alpha = state
    td, ed, xd = vel
    s = math.sin(phi)
    c = math.cos(phi)
    sa = math.sin(alpha)
    ca = math.cos(alpha)
    u_phi, u_alpha = _pivot_projections(s, c, sa, ca, vel)
    ml = p.m * p.l
    ml2 = p.m * p.l * p.l
    d_phi = p_phi - ml * u_phi

    du_phi_dphi = -s * ca * td - s * sa * ed + c * xd
    horiz = -sa * td + ca * ed
    du_alpha_dphi = c * horiz
    du_phi_dalpha = c * horiz
    du_alpha_dalpha = -s * ca * td - s * sa * ed

    if s == 0.0:
        if p_alpha != 0.0 or horiz != 0.0:
            raise SingularConfigurationError("sin(phi) = 0 is a coordinate singularity here")
        dphi = d_phi / ml2
        dp_phi = (d_phi / p.l) * du_phi_dphi - p.m * p.g * p.l * s
        return (dphi, 0.0, dp_phi, 0.0)

    w = (p_alpha - ml * u_alpha) / s
    dphi = d_phi / ml2
    dalpha = w / (ml2 * s)
    dp_phi = (
        (d_phi / p.l) * du_phi_dphi
        + (w / (p.l * s)) * du_alpha_dphi
        + w * w * c / (ml2 * s)
        - p.m * p.g * p.l * s
    )
    dp_alpha = (d_phi / p.l) * du_phi_dalpha + (w / (p.l * s)) * du_alpha_dalpha
    return (dphi, dalpha, dp_phi, dp_alpha)


def averaged_hamiltonian(state: FullState, mm: MomentMatrix, p: PhysicalParams) -> float:
    """Hamiltonian averaged over one period of the fast phase, state frozen.

    Retains the azimuth-dependent terms; they vanish only under the symmetry
    conditions tested by :func:`pendulum_vib.excitation.check_symmetry`.
    """
    s = math.sin(state.phi)
    c = math.cos(state.phi)
    sa = math.sin(state.alpha)
    ca = math.cos(state.alpha)
    ml2 = p.m * p.l * p.l
    if s == 0.0:
        if state.p_alpha != 0.0:
            raise SingularConfigurationError("sin(phi) = 0 with p_alpha != 0")
        kin = state.p_phi * state.p_phi / (2.0 * ml2)
    else:
        kin = (state.p_phi * state.p_phi + state.p_alpha * state.p_alpha / (s * s)) / (2.0 * ml2)
    m = p.m
    return (
        kin
        + 0.5 * m * (c * c * ca * ca + sa * sa) * mm.tau_tau
        + 0.5 * m * (c * c * sa * sa + ca * ca) * mm.eta_eta
        + 0.5 * m * s * s * mm.xi_xi
        + m * (c * c * ca * sa - ca * sa) * mm.tau_eta
        + m * c * ca * s * mm.tau_xi
        + m * c * sa * s * mm.eta_xi
        - m * p.g * p.l * c
    )


def reduced_rhs(phi: float, p_phi: float, ap: AveragedParams) -> tuple[float, float]:
    """Reduced flow in dimensionless units: (dphi, dp_phi) = (p_phi, -dV/dphi)."""
    return (p_phi, -dv(phi, ap))


Rhs = Callable[[float, Sequence[float]], Sequence[float]]


def make_full_rhs(e: Excitation, p: PhysicalParams) -> Rhs:
    """:func:`full_rhs` as an ``rhs(t, y)`` for :func:`integrate`.

    The pivot velocity depends on ``t`` alone, so a call at the same ``t`` as
    the previous one reuses it: RK4's two midpoint stages share a time, and a
    step's last stage often shares one with the next step's first.
    """
    last_t = None
    vel = None

    def rhs(t: float, y: Sequence[float]) -> tuple[float, float, float, float]:
        nonlocal last_t, vel
        if t != last_t:
            last_t = t
            vel = eval_velocity(e, t)
        return _full_rhs_at(y, vel, p)

    return rhs


def make_reduced_rhs(ap: AveragedParams) -> Rhs:
    """:func:`reduced_rhs` as an ``rhs(t, y)`` for :func:`integrate`, y = (phi, p_phi)."""

    def rhs(t: float, y: Sequence[float]) -> tuple[float, float]:
        return reduced_rhs(y[0], y[1], ap)

    return rhs


class IntegrationBlowUpError(RuntimeError):
    """A trajectory left the realm of finite floats."""

    def __init__(self, time: float):
        super().__init__(f"non-finite state reached at t = {time}")
        self.time = time


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States recorded at every accepted step of a fixed-step integration."""

    t: np.ndarray
    y: np.ndarray


def rk4_step(rhs: Rhs, t: float, y: Sequence[float], h: float) -> list[float]:
    """One classical RK4 step of size h from (t, y).

    ``rhs(t, y)`` takes and returns a sequence of floats; the stages and the
    result are plain Python floats, combined in the same order as the vector
    form ``y + h/6 (k1 + 2 k2 + 2 k3 + k4)``.
    """
    hh = 0.5 * h
    k1 = rhs(t, y)
    k2 = rhs(t + hh, [a + hh * b for a, b in zip(y, k1)])
    k3 = rhs(t + hh, [a + hh * b for a, b in zip(y, k2)])
    k4 = rhs(t + h, [a + h * b for a, b in zip(y, k3)])
    h6 = h / 6.0
    return [a + h6 * (b + 2.0 * c + 2.0 * d + e) for a, b, c, d, e in zip(y, k1, k2, k3, k4)]


def integrate(
    rhs: Rhs, y0: Sequence[float], t_span: tuple[float, float], step: float
) -> Trajectory:
    """Classical fixed-step RK4 over t_span, recording every step.

    ``rhs(t, y)`` takes and returns a sequence of floats: see
    :func:`make_full_rhs`, which evaluates the pivot velocity once per
    distinct stage time, and :func:`make_reduced_rhs`.  A final shorter step
    lands exactly on the end time when the span is not an integer number of
    steps or is shorter than one step.  Deterministic for identical inputs;
    rejects a non-finite ``y0`` or ``t_span``, or a span of more than
    MAX_STEPS steps, with ValueError, and aborts with
    :class:`IntegrationBlowUpError` when the state goes non-finite.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    y = [float(v) for v in y0]
    if not (step > 0.0):
        raise ValueError("step must be positive")
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"t_span must be finite, got ({t0}, {t1})")
    if not (t1 > t0):
        raise ValueError("t_span must have positive length")
    if not all(map(math.isfinite, y)):
        raise ValueError(f"initial state must be finite, got {y}")
    n_steps = (t1 - t0) / step
    if not (n_steps <= MAX_STEPS):
        raise ValueError(
            f"integrating ({t0}, {t1}) at step {step} takes {n_steps:.6g} steps, "
            f"more than the limit of {MAX_STEPS}"
        )
    n_full = int(math.floor(n_steps * (1.0 + 1e-12)))
    remainder = t1 - (t0 + n_full * step)

    # flat C doubles: 8 bytes a recorded value, where a list per step takes ~6x that
    ts = array("d", [t0])
    ys = array("d", y)
    t = t0
    for k in range(n_full):
        y = rk4_step(rhs, t, y, step)
        t = t0 + (k + 1) * step
        if not all(map(math.isfinite, y)):
            raise IntegrationBlowUpError(t)
        ts.append(t)
        ys.extend(y)
    if remainder > step * 1e-9 or n_full == 0:
        y = rk4_step(rhs, t, y, remainder)
        t = t1
        if not all(map(math.isfinite, y)):
            raise IntegrationBlowUpError(t)
        ts.append(t)
        ys.extend(y)
    return Trajectory(t=np.array(ts), y=np.array(ys).reshape(len(ts), len(y)))


@dataclass(frozen=True)
class ComparisonReport:
    """Worst-case gaps between the full and averaged descriptions."""

    epsilon: float
    t_end: float
    max_err_phi: float
    max_err_p_phi: float
    p_alpha_drift: float


def compare_full_averaged(e: Excitation, initial: FullState, t_end: float) -> ComparisonReport:
    """Integrate the full and reduced systems from the same slow state.

    Requires a symmetric excitation (the reduced system assumes it).  Both
    flows run in dimensionless units m = l = g = 1 on one time grid, the full
    flow's step of 1/STEPS_PER_FAST_PERIOD fast periods, so the max-difference
    norms compare states at identical times with no resampling.
    """
    mm = velocity_moments(e)
    report = check_symmetry(mm)
    if not report.passed:
        raise SymmetryViolationError(report)

    ap = averaged_params(mm, initial.p_alpha, UNIT_PARAMS)
    step = e.fast_period / STEPS_PER_FAST_PERIOD
    full = integrate(make_full_rhs(e, UNIT_PARAMS), initial, (0.0, t_end), step)
    red = integrate(make_reduced_rhs(ap), [initial.phi, initial.p_phi], (0.0, t_end), step)
    return ComparisonReport(
        epsilon=e.epsilon,
        t_end=t_end,
        max_err_phi=float(np.max(np.abs(full.y[:, 0] - red.y[:, 0]))),
        max_err_p_phi=float(np.max(np.abs(full.y[:, 2] - red.y[:, 1]))),
        p_alpha_drift=float(np.max(np.abs(full.y[:, 3] - initial.p_alpha))),
    )


def convergence_sweep(
    e: Excitation,
    epsilons,
    initial: FullState,
    t_end: float,
) -> dict:
    """Run :func:`compare_full_averaged` for each amplitude scale.

    Returns the JSON-ready report; entries are ordered like ``epsilons``.
    """
    epsilons = [float(x) for x in epsilons]
    reports = [compare_full_averaged(replace(e, epsilon=eps), initial, t_end) for eps in epsilons]
    return {
        "epsilons": epsilons,
        "max_err_phi": [r.max_err_phi for r in reports],
        "max_err_p_phi": [r.max_err_p_phi for r in reports],
        "p_alpha_drift": [r.p_alpha_drift for r in reports],
    }
