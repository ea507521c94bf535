"""Hamiltonian flows of the pendulum with a vibrating pivot.

The full flow is time dependent through the pivot velocities; additive terms
of the Hamiltonian that depend on time alone are dropped, since they do not
enter Hamilton's equations.  Averaging over one period of the fast phase
(state frozen) yields the averaged Hamiltonian, which under the symmetry
conditions reduces to one degree of freedom: phi moving in the effective
potential of :mod:`pendulum_vib.potential`.

Both flows are in units m = l = g = 1, with time in units of sqrt(l / g);
physical values enter only through :func:`averaged_params`.
"""

from __future__ import annotations

import math
from array import array
from itertools import chain
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Sequence

from ._frozen import Frozen
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

if TYPE_CHECKING:
    import numpy as np

__all__ = [
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
    "rk4_step",
    "integrate",
    "compare_full_averaged",
]

STEPS_PER_FAST_PERIOD = 64
# Ten times the longest integration the acceptance suite runs; a longer one is
# almost certainly a mistyped span, and would only fill memory.
MAX_STEPS = 10**6


class FullState(NamedTuple):
    """Canonical state (phi, alpha, p_phi, p_alpha) of the full system."""

    phi: float
    alpha: float
    p_phi: float
    p_alpha: float


def full_hamiltonian(state: FullState, t: float, e: Excitation) -> float:
    """Hamiltonian of the full time-dependent system.

    With zero excitation this is the standard spherical pendulum; additive
    functions of time alone are dropped.
    """
    td, ed, xd = eval_velocity(e, t)
    s = math.sin(state.phi)
    c = math.cos(state.phi)
    sa = math.sin(state.alpha)
    ca = math.cos(state.alpha)
    # the pivot velocity resolved along the two angular directions
    u_phi = c * ca * td + c * sa * ed + s * xd
    u_alpha = -s * sa * td + s * ca * ed
    d_phi = state.p_phi - u_phi
    if s == 0.0:
        if state.p_alpha != 0.0:
            raise SingularConfigurationError("sin(phi) = 0 with p_alpha != 0")
        # u_alpha carries a factor sin(phi); the azimuthal term has a finite limit.
        w = -(-sa * td + ca * ed)
    else:
        w = (state.p_alpha - u_alpha) / s
    return (d_phi * d_phi + w * w) / 2.0 - c


def averaged_hamiltonian(state: FullState, mm: MomentMatrix) -> float:
    """Hamiltonian averaged over one period of the fast phase, state frozen.

    Retains the azimuth-dependent terms; they vanish only under the symmetry
    conditions tested by :func:`pendulum_vib.excitation.check_symmetry`.
    """
    s = math.sin(state.phi)
    c = math.cos(state.phi)
    sa = math.sin(state.alpha)
    ca = math.cos(state.alpha)
    if s == 0.0:
        if state.p_alpha != 0.0:
            raise SingularConfigurationError("sin(phi) = 0 with p_alpha != 0")
        kin = state.p_phi * state.p_phi / 2.0
    else:
        kin = (state.p_phi * state.p_phi + state.p_alpha * state.p_alpha / (s * s)) / 2.0
    return (
        kin
        + 0.5 * (c * c * ca * ca + sa * sa) * mm.tau_tau
        + 0.5 * (c * c * sa * sa + ca * ca) * mm.eta_eta
        + 0.5 * s * s * mm.xi_xi
        + (c * c * ca * sa - ca * sa) * mm.tau_eta
        + c * ca * s * mm.tau_xi
        + c * sa * s * mm.eta_xi
        - c
    )


Rhs = Callable[..., Sequence[float]]


def full_rhs(e: Excitation) -> Callable[..., tuple[float, float, float, float]]:
    """The full flow as ``f(t, phi, alpha, p_phi, p_alpha)``, which returns
    Hamilton's equations (dphi, dalpha, dp_phi, dp_alpha).

    The pivot velocity depends on ``t`` alone, so a call at the same ``t`` as
    the previous one to the same closure reuses it: RK4's two midpoint stages
    share a time, and a step's last stage often shares one with the next
    step's first.  Build one closure per run and step it.  Each
    evaluation costs one sine or cosine per distinct harmonic and family that
    some axis of ``e`` needs (see :func:`pendulum_vib.excitation.eval_velocity`),
    with the same bits as the term-by-term series.
    """
    last_t = None
    vel = None

    def f(
        t: float, phi: float, alpha: float, p_phi: float, p_alpha: float
    ) -> tuple[float, float, float, float]:
        nonlocal last_t, vel
        if t != last_t:
            last_t = t
            vel = eval_velocity(e, t)
        return _full_slopes(vel, phi, alpha, p_phi, p_alpha)

    return f


def _full_slopes(vel: tuple[float, float, float], phi: float, alpha: float, p_phi: float,
                 p_alpha: float) -> tuple[float, float, float, float]:
    """The one copy of the full flow's equations, at pivot velocity ``vel``."""
    td, ed, xd = vel
    s = math.sin(phi)
    c = math.cos(phi)
    sa = math.sin(alpha)
    ca = math.cos(alpha)
    # the pivot velocity resolved along the two angular directions
    u_phi = c * ca * td + c * sa * ed + s * xd
    u_alpha = -s * sa * td + s * ca * ed
    d_phi = p_phi - u_phi

    # d u_phi / d alpha is d u_alpha / d phi, and d u_phi / d phi is
    # d u_alpha / d alpha + c xd, each summed in the same order
    du_alpha_dalpha = -s * ca * td - s * sa * ed
    du_phi_dphi = du_alpha_dalpha + c * xd
    horiz = -sa * td + ca * ed
    du_alpha_dphi = c * horiz

    if s == 0.0:
        if p_alpha != 0.0 or horiz != 0.0:
            raise SingularConfigurationError("sin(phi) = 0 is a coordinate singularity here")
        return (d_phi, 0.0, d_phi * du_phi_dphi - s, 0.0)

    w = (p_alpha - u_alpha) / s
    dalpha = w / s
    dp_phi = d_phi * du_phi_dphi + dalpha * du_alpha_dphi + w * w * c / s - s
    dp_alpha = d_phi * du_alpha_dphi + dalpha * du_alpha_dalpha
    return (d_phi, dalpha, dp_phi, dp_alpha)


def reduced_rhs(ap: AveragedParams) -> Callable[[float, float, float], tuple[float, float]]:
    """The reduced flow in dimensionless units as ``g(t, phi, p_phi)``, which
    returns (dphi, dp_phi) = (p_phi, -dV/dphi)."""

    def g(t: float, phi: float, p_phi: float) -> tuple[float, float]:
        return (p_phi, -dv(phi, ap))

    return g


class IntegrationBlowUpError(ValueError):
    """A trajectory left the realm of finite floats: bad input, as a
    :class:`pendulum_vib.potential.SingularConfigurationError` is."""

    def __init__(self, time: float):
        super().__init__(f"non-finite state reached at t = {time}")
        self.time = time


class Trajectory(Frozen):
    """States recorded at every accepted step of a fixed-step integration.

    ``ts`` holds the times and ``ys`` the states, one row of the state's
    width per time, both as the flat ``array('d')`` buffers that
    :func:`integrate` fills.  :attr:`t` and :attr:`y` view them as numpy
    arrays, and only a read of one of them imports numpy.  Compared by
    identity: its fields are arrays.
    """

    __slots__ = ("ts", "ys")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, ts: array, ys: array):
        self._freeze(ts, ys)

    @property
    def t(self) -> np.ndarray:
        """The times, shape ``(len(ts),)``: a view of ``ts``."""
        import numpy as np

        return np.frombuffer(self.ts)

    @property
    def y(self) -> np.ndarray:
        """The states, shape ``(len(ts), width)``: a view of ``ys``."""
        import numpy as np

        return np.frombuffer(self.ys).reshape(len(self.ts), -1)


def rk4_step(rhs: Rhs, t: float, y: Sequence[float], h: float) -> list[float]:
    """One classical RK4 step of size h from (t, y).

    ``rhs(t, *y)`` takes the state's floats as arguments and returns a
    sequence of floats; the stages and the result are plain Python floats,
    combined in the same order as the vector form
    ``y + h/6 (k1 + 2 k2 + 2 k3 + k4)``.
    """
    hh = 0.5 * h
    k1 = rhs(t, *y)
    k2 = rhs(t + hh, *[a + hh * b for a, b in zip(y, k1)])
    k3 = rhs(t + hh, *[a + hh * b for a, b in zip(y, k2)])
    k4 = rhs(t + h, *[a + h * b for a, b in zip(y, k3)])
    h6 = h / 6.0
    return [a + h6 * (b + 2.0 * c + 2.0 * d + e) for a, b, c, d, e in zip(y, k1, k2, k3, k4)]


def integrate(
    rhs: Rhs, y0: Sequence[float], t_span: tuple[float, float], step: float
) -> Trajectory:
    """Classical fixed-step RK4 over t_span, recording every step.

    The general integrator, and the reference that :func:`compare_full_averaged`
    is checked against.  ``rhs(t, *y)`` is a flow as :func:`full_rhs` or
    :func:`reduced_rhs` returns it, or any callable that takes the state's
    floats as arguments and returns a sequence of floats.  The last recorded
    time is exactly ``t_span[1]``: a final shorter step lands on it when the
    whole steps fall short of it.  Deterministic for
    identical inputs; rejects a non-finite ``y0`` or ``t_span``, or a span of
    more than MAX_STEPS steps, with ValueError, and aborts with
    :class:`IntegrationBlowUpError` when the state, or a stage of a step,
    goes non-finite.
    """
    y, t, steps = _time_grid(y0, t_span, step)
    # flat C doubles: 8 bytes a recorded value, where a list per step takes ~6x that
    ts = array("d", [t])
    ys = array("d", y)
    for t_next, h in steps:
        try:
            y = rk4_step(rhs, t, y, h)
        except ValueError:
            _replay_checked(rhs, t, y, h, t_next)
            raise
        _finite(y, t_next)
        ts.append(t_next)
        ys.extend(y)
        t = t_next
    return Trajectory(ts, ys)


def _time_grid(
    y0: Sequence[float], t_span: tuple[float, float], step: float
) -> tuple[list[float], float, Iterator[tuple[float, float]]]:
    """Check the inputs of a fixed-step run; return ``y0`` as floats, the start
    time and an iterator of the steps as ``(t_next, h)``.

    The whole steps of ``step`` end at ``t0 + k * step`` for every k at which
    that sum, as rounded, is at most the end time; when the last of them falls
    short of the end time, one shorter step lands exactly on it.
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
    n_full = int(n_steps)
    while t0 + (n_full + 1) * step <= t1:
        n_full += 1
    while n_full and t0 + n_full * step > t1:
        n_full -= 1
    last = t0 + n_full * step
    steps = ((t0 + k * step, step) for k in range(1, n_full + 1))
    if last < t1:
        steps = chain(steps, [(t1, t1 - last)])
    return y, t0, steps


def _replay_checked(rhs: Rhs, t: float, y: Sequence[float], h: float, t_next: float) -> None:
    """Replay a step from (t, y) that raised ValueError, with its stages checked.

    math.sin and math.cos refuse an infinite argument, so a stage that
    overflowed raises IntegrationBlowUpError(t_next) here; an ``rhs``'s own
    ValueError is raised again, by the replay or by the caller's ``raise``.
    """
    rk4_step(lambda s, *z: rhs(s, *_finite(z, t_next)), t, y, h)


def _finite(y: Sequence[float], t: float) -> Sequence[float]:
    if not all(map(math.isfinite, y)):
        raise IntegrationBlowUpError(t)
    return y


class ComparisonReport(Frozen):
    """Worst-case gaps between the full and averaged descriptions."""

    __slots__ = ("epsilon", "t_end", "max_err_phi", "max_err_p_phi", "p_alpha_drift")

    def __init__(
        self, epsilon: float, t_end: float, max_err_phi: float, max_err_p_phi: float,
        p_alpha_drift: float,
    ):
        self._freeze(epsilon, t_end, max_err_phi, max_err_p_phi, p_alpha_drift)


def compare_full_averaged(e: Excitation, initial: FullState, t_end: float) -> ComparisonReport:
    """Integrate the full and reduced systems from the same slow state.

    Requires a symmetric excitation (the reduced system assumes it).  Both
    flows are in units m = l = g = 1 (time unit sqrt(l / g)), so (A, B, C)
    come from :func:`averaged_params` at unit physical values.  They are
    stepped as one product system (phi, alpha, p_phi, p_alpha, phi_r, p_r)
    from t = 0 at the full flow's step of 1/STEPS_PER_FAST_PERIOD fast
    periods, in one scalar RK4 loop over six floats that keeps running maxima
    of the three norms and records no trajectory.  Whole steps read the pivot
    velocity at their stages from a table at the times ``j * step / 2``, whose
    fast phases are theirs; a final shorter step evaluates it directly.  Every
    operation is that of :func:`rk4_step` in the same order, so each flow's
    states are bit for bit what :func:`integrate` gives it alone at the same
    velocities, and differ from :func:`full_rhs`'s in the last digits, as a
    table phase differs from ``omega * t / epsilon`` by rounding.  The reduced
    stages compute dV inline, with (A - C, B) read once per call and
    :func:`pendulum_vib.potential.dv`'s operations in its order; where dv
    refuses they raise, and the replay raises dv's own error.  Input
    checks, the time grid and the blow-up errors are those of :func:`integrate`.
    """
    mm = velocity_moments(e)
    report = check_symmetry(mm)
    if not report.passed:
        raise SymmetryViolationError(report)

    ap = averaged_params(mm, initial.p_alpha, PhysicalParams())
    step = e.fast_period / STEPS_PER_FAST_PERIOD
    y, t, steps = _time_grid((*initial, initial.phi, initial.p_phi), (0.0, t_end), step)
    n = 2 * STEPS_PER_FAST_PERIOD
    table = [eval_velocity(e, j * (0.5 * step)) for j in range(n)]
    j = 0
    phi, alpha, p_phi, p_alpha, phi_r, p_r = y
    p_alpha0 = p_alpha
    err_phi = err_p_phi = drift = 0.0
    a, b = ap.a_minus_c, ap.B
    sin, cos = math.sin, math.cos
    f = _full_slopes
    for t_next, h in steps:
        hh = 0.5 * h
        v1 = table[j]  # a final shorter step too starts where a whole step ended
        if h == step:
            v2 = table[j + 1]
            j = (j + 2) % n
            v4 = table[j]
        else:
            v2 = eval_velocity(e, t + hh)
            v4 = eval_velocity(e, t + h)
        try:
            # the reduced stages q_k are -dv's operations in dv's order, and a
            # ValueError where dv refuses: the replay then raises dv's error.
            # The p_r argument of a stage is that stage's slope of phi_r.
            a1, b1, c1, d1 = f(v1, phi, alpha, p_phi, p_alpha)
            s, c = sin(phi_r), cos(phi_r)
            if s * s * s * s == 0.0 and b != 0.0:
                raise ValueError
            q1 = -((-b * c / (s * s * s) if b != 0.0 else 0.0) + a * s * c + s)
            a2, b2, c2, d2 = f(v2, phi + hh * a1, alpha + hh * b1, p_phi + hh * c1,
                               p_alpha + hh * d1)
            p2 = p_r + hh * q1
            x = phi_r + hh * p_r
            s, c = sin(x), cos(x)
            if s * s * s * s == 0.0 and b != 0.0:
                raise ValueError
            q2 = -((-b * c / (s * s * s) if b != 0.0 else 0.0) + a * s * c + s)
            a3, b3, c3, d3 = f(v2, phi + hh * a2, alpha + hh * b2, p_phi + hh * c2,
                               p_alpha + hh * d2)
            p3 = p_r + hh * q2
            x = phi_r + hh * p2
            s, c = sin(x), cos(x)
            if s * s * s * s == 0.0 and b != 0.0:
                raise ValueError
            q3 = -((-b * c / (s * s * s) if b != 0.0 else 0.0) + a * s * c + s)
            a4, b4, c4, d4 = f(v4, phi + h * a3, alpha + h * b3, p_phi + h * c3,
                               p_alpha + h * d3)
            p4 = p_r + h * q3
            x = phi_r + h * p3
            s, c = sin(x), cos(x)
            if s * s * s * s == 0.0 and b != 0.0:
                raise ValueError
            q4 = -((-b * c / (s * s * s) if b != 0.0 else 0.0) + a * s * c + s)
        except ValueError:
            g = reduced_rhs(ap)
            vels = iter((v1, v2, v2, v4))
            _replay_checked(
                lambda s, *z: (*f(next(vels), *z[:4]), *g(s, *z[4:])),
                t, [phi, alpha, p_phi, p_alpha, phi_r, p_r], h, t_next,
            )
            raise
        h6 = h / 6.0
        phi = phi + h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        alpha = alpha + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        p_phi = p_phi + h6 * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
        p_alpha = p_alpha + h6 * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        phi_r = phi_r + h6 * (p_r + 2.0 * p2 + 2.0 * p3 + p4)
        p_r = p_r + h6 * (q1 + 2.0 * q2 + 2.0 * q3 + q4)
        # x - x is 0.0 for a finite x and NaN for an infinite or NaN one
        if (phi - phi) + (alpha - alpha) + (p_phi - p_phi) + (p_alpha - p_alpha) + (
                phi_r - phi_r) + (p_r - p_r) != 0.0:
            raise IntegrationBlowUpError(t_next)
        # the running maxima of |d|, without a call
        d = phi - phi_r
        if d > err_phi or -d > err_phi:
            err_phi = d if d > 0.0 else -d
        d = p_phi - p_r
        if d > err_p_phi or -d > err_p_phi:
            err_p_phi = d if d > 0.0 else -d
        d = p_alpha - p_alpha0
        if d > drift or -d > drift:
            drift = d if d > 0.0 else -d
        t = t_next
    return ComparisonReport(
        epsilon=e.epsilon,
        t_end=t_end,
        max_err_phi=err_phi,
        max_err_p_phi=err_p_phi,
        p_alpha_drift=drift,
    )
