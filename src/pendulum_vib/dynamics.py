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
    "compare_sweep",
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
    Hamilton's equations (dphi, dalpha, dp_phi, dp_alpha) at the pivot
    velocity :func:`pendulum_vib.excitation.eval_velocity` gives at ``t``."""

    def f(
        t: float, phi: float, alpha: float, p_phi: float, p_alpha: float
    ) -> tuple[float, float, float, float]:
        return _full_slopes(eval_velocity(e, t), phi, alpha, p_phi, p_alpha)

    return f


def _full_slopes(vel: tuple[float, float, float], phi: float, alpha: float, p_phi: float,
                 p_alpha: float) -> tuple[float, float, float, float]:
    """The one copy of the full flow's equations, at pivot velocity ``vel``.

    ``r`` and ``t`` are the horizontal pivot velocity's parts along the bob's
    azimuth and across it, so the pivot velocity resolved along the two
    angular directions is ``(c r + s xd, s t)``; with ``q = p_alpha / s``,
    ``w = q - t`` is ``s dalpha``.
    """
    td, ed, xd = vel
    s = math.sin(phi)
    c = math.cos(phi)
    sa = math.sin(alpha)
    ca = math.cos(alpha)
    r = ca * td + sa * ed
    t = ca * ed - sa * td
    dphi = p_phi - (c * r + s * xd)
    if s == 0.0:
        if p_alpha != 0.0 or t != 0.0:
            raise SingularConfigurationError("sin(phi) = 0 is a coordinate singularity here")
        return (dphi, 0.0, dphi * (c * xd - s * r) - s, 0.0)
    q = p_alpha / s
    w = q - t
    dalpha = w / s
    return (dphi, dalpha, dphi * (c * xd - s * r) + c * q * dalpha - s, c * dphi * t - w * r)


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
    """Replay an RK4 step of size h from (t, y) that raised ValueError, with
    its stages checked; the stages' times and inputs are those of
    :func:`rk4_step`.

    Each stage's input is checked before ``rhs`` is called on it.  math.sin
    and math.cos refuse an infinite argument, so a stage that overflowed
    raises IntegrationBlowUpError at ``t_next`` here; an ``rhs``'s own
    ValueError is raised again, by the replay or by the caller's ``raise``.
    """
    k = None
    for c in (0.0, 0.5, 0.5, 1.0):
        z = y if k is None else [a + c * h * b for a, b in zip(y, k)]
        _finite(z, t_next)
        k = rhs(t + c * h if c else t, *z)


def _finite(y: Sequence[float], t: float) -> None:
    if not all(map(math.isfinite, y)):
        raise IntegrationBlowUpError(t)


class ComparisonReport(Frozen):
    """Worst-case gaps between the full and averaged descriptions."""

    __slots__ = ("epsilon", "t_end", "max_err_phi", "max_err_p_phi", "p_alpha_drift")

    def __init__(
        self, epsilon: float, t_end: float, max_err_phi: float, max_err_p_phi: float,
        p_alpha_drift: float,
    ):
        self._freeze(epsilon, t_end, max_err_phi, max_err_p_phi, p_alpha_drift)


def compare_full_averaged(e: Excitation, initial: FullState, t_end: float) -> ComparisonReport:
    """Integrate the full and reduced systems from the same slow state at
    ``e``'s amplitude alone: :func:`compare_sweep` of the one amplitude, so
    at 64 steps a fast period."""
    return compare_sweep(e, [e.epsilon], initial, t_end)[0]


def _compare_run(e: Excitation, ap: AveragedParams, initial: FullState, t_end: float, n: int,
                 record: array | None, read: bool) -> ComparisonReport:
    """One run of :func:`compare_sweep`: the full flow of ``e`` and the
    reduced flow of ``ap``, stepped from t = 0 on one grid of
    ``e.fast_period / n`` that ends in a shorter step where its whole steps
    fall short of t_end.

    Both flows are in units m = l = g = 1 (time unit sqrt(l / g)).  They are
    stepped in one scalar RK4 loop over six floats
    (phi, alpha, p_phi, p_alpha, phi_r, p_r) that keeps running maxima of the
    three norms at the step ends and records no trajectory.  Whole steps
    read the pivot velocity at their stages from a table at the times
    ``j * step / 2``, whose fast phases are theirs; a final shorter step
    evaluates it directly.

    Every operation is that of :func:`rk4_step` in the same order, so each
    flow's states are bit for bit what :func:`integrate` gives it alone at
    the run's step, the full flow at the same velocities; those differ from
    :func:`full_rhs`'s in the last digits, as a table phase differs from
    ``omega * t / epsilon`` by rounding.  The reduced stages compute dV
    inline, with (A - C, B) read once per call and
    :func:`pendulum_vib.potential.dv`'s operations in its order, and raise
    where dv refuses.  A step that raises is replayed by
    :func:`_replay_checked` as one six-float flow, the full flow's slopes at
    the step's own velocities and then :func:`reduced_rhs`'s, so an
    overflowed stage raises IntegrationBlowUpError and otherwise the first
    failing call raises its own error.  A state that turns non-finite raises
    IntegrationBlowUpError at the end of its step.  Input checks and the
    step-count limit are those of :func:`integrate` at the run's step.

    With ``read`` false the run steps the reduced flow's four inline stages
    and appends each step-end state ``(phi_r, p_r)`` to ``record``, an
    ``array('d')``, unless it is None.  With ``read`` true it takes the
    reduced states from ``record`` instead, and replays a failing step from
    the recorded step-start state.  That is exact for a record left by a run
    on the same step, start, span and averaged parameters, as
    :func:`compare_sweep` passes it: a record is complete only when its
    run's reduced flow neither refused nor overflowed.
    """
    step = e.fast_period / n
    y, t, steps = _time_grid((*initial, initial.phi, initial.p_phi), (0.0, t_end), step)
    if record is not None:
        push, pull = record.append, iter(record).__next__
    table = [eval_velocity(e, j * (0.5 * step)) for j in range(2 * n)]
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
            j = (j + 2) % (2 * n)
            v4 = table[j]
        else:
            v2 = eval_velocity(e, t + hh)
            v4 = eval_velocity(e, t + h)
        try:
            a1, b1, c1, d1 = f(v1, phi, alpha, p_phi, p_alpha)
            a2, b2, c2, d2 = f(v2, phi + hh * a1, alpha + hh * b1, p_phi + hh * c1,
                               p_alpha + hh * d1)
            a3, b3, c3, d3 = f(v2, phi + hh * a2, alpha + hh * b2, p_phi + hh * c2,
                               p_alpha + hh * d2)
            a4, b4, c4, d4 = f(v4, phi + h * a3, alpha + h * b3, p_phi + h * c3,
                               p_alpha + h * d3)
            if not read:
                # the reduced stages q_k are -dv's operations in dv's order,
                # and a ValueError where dv refuses: the replay then raises
                # dv's error.  The p_r argument of a stage is that stage's
                # slope of phi_r.
                s, c = sin(phi_r), cos(phi_r)
                s3 = s * s * s
                if s3 * s == 0.0 and b != 0.0:
                    raise ValueError
                q1 = -((-b * c / s3 if b != 0.0 else 0.0) + a * s * c + s)
                p2 = p_r + hh * q1
                x = phi_r + hh * p_r
                s, c = sin(x), cos(x)
                s3 = s * s * s
                if s3 * s == 0.0 and b != 0.0:
                    raise ValueError
                q2 = -((-b * c / s3 if b != 0.0 else 0.0) + a * s * c + s)
                p3 = p_r + hh * q2
                x = phi_r + hh * p2
                s, c = sin(x), cos(x)
                s3 = s * s * s
                if s3 * s == 0.0 and b != 0.0:
                    raise ValueError
                q3 = -((-b * c / s3 if b != 0.0 else 0.0) + a * s * c + s)
                p4 = p_r + h * q3
                x = phi_r + h * p3
                s, c = sin(x), cos(x)
                s3 = s * s * s
                if s3 * s == 0.0 and b != 0.0:
                    raise ValueError
                q4 = -((-b * c / s3 if b != 0.0 else 0.0) + a * s * c + s)
        except ValueError:
            vels = iter((v1, v2, v2, v4))
            g = reduced_rhs(ap)
            _replay_checked(lambda u, *z: (*f(next(vels), *z[:4]), *g(u, *z[4:])),
                            t, [phi, alpha, p_phi, p_alpha, phi_r, p_r], h, t_next)
            raise
        h6 = h / 6.0
        phi = phi + h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        alpha = alpha + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        p_phi = p_phi + h6 * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
        p_alpha = p_alpha + h6 * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        if read:
            phi_r, p_r = pull(), pull()
        else:
            phi_r = phi_r + h6 * (p_r + 2.0 * p2 + 2.0 * p3 + p4)
            p_r = p_r + h6 * (q1 + 2.0 * q2 + 2.0 * q3 + q4)
            if record is not None:
                push(phi_r)
                push(p_r)
        # x - x is 0.0 for a finite x and NaN for an infinite or NaN one
        if ((phi - phi) + (alpha - alpha) + (p_phi - p_phi) + (p_alpha - p_alpha)
                + (phi_r - phi_r) + (p_r - p_r) != 0.0):
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


def compare_sweep(
    e: Excitation, epsilons: Sequence[float], initial: FullState, t_end: float,
) -> list[ComparisonReport]:
    """:func:`_compare_run` at each amplitude of a decreasing sweep, each
    run the excitation ``e`` at that epsilon, in sweep order, so the first
    run that fails raises its own error.

    The moments, and so the symmetry check and (A, B, C), do not depend on
    epsilon: they are computed once, from ``e`` at unit physical values, and
    an excitation that fails the check raises ``SymmetryViolationError``
    before any run.  Each run takes ``n``, the fewest of 16, 32 and 64 steps
    a fast period whose step is no longer than the first run's step at
    ``STEPS_PER_FAST_PERIOD``, so the runs of a halving sweep all step on one
    grid and a lone amplitude takes 64.  At a fixed number of steps a period
    the full flow's RK4 error falls like epsilon**4, and the reduced flow has
    no time scale tied to epsilon, so it is stepped once for each distinct
    step: the first run on a step that a later run shares records its
    states, each later run on it reads them, and the record is dropped after
    its last reader.  Each report is bit for bit that of the run alone.  A
    record holds two doubles a step, up to 16 MB at the step-count limit.
    """
    runs = [Excitation(eps, e.omega, e.tau, e.eta, e.xi) for eps in epsilons]
    mm = velocity_moments(e)
    report = check_symmetry(mm)
    if not report.passed:
        raise SymmetryViolationError(report)
    ap = averaged_params(mm, initial.p_alpha, PhysicalParams())
    coarsest = runs[0].fast_period / STEPS_PER_FAST_PERIOD
    ns = [next((k for k in (16, 32) if run.fast_period / k <= coarsest), STEPS_PER_FAST_PERIOD)
          for run in runs]
    steps = [run.fast_period / n for run, n in zip(runs, ns)]
    records, reports = {}, []
    for i, (run, n, step) in enumerate(zip(runs, ns, steps)):
        record = records.pop(step, None)
        read, later = record is not None, step in steps[i + 1:]
        if later and not read:
            record = array("d")
        reports.append(_compare_run(run, ap, initial, t_end, n, record, read))
        if later:
            records[step] = record
    return reports
