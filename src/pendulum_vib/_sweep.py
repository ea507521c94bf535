"""``compare``'s epsilon sweep, spread over forked processes.

The runs of a sweep share no state (the moments, and so (A, B, C), do not
depend on epsilon), and the global interpreter lock keeps threads from
running them side by side, so they go to separate processes.  Only
``compare`` imports this module, which keeps it out of the import of every
other subcommand.
"""

from __future__ import annotations

import os
from array import array

from . import dynamics, excitation
from ._fork import workers


def _split(runs: list, n_groups: int) -> list[list[int]]:
    """The indices of ``runs`` in ``n_groups`` groups of about equal cost, each
    in sweep order; the first group holds the last (finest) run.

    A run's step count is proportional to 1/epsilon (the step is a fixed
    fraction of the fast period), so the runs go costliest first, each to the
    least-loaded group.
    """
    loads = [0.0] * n_groups
    groups = [[] for _ in range(n_groups)]
    for i in reversed(range(len(runs))):  # the sweep decreases: finest last
        k = loads.index(min(loads))
        groups[k].append(i)
        loads[k] += 1.0 / runs[i].epsilon
    return [g[::-1] for g in groups]


def compare_sweep(runs: list, start, t_end: float) -> list:
    """``compare_full_averaged`` at each run, as a serial loop gives them.

    All groups of :func:`_split` but the first run in children made with
    ``os.fork``, and the first runs in this process.  A child writes the three
    norms of each run it finishes to a pipe as doubles, stops at its first
    exception and leaves through ``os._exit``.  Each report is rebuilt from its
    norms, bit for bit; a run whose norms did not arrive is run again here, so
    the first run in sweep order that fails raises its own error.  Every child
    is reaped before this returns or raises, and killed first if this process
    is interrupted.  With one worker nothing is forked.  An excitation that
    fails the symmetry check raises ``SymmetryViolationError`` before any run:
    the moments do not depend on epsilon.
    """
    report = excitation.check_symmetry(excitation.velocity_moments(runs[0]))
    if not report.passed:
        raise excitation.SymmetryViolationError(report)
    compare = dynamics.compare_full_averaged
    groups = _split(runs, workers(len(runs)))
    done = {}
    children = []
    try:
        for group in groups[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the runs left are run here
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                try:
                    for i in group:
                        rep = compare(runs[i], start, t_end)
                        norms = (rep.max_err_phi, rep.max_err_p_phi, rep.p_alpha_drift)
                        os.write(w, array("d", norms).tobytes())
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, open(r, "rb"), group))
        for i in groups[0]:
            try:
                done[i] = compare(runs[i], start, t_end)
            except Exception as exc:  # raised in sweep order below
                done[i] = exc
                break
        for _, pipe, group in children:
            # each run's 24 bytes are one write, below PIPE_BUF, so they
            # arrive whole or not at all
            norms = array("d", pipe.read())
            for i, k in zip(group, range(0, len(norms), 3)):
                done[i] = dynamics.ComparisonReport(runs[i].epsilon, t_end, *norms[k:k + 3])
    except BaseException:
        import signal

        for pid, _, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe, _ in children:
            pipe.close()
            os.waitpid(pid, 0)
    reports = []
    for i, run in enumerate(runs):
        rep = done.get(i)
        if isinstance(rep, Exception):
            raise rep
        reports.append(compare(run, start, t_end) if rep is None else rep)
    return reports
