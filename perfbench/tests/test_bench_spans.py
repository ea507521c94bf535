import numpy as np
import pytest

import oracle
import pendulum_vib
import spans
from pendulum_vib import dynamics, potential
from pendulum_vib.potential import AveragedParams


def test_self_time_on_a_hand_built_tree():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert spans.self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]


def _nested_sampling(rec):
    ap = AveragedParams(A=2.0, B=0.1)
    rhs = dynamics.make_reduced_rhs(ap)
    traj = dynamics.integrate(rhs, [2.0, 0.0], (0.0, 0.01), 0.004)
    rec.op_id = 0
    return rec.call("op", dynamics.sample_at, rhs, traj, 0.005)


def test_nested_spans_and_restore():
    originals = {name: getattr(dynamics, name) for name in ("dv", "rk4_step", "sample_at")}
    rec = spans.Recorder()
    rec.install(pendulum_vib)
    try:
        assert dynamics.dv is not originals["dv"]
        assert dynamics.dv.__wrapped__ is potential.dv.__wrapped__
        _nested_sampling(rec)
    finally:
        rec.uninstall()
    for name, fn in originals.items():
        assert getattr(dynamics, name) is fn
    names = [rec.names[i] for i in rec.name_id]
    # op -> sample_at -> rk4_step -> make_reduced_rhs's rhs -> reduced_rhs -> dv
    chain = []
    k = len(names) - 1 - names[::-1].index("potential.dv")  # the one under sample_at
    while k >= 0:
        chain.append(names[k])
        k = rec.parent[k]
    assert chain == [
        "potential.dv", "dynamics.reduced_rhs", "dynamics.rk4_step", "dynamics.sample_at", "op",
    ]
    a = rec.arrays()
    own = spans.self_times(a["start"], a["end"], a["parent"])
    assert np.all(own >= 0.0)
    roots = a["parent"] < 0
    assert own.sum() == pytest.approx(np.sum(a["end"][roots] - a["start"][roots]), rel=1e-9)


def test_counters_repeat_exactly():
    def counts():
        rec = spans.Recorder()
        rec.install(pendulum_vib)
        try:
            for k, b in enumerate((0.01, 0.5)):
                rec.op_id = k
                potential.equilibrium_report(AveragedParams(A=3.5, B=b))
        finally:
            rec.uninstall()
        calls, _ = spans.totals_by_name(rec)
        return calls, dict(rec.counters), rec.distinct_count("potential.find_equilibria")

    first = counts()
    assert first == counts()
    calls, counters, distinct = first
    assert calls["potential.find_equilibria"] == 4
    assert distinct == 2
    want = sum(oracle.label(3.5, b)[1] for b in (0.01, 0.5))
    assert counters["potential.equilibria_found"] == 2 * want
