"""Value semantics of the package's records: equality, hash, repr, immutability.

The scalar records compare, hash and print by their fields; the array-holding
ones (PortraitGrid, LevelContours, Trajectory) compare by identity.  No
record accepts assignment after construction.
"""

import copy
import pickle
from array import array

import numpy as np
import pytest

from conftest import ZERO_MOMENTS

from pendulum_vib import (
    AveragedParams,
    ComparisonReport,
    Equilibrium,
    Excitation,
    GammaPoint,
    HarmonicSeries,
    LevelContours,
    MomentMatrix,
    PhysicalParams,
    SymmetryReport,
    Trajectory,
    build_grid,
    check_symmetry,
    find_equilibria,
)


def _value_records():
    """Factories of the value records; each call builds a fresh, equal object."""
    return [
        lambda: AveragedParams(2.0, 0.1),
        lambda: PhysicalParams(m=2.0, l=0.5),
        lambda: Equilibrium(0.5, "stable", -0.25, 1.5),
        lambda: GammaPoint(phi=3.0, a_minus_c=1.5, b=0.25),
        lambda: HarmonicSeries((0.35,), [0.0, 0.12]),
        lambda: Excitation(0.1, 2.0, xi=HarmonicSeries(sine_coeffs=(1.0,))),
        lambda: MomentMatrix([[1.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, 3.0]]),
        lambda: SymmetryReport(0.0, 0.5, 0.0, 0.0, 1e-9, False),
        lambda: ComparisonReport(0.1, 10.0, 1e-3, 2e-3, 3e-4),
    ]


@pytest.mark.parametrize("make", _value_records())
def test_equal_arguments_give_equal_records_with_equal_hashes(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not (a != b)
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("make", _value_records())
def test_records_copy_and_pickle_to_equal_records(make):
    a = make()
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is type(a)
        assert b == a and hash(b) == hash(a)


def test_different_fields_or_types_give_unequal_records():
    assert AveragedParams(2.0, 0.1) != AveragedParams(2.0, 0.1, 1.0)
    assert AveragedParams(2.0, 0.1) != AveragedParams(2.0, 0.2)
    assert GammaPoint(3.0, 1.5, 0.25) != Equilibrium(3.0, 1.5, 0.25, 0.0)
    assert Excitation(0.1, 1.0) != Excitation(0.05, 1.0)
    assert HarmonicSeries((1.0,)) != HarmonicSeries((), (1.0,))
    assert AveragedParams(2.0, 0.1) != (2.0, 0.1, 0.0)


def test_constructors_take_positional_and_keyword_arguments_with_defaults():
    assert AveragedParams(1.0, 2.0) == AveragedParams(A=1.0, B=2.0, C=0.0)
    assert PhysicalParams() == PhysicalParams(1.0, 1.0, 1.0)
    zero = HarmonicSeries()
    assert Excitation(0.1, 1.0) == Excitation(epsilon=0.1, omega=1.0, tau=zero, eta=zero, xi=zero)
    assert HarmonicSeries([1, 2]).cosine_coeffs == (1.0, 2.0)


@pytest.mark.parametrize("make", _value_records())
def test_every_slot_takes_part_in_equality_and_repr(make):
    # a record holds no slot beside its fields: each one tells two records apart
    a = make()
    cls = type(a)
    assert cls.__match_args__ == cls.__slots__
    assert repr(a) == f"{cls.__qualname__}({', '.join(f'{n}={getattr(a, n)!r}' for n in cls.__slots__)})"
    for name in cls.__slots__:
        b = make()
        object.__setattr__(b, name, object())
        assert a != b and b != a, name


def test_reprs_name_every_field_in_order():
    assert repr(AveragedParams(2.0, 0.1)) == "AveragedParams(A=2.0, B=0.1, C=0.0)"
    assert repr(AveragedParams.from_a_minus_c(-1.5, 0.25)) == "AveragedParams(A=0.0, B=0.25, C=1.5)"
    assert repr(find_equilibria(AveragedParams(3.5, 0.01))[0]) == (
        "Equilibrium(phi=0.2185614954770279, kind='stable', v_value=-0.7875842187965022, "
        "second_derivative=17.294813907989806)"
    )
    assert repr(Excitation(0.1, 2.0, xi=HarmonicSeries(sine_coeffs=(1.0,)))) == (
        "Excitation(epsilon=0.1, omega=2.0, "
        "tau=HarmonicSeries(cosine_coeffs=(), sine_coeffs=()), "
        "eta=HarmonicSeries(cosine_coeffs=(), sine_coeffs=()), "
        "xi=HarmonicSeries(cosine_coeffs=(), sine_coeffs=(1.0,)))"
    )
    assert repr(PhysicalParams()) == "PhysicalParams(m=1.0, l=1.0, g=1.0)"
    assert repr(check_symmetry(MomentMatrix(ZERO_MOMENTS))) == (
        "SymmetryReport(diag_residual=0.0, tau_eta=0.0, tau_xi=0.0, eta_xi=0.0, tol=1e-09, "
        "passed=True)"
    )
    assert repr(MomentMatrix(ZERO_MOMENTS)) == (
        "MomentMatrix(m=((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)))"
    )


def _all_records():
    grid = build_grid(AveragedParams(3.5, 0.01), nx=8, ny=8)
    return [make() for make in _value_records()] + [
        grid,
        LevelContours(0.5, (np.zeros((2, 2)),), False),
        Trajectory(array("d", [0.0, 1.0]), array("d", [0.0] * 8)),
    ]


FIRST_FIELD = {
    "AveragedParams": "A", "PhysicalParams": "m", "Equilibrium": "phi", "GammaPoint": "phi",
    "HarmonicSeries": "cosine_coeffs", "Excitation": "epsilon", "MomentMatrix": "m",
    "SymmetryReport": "diag_residual", "ComparisonReport": "epsilon", "PortraitGrid": "phi",
    "LevelContours": "level", "Trajectory": "ts",
}


@pytest.mark.parametrize("record", _all_records(), ids=lambda r: type(r).__name__)
def test_records_refuse_assignment(record):
    name = FIRST_FIELD[type(record).__name__]
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, 1.0)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1.0
    assert getattr(record, name) is before


def test_array_records_compare_by_identity():
    ap = AveragedParams(3.5, 0.01)
    g1, g2 = build_grid(ap, nx=8, ny=8), build_grid(ap, nx=8, ny=8)
    assert g1 == g1 and g1 != g2
    assert len({g1, g2}) == 2
    ts, ys = array("d", [0.0, 1.0]), array("d", [0.0] * 8)
    a, b = Trajectory(ts, ys), Trajectory(ts, ys)
    assert a == a and a != b
    assert len({a, b}) == 2
    assert repr(a) == f"Trajectory(ts={ts!r}, ys={ys!r})"
    c = LevelContours(0.5, (), False)
    assert c != LevelContours(0.5, (), False)


def test_trajectory_views_its_flat_buffers_as_arrays():
    ts, ys = array("d", [0.0, 0.5, 1.0]), array("d", range(12))
    traj = Trajectory(ts, ys)
    assert traj.t.shape == (3,) and traj.y.shape == (3, 4)
    assert traj.t.tolist() == [0.0, 0.5, 1.0]
    assert traj.y[:, 1].tolist() == [1.0, 5.0, 9.0]
    # views of the stored buffers, not copies
    assert np.shares_memory(traj.t, np.frombuffer(ts))
    assert np.shares_memory(traj.y, np.frombuffer(ys))
    for name in ("t", "y"):
        with pytest.raises(AttributeError):
            setattr(traj, name, np.zeros(3))
        with pytest.raises(AttributeError):
            delattr(traj, name)
