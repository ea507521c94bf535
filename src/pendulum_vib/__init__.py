"""Averaged dynamics of a spherical pendulum whose pivot vibrates rapidly.

Pipeline: periodic pivot excitations -> time-averaged velocity moments and
symmetry check -> reduced effective potential, equilibria and the critical
curve in the parameter plane -> phase portraits -> numerical validation of
the averaging step against the full time-dependent flow.

The names below are imported from their module on first access (PEP 562),
so ``import pendulum_vib`` loads none of the package's modules, and numpy
comes in only with ``dynamics`` or ``portrait``.
"""

import importlib

_EXPORTS = {
    "excitation": (
        "Excitation", "HarmonicSeries", "MomentMatrix", "SymmetryReport",
        "SymmetryViolationError", "check_symmetry", "eval_displacement", "eval_velocity",
        "excitation_from_dict", "excitation_to_dict", "load_excitation", "velocity_moments",
    ),
    "potential": (
        "AveragedParams", "DomainLabel", "Equilibrium", "GammaPoint", "InconsistentCountError",
        "PhysicalParams", "SingularConfigurationError", "averaged_params", "classify_domain",
        "d2v", "dv", "find_equilibria", "gamma_curve", "gamma_point", "v_bar",
    ),
    "dynamics": (
        "ComparisonReport", "FullState", "IntegrationBlowUpError", "Trajectory",
        "averaged_hamiltonian", "compare_full_averaged", "convergence_sweep",
        "full_hamiltonian", "full_rhs", "integrate", "reduced_rhs",
    ),
    "portrait": (
        "LevelContours", "PortraitGrid", "build_grid", "contours_to_csv", "extract_contours",
        "grid_to_csv", "render_svg",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
