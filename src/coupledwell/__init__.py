"""Exactly solvable two-channel square well with purely imaginary,
antisymmetric channel coupling.

The package solves the model end to end: transcendental secular roots
and energies, piecewise-analytic two-channel bound states, biorthogonal
left partners, the family of positive metrics restoring Hermiticity,
the commuting channel observable, the small-coupling level-shift
series, the critical coupling where the real spectrum breaks down, and
an independent finite-difference oracle cross-checking all of it.
"""

import importlib

from .errors import (
    InvalidToleranceError,
    MetricConstraintError,
    ModelDomainError,
    NormalizationSingularError,
    NumericalFailureError,
    RootLostError,
)
from .model import (
    BranchClass,
    CouplingPair,
    GridSpec,
    RepBasis,
)
from .secular import (
    LevelSolution,
    SpectrumResult,
    pair_interval,
    perturbative_eps,
    residual,
    solve_level,
    spectrum,
)

# the critical search and the layers above the secular one load on first
# use (PEP 562); metric imports numpy, wavefunctions and oracle only in the
# functions that build arrays, and battery (verify) not at all
_LAZY_MODULES = {
    "battery": ("Check", "verify"),
    "critical": ("CriticalResult", "critical_coupling"),
    "metric": (
        "MIN_ROOT_PRODUCT",
        "LeftState",
        "MetricWeights",
        "OperatorRep",
        "biorthogonality_matrix",
        "build_theta_metric",
        "inverse_identity_defect",
        "inverse_theta_metric",
        "left_vector",
        "mode_hamiltonian",
        "mode_spin",
        "quasi_hermiticity_defect",
    ),
    "oracle": (
        "build_hamiltonian",
        "compare_spectrum",
        "criticality_scan",
        "eigenpairs",
        "first_complex_bracket",
        "subspace_alignment",
    ),
    "wavefunctions": (
        "ChannelState",
        "doublet_family",
        "evaluate",
        "matching_residual",
        "parity_overlap",
        "phi_bilinear_product",
        "quasi_parity",
        "sine_product_integral",
        "solve_coefficients",
    ),
}
_LAZY_NAMES = {name: module for module, names in _LAZY_MODULES.items() for name in names}


def __getattr__(name):
    if name in _LAZY_MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY_NAMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY_NAMES})


__version__ = "0.1.0"

# every exported name is written once, in the eager imports above (each
# value defined in a submodule) or in _LAZY_MODULES
__all__ = sorted(
    [name for name, value in globals().items()
     if getattr(value, "__module__", "").startswith(f"{__name__}.")]
    + list(_LAZY_NAMES)
)
