"""The invariant battery: `verify` checks the model's claims at one
coupling, against the closed form and the finite-difference oracle, and
returns one `Check` record per invariant.  The CLI's `verify` subcommand
only formats these records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelDomainError
from .metric import (
    biorthogonality_matrix,
    build_theta_metric,
    inverse_identity_defect,
    mode_hamiltonian,
    mode_spin,
    quasi_hermiticity_defect,
)
from .model import BranchClass, CouplingPair, GridSpec
from .oracle import _entry_max, _spin_commutator_max, _swap_reflect_defect
from .oracle import build_hamiltonian, compare_spectrum, eigenpairs
from .secular import DEFAULT_RESIDUAL_TOL, perturbative_eps
from .wavefunctions import doublet_family, matching_residual, parity_overlap


@dataclass(frozen=True)
class Check:
    """One invariant, passed when `value comparison bound` holds (never for NaN)."""

    name: str
    value: float
    bound: float
    comparison: str  # "<=" or ">"

    def __post_init__(self):
        if self.comparison not in ("<=", ">"):
            raise ValueError(f"comparison must be '<=' or '>', got {self.comparison!r}")
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "bound", float(self.bound))

    @property
    def passed(self) -> bool:
        if self.comparison == ">":
            return self.value > self.bound
        return self.value <= self.bound


def verify(
    coupling: CouplingPair,
    n_levels: int,
    grid: GridSpec,
    tol: float = DEFAULT_RESIDUAL_TOL,
) -> list[Check]:
    """Run the battery on levels 0..n_levels-1 and the oracle on `grid`.

    Raises ModelDomainError unless YZ > 0 (the battery exercises the
    coupled degenerate branch), and RootLostError at or above the
    critical coupling of a requested pair.
    """
    if coupling.branch is not BranchClass.POSITIVE_PRODUCT:
        raise ModelDomainError("verify exercises the coupled degenerate branch and needs YZ > 0")
    states = doublet_family(coupling, n_levels, tol)
    # first, so that the family's refusal below MIN_ROOT_PRODUCT comes
    # before the perturbation ratio, whose errors are 0 / 0 there
    theta = build_theta_metric(states)
    levels = [s.level for s in states[::2]]
    c = coupling.root_product

    checks = [
        Check("secular residual max", max(l.residual for l in levels), tol, "<="),
        Check("wavenumber constraint |2st - sqrt(YZ)| max",
              max(abs(2 * l.s * l.t - c) for l in levels), 1e-10, "<="),
    ]
    if n_levels >= 3 and c <= 1.5:
        # monotone convergence of the small-coupling series at the top level
        top = levels[-1]
        err2 = abs(top.eps - perturbative_eps(top.n, coupling, order=2))
        err1 = abs(top.eps - perturbative_eps(top.n, coupling, order=1))
        checks.append(Check("perturbation order-2/order-1 error ratio", err2 / err1, 1.0, "<="))
    ratio = np.sqrt(coupling.Z / coupling.Y)
    checks += [
        Check("matching residual max", max(matching_residual(s) for s in states), 1e-12, "<="),
        Check("coefficient ratio |A/B - sigma sqrt(Z/Y)| max",
              max(abs(s.A / s.B - s.sigma * ratio) for s in states), 1e-10, "<="),
        Check("parity overlap alternation min (-1)^n p_n",
              min((-1) ** s.level.n * parity_overlap(s) for s in states), 0.0, ">"),
    ]

    pairing = biorthogonality_matrix(states)
    diag = np.diag(pairing)
    off = pairing - np.diag(diag)
    checks += [
        Check("biorthogonal diagonal min", np.min(diag), 0.0, ">"),
        Check("biorthogonal off-diagonal / max diagonal",
              np.max(np.abs(off)) / np.max(diag), 1e-9, "<="),
        Check("metric Hermiticity defect",
              np.max(np.abs(theta.matrix - theta.matrix.conj().T)), 0.0, "<="),
        Check("metric minimal eigenvalue", np.min(np.linalg.eigvalsh(theta.matrix)), 0.0, ">"),
        Check("quasi-Hermiticity defect (Hamiltonian)",
              quasi_hermiticity_defect(mode_hamiltonian(states), theta), 1e-8, "<="),
        Check("quasi-Hermiticity defect (spin observable)",
              quasi_hermiticity_defect(mode_spin(states), theta), 1e-8, "<="),
        Check("inverse metric identity defect", inverse_identity_defect(theta, states), 1e-8, "<="),
    ]

    h_rep = build_hamiltonian(coupling, grid)
    checks += [
        Check("discrete swap-reflect pseudo-Hermiticity defect",
              _swap_reflect_defect(h_rep), 0.0, "<="),
        Check("discrete commutator [H, spin] max",
              _spin_commutator_max(h_rep), 1e-15 * _entry_max(h_rep), "<="),
    ]
    eig_values, _ = eigenpairs(h_rep, min(4, 2 * n_levels))
    report = compare_spectrum(levels, eig_values, min(2, n_levels))
    checks += [
        Check("oracle lowest eigenvalues |Im| max", np.max(np.abs(eig_values.imag)), 1e-6, "<="),
        Check("oracle vs analytic relative error",
              max(r["rel_err"] for r in report["levels"]), 5e-3 * (512.0 / grid.M) ** 2, "<="),
    ]
    return checks

