"""The invariant battery: `verify` checks the model's claims at one
coupling, against the closed form and the finite-difference oracle, and
returns one `Check` record per invariant.  The CLI's `verify` subcommand
only formats these records.

Every row is computed in plain floats, so `verify` loads no numpy: the
mode form diag(S d^2), its weight contract and the identity and
quasi-Hermiticity defects from `_weights` (metric's bodies too), the
pairing from the d stored with each state and, off the diagonal, the
rank-2 segment integrals of metric.sine_product_integrals in cmath (one
sine and cosine per state, each pair once), the band checks from the
coupling and the grid, and the oracle's levels from `oracle.eigenvalues`,
compared by `compare_spectrum` (the `oracle` report).  The pairing, the
band step and `eigenvalues` are float twins of numpy code, each with its
reason.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from ._weights import (identity_defect, inverse_coefficients, mode_defect, resolve_weights,
                       spin_ratio)
from .errors import ModelDomainError
from .model import BranchClass, CouplingPair, GridSpec
from .oracle import _spin_commutator_max, _swap_reflect_defect, compare_spectrum, eigenvalues
from .secular import perturbative_eps
from .wavefunctions import (NEAR_WAVENUMBERS, channel_weights, doublet_family, matching_residual,
                            parity_overlap, sine_product_integral)

# The perturbation row compares |eps - eps_1| with |eps - eps_2|.  The
# solved eps lies within ~5 ulp of its 40-digit root and each series value
# rounds by ~2 ulp (c in [1e-6, 1.5], n < 60), so an error |eps - eps_1| of
# at most this many ulp of eps reads rounding, not the series: the row is
# left out there (at c = 1e-6 it is 0.0 at n = 12, 18, 20, ...).
RATIO_FLOOR_ULPS = 16


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


def verify(coupling: CouplingPair, n_levels: int, grid: GridSpec) -> list[Check]:
    """Run the battery on levels 0..n_levels-1 and the oracle on `grid`.

    Raises ModelDomainError unless YZ > 0 (the battery exercises the
    coupled degenerate branch) or when sqrt(Y/Z) or sqrt(Z/Y) leaves the
    float range, MetricConstraintError where build_theta_metric refuses
    the family, and RootLostError at or above the critical coupling of a
    requested pair.  The perturbation ratio is checked at the top level
    for 3 or more levels and sqrt(YZ) <= 1.5, where |eps - eps_1| exceeds
    RATIO_FLOOR_ULPS ulp of eps.
    """
    if coupling.branch is not BranchClass.POSITIVE_PRODUCT:
        raise ModelDomainError("verify exercises the coupled degenerate branch and needs YZ > 0")
    states = doublet_family(coupling, n_levels)
    # build_theta_metric's mode form, first, so that the family's refusal below
    # MIN_ROOT_PRODUCT comes before the perturbation ratio
    family = resolve_weights(states, None, False)
    form = family.mode_form()
    levels = [s.level for s in states[::2]]
    c = coupling.root_product

    checks = [
        Check("secular residual max", max(l.residual for l in levels), 1e-12, "<="),
        Check("wavenumber constraint |2st - sqrt(YZ)| max",
              max(abs(2 * l.s * l.t - c) for l in levels), 1e-10, "<="),
    ]
    if n_levels >= 3 and c <= 1.5:
        # monotone convergence of the small-coupling series at the top level
        top = levels[-1]
        err2 = abs(top.eps - perturbative_eps(top.n, coupling, order=2))
        err1 = abs(top.eps - perturbative_eps(top.n, coupling, order=1))
        if err1 > RATIO_FLOOR_ULPS * math.ulp(top.eps):
            checks.append(Check("perturbation order-2/order-1 error ratio", err2 / err1, 1.0, "<="))
    # sqrt(Z/Y); refused where the spin block leaves the float range
    ratio = spin_ratio(coupling)
    checks += [
        Check("matching residual max", max(matching_residual(s) for s in states), 1e-12, "<="),
        Check("coefficient ratio |A/B - sigma sqrt(Z/Y)| / sqrt(Z/Y) max",
              max(abs(s.A / s.B - s.sigma * ratio) for s in states) / ratio, 1e-10, "<="),
        Check("parity overlap alternation min (-1)^n p_n",
              min((-1) ** s.level.n * parity_overlap(s) for s in states), 0.0, ">"),
    ]

    # the pairing G: diagonal d; its opposite-sigma blocks are exact zeros and
    # its sigma = -1 block is the sigma = +1 one, q_i (wl wu + wu wl) integral
    # phi_i phi_j, where |q_i| = 1, and symmetric, so the row reads the
    # sigma = +1 pairs i < j: the float twin of metric._doublet_pairing, which
    # says why both stay
    wu, wl = channel_weights(+1, coupling.Y, coupling.Z)
    off = (wl * wu + wu * wl) * _off_diagonal_max(states[0::2])
    energies, spins = [s.level.E for s in states], [float(s.sigma) for s in states]
    checks += [
        Check("biorthogonal diagonal min", min(family.d), 0.0, ">"),
        Check("biorthogonal off-diagonal / max diagonal", off / max(family.d), 1e-9, "<="),
        # the form is real and diagonal, so these read the diagonal alone
        Check("metric Hermiticity defect", max(abs(f - f.conjugate()) for f in form), 0.0, "<="),
        Check("metric minimal eigenvalue", min(form), 0.0, ">"),
        Check("quasi-Hermiticity defect (Hamiltonian)", mode_defect(energies, form), 1e-8, "<="),
        Check("quasi-Hermiticity defect (spin observable)", mode_defect(spins, form), 1e-8, "<="),
        Check("inverse metric identity defect",
              identity_defect(inverse_coefficients(states, family), family.form), 1e-8, "<="),
    ]

    checks += [
        Check("discrete swap-reflect pseudo-Hermiticity defect",
              _swap_reflect_defect(coupling, grid), 0.0, "<="),
        Check("discrete commutator [H, spin] max",  # terms +-sqrt(YZ) d, cancelling
              _spin_commutator_max(coupling), 1e-14 * c, "<="),
    ]
    values = eigenvalues(coupling, grid, min(4, 2 * n_levels))
    report = compare_spectrum(levels, values, min(2, n_levels))
    checks += [
        Check("oracle lowest eigenvalues |Im| max", max(abs(v.imag) for v in values), 1e-6, "<="),
        Check("oracle vs analytic relative error",
              max(r["rel_err"] for r in report["levels"]), 5e-3 * (512.0 / grid.M) ** 2, "<="),
    ]
    return checks


def _off_diagonal_max(plus) -> float:
    """max over i != j of |integral phi_i phi_j| for the sigma = +1 states,
    entry by entry as metric._doublet_pairing takes it: the rank-2 form of
    sine_product_integrals with its operations in its order, and the
    scalar's difference form where |kappa_i - kappa_j| < NEAR_WAVENUMBERS.
    sin and cos are taken once per state, and each pair once: the rank-2
    entry is symmetric bit for bit, its numerator and denominator both
    changing sign with i <-> j.
    """
    kappa = [s.kappa for s in plus]
    coeff = [s.phi_coeff for s in plus]
    sines = [cmath.sin(k) for k in kappa]
    slopes = [k * cmath.cos(k) for k in kappa]
    largest = 0.0
    for j in range(1, len(plus)):
        kj, aj, sj, bj = kappa[j], coeff[j], sines[j], slopes[j]
        for ki, ai, si, bi in zip(kappa[:j], coeff, sines, slopes):
            diff = ki - kj
            if abs(diff) < NEAR_WAVENUMBERS:
                integral = sine_product_integral(ki, kj)
            else:
                integral = (si * bj - bi * sj) / (diff * (ki + kj))
            value = abs((ai * aj * integral).real)
            if value > largest:
                largest = value
    return 2.0 * largest
