"""Independent finite-difference cross-check of the analytic solution.

Everything here is deliberately dumb: second-order central differences
on a uniform mesh with Dirichlet rows eliminated.  No module of the
analytic chain (secular roots, closed-form states, metric algebra) is
consulted to build or solve the operator, so agreement between the two
paths is evidence, not circularity.

The mesh (model.GridSpec) always contains x = 0 as a node (M even),
where the off-diagonal potential takes its average value 0.  That
single choice makes the discrete operator exactly pseudo-Hermitian
under the channel-swap / index-reversal matrix, at every grid size.
The step is model.PotentialSpec sampled at the nodes: the well is
written down once, in the model.

The operator is I (x) K + C (x) D: the three-point Laplacian K in each
channel plus the constant channel matrix C = [[0, iZ], [iY, 0]] times
the step D = diag(sgn(-x)).  `build_hamiltonian` stores just that: the
coupling, the grid and the bands of K and D; the dense matrix is
assembled only when `.matrix` is read.  For YZ > 0, C has the
eigenvalues +-ic, c = sqrt(YZ), with eigenvectors that do not depend
on x, so the problem splits exactly into the complex-symmetric
tridiagonal T = K + icD and its complex conjugate; for Y = Z = 0
(C = 0) into two copies of T = K, one per channel.  `eigenpairs` solves
T alone from the bands and rebuilds every doublet from it; the
reduction uses the 2x2 matrix C, never the closed form, so the oracle
stays independent.

T is constant on each half of the grid, so its eigenvalues are the
roots of a discrete secular polynomial that costs O(1) to evaluate at
any M, and each eigenvector is one sine per side (`_TwoRegionBlock`).
The roots are seeded on the real axis, polished by Newton, and
certified complete by an argument-principle count over a rectangle,
symmetric about the real axis, that holds the numerical range of T;
each eigenvector is checked by its O(M) residual.  This is the discrete
twin of k_L cot k_L + k_R cot k_R = 0, built from the finite-difference
recursion alone.  The dense eigensolve of the whole matrix (numpy's
LAPACK geev) remains for every other operator, for bands of another
form, for YZ < 0, for the Jordan case (exactly one of Y, Z nonzero) and
for a root set the count does not certify; it is the cross-check of
the reduction in the tests.

The structure checks live here, once, read off the bands: S H S =
H^dagger, which `eigenpairs` requires before either solve runs, and
[H, spin]; `verify` reports both.  Both solves end in one cut.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ModelDomainError, NumericalFailureError
from .model import BranchClass, CouplingPair, GridSpec, OperatorRep, PotentialSpec, RepBasis, as_index
from .secular import LevelSolution

DEGENERACY_RTOL = 1e-6
REAL_IM_MAX = 1e-6  # a criticality scan entry with max |Im E| up to this is real
PAIRING_RTOL = 1e-6
# largest dense fallback of a BandedHamiltonian: M <= 2048, 270 MB for the matrix alone
DENSE_MAX_DIM = 4096
# max |T u - E u| of a closed-form eigenvector, relative to a bound on ||T||
RESIDUAL_RTOL = 1e-10
# roots closer than this (relative to max(1, |E|)) are one root, and a
# root this close to the real axis is real
DISTINCT_RTOL = 1e-10
NEWTON_STEPS = 100
# samples in one zero count, a bound on its time and memory: the box is
# 2 (|gamma| + 1) tall, its left edge sampled every ~1.7, so couplings up
# to ~1.5e6 are solved
WINDING_POINTS = 1_000_000
SPLIT_DEPTH = 40
SPLIT_WINDINGS = 400
_EPS = sys.float_info.epsilon
_CHUNK = 65536  # energies per vectorised evaluation of P


@dataclass(frozen=True, eq=False)
class BandedHamiltonian:
    """I (x) K + C (x) diag(step) on a grid, stored as its bands.

    sub and diagonal are K's bands, step is d at the interior nodes, all
    read-only copies.  `.matrix` is the dense channel-blocked matrix
    (0..M-2 the upper channel, M-1..2M-3 the lower), assembled on first
    access, then cached and read-only.
    """

    coupling: CouplingPair
    grid: GridSpec
    sub: np.ndarray
    diagonal: np.ndarray
    step: np.ndarray
    basis = RepBasis.GRID
    is_form = False

    def __post_init__(self):
        m = self.grid.n_interior
        for name, size in (("sub", m - 1), ("diagonal", m), ("step", m)):
            band = np.array(getattr(self, name), dtype=float)
            if band.shape != (size,):
                raise ModelDomainError(f"{name} must have {size} entries, got {band.shape}")
            band.setflags(write=False)
            object.__setattr__(self, name, band)

    @property
    def dim(self) -> int:
        return 2 * self.grid.n_interior

    @property
    def meta(self) -> dict:
        return {"grid": self.grid, "coupling": self.coupling}

    @cached_property
    def matrix(self) -> np.ndarray:
        m = self.grid.n_interior
        # one allocation, only the eight nonzero diagonals written: dense
        # temporaries of the same size cost more than the solve itself
        matrix = np.zeros((2 * m, 2 * m), dtype=complex)
        nodes = np.arange(m)
        for start in (0, m):
            band = start + nodes
            matrix[band, band] = self.diagonal
            matrix[band[1:], band[:-1]] = self.sub
            matrix[band[:-1], band[1:]] = self.sub
        matrix[nodes, m + nodes] += 1j * self.coupling.Z * self.step
        matrix[m + nodes, nodes] += 1j * self.coupling.Y * self.step
        matrix.setflags(write=False)
        return matrix


def build_hamiltonian(coupling: CouplingPair, grid: GridSpec) -> BandedHamiltonian:
    """The 2(M-1)-dimensional coupled-well operator on the interior nodes.

    K is the three-point Laplacian; the step is the PotentialSpec
    coupling's sign pattern sampled at the nodes (0 at the midpoint
    node).  No dense matrix is built here.
    """
    m = grid.n_interior
    h2 = grid.h * grid.h
    return BandedHamiltonian(
        coupling,
        grid,
        sub=np.full(m - 1, -1.0 / h2),
        diagonal=np.full(m, 2.0 / h2),
        step=PotentialSpec(coupling).step(grid.interior_nodes),
    )


def discrete_theta(grid: GridSpec) -> OperatorRep:
    """Channel swap composed with spatial index reversal.

    Satisfies S H S = H^dagger entrywise for every coupling and grid;
    S is real, symmetric, and involutive.
    """
    m = grid.n_interior
    reversal = np.fliplr(np.eye(m))
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    return OperatorRep(
        matrix=np.kron(swap, reversal),
        basis=RepBasis.GRID,
        is_form=True,
        meta={"grid": grid},
    )


# The structure checks read the operator's bands: H = I (x) K + C (x) D
# has K's bands in both channel blocks, the cross-channel entries iZ d
# (upper right) and iY d (lower left), and nothing else.  Each value is
# the entrywise maximum the dense matrices give, bit for bit
# (tests/test_battery.py compares them with `.matrix`), in O(M).


def _swap_reflect_defect(rep: BandedHamiltonian) -> float:
    """max |S H S - H^dagger| for S = channel swap (x) index reversal R.

    S H S has the blocks R K R on the diagonal and R (iY d) R, R (iZ d) R
    off it, swapped; H^dagger has K and conj(iY d), conj(iZ d).
    """
    upper, lower = _cross_channel(rep)
    return float(max(
        np.abs(rep.sub[::-1] - rep.sub).max(),
        np.abs(rep.diagonal[::-1] - rep.diagonal).max(),
        np.abs(lower[::-1] - lower.conj()).max(),
        np.abs(upper[::-1] - upper.conj()).max(),
    ))


def _spin_commutator_max(rep: BandedHamiltonian) -> float:
    """max |H (spin (x) I) - (spin (x) I) H| for the 2x2 spin block.

    The spin block is off-diagonal, so K's entries cancel exactly and
    only the cross-channel entries remain, on the channel-diagonal
    blocks: iZ d omega_10 - omega_01 iY d and iY d omega_01 - omega_10 iZ d.
    """
    # the spin observable is the metric layer's, which nothing else
    # here imports: building and solving the operator stay independent
    from .metric import spin_operator

    omega = spin_operator(rep.coupling).matrix
    upper, lower = _cross_channel(rep)
    return float(max(
        np.abs(upper * omega[1, 0] - omega[0, 1] * lower).max(),
        np.abs(lower * omega[0, 1] - omega[1, 0] * upper).max(),
    ))


def _cross_channel(rep: BandedHamiltonian):
    """The upper-right and lower-left entries iZ d and iY d."""
    return 1j * rep.coupling.Z * rep.step, 1j * rep.coupling.Y * rep.step


def _entry_max(rep: BandedHamiltonian) -> float:
    """max |H_ij|."""
    upper, lower = _cross_channel(rep)
    return float(max(np.abs(band).max() for band in (rep.sub, rep.diagonal, upper, lower)))


def eigenpairs(rep: OperatorRep | BandedHamiltonian, k: int):
    """k eigenvalues of smallest real part with unit-norm right vectors.

    For a `BandedHamiltonian` with YZ > 0 or Y = Z = 0 only the
    tridiagonal block T = K + icD, taken from the stored bands, is
    solved; its `.matrix` is never built.  When the bands have the
    two-region form (K a constant Laplacian, D one +-1 step at x = 0)
    the eigenvalues of T are the roots of its discrete secular
    polynomial and each eigenvector is one sine per side (see
    `_TwoRegionBlock`).  Each eigenpair (E, v) of T gives the doublet
    (E, u+ (x) v) and (conj(E), u- (x) conj(v)), where u+- are the
    eigenvectors of the constant channel matrix (the two channels when
    it is 0).  Any other operator, bands of another form, YZ < 0,
    exactly one of Y, Z nonzero, and a root set the secular solve
    cannot certify take the dense eigensolve of the whole matrix; for a
    `BandedHamiltonian` of dimension above DENSE_MAX_DIM that fallback
    raises NumericalFailureError instead of building the matrix.

    A `BandedHamiltonian` whose bands break S H S = H^dagger, and complex
    eigenvalues that do not pair off one to one with their conjugates,
    raise NumericalFailureError.  Both solves return the same order: by
    real part, ties within PAIRING_RTOL by |Im| (real values first), each
    conjugate pair adjacent, negative imaginary part first; a quartet
    past the merger reads E, conj(E), E, conj(E) with Im E < 0.
    """
    k = as_index(k, f"k must be in 1..{rep.dim}", 1, rep.dim)
    if isinstance(rep, BandedHamiltonian):
        if _swap_reflect_defect(rep) != 0.0:
            raise NumericalFailureError(
                "S H S != H^dagger on the bands; discrete pseudo-Hermiticity violated"
            )
        if _reducible(rep.coupling):
            reduced = _reduced_eigenpairs(rep, k)
            if reduced is not None:
                return reduced
            if rep.dim > DENSE_MAX_DIM:
                raise NumericalFailureError(
                    f"the secular solve could not certify {k} eigenpairs at M = {rep.grid.M}, "
                    f"and the dense eigensolve is limited to dimension {DENSE_MAX_DIM}"
                )
    try:
        values, vectors = np.linalg.eig(rep.matrix)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hardware dependent
        raise NumericalFailureError(f"dense eigensolve failed: {exc}") from exc
    return _cut(values, vectors, k)


def _reducible(coupling: CouplingPair) -> bool:
    """C is diagonalisable with x-independent eigenvectors: YZ > 0, or
    C = 0.  With exactly one of Y, Z nonzero it is a Jordan block."""
    return coupling.branch is not BranchClass.NEGATIVE_PRODUCT and not coupling.non_diagonalizable


def _cut(values: np.ndarray, vectors: np.ndarray, k: int):
    """The k eigenpairs `eigenpairs` returns, from either solve.

    A value is complex when |Im E| > PAIRING_RTOL max(1, |E|), and is
    paired one to one with a value that close to its conjugate, else the
    solve fails.  Real values and pairs are sorted by real part, a tie
    (`_tie_groups`) by |Im|, each pair negative imaginary part first.
    """
    listed = values.tolist()
    tol = [PAIRING_RTOL * max(1.0, abs(v)) for v in listed]
    units = [[i] for i, v in enumerate(listed) if abs(v.imag) <= tol[i]]
    lower = [i for i, v in enumerate(listed) if v.imag < -tol[i]]
    unpaired = []
    for i, v in enumerate(listed):
        if v.imag > tol[i]:
            distance = [abs(listed[j] - v.conjugate()) for j in lower]
            if lower and min(distance) <= tol[i]:
                units.append([lower.pop(distance.index(min(distance))), i])
            else:
                unpaired.append(i)
    if unpaired or lower:
        raise NumericalFailureError(
            f"eigenvalue {listed[(unpaired + lower)[0]]} has no conjugate partner; "
            "pseudo-Hermitian pairing violated"
        )
    units.sort(key=lambda unit: listed[unit[0]].real)
    leading = [listed[unit[0]] for unit in units]
    group = _tie_groups([v.real for v in leading])
    order = sorted(range(len(units)), key=lambda j: (group[j], abs(leading[j].imag)))
    chosen = [i for j in order for i in units[j]][:k]
    return values[chosen], vectors[:, chosen]


def _tie_groups(real_parts: list) -> list:
    """Group numbers of ascending real parts: one within PAIRING_RTOL
    (relative to max(1, |Re E|)) of the one before is in its group."""
    group = [0]
    for a, b in zip(real_parts, real_parts[1:]):
        group.append(group[-1] + (b - a > PAIRING_RTOL * max(1.0, abs(a))))
    return group


def _reduced_eigenpairs(rep: BandedHamiltonian, k: int):
    """Lowest k eigenpairs of the full operator from T = K + icD alone.

    Returns None when the bands are not of the two-region form or the
    secular solve cannot certify its root set, which sends the caller
    to the dense eigensolve.
    """
    coupling, sub, diagonal, step = rep.coupling, rep.sub, rep.diagonal, rep.step
    c = coupling.root_product
    block = _TwoRegionBlock.from_bands(sub, diagonal, step, c)
    if block is None:
        return None
    needed = (k + 1) // 2  # each root of T is two eigenvalues
    values = block.lowest_roots(needed)
    if values is None:
        return None
    edge, _ = _gap_after(values.real, needed)
    if edge is not None:
        values = values[values.real < edge]  # ties kept whole
    vectors = block.eigenvectors(values)
    residual = (diagonal + 1j * c * step)[:, None] * vectors - values * vectors
    residual[:-1] += sub[:, None] * vectors[1:]
    residual[1:] += sub[:, None] * vectors[:-1]
    if np.abs(residual).max() > RESIDUAL_RTOL * block.norm_bound:
        return None
    # eigenvectors (upper, lower) of C for +ic and -ic; for C = 0 the two channels
    if c:
        norm = math.hypot(coupling.Z, c)
        u_plus, u_minus = (coupling.Z / norm, c / norm), (coupling.Z / norm, -c / norm)
    else:
        u_plus, u_minus = (1.0, 0.0), (0.0, 1.0)
    conj = vectors.conj()
    doublets = np.vstack([
        np.hstack([u_plus[0] * vectors, u_minus[0] * conj]),
        np.hstack([u_plus[1] * vectors, u_minus[1] * conj]),
    ])
    return _cut(np.concatenate([values, values.conj()]), doublets, k)


@dataclass(frozen=True)
class _TwoRegionBlock:
    """T = d0 + s (shift) + i gamma D0 on 2m - 1 nodes, s < 0, with
    D0 = +1 on the m - 1 left nodes, 0 at the centre, -1 on the right.

    On each side T u = E u is the constant-coefficient recursion
    u_{j-1} + u_{j+1} = 2 cos(theta) u_j with
    sin^2(theta_{L,R} / 2) = (E - floor -+ i gamma) / width, floor = d0 + 2s
    and width = -4s (for the Laplacian, cos(theta) = 1 - h^2 (E -+ ic) / 2).
    The Dirichlet ends leave u_j = A sin(j theta_L) on the left and
    B sin((2m - j) theta_R) on the right, and matching both at the centre
    node gives the secular polynomial

        P(E) = cos(m theta_L) U(theta_R) + cos(m theta_R) U(theta_L),
        U(theta) = sin(m theta) / sin(theta),

    which is det(E - T) up to a constant factor, even in each theta,
    and real on real E.  Its roots are found in O(1) per evaluation at
    any m: bracketed Newton from the sign changes of P on a real grid,
    complex Newton from the dips of |P| that do not change sign and,
    far past the merger, from the levels of one half of the well
    shifted by +-i gamma; an argument-principle count of the zeros in a
    rectangle that holds the numerical range is the certificate that
    none is missing.  On a mismatch, deflated Newton from the dips of |P|
    on the rectangle's mid-line and subdivision by the same count find
    every root.  P and its slope are evaluated scaled by
    exp(-|Im m theta_L| - |Im m theta_R|), a positive factor that keeps
    the signs and phases and never overflows.
    """

    floor: float
    width: float
    gamma: float
    m: int

    @classmethod
    def from_bands(cls, sub, diagonal, step, c: float):
        """The block of sub, diagonal + i c step, or None when the bands
        are not a constant Laplacian plus one +-1 step at the centre."""
        m = (diagonal.size + 1) // 2
        s, d0 = float(sub[0]), float(diagonal[0])
        if not (s < 0.0 and np.all(sub == s) and np.all(diagonal == d0)):
            return None
        side = float(step[0]) if c else 0.0
        if c and not (
            abs(side) == 1.0
            and np.all(step[: m - 1] == side)
            and step[m - 1] == 0.0
            and np.all(step[m:] == -side)
        ):
            return None
        return cls(floor=d0 + 2.0 * s, width=-4.0 * s, gamma=c * side, m=m)

    @property
    def norm_bound(self) -> float:
        """|d0| + 2|s| + |gamma| >= ||T||."""
        return abs(self.floor + self.width / 2) + self.width / 2 + abs(self.gamma)

    # -- P and its slope --------------------------------------------------

    def secular(self, energies: np.ndarray) -> np.ndarray:
        """Scaled P at complex energies."""
        if energies.size > _CHUNK:  # bound the temporaries
            return np.concatenate(
                [self.secular(energies[i : i + _CHUNK]) for i in range(0, energies.size, _CHUNK)]
            )
        (cos_l, ratio_l), (cos_r, ratio_r) = (self._side(energies, sign) for sign in (-1.0, 1.0))
        return cos_l * ratio_r + cos_r * ratio_l

    def secular_real(self, energies: np.ndarray) -> np.ndarray:
        """Scaled P at real energies, where the right side is the
        conjugate of the left: P = 2 Re(cos(m theta_L) conj U(theta_L))."""
        cos_l, ratio_l = self._side(energies, -1.0)
        return 2.0 * (cos_l * ratio_l.conj()).real

    def _theta(self, energies, sign):
        """theta on one side, cos(m theta) and sin(m theta) scaled by
        exp(-|Im m theta|), and sin(theta), at an array of energies."""
        z = (energies - self.floor + sign * 1j * self.gamma) / self.width
        theta = 2.0 * np.arcsin(np.sqrt(z))
        cos_m, sin_m = _scaled_cos_sin(self.m * theta.real, self.m * theta.imag)
        # sin(theta) from theta itself: on the branch cuts of arcsin a
        # closed form in z could take the other side
        return theta, cos_m, sin_m, np.sin(theta)

    def _side(self, energies, sign):
        """cos(m theta) and U(theta) on one side, scaled by
        exp(-|Im m theta|).  At theta = 0 or pi (E at an end of K's
        band, gamma = 0), which no grid or count samples, U is NaN."""
        _, cos_m, sin_m, sin_t = self._theta(energies, sign)
        if not sin_t.all():
            sin_t = np.where(sin_t == 0, np.nan, sin_t)
        return cos_m, sin_m / sin_t

    def _scalar_side(self, energy: complex, sign: float):
        """cos(m theta), U(theta) and their E-derivatives, scaled as in
        `_side`; dtheta/dE = 2 / (width sin(theta))."""
        z = (energy - self.floor + sign * 1j * self.gamma) / self.width
        theta = 2.0 * cmath.asin(cmath.sqrt(z))
        phase = self.m * theta
        turn = cmath.exp(1j * phase.real)
        fore = turn * math.exp(-phase.imag - abs(phase.imag))
        back = turn.conjugate() * math.exp(phase.imag - abs(phase.imag))
        cos_m, sin_m = (fore + back) / 2, (fore - back) / 2j
        sin_t = cmath.sin(theta)
        if sin_t == 0:  # theta = 0 or pi, as in `_side`
            return cos_m, math.nan, math.nan, math.nan
        kappa = 2.0 / self.width
        ratio = sin_m / sin_t
        slope = kappa * (self.m * cos_m - ratio * (1.0 - 2.0 * z)) / (sin_t * sin_t)
        return cos_m, ratio, -self.m * kappa * ratio, slope

    def _value_slope(self, energy: complex):
        cos_l, ratio_l, dcos_l, dratio_l = self._scalar_side(energy, -1.0)
        cos_r, ratio_r, dcos_r, dratio_r = self._scalar_side(energy, 1.0)
        return (
            cos_l * ratio_r + cos_r * ratio_l,
            dcos_l * ratio_r + cos_l * dratio_r + dcos_r * ratio_l + cos_r * dratio_l,
        )

    def _value_slope_real(self, energy: float):
        cos_l, ratio_l, dcos_l, dratio_l = self._scalar_side(energy, -1.0)
        return (
            2.0 * (cos_l * ratio_l.conjugate()).real,
            2.0 * (dcos_l * ratio_l.conjugate() + cos_l * dratio_l.conjugate()).real,
        )

    # -- roots ------------------------------------------------------------

    def _bracketed_root(self, lo: float, hi: float, p_lo: float, p_hi: float) -> float | None:
        """The root of P in [lo, hi], where P changes sign from p_lo to
        p_hi: Newton from the secant point, bisecting whenever a step
        leaves the bracket."""
        low_negative = p_lo < 0
        x = lo - p_lo * (hi - lo) / (p_hi - p_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        for _ in range(NEWTON_STEPS):
            p, dp = self._value_slope_real(x)
            if p == 0.0:
                return x
            if (p < 0) == low_negative:
                lo = x
            else:
                hi = x
            step = p / dp if dp else math.inf
            if abs(step) <= 2 * _EPS * max(1.0, abs(x)):
                return x - step
            x -= step
            if not lo < x < hi:
                x = 0.5 * (lo + hi)
                if hi - lo <= 2 * _EPS * max(1.0, abs(x)):
                    return x
        return None

    def _newton(self, z: complex, known) -> complex | None:
        """A root of P from z by Newton on P / prod(E - r) over the
        known roots r, so that it does not return to one of them."""
        for _ in range(NEWTON_STEPS):
            p, dp = self._value_slope(z)
            if p == 0:
                break
            inverse = dp / p - sum(1.0 / (z - r) for r in known)
            if inverse == 0 or not cmath.isfinite(inverse):
                return None
            step = 1.0 / inverse
            z -= step
            if abs(z) > 2 * self.norm_bound:  # past every eigenvalue of T
                return None
            if abs(step) <= 4 * _EPS * max(1.0, abs(z)):
                break
        else:
            return None
        if abs(z.imag) <= DISTINCT_RTOL * max(1.0, abs(z)):
            return complex(z.real, 0.0)
        return z

    def _axis_roots(self, phi_top: float):
        """Roots seeded from P on a real grid, up to the grid energy
        floor + width sin^2(phi_top / 2); distinct, by real part."""
        m = self.m
        # uniform in theta, 8 samples per spacing of the decoupled levels,
        # from below the lowest real part a root of T can have
        phi = np.arange(math.pi / (4 * m), phi_top, math.pi / (16 * m))
        grid = self.floor + self.width * np.sin(phi / 2) ** 2
        p = self.secular_real(grid)
        sign = np.sign(p)
        roots = [complex(e) for e in grid[p == 0]]
        changes = np.flatnonzero(sign[:-1] * sign[1:] < 0)
        dips = np.flatnonzero(
            (np.abs(p[1:-1]) < np.abs(p[:-2])) & (np.abs(p[1:-1]) < np.abs(p[2:]))
            & (sign[:-2] == sign[1:-1]) & (sign[1:-1] == sign[2:])
        ) + 1
        grid, p = grid.tolist(), p.tolist()
        brackets = [(grid[i], grid[i + 1], p[i], p[i + 1]) for i in changes.tolist()]
        seeds = []
        for i in dips.tolist():
            # a close real pair or a complex pair near the axis: fit a
            # parabola, and split the cell at its vertex if P changes
            # sign there
            (x0, x1, x2), (p0, p1, p2) = grid[i - 1 : i + 2], p[i - 1 : i + 2]
            slope01, slope12 = (p1 - p0) / (x1 - x0), (p2 - p1) / (x2 - x1)
            curve = (slope12 - slope01) / (x2 - x0)
            vertex = 0.5 * (x0 + x1) - 0.5 * slope01 / curve if curve else x1
            if not x0 < vertex < x2:
                vertex = x1
            p_vertex = self._value_slope_real(vertex)[0]
            if (p_vertex < 0) != (p1 < 0):
                brackets += [(x0, vertex, p0, p_vertex), (vertex, x2, p_vertex, p2)]
            else:
                depth = p0 + slope01 * (vertex - x0) + curve * (vertex - x0) * (vertex - x1)
                seeds.append(complex(vertex, math.sqrt(abs(depth / curve)) if curve else x2 - x0))
        for bracket in brackets:
            root = self._bracketed_root(*bracket)
            if root is None:
                return None
            roots.append(complex(root, 0.0))
        for seed in seeds:
            root = self._newton(seed, roots)
            if root is not None:
                roots += [root, root.conjugate()] if root.imag else [root]
        return _distinct(roots)

    def lowest_roots(self, needed: int) -> np.ndarray | None:
        """Every root of P with real part below a gap past the `needed`
        lowest, certified by the zero count; None when that fails."""
        m = self.m
        phi_max = math.pi - math.pi / (4 * m)
        levels = needed + 2
        while True:
            phi_top = min(levels * math.pi / (2 * m), phi_max)
            roots = self._axis_roots(phi_top)
            if roots is None:
                return None
            if self.gamma and roots.size <= needed:
                # the real grid misses the pairs far from the axis
                top = self.floor + self.width * math.sin(phi_top / 2) ** 2
                roots = _distinct(self._shifted_levels(top, list(roots)))
            edge, gap = _gap_after(roots.real, needed)
            if edge is not None:
                break
            if phi_top == phi_max:
                edge, gap = self.floor + self.width + 1.0, 2.0
                break
            levels *= 2
        # every root lies in the numerical range, |Im E| <= |gamma| and
        # Re E >= floor + width sin^2(pi / 2M), K's lowest eigenvalue; the
        # box keeps 1 clear of it on three sides and gap / 2 on the fourth
        reach = abs(self.gamma) + 1.0
        clear = 1.0 + self.width * math.sin(math.pi / (4 * self.m)) ** 2
        box = (self.floor - 1.0, edge, reach)
        count = self._winding(box, (gap / 4, 0.5, clear / 2))
        if count is None:
            return None
        roots = roots[roots.real < edge]
        if count == roots.size:
            return roots
        return self._complete(box, count, roots)

    def _shifted_levels(self, top: float, found: list) -> list:
        """found, with the roots that deflated Newton reaches from the
        levels of one half of the well below `top`, shifted by +i|gamma|,
        and their conjugates.  Far past the merger the roots sit there:
        once Im m theta_R is large, P = 0 reads tan(m theta_L) ~ 0."""
        for j in range(1, self.m):
            level = self.floor + self.width * math.sin(j * math.pi / (2 * self.m)) ** 2
            if level > top:
                break
            root = self._newton(complex(level, abs(self.gamma)), found)
            if root is not None and _is_new(root, found):
                found += [root, root.conjugate()] if root.imag else [root]
        return found

    def _complete(self, box, count: int, known: np.ndarray) -> np.ndarray | None:
        """All `count` roots in box, from the known ones: boxes whose count
        exceeds their known roots get a deflated Newton from their
        mid-line (`_mid_line_seeds`), and are split in two across the real
        direction, each half counted, until none is missing."""
        found = self._shifted_levels(box[1], list(known)) if self.gamma else list(known)
        up = min(0.5, box[2] / 8)
        pending = [(box, count, 0)]
        windings = 0
        while pending:
            part, count, depth = pending.pop()
            missing = count - sum(_inside(part, r) for r in found)
            if missing < 0:
                return None
            if missing == 0:
                continue
            for seed in self._mid_line_seeds(part, up):
                root = self._newton(seed, found)
                if root is not None and _inside(part, root) and _is_new(root, found):
                    break
            else:
                root = None
            if root is not None:
                found += [root, root.conjugate()] if root.imag else [root]
                pending.append((part, count, depth))
                continue
            if depth == SPLIT_DEPTH or windings >= SPLIT_WINDINGS:
                return None
            halves = _split(part, found)
            counts = [
                self._winding(half, (up, min(0.5, (half[1] - half[0]) / 16), up)) for half in halves
            ]
            windings += 2
            if None in counts or sum(counts) != count:
                return None
            pending += [(half, n, depth + 1) for half, n in zip(halves, counts)]
        return _distinct([r for r in found if _inside(box, r)])

    def _mid_line_seeds(self, box, step: float):
        """Newton starts on the vertical mid-line of box (the halves of a
        split keep the full height): mid-height and |gamma|, where the
        pairs far past the merger sit, then the local minima of |P|
        sampled `step` apart on the upper half (|P| is even in Im E)."""
        re0, re1, reach = box
        mid = 0.5 * (re0 + re1)
        yield complex(mid, 0.5 * reach)
        yield complex(mid, reach - 1.0)
        heights = np.linspace(0.0, reach, math.ceil(reach / step) + 1)
        size = np.abs(self.secular(mid + 1j * heights))
        dips = np.flatnonzero((size[1:-1] < size[:-2]) & (size[1:-1] < size[2:])) + 1
        for height in heights[dips].tolist():
            yield complex(mid, height)

    def _winding(self, box, steps) -> int | None:
        """Zeros of P in the box re0 <= Re E <= re1, |Im E| <= reach, by the
        argument principle.  P(conj E) = conj P(E), so only the upper half
        of the boundary is walked (the lower half turns the phase as much):
        up the right edge, along the top, down the left edge, at most
        `steps` apart per edge, each step at most half the distance from
        its edge to the nearest root, refined until no two neighbours
        differ by more than pi / 4.  None if P vanishes on the boundary
        or the phase is not resolved within WINDING_POINTS samples."""
        re0, re1, reach = box
        corners = [complex(re1, 0.0), complex(re1, reach), complex(re0, reach), complex(re0, 0.0)]
        counts = [max(4, math.ceil(abs(b - a) / step)) for a, b, step in zip(corners, corners[1:], steps)]
        if sum(counts) > WINDING_POINTS:
            return None
        points = np.concatenate(
            [a + (b - a) * np.arange(n) / n for a, b, n in zip(corners, corners[1:], counts)]
            + [corners[-1:]]
        )
        values = self.secular(points)
        while True:
            if not np.all(np.isfinite(values)) or np.any(values == 0):
                return None
            turn = np.angle(values[1:] / values[:-1])
            coarse = np.flatnonzero(np.abs(turn) > math.pi / 4)
            if coarse.size == 0:
                total = turn.sum() / math.pi
                count = round(total)
                return count if abs(total - count) < 0.1 else None
            if points.size + coarse.size > WINDING_POINTS:
                return None
            middle = 0.5 * (points[coarse] + points[coarse + 1])
            points = np.insert(points, coarse + 1, middle)
            values = np.insert(values, coarse + 1, self.secular(middle))

    # -- eigenvectors -----------------------------------------------------

    def eigenvectors(self, roots: np.ndarray) -> np.ndarray:
        """Unit eigenvectors of T, one column per root: A sin(j theta_L)
        on the left, B sin((2m - j) theta_R) on the right.  (A, B) comes
        from the better-conditioned row of the centre matching, since
        sin(m theta) -> 0 for the odd modes as gamma -> 0."""
        m = self.m
        j = np.arange(1.0, m + 1)[:, None]
        sides = []
        for sign in (-1.0, 1.0):
            theta, cos_m, sin_m, sin_t = self._theta(roots, sign)
            x, y = theta.real, theta.imag
            # sin(j theta) = sin(jx) cosh(jy) + i cos(jx) sinh(jy), j = 1..m,
            # scaled by exp(-m |y|)
            grow, fade = np.exp((j - m) * abs(y)), np.exp(-(j + m) * abs(y))
            profile = np.sin(j * x) * (grow + fade) / 2 + 1j * (
                np.copysign((grow - fade) / 2, y) * np.cos(j * x)
            )
            sides.append((profile, cos_m, sin_m, sin_t))
        (left, cos_l, sin_l, sin_tl), (right, cos_r, sin_r, sin_tr) = sides
        # continuity A sin(m theta_L) = B sin(m theta_R), or the centre
        # row A sin(theta_L) cos(m theta_L) + B sin(theta_R) cos(m theta_R) = 0
        continuity = np.maximum(abs(sin_l), abs(sin_r)) >= np.maximum(abs(cos_l), abs(cos_r))
        a = np.where(continuity, sin_r, sin_tr * cos_r)
        b = np.where(continuity, sin_l, -sin_tl * cos_l)
        vectors = np.concatenate([a * left, b * right[-2::-1]])
        return vectors / np.linalg.norm(vectors, axis=0)


def _scaled_cos_sin(x, y):
    """cos(x + iy) and sin(x + iy), both scaled by exp(-|y|)."""
    turn = np.exp(1j * x)
    fore = turn * np.exp(-y - np.abs(y))  # exp(i (x + iy)) exp(-|y|)
    back = turn.conj() * np.exp(y - np.abs(y))  # exp(-i (x + iy)) exp(-|y|)
    return (fore + back) / 2, (fore - back) / 2j


def _distinct(roots) -> np.ndarray:
    """roots without near-repeats, sorted by real then imaginary part."""
    kept = []
    for r in sorted(roots, key=lambda z: (z.real, z.imag)):
        if _is_new(r, kept):
            kept.append(r)
    return np.array(kept, dtype=complex)


def _is_new(root: complex, roots) -> bool:
    return all(abs(root - r) > DISTINCT_RTOL * max(1.0, abs(r)) for r in roots)


def _gap_after(real_parts: np.ndarray, needed: int):
    """(midpoint, width) of the first gap between ascending real parts
    after the `needed` lowest that is not a tie of the cut, or
    (None, None) when there is none."""
    group = _tie_groups(real_parts.tolist())
    if needed > len(group) or group[needed - 1] == group[-1]:
        return None, None
    i = group.index(group[needed - 1] + 1) - 1
    return 0.5 * (real_parts[i] + real_parts[i + 1]), real_parts[i + 1] - real_parts[i]


def _inside(box, z: complex) -> bool:
    re0, re1, reach = box
    return re0 <= z.real <= re1 and abs(z.imag) <= reach


def _split(box, roots):
    """Two halves of box, cut across the real direction off-centre so
    that the cut misses every known root."""
    re0, re1, reach = box
    for fraction in (0.5173, 0.4679, 0.5591):
        cut = re0 + fraction * (re1 - re0)
        if all(abs(r.real - cut) > 1e-6 * (re1 - re0) for r in roots):
            break
    return (re0, cut, reach), (cut, re1, reach)


def group_degenerate(values: np.ndarray):
    """Cluster eigenvalues whose gaps are below DEGENERACY_RTOL * max(1, |E|).

    Returns a list of (mean value, multiplicity) in ascending real part.
    """
    if values.size == 0:
        return []
    order = np.lexsort((values.imag, values.real))
    values = values[order]
    clusters = [[values[0]]]
    for v in values[1:]:
        anchor = clusters[-1][-1]
        if abs(v - anchor) <= DEGENERACY_RTOL * max(1.0, abs(anchor)):
            clusters[-1].append(v)
        else:
            clusters.append([v])
    return [(complex(np.mean(c)), len(c)) for c in clusters]


def compare_spectrum(
    analytic: Sequence[LevelSolution],
    eigenvalues: np.ndarray,
    k: int,
    coarse_eigenvalues: np.ndarray | None = None,
) -> dict:
    """Per-level error report of the oracle against the analytic levels.

    Eigenvalues are clustered into degenerate groups first; each analytic
    level is matched against one cluster.  With a second, coarser
    eigenvalue set (half the intervals) the report adds Richardson
    convergence orders, expected near 2 for the central-difference rule.
    """
    if len(analytic) < k:
        raise ModelDomainError(f"need at least {k} analytic levels, got {len(analytic)}")
    clusters = group_degenerate(np.asarray(eigenvalues))
    if len(clusters) < k:
        raise ModelDomainError(
            f"only {len(clusters)} degenerate clusters in the numeric spectrum, need {k}"
        )
    rows = []
    degeneracy_ok = True
    for i in range(k):
        level = analytic[i]
        value, multiplicity = clusters[i]
        if multiplicity != 2:
            degeneracy_ok = False
        abs_err = abs(value.real - level.E)
        rows.append(
            {
                "n": level.n,
                "E_analytic": level.E,
                "E_numeric": value.real,
                "im_numeric": value.imag,
                "multiplicity": multiplicity,
                "abs_err": abs_err,
                "rel_err": abs_err / max(1.0, abs(level.E)),
            }
        )
    report = {"levels": rows, "degeneracy_ok": degeneracy_ok}
    if coarse_eigenvalues is not None:
        coarse = group_degenerate(np.asarray(coarse_eigenvalues))
        if len(coarse) < k:
            raise ModelDomainError("coarse spectrum has too few clusters")
        orders = []
        for i in range(k):
            err_fine = rows[i]["abs_err"]
            err_coarse = abs(coarse[i][0].real - analytic[i].E)
            if err_fine == 0.0 or err_coarse == 0.0:
                orders.append(float("nan"))
            else:
                orders.append(math.log2(err_coarse / err_fine))
        report["richardson_orders"] = orders
    return report


def criticality_scan(c_values: Sequence[float], grid: GridSpec):
    """Max |Im E| of the four lowest eigenvalues for each coupling value.

    c is sqrt(YZ), applied as Y = Z = c.  Below the critical coupling the
    imaginary parts are exactly 0 on the secular path (rounding noise if
    the dense fallback runs); past it the lowest quartet carries an O(1)
    imaginary part.  c_values must be strictly increasing.
    """
    c_values = [float(c) for c in c_values]
    if any(c < 0 for c in c_values):
        raise ModelDomainError("coupling values must be >= 0")
    if any(b <= a for a, b in zip(c_values, c_values[1:])):
        raise ModelDomainError("coupling values must be strictly increasing")
    out = []
    for c in c_values:
        rep = build_hamiltonian(CouplingPair(c, c), grid)
        values, _ = eigenpairs(rep, 4)
        out.append((c, float(np.max(np.abs(values.imag)))))
    return out


def first_complex_bracket(scan):
    """Bracket (last real c, first complex c) from a criticality scan."""
    last_real = None
    for c, im in scan:
        if im <= REAL_IM_MAX:
            last_real = c
        elif last_real is not None:
            return (last_real, c)
    raise ModelDomainError(
        "scan does not bracket the reality transition; widen the coupling range"
    )


def subspace_alignment(basis_vectors: np.ndarray, target: np.ndarray) -> float:
    """Cosine of the angle between target and span(basis_vectors).

    Used to match an analytic doublet state against the two numerically
    split eigenvectors of a degenerate pair, independent of the
    eigensolver's arbitrary mixing and phases.
    """
    basis_vectors = np.atleast_2d(np.asarray(basis_vectors, dtype=complex))
    if basis_vectors.shape[0] < basis_vectors.shape[1]:
        basis_vectors = basis_vectors.T
    q, _ = np.linalg.qr(basis_vectors)
    target = np.asarray(target, dtype=complex)
    norm = np.linalg.norm(target)
    if norm == 0.0:
        raise ModelDomainError("target vector is zero")
    return float(np.linalg.norm(q.conj().T @ target) / norm)
