"""Independent finite-difference cross-check of the analytic solution.

Everything here is deliberately dumb: second-order central differences
on a uniform mesh with Dirichlet rows eliminated.  No module of the
analytic chain (secular roots, closed-form states, metric algebra) is
consulted to build or solve the operator, so agreement between the two
paths is evidence, not circularity.

The mesh (model.GridSpec) always contains x = 0 as a node (M even), where the
off-diagonal potential takes its average value 0.  That single choice makes the
discrete operator exactly pseudo-Hermitian under the channel-swap /
index-reversal matrix, at every grid size.  The step sgn(-x) at the nodes
is written down once, as three runs, in `_step_runs`.

The operator is I (x) K + C (x) D: the three-point Laplacian K in each channel
plus the constant channel matrix C = [[0, iZ], [iY, 0]] times the step
D = diag(sgn(-x)).  `build_hamiltonian` stores just that, the coupling and the
grid: K's bands and the step are derived on first read, and the dense matrix
when `.matrix` is read.  The eigenvectors of C do not depend on x, so for an
eigenvalue lambda of C the problem splits into the tridiagonal
T = K + lambda D: lambda = ic, c = sqrt(YZ), for YZ > 0, the real sqrt(-YZ)
for YZ < 0, and 0 for YZ = 0 (C nilpotent: 0, or a Jordan block with exactly
one of Y, Z nonzero).  `eigenpairs` solves T alone, from the grid and lambda,
and rebuilds every doublet from it; the reduction uses the 2x2 matrix C, never
the closed form, so the oracle stays independent.

T is constant on each half of the grid, so its eigenvalues are the roots
of a discrete secular polynomial P, the twin of k_L cot k_L + k_R cot k_R = 0
from the recursion alone, which costs O(1) at any M (`_TwoRegionBlock`),
and each eigenvector is one sine per side; for lambda = i gamma the right
side at E is the conjugate of the left side at conj(E).  `eigenpairs` and
`eigenvalues`, the numpy-free solve that `verify`, the `oracle`
subcommand and `criticality_scan` read, run the same root search,
certified complete by an argument-principle count or raising
NumericalFailureError.  Each eigenpair is checked by its O(M) residual
against H, read off the bands' constants, or, in `eigenvalues`, each root
by that of T's eigenvector in O(1).  The dense eigensolve of `.matrix` is
the tests' cross-check.

The structure checks live here, once, computed in floats from the
coupling and the grid: S H S = H^dagger, which the construction makes
exact on every grid, and [H, spin]; `verify` reports both.  numpy is
imported only by the functions that build arrays.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

from ._bracket import newton_in_bracket
from ._ranges import _arange, _linspace
from .errors import ModelDomainError, NumericalFailureError
from .model import BranchClass, CouplingPair, GridSpec, RepBasis, as_index
from .secular import LevelSolution

if TYPE_CHECKING:
    import numpy as np

REAL_IM_MAX = 1e-6  # a criticality scan entry with max |Im E| up to this is real
# values closer than this (relative to max(1, |E|)) are one eigenvalue:
# the conjugate pairing, the order's ties and compare_spectrum's clusters
PAIRING_RTOL = 1e-6
# max |H x - E x| of an eigenvector built here, one sine per side of the
# grid from a root of T's secular polynomial, relative to a bound on ||H||
RESIDUAL_RTOL = 1e-10
# roots closer than this (relative to max(1, |E|)) are one root, and a
# root this close to the real axis is real
DISTINCT_RTOL = 1e-10
NEWTON_STEPS = 100  # steps of the complex Newton, which has no bracket to bisect
POLISH_STEPS = 6  # undeflated Newton steps that finish a complex root (at most 5 seen)
# samples in one zero count, a bound on its time and memory: the right
# edge of the box, |Im lambda| + margin tall, is sampled every gap / 4, gap
# the width of the gap at the cut, so couplings up to ~4.9e6 are solved
# for k <= 4 (~7.9e6 for k = 10, whose gap is wider)
WINDING_POINTS = 1_000_000
SPLIT_DEPTH = 40
SPLIT_WINDINGS = 400
_EPS = sys.float_info.epsilon


@dataclass(frozen=True, eq=False)
class BandedHamiltonian:
    """I (x) K + C (x) diag(step) on a grid: the coupling and the grid.

    sub and diagonal, K's bands, step, d at the interior nodes, and
    `.matrix`, the dense channel-blocked matrix (0..M-2 the upper channel,
    M-1..2M-3 the lower), are derived on first read, then cached and
    read-only; `eigenpairs` reads only the step, and only for YZ = 0.
    """

    coupling: CouplingPair
    grid: GridSpec
    basis = RepBasis.GRID
    is_form = False

    @cached_property
    def sub(self) -> np.ndarray:
        import numpy as np

        return _read_only(np.full(self.grid.n_interior - 1, -1.0 / (self.grid.h * self.grid.h)))

    @cached_property
    def diagonal(self) -> np.ndarray:
        import numpy as np

        return _read_only(np.full(self.grid.n_interior, 2.0 / (self.grid.h * self.grid.h)))

    @cached_property
    def step(self) -> np.ndarray:
        import numpy as np

        return _read_only(np.array(_node_steps(self.grid)))

    @property
    def dim(self) -> int:
        return 2 * self.grid.n_interior

    @cached_property
    def matrix(self) -> np.ndarray:
        import numpy as np

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
        return _read_only(matrix)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def build_hamiltonian(coupling: CouplingPair, grid: GridSpec) -> BandedHamiltonian:
    """The 2(M-1)-dimensional coupled-well operator on the interior nodes, in
    O(1): K the three-point Laplacian, the step sgn(-x) (`_step_runs`)
    at the nodes, 0 at the midpoint, so S H S = H^dagger by construction."""
    return BandedHamiltonian(coupling, grid)


# The structure checks, in floats from the coupling and the grid: H =
# I (x) K + C (x) D has K's constant bands in both channel blocks, the
# cross-channel entries iZ d (upper right) and iY d (lower left), d the
# step at the nodes, and nothing else.  Each value is the entrywise
# maximum the dense matrices give, bit for bit (tests/test_battery.py
# compares them with `.matrix`), in O(1).


def _step_runs(grid: GridSpec) -> tuple[tuple[float, int], ...]:
    """sgn(-x) at the interior nodes h (j - M/2), in node order, as runs (value, length)."""
    side = grid.M // 2 - 1
    return (1.0, side), (0.0, 1), (-1.0, side)


def _node_steps(grid: GridSpec) -> list[float]:
    """The step runs expanded, one float per interior node."""
    return sum(([value] * length for value, length in _step_runs(grid)), [])


def _swap_reflect_defect(coupling: CouplingPair, grid: GridSpec) -> float:
    """max |S H S - H^dagger| for S = channel swap (x) index reversal R.

    S H S has the blocks R K R on the diagonal and R (iY d) R, R (iZ d) R
    off it, swapped; H^dagger has K and conj(iY d), conj(iZ d).  K's bands
    are constant, so R K R = K exactly, and an entry a d of the step
    differs from its image by |i a d(-x) - conj(i a d(x))| = |a d(-x) + a d(x)|:
    each run of the step against each run of its reversal that it overlaps, O(1) in M.
    """
    spans, end = [], 0
    for value, length in _step_runs(grid):
        spans.append((value, end, end + length))
        end += length
    # the reversed step holds the run on [lo, hi) at [end - hi, end - lo)
    return max(abs(a * s + a * t) for a in (coupling.Y, coupling.Z)
               for s, lo, hi in spans for t, mirror_lo, mirror_hi in spans
               if max(lo, end - mirror_hi) < min(hi, end - mirror_lo))


def _spin_commutator_max(coupling: CouplingPair) -> float:
    """max |H (spin (x) I) - (spin (x) I) H| for the 2x2 spin block, on any grid.

    The spin block [[0, r], [1/r, 0]], r = sqrt(Z/Y), is off-diagonal, so
    K's entries cancel exactly and only the cross-channel entries remain,
    on the channel-diagonal blocks: iZ d / r - r iY d and iY d r - (1/r) iZ d.
    Every grid has the steps d = 1, 0 and -1; d = 0 gives 0, and d = -1
    the entries of d = 1 negated exactly, so d = 1 gives the maximum.
    """
    # the spin ratio is the metric layer's, which nothing else here
    # imports: building and solving the operator stay independent
    from ._weights import spin_ratio

    ratio = spin_ratio(coupling)
    inverse, Y, Z = 1.0 / ratio, coupling.Y, coupling.Z
    return max(abs(Z * inverse - ratio * Y), abs(Y * ratio - inverse * Z))


def _require_residual(size: float, coupling: CouplingPair, grid: GridSpec) -> None:
    """Refuse an eigenvector residual, NaN included, not within RESIDUAL_RTOL
    of a bound on ||H||: |2/h^2| + 2 |-1/h^2| for K, and ||C|| on the vectors
    built here, sqrt|YZ|, or |Y| or |Z| for the Jordan coupling, times max |d| = 1."""
    h2 = grid.h * grid.h
    bound = 2.0 / h2 + 2 * (1.0 / h2) + (coupling.root_product or max(abs(coupling.Y), abs(coupling.Z)))
    if not size <= RESIDUAL_RTOL * bound:
        raise NumericalFailureError(f"eigenvector residual {size:.3g} exceeds {RESIDUAL_RTOL:g} of {bound:.3g}")


def _lowest_roots(coupling: CouplingPair, grid: GridSpec, k: int):
    """The block T of (coupling, grid) and its roots with real part below the
    first gap past the (k + 1) // 2 lowest, each root two eigenvalues."""
    c, h = coupling.root_product, grid.h
    shift = 1j * c if coupling.branch is BranchClass.POSITIVE_PRODUCT else complex(c)
    block = _TwoRegionBlock(width=4.0 / (h * h), shift=shift, m=grid.M // 2)
    needed = (k + 1) // 2
    roots = block.lowest_roots(needed)
    edge, _ = _gap_after([r.real for r in roots], needed)
    if edge is not None:
        roots = [r for r in roots if r.real < edge]  # ties kept whole
    return block, roots


def eigenpairs(rep: BandedHamiltonian, k: int):
    """k eigenvalues of smallest real part with unit-norm right vectors.

    Only T = K + lambda D, for one eigenvalue lambda of the channel matrix
    C, is solved, from the grid (`_TwoRegionBlock`); `_doublets` makes each
    root two eigenpairs, and no band nor `.matrix` is derived for YZ != 0.
    A rep that is not a `BandedHamiltonian` raises ModelDomainError.
    Complex eigenvalues that do not pair off one to one with their
    conjugates, and a failed bracket, zero count, completion or residual
    raise NumericalFailureError.  The order: by real part, ties within
    PAIRING_RTOL by |Im| (real values first), each conjugate pair adjacent,
    negative imaginary part first; a quartet past the merger reads E,
    conj(E), E, conj(E) with Im E < 0.
    """
    import numpy as np

    if not isinstance(rep, BandedHamiltonian):
        raise ModelDomainError(f"eigenpairs solves a BandedHamiltonian, got {type(rep).__name__}")
    k = as_index(k, f"k must be in 1..{rep.dim}", 1, rep.dim)
    block, roots = _lowest_roots(rep.coupling, rep.grid, k)
    values = np.array(roots, dtype=complex)
    values, vectors = _doublets(rep, block, values, block.eigenvectors(values))
    _require_residual(_partner_residual(rep, values, vectors), rep.coupling, rep.grid)
    return _cut(values, vectors, k)


def _partner_residual(rep: BandedHamiltonian, values: np.ndarray, vectors: np.ndarray) -> float:
    """max |H x - E x| on `_doublets`' partners, from the bands' constants: each
    partner carries its root's T residual, conjugated or reflected, and for
    YZ = 0 holds v itself in one channel.  The centre's step 0 adds nothing."""
    h2, m, partners = rep.grid.h * rep.grid.h, rep.grid.M // 2, values.size // 2
    x = vectors[:, partners:].reshape(2, 2 * m - 1, -1)  # channel, node, column
    residual = (2.0 / h2 - values[partners:]) * x
    for side, d in ((slice(None, m - 1), 1.0), (slice(m, None), -1.0)):
        residual[0, side] += 1j * rep.coupling.Z * d * x[1, side]
        residual[1, side] += 1j * rep.coupling.Y * d * x[0, side]
    residual[:, :-1] += -1.0 / h2 * x[:, 1:]
    residual[:, 1:] += -1.0 / h2 * x[:, :-1]
    return abs(residual).max()


def eigenvalues(coupling: CouplingPair, grid: GridSpec, k: int) -> list[complex]:
    """The k eigenvalues `eigenpairs` returns, in its order, as Python
    complex numbers, without numpy and without eigenvectors.

    The same root search on T, so the same roots bit for bit, and the same
    certificates: the zero count, `_cut`'s pairing and order, and each root's
    eigenvector residual within RESIDUAL_RTOL of the same bound, in O(1)
    (`_TwoRegionBlock.centre_residual`); for YZ != 0, H's residual on either
    partner is T's, conjugated or reflected, times a unit channel vector, as
    strict as `eigenpairs'`.  The partners follow `_doublets`: conjugates for
    YZ > 0, the roots themselves otherwise (conj() would flip the sign of a
    real root's zero imaginary part).
    """
    k = as_index(k, f"k must be in 1..{2 * grid.n_interior}", 1, 2 * grid.n_interior)
    block, roots = _lowest_roots(coupling, grid, k)
    sizes = [block.centre_residual(r) for r in roots]
    # max() drops a NaN that is not first; the certificate keeps it
    _require_residual(math.nan if any(map(math.isnan, sizes)) else max(sizes), coupling, grid)
    mirrored = coupling.branch is BranchClass.POSITIVE_PRODUCT
    values = roots + ([r.conjugate() for r in roots] if mirrored else roots)
    return [values[i] for i in _order(values, k)]


def _doublets(rep: BandedHamiltonian, block, values: np.ndarray, vectors: np.ndarray):
    """Each root E of T with eigenvector v as two eigenpairs of H, roots
    first.  YZ > 0: u+ (x) v and u- (x) conj(v) at conj(E) (T at -lambda
    is conj(T)), u+- the eigenvectors of C.  YZ < 0: u- (x) R v at E (T at
    -lambda is R T R, R the index reversal).  YZ = 0, Y = 0: (v, 0) and
    (a, v), (K - E) a = -iZ D v, solvable as v . D v = 0 by parity; for
    Z = 0 the channels swap, and for C = 0, a = 0."""
    import numpy as np

    coupling, c = rep.coupling, rep.coupling.root_product
    n, r = vectors.shape
    pairs = np.empty((2 * n, 2 * r), dtype=complex)
    if not c:
        a = block.particular(values, -1j * (coupling.Z or coupling.Y) * rep.step[:, None] * vectors)
        scale = np.sqrt(1.0 + np.linalg.norm(a, axis=0) ** 2)
        held, other = (pairs[n:], pairs[:n]) if coupling.Y else (pairs[:n], pairs[n:])  # Y != 0: v below
        held[:, :r], other[:, :r] = vectors, 0.0
        np.divide(a, scale, out=held[:, r:])
        np.divide(vectors, scale, out=other[:, r:])
        return np.concatenate([values, values]), pairs
    if block.shift.real:
        head, partner, partner_values = 1j * coupling.Z, vectors[::-1], values
    else:
        head, partner, partner_values = coupling.Z, vectors.conj(), values.conj()
    # C (Z, +-c) = +-ic (Z, +-c) for YZ > 0, C (iZ, +-c) = +-c (iZ, +-c) for YZ < 0
    norm = math.hypot(coupling.Z, c)
    for rows, scale, signed in ((pairs[:n], head / norm, head / norm), (pairs[n:], c / norm, -c / norm)):
        np.multiply(scale, vectors, out=rows[:, :r])
        np.multiply(signed, partner, out=rows[:, r:])
    return np.concatenate([values, partner_values]), pairs


def _cut(values: np.ndarray, vectors: np.ndarray, k: int):
    """The k eigenpairs `eigenpairs` returns, from all those given (`_order`)."""
    chosen = _order(values.tolist(), k)
    return values[chosen], vectors[:, chosen]


def _order(listed: list, k: int) -> list:
    """The positions of the k values `eigenpairs` returns, in its order.

    A value is complex when |Im E| > PAIRING_RTOL max(1, |E|), and is
    paired one to one with a value that close to its conjugate, else the
    solve fails.  Real values and pairs are sorted by real part, a tie
    (`_tie_groups`) by |Im|, each pair negative imaginary part first.
    """
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
        lone = listed[(unpaired + lower)[0]]
        raise NumericalFailureError(f"eigenvalue {lone} has no conjugate partner; pseudo-Hermitian pairing violated")
    units.sort(key=lambda unit: listed[unit[0]].real)
    leading = [listed[unit[0]] for unit in units]
    group = _tie_groups([v.real for v in leading])
    order = sorted(range(len(units)), key=lambda j: (group[j], abs(leading[j].imag)))
    return [i for j in order for i in units[j]][:k]


def _tie_groups(real_parts: list) -> list:
    """Group numbers of ascending real parts: one within PAIRING_RTOL
    (relative to max(1, |Re E|)) of the one before is in its group."""
    group = [0]
    for a, b in zip(real_parts, real_parts[1:]):
        group.append(group[-1] + (b - a > PAIRING_RTOL * max(1.0, abs(a))))
    return group


@dataclass(frozen=True)
class _TwoRegionBlock:
    """T = K + lambda D0 on the 2m - 1 interior nodes of a grid with
    spacing h: K the three-point Laplacian (2 / h^2 on the diagonal,
    -1 / h^2 beside it), D0 = +1 on the m - 1 left nodes, 0 at the
    centre, -1 on the right, and lambda imaginary (i gamma) or real.

    On each side T u = E u is the constant-coefficient recursion
    u_{j-1} + u_{j+1} = 2 cos(theta) u_j with
    sin^2(theta_{L,R} / 2) = (E -+ lambda) / width and width = 4 / h^2,
    K's band [0, width] (cos(theta) = 1 - h^2 (E -+ lambda) / 2).
    The Dirichlet ends leave u_j = A sin(j theta_L) on the left and
    B sin((2m - j) theta_R) on the right, and matching both at the centre
    node gives the secular polynomial

        P(E) = cos(m theta_L) U(theta_R) + cos(m theta_R) U(theta_L),
        U(theta) = sin(m theta) / sin(theta),

    which is det(E - T) up to a constant factor, even in each theta, and real on
    real E.  Its roots are found in O(1) per evaluation at any m: bracketed
    Newton from the sign changes of P on a real grid (for a real lambda the
    last grid spans both sides' bands, whose decoupled levels interlace the
    roots, all real), complex Newton from the dips of |P| that do not change
    sign and, far past the merger, from the levels of one half of the well
    shifted by +-i gamma; an argument-principle count of the zeros in a
    rectangle that holds the numerical range is the certificate that none is
    missing.  On a mismatch, deflated Newton from the dips of |P| on the
    rectangle's mid-line and subdivision by the same count find every root.
    `secular` gives P and its slope scaled by
    exp(-|Im m theta_L| - |Im m theta_R|), a positive factor that keeps the
    signs and phases and never overflows.
    """

    width: float
    shift: complex  # lambda
    m: int

    @property
    def norm_bound(self) -> float:
        """width + |lambda| >= ||T||."""
        return self.width + abs(self.shift)

    # -- P and its slope --------------------------------------------------

    def secular(self, energy, slope: bool = False, real: bool = False):
        """Scaled P at one Python number and, with `slope`, dP/dE times the
        same scale, so that P / P' is unscaled.  `real` asks for P's real-axis
        form at a real energy: for an imaginary lambda the right side is the
        conjugate of the left, P = 2 Re(cos(m theta_L) conj U(theta_L)); for a
        real one, P is the real part of the two-sided sum."""
        z_l, _, c_l, sin_l, sin_tl = self._side(energy, -1.0)
        u_l = sin_l / sin_tl  # U(theta_L)
        if real and not self.shift.real:
            p = 2.0 * (c_l * u_l.conjugate()).real
            if not slope:
                return p
            dc_l, du_l = self._slopes(z_l, c_l, u_l, sin_tl)
            return p, 2.0 * (dc_l * u_l.conjugate() + c_l * du_l.conjugate()).real
        z_r, _, c_r, sin_r, sin_tr = self._side(energy, 1.0)
        u_r = sin_r / sin_tr
        p = c_l * u_r + c_r * u_l
        if not slope:
            return p.real if real else p
        (dc_l, du_l), (dc_r, du_r) = self._slopes(z_l, c_l, u_l, sin_tl), self._slopes(z_r, c_r, u_r, sin_tr)
        dp = dc_l * u_r + c_l * du_r + dc_r * u_l + c_r * du_l
        return (p.real, dp.real) if real else (p, dp)

    def _slopes(self, z, cos_m, u, sin_t):
        """The E-derivatives of cos(m theta) and U(theta) on one side, from
        dtheta/dE = kappa / sin(theta), kappa = 2 / width, and cos(theta) = 1 - 2z."""
        m, kappa = self.m, 2.0 / self.width
        return -m * kappa * u, kappa * (m * cos_m - u * (1.0 - 2.0 * z)) / (sin_t * sin_t)

    def _side(self, energy, sign: float):
        """z = sin^2(theta / 2), theta, cos(m theta) and sin(m theta) scaled
        by exp(-|Im m theta|), and sin(theta) at one Python number on the
        side of sign -1 (left) or +1, in cmath.
        At theta = 0 or pi (E at an end of a side's band), which no grid or
        count samples, sin(theta) reads NaN, and so do U and P."""
        z = (energy + sign * self.shift) / self.width
        theta = 2.0 * cmath.asin(cmath.sqrt(z))
        x, y = self.m * theta.real, self.m * theta.imag
        turn = cmath.exp(1j * x)
        fore = turn * math.exp(-y - abs(y))  # exp(i (x + iy)) exp(-|y|)
        back = turn.conjugate() * math.exp(y - abs(y))  # exp(-i (x + iy)) exp(-|y|)
        # sin(theta) from theta itself: on the branch cuts of arcsin a
        # closed form in z could take the other side
        sin_t = cmath.sin(theta)
        return z, theta, (fore + back) / 2, (fore - back) / 2j, sin_t if sin_t else math.nan

    # -- roots ------------------------------------------------------------

    def _bracketed_root(self, lo: float, hi: float, p_lo: float, p_hi: float) -> float:
        """The root of P in [lo, hi], where P changes sign from p_lo to
        p_hi, by `newton_in_bracket` from the secant point: the Newton
        point once a step is within 2 eps of max(1, |x|)."""
        sign, root = -1.0 if p_lo < 0 else 1.0, []  # the Newton point, once reached

        def f(x: float, newton: bool):
            if not newton:
                return sign * self.secular(x, real=True), None
            p, dp = self.secular(x, slope=True, real=True)
            step = p / dp if dp else math.inf
            if p == 0.0 or abs(step) <= 2 * _EPS * max(1.0, abs(x)):
                root.append(x - step if p else x)
                return None, step
            return sign * p, step

        lo, hi = newton_in_bracket(f, lo, hi, lo - p_lo * (hi - lo) / (p_hi - p_lo))
        return root[0] if root else 0.5 * (lo + hi)

    def _newton(self, z: complex, known) -> complex | None:
        """A root of P from z by Newton on P / prod(E - r) over the
        known roots r, so that it does not return to one of them.

        The deflated stop leaves a complex root anywhere in the noise band
        of P, where the known roots, and so the number asked for, put it
        (~70 ulp wide at (4.47, 4.47), M = 16).  So the root is finished
        from itself rounded to 2^-36 of |z|, by up to POLISH_STEPS Newton
        steps on P, each kept only while |P| falls; the end point is kept
        if it is one root with z by DISTINCT_RTOL."""
        for _ in range(NEWTON_STEPS):
            p, dp = self.secular(z, slope=True)
            if p == 0:
                break
            if z in known:  # landed on a known root: the deflation is singular
                return None
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
        unit = 2.0 ** (math.frexp(max(1.0, abs(z)))[1] - 36)
        x = complex(round(z.real / unit) * unit, round(z.imag / unit) * unit)
        p, dp = self.secular(x, slope=True)
        for _ in range(POLISH_STEPS):
            if p == 0 or dp == 0:
                break
            trial = x - p / dp
            p_trial, dp_trial = self.secular(trial, slope=True)
            if not abs(p_trial) < abs(p):
                break
            x, p, dp = trial, p_trial, dp_trial
        return x if abs(x - z) <= DISTINCT_RTOL * max(1.0, abs(z)) else z

    def _axis_roots(self, phi_top: float, whole: bool):
        """Roots seeded from P on a real grid, up to the grid energy
        width sin^2(phi_top / 2) - |Re lambda| or, when `whole`,
        over every band; distinct, by real part."""
        m = self.m
        # uniform in theta, 8 samples per spacing of the decoupled levels,
        # from below the lowest real part a root of T can have
        phi = _arange(math.pi / (4 * m), phi_top, math.pi / (16 * m))
        grid = [-abs(self.shift.real) + self.width * (s * s) for s in (math.sin(p / 2) for p in phi)]
        if whole and self.shift.real:
            # one side's band lies 2 |lambda| higher: with it the grid holds
            # both sides' decoupled levels, which interlace the roots of T
            grid = sorted(grid + [e + 2.0 * abs(self.shift.real) for e in grid])
        p = [self.secular(e, real=True) for e in grid]
        sign = [(v > 0) - (v < 0) for v in p]
        roots = [complex(e) for e, v in zip(grid, p) if v == 0]
        brackets = [(grid[i], grid[i + 1], p[i], p[i + 1])
                    for i in range(len(p) - 1) if sign[i] * sign[i + 1] < 0]
        seeds = []
        for i in _dips([abs(v) for v in p]):
            if not sign[i - 1] == sign[i] == sign[i + 1]:
                continue
            # a close real pair or a complex pair near the axis: fit a
            # parabola, and split the cell at its vertex if P changes
            # sign there
            (x0, x1, x2), (p0, p1, p2) = grid[i - 1 : i + 2], p[i - 1 : i + 2]
            slope01, slope12 = (p1 - p0) / (x1 - x0), (p2 - p1) / (x2 - x1)
            curve = (slope12 - slope01) / (x2 - x0)
            vertex = 0.5 * (x0 + x1) - 0.5 * slope01 / curve if curve else x1
            if not x0 < vertex < x2:
                vertex = x1
            p_vertex = self.secular(vertex, real=True)
            if (p_vertex < 0) != (p1 < 0):
                brackets += [(x0, vertex, p0, p_vertex), (vertex, x2, p_vertex, p2)]
            else:
                depth = p0 + slope01 * (vertex - x0) + curve * (vertex - x0) * (vertex - x1)
                seeds.append(complex(vertex, math.sqrt(abs(depth / curve)) if curve else x2 - x0))
        for bracket in brackets:
            roots.append(complex(self._bracketed_root(*bracket), 0.0))
        for seed in seeds:
            root = self._newton(seed, roots)
            if root is not None:
                roots += _with_conjugate(root)
        return _distinct(roots)

    def lowest_roots(self, needed: int) -> list:
        """Every root of P with real part below a gap past the `needed`
        lowest, certified by the zero count or by being all 2m - 1."""
        m = self.m
        phi_max = math.pi - math.pi / (4 * m)
        levels = needed + 2
        while True:
            phi_top = min(levels * math.pi / (2 * m), phi_max)
            roots = self._axis_roots(phi_top, whole=phi_top == phi_max)
            if self.shift.imag and len(roots) <= needed:
                # the real grid misses the pairs far from the axis
                top = self.width * math.sin(phi_top / 2) ** 2
                roots = _distinct(self._shifted_levels(top, list(roots)))
            edge, gap = _gap_after([r.real for r in roots], needed)
            if edge is not None:
                break
            if phi_top == phi_max:
                edge, gap = self.width + abs(self.shift.real) + 1.0, 2.0
                break
            levels *= 2
        if len(roots) == 2 * m - 1:  # P's degree: none is missing
            return [r for r in roots if r.real < edge]
        roots = [r for r in roots if r.real < edge]
        # every root lies in the numerical range, |Im E| <= |Im lambda| and
        # Re E >= floor = width sin^2(pi / 2M) - |Re lambda|.  The box clears
        # it on the top and left by the least spacing of the roots' real parts
        # (at most gap, at least 1, on the top at most (edge - floor) / 4) and
        # by gap / 2 on the right, each edge sampled every half its margin: no
        # step is more than half the distance from its edge to the nearest
        # root.  The spacing caps the margins: past it, a step along a long
        # edge passes many roots, whose turns add up and alias the count
        floor = self.width * math.sin(math.pi / (4 * m)) ** 2 - abs(self.shift.real)
        real_parts = sorted({r.real for r in roots})
        spacing = min([b - a for a, b in zip(real_parts, real_parts[1:])] + [gap])
        top, left = max(1.0, min(spacing, (edge - floor) / 4)), max(1.0, spacing)
        count = self._winding((floor - left, edge, abs(self.shift.imag) + top), (gap / 4, top / 2, left / 2))
        if count == len(roots):
            return roots
        # any box that holds the numerical range holds the same roots: the
        # completion seeds and splits the one that clears it by 1, whose
        # mid-line stays near the roots whatever the count's margins
        return self._complete((-abs(self.shift.real) - 1.0, edge, abs(self.shift.imag) + 1.0), count, roots)

    def _shifted_levels(self, top: float, found: list) -> list:
        """found, with the roots that deflated Newton reaches from the
        levels of one half of the well below `top`, shifted by +i|gamma|
        (lambda = i gamma), and their conjugates.  Far past the merger the
        roots sit there: once Im m theta_R is large, P = 0 reads
        tan(m theta_L) ~ 0."""
        for j in range(1, self.m):
            level = self.width * math.sin(j * math.pi / (2 * self.m)) ** 2
            if level > top:
                break
            root = self._newton(complex(level, abs(self.shift.imag)), found)
            if root is not None and _is_new(root, found):
                found += _with_conjugate(root)
        return found

    def _complete(self, box, count: int, known: list) -> list:
        """All `count` roots in box, from the known ones: boxes whose count
        exceeds their known roots get a deflated Newton from their
        mid-line (`_mid_line_seeds`), and are split in two across the real
        direction, each half counted, until none is missing."""
        found = self._shifted_levels(box[1], list(known)) if self.shift.imag else list(known)
        up = min(0.5, box[2] / 8)
        pending = [(box, count, 0)]
        windings = 0
        while pending:
            part, count, depth = pending.pop()
            missing = count - sum(_inside(part, r) for r in found)
            if missing < 0:
                raise NumericalFailureError("completion found more roots of P than the zero count")
            if missing == 0:
                continue
            for seed in self._mid_line_seeds(part, up):
                root = self._newton(seed, found)
                if root is not None and _inside(part, root) and _is_new(root, found):
                    break
            else:
                root = None
            if root is not None:
                found += _with_conjugate(root)
                pending.append((part, count, depth))
                continue
            if depth == SPLIT_DEPTH or windings >= SPLIT_WINDINGS:
                raise NumericalFailureError(f"completion stopped with {missing} roots of P missing")
            halves = _split(part, found)
            counts = [
                self._winding(half, (up, min(0.5, (half[1] - half[0]) / 16), up)) for half in halves
            ]
            windings += 2
            if sum(counts) != count:
                raise NumericalFailureError(f"completion: zero counts {counts} of halves, {count} in all")
            pending += [(half, n, depth + 1) for half, n in zip(halves, counts)]
        return _distinct([r for r in found if _inside(box, r)])

    def _mid_line_seeds(self, box, step: float):
        """Newton starts on the vertical mid-line of box (the halves of a
        split keep the full height): mid-height and |Im lambda|, where the
        pairs far past the merger sit, then the local minima of |P|
        sampled `step` apart on the upper half (|P| is even in Im E)."""
        re0, re1, reach = box
        mid = 0.5 * (re0 + re1)
        yield complex(mid, 0.5 * reach)
        yield complex(mid, abs(self.shift.imag))
        heights = _linspace(0.0, reach, math.ceil(reach / step) + 1)
        size = [abs(self.secular(complex(mid, y))) for y in heights]
        for i in _dips(size):
            yield complex(mid, heights[i])

    def _winding(self, box, steps) -> int:
        """Zeros of P in the box re0 <= Re E <= re1, |Im E| <= reach, by the
        argument principle.  P(conj E) = conj P(E), so only the upper half of
        the boundary is walked (the lower half turns the phase as much): up
        the right edge, along the top, down the left edge, at most `steps`
        apart per edge, each step at most half the distance from its edge to
        the nearest root, refined until no two neighbours differ by more than
        pi / 4.  NumericalFailureError if P vanishes on the boundary or the
        phase is not resolved within WINDING_POINTS samples."""
        re0, re1, reach = box
        corners = [complex(re1, 0.0), complex(re1, reach), complex(re0, reach), complex(re0, 0.0)]
        counts = [max(4, math.ceil(abs(b - a) / step)) for a, b, step in zip(corners, corners[1:], steps)]
        if sum(counts) > WINDING_POINTS:
            raise NumericalFailureError(
                f"the zero count of P asks for {sum(counts)} samples, more than {WINDING_POINTS}"
            )
        points = [a + (b - a) * i / n for a, b, n in zip(corners, corners[1:], counts)
                  for i in range(n)] + corners[-1:]
        values = [self.secular(e) for e in points]
        spans, turns, size = list(zip(points, values, points[1:], values[1:])), [], len(points)
        while True:
            if not all(map(cmath.isfinite, values)) or 0 in values:
                raise NumericalFailureError("the zero count of P met a zero or a non-finite value")
            turn = [cmath.phase(q / p) for _, p, _, q in spans]
            turns += [t for t in turn if abs(t) <= math.pi / 4]
            coarse = [span for span, t in zip(spans, turn) if abs(t) > math.pi / 4]
            if not coarse:
                break
            size += len(coarse)
            if size > WINDING_POINTS:
                raise NumericalFailureError(f"the zero count of P asks for {size} samples, more than {WINDING_POINTS}")
            # each coarse span split at its midpoint, and only its halves walked again
            points = [0.5 * (a + b) for a, _, b, _ in coarse]
            values = [self.secular(e) for e in points]
            spans = [half for (a, p, b, q), e, r in zip(coarse, points, values)
                     for half in ((a, p, e, r), (e, r, b, q))]
        total = math.fsum(turns) / math.pi
        count = round(total)
        if abs(total - count) >= 0.1:
            raise NumericalFailureError(f"the zero count of P reads {total}, not an integer")
        return count

    # -- eigenvectors -----------------------------------------------------

    def eigenvectors(self, roots: np.ndarray) -> np.ndarray:
        """Unit eigenvectors of T, one column per root: A sin(j theta_L)
        on the left, B sin((2m - j) theta_R) on the right.  (A, B) comes
        from the better-conditioned row of the centre matching, since
        sin(m theta) -> 0 for the odd modes as lambda -> 0.  For lambda =
        i gamma the right side at E is, component for component, the
        conjugate of the left side at conj(E), also a root, and for lambda =
        0 the left side at E, so only left sides are sampled, unless lambda
        is real, or, for lambda = i gamma, some E + lambda is real (Im E =
        -gamma exactly: the conjugate would flip the sign of a zero), or, for
        lambda = 0, some E is complex (never a root of the real T)."""
        import numpy as np

        m, listed, shift = self.m, roots.tolist(), self.shift
        mirrored = not shift.real and all(((r + shift).imag != 0) == (shift.imag != 0) for r in listed)
        left_at = [(r, -1.0) for r in listed]
        right_at = [(r.conjugate(), -1.0) if mirrored else (r, 1.0) for r in listed]
        column = {at: i for i, at in enumerate(dict.fromkeys(left_at + right_at))}
        _, theta, cos_m, sin_m, sin_t = np.array([self._side(*at) for at in column]).T
        x, y, j = theta.real, theta.imag, np.arange(1.0, m + 1)[:, None]
        # sin(j theta) = sin(jx) cosh(jy) + i cos(jx) sinh(jy), j = 1..m, scaled by exp(-m |y|)
        grow, fade = np.exp((j - m) * abs(y)), np.exp(-(j + m) * abs(y))
        profile = np.sin(j * x) * (grow + fade) / 2 + 1j * (np.copysign((grow - fade) / 2, y) * np.cos(j * x))
        sides = np.vstack([profile, cos_m, sin_m, sin_t])
        # np.take keeps the rows in C order: the norm below sums them in that order
        left, right = (np.take(sides, [column[at] for at in ats], axis=1) for ats in (left_at, right_at))
        right = right.conj() if mirrored and shift.imag else right
        (cos_l, sin_l, sin_tl), (cos_r, sin_r, sin_tr) = left[m:], right[m:]
        # continuity A sin(m theta_L) = B sin(m theta_R), or the centre
        # row A sin(theta_L) cos(m theta_L) + B sin(theta_R) cos(m theta_R) = 0
        continuity = np.maximum(abs(sin_l), abs(sin_r)) >= np.maximum(abs(cos_l), abs(cos_r))
        a = np.where(continuity, sin_r, sin_tr * cos_r)
        b = np.where(continuity, sin_l, -sin_tl * cos_l)
        vectors = np.concatenate([a * left[:m], b * right[m - 2::-1]])
        return vectors / np.linalg.norm(vectors, axis=0)

    def centre_residual(self, root: complex) -> float:
        """max |T v - E v| in O(1) for the unit eigenvector v of T at the root
        E that `eigenvectors` builds (the same sines, scaled by
        exp(-m |Im theta|), and centre row), on the rows at and beside the
        centre node, the only ones a root error reaches: every other row holds
        its side's recursion and reads only the rounding of the sines.  The
        norm is closed: |sin j theta|^2 = (cosh 2jy - cos 2jx) / 2, theta = x + iy."""
        m, sides = self.m, []
        for sign, n in ((-1.0, m), (1.0, m - 1)):
            _, theta, cos_m, sin_m, sin_t = self._side(root, sign)
            x, y = theta.real, abs(theta.imag)
            profile = []  # sin(j theta) exp(-m y) at j = m - 2, m - 1, m
            for j in (m - 2, m - 1, m):
                grow, fade = math.exp((j - m) * y), math.exp(-(j + m) * y)
                profile.append(complex(math.sin(j * x) * (grow + fade) / 2,
                                       math.copysign((grow - fade) / 2, theta.imag) * math.cos(j * x)))
            # sum_{j=1}^n |sin j theta|^2 exp(-2 m y), half the geometric sum of
            # cosh 2jy less the Dirichlet sum of cos 2jx, both scaled
            ratio = math.expm1(-2 * n * y) / math.expm1(-2 * y) if y else n
            cosh_sum = 0.5 * (math.exp(-2 * (m - n) * y) + math.exp(-2 * (m + 1) * y)) * ratio
            cos_sum = math.sin(n * x) * math.cos((n + 1) * x) / math.sin(x) if math.sin(x) else n
            sides.append((profile, 0.5 * (cosh_sum - math.exp(-2 * m * y) * cos_sum), cos_m, sin_m, sin_t))
        (left, square_l, cos_l, sin_l, sin_tl), (right, square_r, cos_r, sin_r, sin_tr) = sides
        if max(abs(sin_l), abs(sin_r)) >= max(abs(cos_l), abs(cos_r)):
            a, b = sin_r, sin_l
        else:
            a, b = sin_tr * cos_r, -sin_tl * cos_l
        norm = math.sqrt(abs(a) ** 2 * square_l + abs(b) ** 2 * square_r)
        # v at the nodes m - 2 .. m + 2: the left sine up to the centre, then the right
        v = [a * u / norm for u in left] + [b * u / norm for u in right[1::-1]]
        # T = K + lambda D0: 2 / h^2 = width / 2 and -1 / h^2 = -width / 4 exactly
        diagonal, sub = self.width / 2, -self.width / 4
        rows = (diagonal + self.shift - root, diagonal - root, diagonal - self.shift - root)
        return max(abs(d * v[i] + sub * (v[i - 1] + v[i + 1])) for i, d in enumerate(rows, 1))

    def particular(self, roots: np.ndarray, sources: np.ndarray) -> np.ndarray:
        """For lambda = 0, the a with (T - E) a = f and a_1 = 0 per root E and
        column f, a_n = sum_{j<n} sin((n - j) theta) f_j / (s sin(theta)) with
        s = -width / 4, in O(M); a_2m = 0 when f is orthogonal to sin(j theta)."""
        import numpy as np

        _, theta, _, _, sin_t = np.array([self._side(r, -1.0) for r in roots.tolist()]).T
        j = np.arange(1.0, 2 * self.m)[:, None]
        cos_j, sin_j = np.cos(j * theta), np.sin(j * theta)
        sums = [np.cumsum(np.vstack([0 * f[:1], f[:-1]]), axis=0) for f in (cos_j * sources, sin_j * sources)]
        return (sin_j * sums[0] - cos_j * sums[1]) / (-0.25 * self.width * sin_t)


def _dips(size: list) -> list[int]:
    """Indices of the strict interior local minima of size."""
    return [i for i in range(1, len(size) - 1) if size[i] < size[i - 1] and size[i] < size[i + 1]]


def _with_conjugate(root: complex) -> list:
    """root and, off the real axis, its conjugate: P(conj E) = conj P(E)."""
    return [root, root.conjugate()] if root.imag else [root]


def _distinct(roots) -> list:
    """roots without near-repeats, sorted by real then imaginary part."""
    kept = []
    for r in sorted(roots, key=lambda z: (z.real, z.imag)):
        if _is_new(r, kept):
            kept.append(r)
    return kept


def _is_new(root: complex, roots) -> bool:
    return all(abs(root - r) > DISTINCT_RTOL * max(1.0, abs(r)) for r in roots)


def _gap_after(real_parts: list, needed: int):
    """(midpoint, width) of the first gap between ascending real parts
    after the `needed` lowest that is not a tie of the cut, or
    (None, None) when there is none."""
    group = _tie_groups(real_parts)
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


def _group_degenerate(values):
    """Cluster eigenvalues whose gaps are below PAIRING_RTOL * max(1, |E|).

    values is a list of numbers or an array (`eigenpairs`).  Returns a list
    of (mean value, multiplicity) in ascending real part: values by real then
    imaginary part, in runs whose neighbours lie within PAIRING_RTOL *
    max(1, |E|) of each other, the mean of a run c sum(c) / len(c) in Python
    complex arithmetic.
    """
    clusters = []
    for v in sorted(map(complex, values), key=lambda z: (z.real, z.imag)):
        if clusters and abs(v - clusters[-1][-1]) <= PAIRING_RTOL * max(1.0, abs(clusters[-1][-1])):
            clusters[-1].append(v)
        else:
            clusters.append([v])
    return [(sum(c) / len(c), len(c)) for c in clusters]


def _require_comparable(branch: BranchClass) -> None:
    # the one refusal of YZ < 0, for compare_spectrum and, before its
    # eigensolve, the CLI's oracle command
    if branch is BranchClass.NEGATIVE_PRODUCT:
        raise ModelDomainError(
            "oracle comparison covers YZ >= 0: for YZ < 0 the closed-form levels s^2 +- sqrt(-YZ) "
            "are not this operator's levels (k_L cot k_L + k_R cot k_R = 0, k^2 = E -+ sqrt(-YZ))"
        )


def compare_spectrum(analytic: Sequence[LevelSolution], eigenvalues, k: int, coarse_eigenvalues=None) -> dict:
    """Per-level error report of the oracle against the analytic levels.

    The one report of `oracle` and `verify`, from a list (`eigenvalues`)
    or an array (`eigenpairs`), without numpy.  The eigenvalues are
    clustered into degenerate groups first (`_group_degenerate`); each
    analytic level is matched against one cluster, which should be a
    doublet.  With a second, coarser eigenvalue set (half the intervals)
    the report adds Richardson convergence orders, expected near 2 for
    the central-difference rule.  Levels of a YZ < 0 coupling are refused
    (ModelDomainError): they are not this operator's levels.
    """
    clusters = _group_degenerate(eigenvalues)
    for level in analytic:
        _require_comparable(level.branch)
    if len(analytic) < k:
        raise ModelDomainError(f"need at least {k} analytic levels, got {len(analytic)}")
    if len(clusters) < k:
        raise ModelDomainError(f"only {len(clusters)} degenerate clusters in the numeric spectrum, need {k}")
    rows = []
    for level, (value, multiplicity) in zip(analytic[:k], clusters):
        abs_err = abs(value.real - level.E)
        rows.append({"n": level.n, "E_analytic": level.E, "E_numeric": value.real,
                     "im_numeric": value.imag, "multiplicity": multiplicity,
                     "abs_err": abs_err, "rel_err": abs_err / max(1.0, abs(level.E))})
    report = {"levels": rows, "degeneracy_ok": all(row["multiplicity"] == 2 for row in rows)}
    if coarse_eigenvalues is not None:
        coarse = _group_degenerate(coarse_eigenvalues)
        if len(coarse) < k:
            raise ModelDomainError("coarse spectrum has too few clusters")
        errors = [(abs(value.real - level.E), row["abs_err"])
                  for (value, _), level, row in zip(coarse, analytic, rows)]
        report["richardson_orders"] = [math.log2(c / f) if c and f else math.nan for c, f in errors]
    return report


def criticality_scan(c_values: Sequence[float], grid: GridSpec):
    """Max |Im E| of the four lowest eigenvalues for each coupling value.

    c is sqrt(YZ), applied as Y = Z = c.  Below the critical coupling the
    imaginary parts are exactly 0; past it the lowest quartet carries an O(1)
    imaginary part.  c_values must be strictly increasing.  The eigenvalues
    come from `eigenvalues`, so the scan loads no numpy.
    """
    c_values = [float(c) for c in c_values]
    if any(c < 0 for c in c_values):
        raise ModelDomainError("coupling values must be >= 0")
    if any(b <= a for a, b in zip(c_values, c_values[1:])):
        raise ModelDomainError("coupling values must be strictly increasing")
    return [(c, max(abs(v.imag) for v in eigenvalues(CouplingPair(c, c), grid, 4))) for c in c_values]


def first_complex_bracket(scan):
    """Bracket (last real c, first complex c) from a criticality scan."""
    last_real = None
    for c, im in scan:
        if im <= REAL_IM_MAX:
            last_real = c
        elif last_real is not None:
            return (last_real, c)
    raise ModelDomainError("scan does not bracket the reality transition; widen the coupling range")


def subspace_alignment(basis_vectors: np.ndarray, target: np.ndarray) -> float:
    """Cosine of the angle between target and span(basis_vectors).

    Used to match an analytic doublet state against the two numerically split
    eigenvectors of a degenerate pair, whatever their mixing and phases.
    """
    import numpy as np

    basis_vectors = np.atleast_2d(np.asarray(basis_vectors, dtype=complex))
    if basis_vectors.shape[0] < basis_vectors.shape[1]:
        basis_vectors = basis_vectors.T
    q, _ = np.linalg.qr(basis_vectors)
    target = np.asarray(target, dtype=complex)
    norm = np.linalg.norm(target)
    if norm == 0.0:
        raise ModelDomainError("target vector is zero")
    return float(np.linalg.norm(q.conj().T @ target) / norm)
