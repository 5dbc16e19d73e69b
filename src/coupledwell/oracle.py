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
T alone from the bands by sparse shift-invert, at any M, and rebuilds
every doublet from it.  The reduction uses the 2x2 matrix C, never the
closed form, so the oracle stays independent.  The dense eigensolve of
the whole matrix remains for every other operator, for YZ < 0, for the
Jordan case (exactly one of Y, Z nonzero) and for requests too large
for the sparse solver; it is the cross-check of the reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ModelDomainError, NumericalFailureError
from .model import CouplingPair, GridSpec, OperatorRep, PotentialSpec, RepBasis, as_index
from .secular import LevelSolution

DEGENERACY_RTOL = 1e-6
PAIRING_RTOL = 1e-6


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


def eigenpairs(rep: OperatorRep | BandedHamiltonian, k: int):
    """k eigenvalues of smallest real part with unit-norm right vectors.

    For a `BandedHamiltonian` with YZ > 0 or Y = Z = 0 only the
    tridiagonal block T = K + icD, taken from the stored bands, is
    solved by sparse shift-invert about 0; its `.matrix` is never
    built.  Each eigenpair (E, v) of T gives the doublet (E, u+ (x) v)
    and (conj(E), u- (x) conj(v)), where u+- are the eigenvectors of the
    constant channel matrix (the two channels when it is 0).  Any other
    operator, YZ < 0, exactly one of Y, Z nonzero, and a request the
    sparse solver cannot serve (k close to the dimension, no ARPACK
    convergence) take the dense eigensolve of the whole matrix.

    Every eigensolve asserts the pseudo-Hermitian reality structure:
    eigenvalues are real or occur in conjugate pairs, else the solve is
    reported as a failure rather than returned.  The reduced solve
    checks this on the eigenvalues of T and also asserts R T R = T^dagger
    for the index reversal R.
    """
    k = as_index(k, f"k must be in 1..{rep.dim}", 1, rep.dim)
    if isinstance(rep, BandedHamiltonian) and _reducible(rep.coupling):
        reduced = _reduced_eigenpairs(rep, k)
        if reduced is not None:
            return reduced
    import scipy.linalg

    try:
        values, vectors = scipy.linalg.eig(rep.matrix)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - hardware dependent
        raise NumericalFailureError(f"dense eigensolve failed: {exc}") from exc
    _assert_conjugate_pairing(values)
    return _lowest(values, vectors, k)


def _reducible(coupling: CouplingPair) -> bool:
    """C is diagonalisable with x-independent eigenvectors: YZ > 0, or
    C = 0.  With exactly one of Y, Z nonzero it is a Jordan block."""
    return coupling.product > 0 or coupling.Y == coupling.Z == 0.0


def _lowest(values: np.ndarray, vectors: np.ndarray, k: int):
    order = np.lexsort((values.imag, values.real))[:k]
    chosen = vectors[:, order]
    return values[order], chosen / np.linalg.norm(chosen, axis=0, keepdims=True)


def _reduced_eigenpairs(rep: BandedHamiltonian, k: int):
    """Lowest k eigenpairs of the full operator from T = K + icD alone.

    Shift-invert returns the eigenvalues of T nearest 0, but the lowest
    real parts are wanted.  Every eigenvalue lies in the numerical range
    of T, so |Im E| <= b = c max|d| and Re E >= g, the Gershgorin lower
    bound of K.  After dropping the outermost modulus shell (which may
    hold half a conjugate pair) the largest kept modulus is r; anything
    not kept has |Re E| > s = sqrt(r^2 - b^2), hence Re E > s when
    g >= -s.  So the set is complete when the largest real part a among
    the lowest ones needed is below s.
    Returns None when the sparse solver cannot deliver, which sends the
    caller to the dense eigensolve.
    """
    coupling, sub, diagonal, step = rep.coupling, rep.sub, rep.diagonal, rep.step

    import scipy.sparse
    from scipy.sparse.linalg import ArpackNoConvergence, eigs

    m = diagonal.size
    c = math.sqrt(coupling.product)
    # at c = 0 T = K is real, and so are the shift-invert eigenvalues
    block = scipy.sparse.diags(
        [sub, diagonal + 1j * c * step if c else diagonal, sub], [-1, 0, 1], format="csc"
    )
    if (block[::-1, ::-1] != block.conj().T).nnz:
        raise NumericalFailureError(
            "R T R != T^dagger; discrete pseudo-Hermiticity violated"
        )
    imag_bound = c * np.abs(step).max()
    reach = np.abs(np.concatenate([[0.0], sub])) + np.abs(np.concatenate([sub, [0.0]]))
    real_floor = float((diagonal - reach).min())
    needed = (k + 1) // 2  # each eigenvalue of T is two of the full operator
    start = np.random.default_rng(0).standard_normal(m)  # bit-reproducible runs
    n_ask = needed + 2
    while True:
        if n_ask >= m - 1:  # ARPACK needs fewer than m - 1 eigenvalues
            return None
        try:
            values, vectors = eigs(block, k=n_ask, sigma=0, v0=start)
        except ArpackNoConvergence:
            return None
        order = np.argsort(np.abs(values))
        values, vectors = values[order], vectors[:, order]
        moduli = np.abs(values)
        gaps = np.flatnonzero(np.diff(moduli) > PAIRING_RTOL * max(1.0, moduli[-1]))
        kept = int(gaps[-1]) + 1 if gaps.size else 0
        if kept >= needed and moduli[kept - 1] > imag_bound:
            edge = np.sort(values[:kept].real)[needed - 1]
            s = math.sqrt(moduli[kept - 1] ** 2 - imag_bound**2)
            if edge < s and real_floor >= -s:
                break
        n_ask *= 2
    values, vectors = values[:kept], vectors[:, :kept]
    _assert_conjugate_pairing(values)
    # eigenvectors of C for +ic and -ic; for C = 0 the two channels
    if c:
        u_plus = np.array([[coupling.Z], [c]]) / math.hypot(coupling.Z, c)
        u_minus = np.array([[coupling.Z], [-c]]) / math.hypot(coupling.Z, c)
    else:
        u_plus, u_minus = np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])
    return _lowest(
        np.concatenate([values, values.conj()]),
        np.hstack([np.kron(u_plus, vectors), np.kron(u_minus, vectors.conj())]),
        k,
    )


def _assert_conjugate_pairing(values: np.ndarray) -> None:
    scale = max(1.0, float(np.max(np.abs(values))))
    tol = PAIRING_RTOL * scale
    complex_ones = values[np.abs(values.imag) > tol]
    for v in complex_ones:
        if np.min(np.abs(complex_ones - np.conj(v))) > tol:
            raise NumericalFailureError(
                f"eigenvalue {v} has no conjugate partner; "
                "pseudo-Hermitian pairing violated"
            )


def group_degenerate(values: np.ndarray, rtol: float = DEGENERACY_RTOL):
    """Cluster eigenvalues whose gaps are below rtol * max(1, |E|).

    Returns a list of (mean value, multiplicity) in ascending real part.
    """
    if values.size == 0:
        return []
    order = np.lexsort((values.imag, values.real))
    values = values[order]
    clusters = [[values[0]]]
    for v in values[1:]:
        anchor = clusters[-1][-1]
        if abs(v - anchor) <= rtol * max(1.0, abs(anchor)):
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
    imaginary parts are grid noise; past it the lowest quartet carries an
    O(1) imaginary part.  c_values must be strictly increasing.
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


def first_complex_bracket(scan, threshold: float = 1e-6):
    """Bracket (last real c, first complex c) from a criticality scan."""
    last_real = None
    for c, im in scan:
        if im <= threshold:
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
