"""Biorthogonal pairing, the swap-reflect pseudo-metric, and the family
of positive metrics that make the coupled-well operator an observable.

The operator is not Hermitian, but it is exactly Hermitian-conjugated by
the involution (channel swap) o (x -> -x).  Left eigenvectors are
therefore swap-reflected images of the right ones, up to the per-state
sign q fixed in wavefunctions.quasi_parity.  Any positive combination

    Theta = sum over (n, sigma) of S[n, sigma] |left><left|

intertwines the operator with its adjoint exactly, for every admissible
weight choice; that sum over the retained levels is what
build_theta_metric assembles, as the mode form or, given grid= a
GridSpec, sampled on its nodes (inverse_theta_metric alike).

Map versus form: mode-basis vectors are exact eigenstates and are not
mutually orthogonal, so an operator has two inequivalent matrices there
(see model.OperatorRep).  Metrics are built as forms F[i,k] =
<e_i|Theta e_k>; the operator and the channel-swap observable enter
defect formulas as maps (diagonal in the mode basis).  The mixed-rep
defect  ||M(H)^dagger F - F M(H)||  is basis-shape agnostic: on the
grid the two conventions differ only by the uniform weight h, which
cancels in the normalized defect.

In the mode basis the form is F = diag(S d^2), d_i = <<left_i|state_i>:
the pairing matrix G[i, j] = <<left_i|state_j> is diagonal (left and
right states are biorthogonal), because the cross-sigma channel factor
sqrt(YZ)(sigma_a + sigma_b) vanishes and distinct same-sigma levels are
bilinear-orthogonal, so F[i, k] = sum_j G[j, i] S_j G[j, k] keeps only
i = k = j.  The full G, from biorthogonality_matrix, is the check that
the diagonal form holds.  Each d is a number of its state alone,
2 |wu wl| |integral phi^2| (diagonal_overlap), so the mode-basis builders
build no left partner; only biorthogonality_matrix (rows need q) and
the grid samples do.  In the mode basis a spectral sum is diag(values),
mode_hamiltonian or mode_spin, so spectral_reconstruct is grid-only.

G and the Gram matrix of Theta^{-1} are N x N closed forms of the same
shape: a channel-weight factor times 2 Re(a_i a_j I(kappa_i, kappa_j)),
I the segment integral of two sines.  Both are built as one broadcast
expression over the state arrays (wavefunctions.sine_product_integrals),
not as N^2 scalar calls.  The diagonal of G is still the scalar
biorthogonal_overlap, O(N) calls: numpy's complex multiply and divide
can differ from CPython's in the last bit, and the mode metric
diag(S d^2) is built from the scalar diagonal_overlap, so G's diagonal
must be those same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    MetricConstraintError,
    ModelDomainError,
    NormalizationSingularError,
)
from .model import CouplingPair, GridSpec, OperatorRep, RepBasis, as_index
from .wavefunctions import (
    ChannelState,
    channel_weights,
    phi_bilinear_product,
    quasi_parity,
    sine_product_integrals,
)

# Diagonal pairings scale with sqrt(YZ); below this the metric family
# degenerates and the Hermitian-limit identity metric should be used.
MIN_ROOT_PRODUCT = 1e-6

_OVERLAP_FLOOR = 1e-12
_PANELS = 512  # Simpson panels per half of biorthogonality_matrix's quadrature
_KINDS = ("hamiltonian", "spin", "identity")


def _level_count(n_levels) -> int:
    try:
        return as_index(n_levels, "n_levels must be an integer >= 1", 1)
    except ModelDomainError as exc:
        raise MetricConstraintError(str(exc)) from None


@dataclass(frozen=True, eq=False)
class MetricWeights:
    """Positive weight pair (S_plus, S_minus) per retained level.

    These per-state weights are the whole family: a weight matrix R in
    sum R[a, b] |left_a><<left_b| makes H Hermitian only if
    (E_b - E_a) R[a, b] = 0 and the channel observable only if
    (sigma_b - sigma_a) R[a, b] = 0, and two states differ in E or sigma.

    Physical metrics need strict positivity; sign-indefinite choices are
    admitted only through the unsafe flag of build_theta_metric, for exploring
    the wider pseudo-metric menu.
    """

    s_plus: np.ndarray
    s_minus: np.ndarray

    def __post_init__(self):
        for name in ("s_plus", "s_minus"):
            arr = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if arr.ndim != 1 or not np.all(np.isfinite(arr)):
                raise MetricConstraintError(f"{name} must be a 1-d finite array")
            object.__setattr__(self, name, arr)
        if self.s_plus.shape != self.s_minus.shape:
            raise MetricConstraintError("s_plus and s_minus must have equal length")

    @property
    def n_levels(self) -> int:
        return self.s_plus.size

    def select(self, n: int, sigma: int) -> float:
        if not 0 <= n < self.n_levels:
            raise MetricConstraintError(f"no weight stored for level n={n}")
        return float(self.s_plus[n] if sigma > 0 else self.s_minus[n])

    @classmethod
    def unit(cls, n_levels: int) -> "MetricWeights":
        n_levels = _level_count(n_levels)
        return cls(np.ones(n_levels), np.ones(n_levels))

    @classmethod
    def from_file(cls, path, n_levels: int) -> "MetricWeights":
        """Parse `n S_plus S_minus` lines; missing levels default to 1 1."""
        n_levels = _level_count(n_levels)
        s_plus = np.ones(n_levels)
        s_minus = np.ones(n_levels)
        seen = set()
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 3:
                    raise MetricConstraintError(
                        f"{path}:{lineno}: expected 'n S_plus S_minus', got {raw!r}"
                    )
                try:
                    n = int(parts[0])
                    plus, minus = float(parts[1]), float(parts[2])
                except ValueError as exc:
                    raise MetricConstraintError(f"{path}:{lineno}: {exc}") from exc
                if not (math.isfinite(plus) and math.isfinite(minus)):
                    raise MetricConstraintError(
                        f"{path}:{lineno}: weights must be finite, got {raw!r}"
                    )
                if not 0 <= n < n_levels:
                    raise MetricConstraintError(
                        f"{path}:{lineno}: level {n} outside 0..{n_levels - 1}"
                    )
                if n in seen:
                    raise MetricConstraintError(f"{path}:{lineno}: duplicate level {n}")
                seen.add(n)
                s_plus[n] = plus
                s_minus[n] = minus
        return cls(s_plus, s_minus)


def apply_theta(upper, lower):
    """Swap-reflect pseudo-metric at function level.

    Takes the two channel callables of a state and returns the channels
    of theta applied to it: (x -> lower(-x), x -> upper(-x)).  Applying
    it twice returns the original values pointwise (involution).
    """

    def new_upper(x):
        return lower(np.negative(x))

    def new_lower(x):
        return upper(np.negative(x))

    return new_upper, new_lower


@dataclass(frozen=True, eq=False)
class LeftState:
    """Bra partner of a ChannelState: q times its swap-reflect image."""

    state: ChannelState
    q: int

    def upper(self, x):
        return self.q * self.state.lower(np.negative(x))

    def lower(self, x):
        return self.q * self.state.upper(np.negative(x))


def left_vector(state: ChannelState) -> LeftState:
    """Left eigenvector paired with the given right eigenvector.

    The adjoint operator equals (swap o reflect) H (swap o reflect), so
    the swap-reflected state is an adjoint eigenvector for the same real
    energy; the quasi-parity sign makes the diagonal pairing positive.
    """
    return LeftState(state=state, q=quasi_parity(state))


def _profiles(states):
    # phi coefficients, wavenumbers and (upper, lower) channel weights
    a = np.array([s.phi_coeff for s in states], dtype=complex)
    kappa = np.array([s.kappa for s in states], dtype=complex)
    wu, wl = np.array([channel_weights(s.sigma, s.Y, s.Z) for s in states], dtype=float).T
    return a, kappa, wu, wl


def _bilinear_products(a_row, kappa_row, a, kappa) -> np.ndarray:
    # [i, j] = integral phi_i phi_j dx: phi_bilinear_product over the arrays
    return 2.0 * (a_row[:, None] * a * sine_product_integrals(kappa_row[:, None], kappa)).real


def biorthogonal_overlap(left: LeftState, state: ChannelState) -> float:
    """<<left|state> in closed form.

    Reduces to q * (wl wu' + wu wl') * integral phi phi' through the
    self-conjugacy of the profiles; same-level pairings are positive
    under the quasi-parity convention, everything else vanishes.
    """
    ls = left.state
    if (ls.Y, ls.Z) != (state.Y, state.Z):
        raise ModelDomainError("left and right states belong to different couplings")
    wu_l, wl_l = channel_weights(ls.sigma, ls.Y, ls.Z)
    wu_r, wl_r = channel_weights(state.sigma, state.Y, state.Z)
    factor = left.q * (wl_l * wu_r + wu_l * wl_r)
    return factor * phi_bilinear_product(ls, state)


def diagonal_overlap(state: ChannelState) -> float:
    """d = <<left|state> with the state's own left partner: 2 |wu wl| |integral phi^2|.

    biorthogonal_overlap gives q (wl wu + wu wl) integral phi^2, and wu wl
    has the sign sigma, so q = sigma sign(integral phi^2) cancels both signs:
    the same float, with no left partner built.  Raises only if d == 0.
    """
    wu, wl = channel_weights(state.sigma, state.Y, state.Z)
    d = 2.0 * abs(wu * wl) * abs(phi_bilinear_product(state, state))
    if d == 0.0:
        raise NormalizationSingularError(
            f"diagonal pairing vanishes for level n={state.level.n}, sigma={state.sigma}"
        )
    return d


def biorthogonality_matrix(
    states: Sequence[ChannelState],
    lefts: Sequence[LeftState] | None = None,
    method: str = "closed",
) -> np.ndarray:
    """Pairing matrix G[i, j] = <<left_i|state_j>.

    method "closed" uses the analytic segment integrals, with
    G[i, j] = q_i (wl_i wu_j + wu_i wl_j) 2 Re(a_i a_j I(kappa_i, kappa_j))
    over the left partners' states (row) and the states (column) as one
    vector expression; the diagonal is the scalar biorthogonal_overlap
    (see the module notes), and every state and left partner must share
    one coupling.  "quadrature" recomputes every entry by composite
    Simpson (512 panels per half, the rule of
    wavefunctions.quadrature_overlap) as an independent check of the
    closed forms, sampling each state and each left partner once.
    """
    if lefts is None:
        lefts = [left_vector(s) for s in states]
    if len(lefts) != len(states):
        raise ModelDomainError("need one left vector per state")
    if method == "closed":
        if not states:
            return np.empty((0, 0))
        coupling = (states[0].Y, states[0].Z)
        for x in (*states, *(l.state for l in lefts)):
            if (x.Y, x.Z) != coupling:
                raise ModelDomainError("left and right states belong to different couplings")
        a, kappa, wu, wl = _profiles(states)
        a_l, kappa_l, wu_l, wl_l = _profiles([l.state for l in lefts])
        q = np.array([l.q for l in lefts], dtype=float)[:, None]
        out = q * (wl_l[:, None] * wu + wu_l[:, None] * wl) * _bilinear_products(
            a_l, kappa_l, a, kappa
        )
        # the diagonal from the scalar path, bit for bit that of diagonal_overlap
        out[np.diag_indices_from(out)] = [
            biorthogonal_overlap(l, s) for l, s in zip(lefts, states)
        ]
        return out
    if method == "quadrature":
        nodes, w = _simpson_rule(2 * _PANELS)
        bras = _sample(lefts, nodes)
        kets = _sample(states, nodes)
        return (bras.conj().T * np.concatenate([w, w])) @ kets
    raise ModelDomainError(f"unknown overlap method {method!r}")


def spin_operator(coupling: CouplingPair) -> OperatorRep:
    """Constant 2x2 channel observable commuting with the Hamiltonian.

    Off-diagonal entries sqrt(Z/Y) and sqrt(Y/Z); eigenvalues +-1 label
    the degenerate doublets.
    """
    if coupling.Y <= 0.0 or coupling.Z <= 0.0:
        raise ModelDomainError("spin block needs Y > 0 and Z > 0")
    ratio = math.sqrt(coupling.Z / coupling.Y)
    matrix = np.array([[0.0, ratio], [1.0 / ratio, 0.0]])
    return OperatorRep(matrix, RepBasis.CHANNEL, meta={"coupling": coupling})


def channel_kernel(coupling: CouplingPair, s_plus: float, s_minus: float) -> np.ndarray:
    """2x2 channel-weight matrix of one level's metric contribution.

    [[Y (S+ + S-), sqrt(YZ) (S+ - S-)],
     [sqrt(YZ) (S+ - S-), Z (S+ + S-)]]

    The off-diagonal carries the factor S+ - S-, so equal weights kill
    the channel mixing identically (exact zero, not a small number).
    """
    m = math.sqrt(coupling.Y) * math.sqrt(coupling.Z)
    off, total = m * s_plus - m * s_minus, s_plus + s_minus
    return np.array([[coupling.Y * total, off], [off, coupling.Z * total]])


def _validate_family(states: Sequence[ChannelState]):
    if not states:
        raise ModelDomainError("need at least one state")
    if len(states) % 2 != 0:
        raise ModelDomainError("states must come in complete (n, +1), (n, -1) doublets")
    # the coupling, the level count and the states' (n, sigma) order
    coupling = CouplingPair(states[0].Y, states[0].Z)
    if any((s.Y, s.Z) != (coupling.Y, coupling.Z) for s in states):
        raise ModelDomainError("all states must share one coupling pair")
    n_levels = len(states) // 2
    order = [(s.level.n, s.sigma) for s in states]
    # 2 n_levels states over the 2 n_levels expected labels: none repeats
    if set(order) != {(n, sigma) for n in range(n_levels) for sigma in (+1, -1)}:
        raise ModelDomainError(
            f"states must cover levels 0..{n_levels - 1} with both sigma labels exactly once"
        )
    return coupling, n_levels, order


def _resolve_weights(states, weights, unsafe):
    # the family's meta, its per-state weights and its diagonal pairings d
    coupling, n_levels, order = _validate_family(states)
    if coupling.root_product < MIN_ROOT_PRODUCT:
        raise MetricConstraintError(
            f"sqrt(|YZ|) = {coupling.root_product:.3e} is below {MIN_ROOT_PRODUCT}; "
            "diagonal pairings vanish in the decoupled limit, so no metric of this "
            "family exists there. The Hermitian limit uses the identity metric."
        )
    if weights is None:
        weights = MetricWeights.unit(n_levels)
    if weights.n_levels < n_levels:
        raise MetricConstraintError(f"weights cover {weights.n_levels} levels, need {n_levels}")
    per_state = np.array([weights.select(s.level.n, s.sigma) for s in states], dtype=float)
    if not unsafe and np.any(per_state <= 0.0):
        bad = int(np.argmin(per_state))
        raise MetricConstraintError(
            f"weight {float(per_state[bad])} for state (n={states[bad].level.n}, "
            f"sigma={states[bad].sigma}) is not positive; indefinite weight "
            "choices need unsafe=True"
        )
    meta = {"coupling": coupling, "n_levels": n_levels, "order": order}
    return meta, per_state, _normalizable([diagonal_overlap(s) for s in states])


def _sample(items, nodes) -> np.ndarray:
    # one column [upper(nodes); lower(nodes)] per state or left partner
    columns = np.empty((2 * nodes.size, len(items)), dtype=complex)
    for k, x in enumerate(items):
        columns[: nodes.size, k] = x.upper(nodes)
        columns[nodes.size :, k] = x.lower(nodes)
    return columns


def _grid_sum(items, coeff, grid: GridSpec) -> np.ndarray:
    # sum_i coeff_i |item_i><item_i| on the interior nodes of grid, times h
    if not isinstance(grid, GridSpec):
        raise ModelDomainError(f"grid must be a GridSpec or None, got {grid!r}")
    columns = _sample(items, grid.interior_nodes)
    return (columns * coeff) @ columns.conj().T * grid.h


def build_theta_metric(
    states: Sequence[ChannelState],
    weights: MetricWeights | None = None,
    grid: GridSpec | None = None,
    unsafe: bool = False,
) -> OperatorRep:
    """Assemble the weighted left-projector sum as a form matrix.

    Without a grid, the mode form F = C diag(S) C^T with
    C[i, k] = <state_i|left_k> = G[k, i].  Left and right states are
    biorthogonal (G is diagonal, see the module notes), so
    F = diag(S d^2) with d the closed-form diagonal pairings; it is
    positive definite for positive weights, and meta["signature"] counts
    the signs of S d^2.  With grid= a GridSpec, the grid form: the same
    sum sampled on the interior nodes of `grid` (channel-blocked layout),
    weighted by the node spacing.  The per-level 2x2 channel kernels are
    exposed in meta["channel_kernels"].
    """
    meta, per_state, d = _resolve_weights(states, weights, unsafe)
    by_label = dict(zip(meta["order"], per_state))
    meta["weights_by_state"] = per_state
    meta["channel_kernels"] = [
        channel_kernel(meta["coupling"], by_label[n, +1], by_label[n, -1])
        for n in range(meta["n_levels"])
    ]
    if grid is None:
        diagonal = d * per_state * d
        meta["signature"] = (int(np.sum(diagonal > 0.0)), int(np.sum(diagonal < 0.0)))
        return OperatorRep(np.diag(diagonal), RepBasis.MODE, is_form=True, meta=meta)
    matrix = _grid_sum([left_vector(s) for s in states], per_state, grid)
    meta["grid"] = grid
    return OperatorRep((matrix + matrix.conj().T) / 2.0, RepBasis.GRID, is_form=True, meta=meta)


def _kind_values(states, kind: str) -> np.ndarray:
    # value_i of a spectral sum: the level energy, the spin label, or 1
    if kind not in _KINDS:
        raise ModelDomainError(f"kind must be one of {_KINDS}, got {kind!r}")
    i = _KINDS.index(kind)
    return np.array([(s.level.E, float(s.sigma), 1.0)[i] for s in states])


def _mode_map(states: Sequence[ChannelState], kind: str) -> OperatorRep:
    # the spectral sum of one kind on the mode basis: diag(value_i)
    _, _, order = _validate_family(states)
    return OperatorRep(np.diag(_kind_values(states, kind)), RepBasis.MODE, meta={"order": order})


def mode_hamiltonian(states: Sequence[ChannelState]) -> OperatorRep:
    """Map matrix of the Hamiltonian on its own eigenbasis: diag(E)."""
    return _mode_map(states, "hamiltonian")


def mode_spin(states: Sequence[ChannelState]) -> OperatorRep:
    """Map matrix of the channel observable on the mode basis: diag(sigma)."""
    return _mode_map(states, "spin")


def quasi_hermiticity_defect(op_rep: OperatorRep, theta_rep: OperatorRep) -> float:
    """Normalized size of  M(A)^dagger F(Theta) - F(Theta) M(A).

    Zero exactly when A is Hermitian under the Theta inner product.  The
    operator must be a map representation and the metric a form on the
    same basis.
    """
    if op_rep.basis is not theta_rep.basis:
        raise ModelDomainError(
            f"representations live on different bases: {op_rep.basis} vs {theta_rep.basis}"
        )
    if op_rep.dim != theta_rep.dim:
        raise ModelDomainError("dimension mismatch between operator and metric")
    if op_rep.is_form or not theta_rep.is_form:
        raise ModelDomainError("defect needs an operator map and a metric form")
    m = op_rep.matrix
    f = theta_rep.matrix
    defect = m.conj().T @ f - f @ m
    denom = float(np.max(np.abs(f))) * float(np.max(np.abs(m)))
    if denom == 0.0:
        raise ModelDomainError("zero operator or metric")
    return float(np.max(np.abs(defect))) / denom


def _normalizable(d) -> np.ndarray:
    # the diagonal pairings, refused if any is negligible against the largest
    d = np.array(d, dtype=float)
    scale = float(np.max(np.abs(d))) if d.size else 0.0
    if scale == 0.0 or np.any(np.abs(d) <= _OVERLAP_FLOOR * max(1.0, scale)):
        raise NormalizationSingularError(
            "a diagonal biorthogonal overlap vanishes; spectral sums cannot be normalized"
        )
    return d


def _simpson_rule(intervals: int):
    # nodes (those of GridSpec(intervals)) and weights of composite Simpson
    # with intervals / 2 panels per half, x = 0 shared; walls are dropped
    # because every participating function vanishes there
    if intervals % 4 != 0:
        raise ModelDomainError(
            f"Simpson weighting splits each half into an even panel count: "
            f"M must be divisible by 4, got {intervals}"
        )
    half = intervals // 2
    h = 2.0 / intervals
    pattern = np.ones(half + 1)
    pattern[1:-1:2] = 4.0
    pattern[2:-1:2] = 2.0
    pattern *= h / 3.0
    full = np.zeros(intervals + 1)
    full[: half + 1] += pattern
    full[half:] += pattern
    return h * (np.arange(1, intervals) - half), full[1:-1]


def spectral_reconstruct(states: Sequence[ChannelState], kind: str, grid: GridSpec) -> OperatorRep:
    """Truncated spectral sum  sum_i value_i |state_i><<left_i| / d_i
    on the interior nodes of `grid` (M divisible by 4), left_i =
    left_vector(state_i), whose sign q_i enters the bra and d_i alike.

    kind selects value_i: the level energy ("hamiltonian"), the spin
    label ("spin"), or 1 ("identity", the completeness partial sum).
    The bra integrals use Simpson node weights so that the
    reconstruction error on the retained span is quadrature-limited.
    """
    values = _kind_values(states, kind)
    lefts = [left_vector(s) for s in states]
    d = _normalizable([biorthogonal_overlap(l, s) for l, s in zip(lefts, states)])
    nodes, w = _simpson_rule(grid.M)
    w2 = np.concatenate([w, w])
    right = _sample(states, nodes)
    bras = _sample(lefts, nodes)
    matrix = (right * (values / d)) @ (bras.conj() * w2[:, None]).T
    order = [(s.level.n, s.sigma) for s in states]
    meta = {"kind": kind, "order": order, "grid": grid, "rule": "simpson"}
    return OperatorRep(matrix=matrix, basis=RepBasis.GRID, is_form=False, meta=meta)


def inverse_theta_metric(
    states: Sequence[ChannelState],
    weights: MetricWeights | None = None,
    grid: GridSpec | None = None,
) -> OperatorRep:
    """Map representation of Theta^{-1} = sum |state> <state| / (S d^2).

    The coefficients are reciprocals of the metric's weights through the
    squared diagonal pairings d; composing with the metric reproduces
    the identity on the retained span (see inverse_identity_defect).
    Without a grid: coeff_i times the Gram matrix of the states,
    (wu_i wu_j + wl_i wl_j) 2 Re(conj(a_i) a_j I(conj(kappa_i), kappa_j)),
    one vector expression (see the module notes).  With grid= a
    GridSpec: the same sum sampled on its interior nodes.
    """
    meta, per_state, d = _resolve_weights(states, weights, False)
    coeff = 1.0 / (per_state * d * d)
    meta.update({"coefficients": coeff, "diagonal_overlaps": d})
    if grid is not None:
        meta["grid"] = grid
        return OperatorRep(_grid_sum(states, coeff, grid), RepBasis.GRID, meta=meta)
    # the sesquilinear Gram matrix is the bilinear one with the row conjugated
    a, kappa, wu, wl = _profiles(states)
    gram = (wu[:, None] * wu + wl[:, None] * wl) * _bilinear_products(
        a.conj(), kappa.conj(), a, kappa
    )
    return OperatorRep(coeff[:, None] * gram, RepBasis.MODE, meta=meta)


def inverse_identity_defect(
    theta_rep: OperatorRep,
    states: Sequence[ChannelState],
    weights: MetricWeights | None = None,
) -> float:
    """Max deviation of Theta^{-1} Theta from the identity on the span.

    In mode coordinates the basis Gram matrix of the inverse's map and
    the metric's form cancel exactly, so the composition reduces to
    diag(1/(S d^2)) F(Theta); no matrix inversion enters the check.
    """
    if theta_rep.basis is not RepBasis.MODE or not theta_rep.is_form:
        raise ModelDomainError("identity check expects the mode-basis metric form")
    _, per_state, d = _resolve_weights(states, weights, False)
    if theta_rep.dim != len(states):
        raise ModelDomainError("metric dimension does not match the state list")
    coeff = 1.0 / (per_state * d * d)
    product = coeff[:, None] * theta_rep.matrix
    return float(np.max(np.abs(product - np.eye(len(states)))))
