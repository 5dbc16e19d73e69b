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
2 |wu wl| |integral phi^2| (diagonal_overlap), and so is q; each state
caches both (ChannelState.d, .q), and only the grid samples read left
partners, from their states' own samples.  In the mode basis a spectral
sum is diag(values), mode_hamiltonian or mode_spin, so
spectral_reconstruct is grid-only.

G and the Gram matrix of Theta^{-1} are N x N closed forms of the same
shape: a channel-weight factor times 2 Re(a_i a_j I(kappa_i, kappa_j)),
I the segment integral of two sines, one broadcast expression
(wavefunctions.sine_product_integrals).  A family is read by position in
doublet_family order, sigma = +1 members at [0::2] and partners at [1::2].
A sigma = -1 state carries its partner's a and kappa conjugated, so it
pairs as its partner does, d_- = d_+ and q_- = -q_+ (with the lower
channel weight f_- = -f_+, (-q)(-f) = qf), and its rows copy the
partner's, bit for bit: the builders evaluate the sigma = +1 rows, d and
q only.  G's opposite-sigma entries are exact zeros and its diagonal is d.
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
from .model import BranchClass, CouplingPair, GridSpec, OperatorRep, RepBasis, as_index
from .wavefunctions import (
    ChannelState,
    channel_weights,
    simpson_rule,
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


@dataclass(frozen=True, eq=False)
class LeftState:
    """Bra partner of a ChannelState: q times its swap-reflect image."""

    state: ChannelState
    q: int


def left_vector(state: ChannelState) -> LeftState:
    """Left eigenvector paired with the given right eigenvector.

    The adjoint operator equals (swap o reflect) H (swap o reflect), so
    the swap-reflected state is an adjoint eigenvector for the same real
    energy; the quasi-parity sign makes the diagonal pairing positive.
    """
    return LeftState(state=state, q=state.q)


def _profiles(states):
    # phi coefficients, wavenumbers and (upper, lower) channel weights
    a = np.array([s.phi_coeff for s in states], dtype=complex)
    kappa = np.array([s.kappa for s in states], dtype=complex)
    wu, wl = np.array([channel_weights(s.sigma, s.Y, s.Z) for s in states], dtype=float).T
    return a, kappa, wu, wl


def _shared_coupling(states) -> CouplingPair:
    # the coupling of a non-empty sequence of states, refused if two differ
    Y, Z = states[0].Y, states[0].Z
    if any((s.Y, s.Z) != (Y, Z) for s in states):
        raise ModelDomainError("states belong to different couplings")
    return CouplingPair(Y, Z)


def _bilinear_products(a_row, kappa_row, a, kappa) -> np.ndarray:
    # [i, j] = integral phi_i phi_j dx: phi_bilinear_product over the arrays
    return 2.0 * (a_row[:, None] * a * sine_product_integrals(kappa_row[:, None], kappa)).real


def diagonal_overlap(state: ChannelState) -> float:
    """d = <<left|state> with the state's own left partner: 2 |wu wl| |integral phi^2|.

    The pairing is q (wl wu + wu wl) integral phi^2, and wu wl has the
    sign sigma, so q = sigma sign(integral phi^2) cancels both signs: the
    same float, with no left partner built (cached as ChannelState.d).
    Raises only if d == 0.
    """
    d = state.d
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

    method "closed" uses the analytic segment integrals, for the states
    paired with their own left partners; they must be complete doublets
    in doublet_family order.  One vector expression
    G[i, j] = q_i (wl_i wu_j + wu_i wl_j) 2 Re(a_i a_j I(kappa_i, kappa_j))
    gives the sigma = +1 block, and d the diagonal (see the module notes).
    Explicit lefts raise ModelDomainError there.  "quadrature" recomputes
    every entry by composite Simpson, wavefunctions.simpson_rule with 512
    panels per half, as an independent check of the closed forms, for
    any states and left partners of one coupling (their own partners
    when lefts is None).  It evaluates each state's profile once, and
    each explicit left partner's state once; the states and their left
    partners are read from those samples (_sample).  The rule drops the
    wall nodes, where every state and left partner vanishes.
    """
    if method == "closed":
        if lefts is not None:
            raise ModelDomainError("the closed pairing takes no explicit lefts; "
                                   'use method="quadrature"')
        return _doublet_pairing(states) if states else np.empty((0, 0))
    if method != "quadrature":
        raise ModelDomainError(f"unknown overlap method {method!r}")
    own = lefts is None
    lefts = [left_vector(s) for s in states] if own else lefts
    if len(lefts) != len(states):
        raise ModelDomainError("need one left vector per state")
    if states:
        _shared_coupling([*states, *(l.state for l in lefts)])
    nodes, w = simpson_rule(2 * _PANELS)
    channels = _sample(states, nodes)
    partners = channels if own else _sample([l.state for l in lefts], nodes)
    bras = _bras(partners, [l.q for l in lefts])
    return (bras.conj().T * np.concatenate([w, w])) @ _kets(channels)


def _doublet_pairing(states) -> np.ndarray:
    # G of a doublet family with its own left partners: its opposite-sigma blocks
    # are exact zeros, its sigma = -1 block is the sigma = +1 one (module notes)
    _validate_family(states)
    plus = states[0::2]
    a, kappa, wu, wl = _profiles(plus)
    q = np.array([s.q for s in plus], dtype=float)
    factor = wl[:, None] * wu + wu[:, None] * wl
    block = q[:, None] * factor * _bilinear_products(a, kappa, a, kappa)
    block[np.diag_indices_from(block)] = [s.d for s in plus]
    out = np.zeros((len(states), len(states)))
    out[0::2, 0::2] = out[1::2, 1::2] = block
    return out


def spin_operator(coupling: CouplingPair) -> OperatorRep:
    """Constant 2x2 channel observable commuting with the Hamiltonian.

    Off-diagonal entries sqrt(Z/Y) and sqrt(Y/Z); eigenvalues +-1 label
    the degenerate doublets.  The ratio is the quotient of the channel
    weights (wavefunctions.channel_weights), which also refuses every
    coupling but Y > 0 and Z > 0; a decoupled coupling fixes no spin
    block and is refused too, and so is a ratio out of the float range.
    """
    if coupling.branch is BranchClass.DECOUPLED:
        raise ModelDomainError("spin block needs Y > 0 and Z > 0, got a decoupled coupling")
    upper, lower = channel_weights(+1, coupling.Y, coupling.Z)
    ratio = upper / lower
    if not (0.0 < ratio < math.inf and 1.0 / ratio < math.inf):
        raise ModelDomainError(f"spin block entry sqrt(Z/Y) = {ratio:.3e} or its inverse overflows")
    matrix = np.array([[0.0, ratio], [1.0 / ratio, 0.0]])
    return OperatorRep(matrix, RepBasis.CHANNEL, meta={"coupling": coupling})


def channel_kernel(coupling: CouplingPair, s_plus: float, s_minus: float) -> np.ndarray:
    """2x2 channel-weight matrix of one level's metric contribution.

    [[Y (S+ + S-), sqrt(YZ) (S+ - S-)],
     [sqrt(YZ) (S+ - S-), Z (S+ + S-)]]

    The off-diagonal carries the factor S+ - S-, so equal weights kill
    the channel mixing identically (exact zero, not a small number).
    For arrays of weights the kernels run along the last axis.
    """
    m = math.sqrt(coupling.Y) * math.sqrt(coupling.Z)
    off, total = m * s_plus - m * s_minus, s_plus + s_minus
    return np.array([[coupling.Y * total, off], [off, coupling.Z * total]])


def _validate_family(states: Sequence[ChannelState]):
    # the coupling and the (n, sigma) labels of a family in doublet_family order
    if not states:
        raise ModelDomainError("need at least one state")
    coupling = _shared_coupling(states)
    order = [(s.level.n, s.sigma) for s in states]
    if order != [(n, sigma) for n in range(len(states) // 2) for sigma in (+1, -1)]:
        raise ModelDomainError("states must be complete doublets in doublet_family order "
                               "(0, +1), (0, -1), (1, +1), ...")
    return coupling, order


def _resolve_weights(states, weights, unsafe):
    # the family's meta, its per-state weights, its diagonal pairings d (d_- = d_+)
    # and its channel kernels [n, i, k], refused if an entry of one is not finite:
    # the form, the inverse and the identity defect refuse by this one contract
    coupling, order = _validate_family(states)
    n_levels = len(states) // 2
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
    per_state = np.stack((weights.s_plus[:n_levels], weights.s_minus[:n_levels]), axis=1).ravel()
    if not unsafe and np.any(per_state <= 0.0):
        bad = int(np.argmin(per_state))
        raise MetricConstraintError(
            f"weight {float(per_state[bad])} for state (n={states[bad].level.n}, "
            f"sigma={states[bad].sigma}) is not positive; indefinite weight "
            "choices need unsafe=True"
        )
    meta = {"coupling": coupling, "n_levels": n_levels, "order": order}
    d = _normalizable(np.repeat([diagonal_overlap(s) for s in states[0::2]], 2))
    with np.errstate(over="ignore", invalid="ignore"):
        kernels = channel_kernel(coupling, weights.s_plus[:n_levels], weights.s_minus[:n_levels])
    kernels = np.moveaxis(kernels, -1, 0)
    _require_finite("channel kernel [n, i, k]", kernels)
    return meta, per_state, d, kernels


def _sample(states, nodes) -> tuple[np.ndarray, np.ndarray]:
    # A S and B S on the x <= 0 nodes, one column per state, from one profile
    # S = sin(kappa (x+1)) per state and node.  The nodes (simpson_rule's, which
    # are GridSpec.interior_nodes) are exactly antisymmetric with x = 0 exact, and
    # 1 - (-x) = x + 1 bit for bit, so the x > 0 half of every state and left
    # partner is this half mirrored: each column is the arithmetic of
    # wavefunctions._segment_sine at every node
    x = nodes[: nodes.size // 2 + 1]
    kappa = np.array([s.kappa for s in states], dtype=complex)
    profile = np.sin(kappa * (x + 1.0)[:, None])
    upper = np.array([s.A for s in states], dtype=complex) * profile
    lower = np.array([s.B for s in states], dtype=complex) * profile
    return upper, lower


def _kets(channels) -> np.ndarray:
    # one column [upper(nodes); lower(nodes)] per state: conjugated on x > 0
    upper, lower = channels
    return np.concatenate([upper, upper[-2::-1].conj(), lower, lower[-2::-1].conj()])


def _bras(channels, q) -> np.ndarray:
    # one column per left partner, q times the swap-reflect image of its state:
    # (q lower(-x), q upper(-x)), conjugated on x < 0, where -x > 0
    upper, lower = channels
    q = np.array(q, dtype=int)
    return q * np.concatenate([lower[:-1].conj(), lower[::-1], upper[:-1].conj(), upper[::-1]])


def _require_grid(grid) -> None:
    if not isinstance(grid, GridSpec):
        raise ModelDomainError(f"grid must be a GridSpec, got {grid!r}")


def _grid_sum(columns, coeff, grid: GridSpec) -> np.ndarray:
    # sum_i coeff_i |column_i><column_i| on the interior nodes of grid, times h
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
    meta, per_state, d, kernels = _resolve_weights(states, weights, unsafe)
    meta["weights_by_state"] = per_state
    meta["channel_kernels"] = list(kernels)
    if grid is None:
        # an entry that leaves the float range is refused by _finite_form, not warned of
        with np.errstate(over="ignore"):
            diagonal = d * per_state * d
        meta["signature"] = (int(np.sum(diagonal > 0.0)), int(np.sum(diagonal < 0.0)))
        return _finite_form(np.diag(diagonal), RepBasis.MODE, meta)
    _require_grid(grid)
    bras = _bras(_sample(states, grid.interior_nodes), [s.q for s in states])
    with np.errstate(over="ignore", invalid="ignore"):
        # symmetrized in place: (F + F^dagger) / 2 with one temporary
        matrix = _grid_sum(bras, per_state, grid)
        matrix += matrix.conj().T
        matrix /= 2.0
    meta["grid"] = grid
    return _finite_form(matrix, RepBasis.GRID, meta)


def _finite_form(matrix, basis, meta) -> OperatorRep:
    # the metric form, refused if an entry of it is not finite
    _require_finite("metric form [i, k]", matrix)
    return OperatorRep(matrix, basis, is_form=True, meta=meta)


def _require_finite(what, entries) -> None:
    if not np.isfinite(entries).all():
        index = np.argwhere(~np.isfinite(entries))[0]
        raise MetricConstraintError(f"{what} = {index.tolist()} is {entries[tuple(index)]}: "
                                    "the coupling or the weights leave the float range")


def _kind_values(states, kind: str) -> np.ndarray:
    # value_i of a spectral sum: the level energy, the spin label, or 1
    if kind not in _KINDS:
        raise ModelDomainError(f"kind must be one of {_KINDS}, got {kind!r}")
    i = _KINDS.index(kind)
    return np.array([(s.level.E, float(s.sigma), 1.0)[i] for s in states])


def _mode_map(states: Sequence[ChannelState], kind: str) -> OperatorRep:
    # the spectral sum of one kind on the mode basis: diag(value_i)
    _, order = _validate_family(states)
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


def spectral_reconstruct(states: Sequence[ChannelState], kind: str, grid: GridSpec) -> OperatorRep:
    """Truncated spectral sum  sum_i value_i |state_i><<left_i| / d_i
    on the interior nodes of `grid` (M divisible by 4), left_i =
    left_vector(state_i), whose sign q_i enters the bra and d_i alike.

    kind selects value_i: the level energy ("hamiltonian"), the spin
    label ("spin"), or 1 ("identity", the completeness partial sum).
    The bra integrals use Simpson node weights so that the
    reconstruction error on the retained span is quadrature-limited.
    """
    _require_grid(grid)
    values = _kind_values(states, kind)
    d = _normalizable([s.d for s in states])
    nodes, w = simpson_rule(grid.M)
    w2 = np.concatenate([w, w])
    channels = _sample(states, nodes)
    right, bras = _kets(channels), _bras(channels, [s.q for s in states])
    matrix = (right * (values / d)) @ (bras.conj() * w2[:, None]).T
    order = [(s.level.n, s.sigma) for s in states]
    meta = {"kind": kind, "order": order, "grid": grid, "rule": "simpson"}
    return OperatorRep(matrix=matrix, basis=RepBasis.GRID, is_form=False, meta=meta)


def _inverse_coefficients(states, per_state, d) -> np.ndarray:
    # 1 / (S d^2) per state, S d^2 the form's own d S d: refused where either
    # leaves the float range, so with the kernels' check the inverse refuses
    # every weight the form does
    with np.errstate(over="ignore", divide="ignore"):
        form = _in_float_range("S d^2", d * per_state * d, states, per_state)
        return _in_float_range("inverse coefficient 1/(S d^2)", 1.0 / form, states, per_state)


def _in_float_range(what, values, states, per_state) -> np.ndarray:
    # values, refused naming the first state whose entry is not finite
    if not np.isfinite(values).all():
        bad = int(np.argmin(np.isfinite(values)))
        raise MetricConstraintError(
            f"{what} of state (n={states[bad].level.n}, sigma={states[bad].sigma}) is "
            f"{values[bad]}: the weight {per_state[bad]} takes it out of the float range"
        )
    return values


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
    GridSpec: the same sum sampled on its interior nodes.  A map with an
    entry that is not finite is refused (MetricConstraintError), as the
    form is.
    """
    meta, per_state, d, _ = _resolve_weights(states, weights, False)
    coeff = _inverse_coefficients(states, per_state, d)
    meta.update({"coefficients": coeff, "diagonal_overlaps": d})
    with np.errstate(over="ignore", invalid="ignore"):
        if grid is not None:
            _require_grid(grid)
            meta["grid"] = grid
            kets = _kets(_sample(states, grid.interior_nodes))
            matrix, basis = _grid_sum(kets, coeff, grid), RepBasis.GRID
        else:
            # the sesquilinear Gram matrix is the bilinear one with the row conjugated;
            # a sigma = -1 row is its partner's row with each level's two columns
            # swapped, because its a and kappa are the partner's conjugated
            a, kappa, wu, wl = _profiles(states)
            rows = (wu[0::2, None] * wu + wl[0::2, None] * wl) * _bilinear_products(
                a[0::2].conj(), kappa[0::2].conj(), a, kappa
            )
            gram = np.empty((len(states), len(states)))
            gram[0::2] = rows
            gram[1::2, 1::2], gram[1::2, 0::2] = rows[:, 0::2], rows[:, 1::2]
            matrix, basis = coeff[:, None] * gram, RepBasis.MODE
    _require_finite("inverse map [i, k]", matrix)
    return OperatorRep(matrix, basis, meta=meta)


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
    _, per_state, d, _ = _resolve_weights(states, weights, False)
    if theta_rep.dim != len(states):
        raise ModelDomainError("metric dimension does not match the state list")
    coeff = _inverse_coefficients(states, per_state, d)
    product = coeff[:, None] * theta_rep.matrix
    return float(np.max(np.abs(product - np.eye(len(states)))))
