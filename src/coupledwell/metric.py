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
(see OperatorRep).  Metrics are built as forms F[i,k] =
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
the diagonal form holds, and its quadrature, which sums the x < 0 half
of Simpson's rule once, checks the closed G.  Each d is a number of its
state alone, 2 |wu wl| |integral phi^2|, and so is q; doublet_family
stores both with each state as it builds it (ChannelState.d, .q), and
only the grid samples read left partners, from their states' own
samples.  In the mode basis a spectral sum is diag(values),
mode_hamiltonian or mode_spin.

G and the Gram matrix of Theta^{-1} are N x N closed forms of the same
shape: a channel-weight factor times 2 Re(a_i a_j I(kappa_i, kappa_j)),
I the segment integral of two sines, one broadcast expression
(sine_product_integrals).  I is taken in the rank-2 form
(sin p q cos q - p cos p sin q) / ((p - q)(p + q)), the Wronskian of the
two segment sines at the matching point, so a block costs O(N) complex
sines; pairs with |p - q| < NEAR_WAVENUMBERS, where that numerator
cancels, keep the difference form of wavefunctions.sine_product_integral,
the scalar reference.  A family is read by position in doublet_family
order, sigma = +1 members at [0::2] and partners at [1::2].
A sigma = -1 state carries its partner's a and kappa conjugated, so it
pairs as its partner does, d_- = d_+ and q_- = -q_+ (with the lower
channel weight f_- = -f_+, (-q)(-f) = qf), and its rows copy the
partner's, bit for bit: the builders evaluate the sigma = +1 rows only,
and doublet_family the sigma = +1 d and q.  G's opposite-sigma entries
are exact zeros and its diagonal is d.

The weight contract (MetricWeights, the family checks, d, the kernels,
S d^2, 1/(S d^2), the spin ratio and the identity defect) is float
arithmetic in _weights, shared with the CLI's `metric` and the `verify`
battery; a family is resolved once for the builder calls in a row that
pass the same states and weights, and the builders that take no weights
(the pairing and the mode maps) read its check from that resolution
(_weights.family_order).  The mode-basis quasi_hermiticity_defect is
_weights.mode_defect, `verify`'s rows too; the battery keeps a float twin
of the closed pairing, and says why both stay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Sequence

import numpy as np

from ._weights import (MIN_ROOT_PRODUCT, MetricWeights, _shared_coupling, family_order,
                       identity_defect, inverse_coefficients, mode_defect, out_of_range,
                       resolve_weights)
from .errors import ModelDomainError
from .model import GridSpec, RepBasis
from .wavefunctions import NEAR_WAVENUMBERS, ChannelState, channel_weights

_PANELS = 512  # Simpson panels per half of biorthogonality_matrix's quadrature


@dataclass(frozen=True, eq=False)
class OperatorRep:
    """Dense matrix representation of an operator on a chosen basis.

    is_form distinguishes the two ways a matrix can represent an
    operator on a non-orthonormal basis: a map matrix M (A e_k =
    sum_i M[i,k] e_i) or a form matrix F[i,k] = <e_i|A e_k>.  Metrics
    are forms; Hamiltonians and the channel swap observable are maps.
    """

    matrix: np.ndarray
    basis: RepBasis
    is_form: bool = False
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ModelDomainError(f"operator matrix must be square, got shape {m.shape}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


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


def _coefficients(states):
    # phi coefficients and wavenumbers of states of one coupling
    a = np.array([s.phi_coeff for s in states], dtype=complex)
    return a, np.array([s.kappa for s in states], dtype=complex)


def _bilinear_products(a_row, a, integrals) -> np.ndarray:
    # [i, j] = integral phi_i phi_j dx: phi_bilinear_product over the arrays
    return 2.0 * (a_row[:, None] * a * integrals).real


def sine_product_integrals(p, q, diagonal=True) -> np.ndarray:
    """wavefunctions.sine_product_integral over broadcast arrays of complex
    wavenumbers (at least 1-d), in the rank-2 form

        I(p, q) = (sin p  q cos q - p cos p  sin q) / ((p - q)(p + q)),

    so sin and cos are taken once per entry of p and of q: an N x N block
    costs O(N) complex sines and O(N^2) multiply-adds.  The numerator
    cancels as p nears q, which leaves an error of ~eps e^(|Im p| + |Im q|)
    / |p - q|; entries with |p - q| < NEAR_WAVENUMBERS keep the scalar's
    difference form and same-wavenumber branch, which form p - q directly,
    and are gathered and evaluated alone.  diagonal=False leaves the
    diagonal of a square block to the caller (the pairing's d): it is not
    gathered and holds the rank-2 numerator.  The forms differ in the last
    bits, and numpy's complex arithmetic may differ from CPython's there
    too: the scalar stays the reference of the tests.
    """
    p, q = np.asarray(p, dtype=complex), np.asarray(q, dtype=complex)
    diff = p - q
    near = np.abs(diff) < NEAR_WAVENUMBERS
    denominator = diff * (p + q)
    denominator[near] = 1.0
    out = (np.sin(p) * (q * np.cos(q)) - (p * np.cos(p)) * np.sin(q)) / denominator
    if not diagonal:
        near.flat[:: len(near) + 1] = False
    if near.any():
        p, q = np.broadcast_to(p, near.shape)[near], np.broadcast_to(q, near.shape)[near]
        diff, total = p - q, p + q
        same = np.abs(diff) < 1e-14 * np.maximum(1.0, np.abs(p))
        apart = np.sin(diff) / (2.0 * np.where(same, 1.0, diff)) - np.sin(total) / (2.0 * total)
        out[near] = np.where(same, 0.5 - np.sin(2.0 * p) / (4.0 * p), apart)
    return out


def simpson_rule(intervals: int):
    """Nodes and weights of composite Simpson on (-1, 1) split at the x = 0 kink.

    The nodes are those of GridSpec(intervals), interior only, with
    intervals / 2 panels on each half (intervals divisible by 4) and
    x = 0 shared by the halves.  The wall nodes are dropped: every state
    and left partner vanishes there.  This is the one rule behind the
    quadrature method of biorthogonality_matrix.
    """
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
    every entry by composite Simpson, simpson_rule with 512
    panels per half, as an independent check of the closed forms, for
    any states and left partners of one coupling (their own partners
    when lefts is None).  It evaluates each state's profile once, and
    each explicit left partner's state once, as S = sin(kappa (x+1)) on
    x <= 0 (_sample), and sums that half once, primes for the partner's:
    G[i, j] = q_i (2 Re[(B'_i A_j + A'_i B_j) sum_{x<0} w S'_i S_j]
    + w(0) [conj(B'_i S'_i(0)) A_j S_j(0) + conj(A'_i S'_i(0)) B_j S_j(0)]),
    as each x > 0 term is the conjugate of the x < 0 term at -x.  The rule
    drops the wall nodes, where every state and left partner vanishes.
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
    profile, coefficients = samples = _sample(states, nodes)
    partner_profile, partner_coefficients = samples if own else _sample([l.state for l in lefts], nodes)
    # x = 0 is the last node sampled; swap holds the rows (B'_i, A'_i) that meet (A_j, B_j)
    half = nodes.size // 2
    swap = partner_coefficients[::-1].T
    bulk = (partner_profile[:-1].T * w[:half]) @ profile[:-1]
    edge = (swap * partner_profile[-1, :, None]).conj() @ (coefficients * profile[-1])
    q = np.array([l.q for l in lefts], dtype=float)
    return q[:, None] * (2.0 * ((swap @ coefficients) * bulk).real + w[half] * edge)


def _doublet_pairing(states) -> np.ndarray:
    # G of a doublet family with its own left partners: its opposite-sigma blocks
    # are exact zeros, its sigma = -1 block is the sigma = +1 one (module notes), with
    # one channel factor wl wu + wu wl and d on the diagonal.
    # battery.verify's float twin loads no numpy; this one is the faster, 0.07
    # against 0.29 ms at 40 levels, on a 0.89 ms `closed-form` request (2-core x86)
    family_order(states)
    plus = states[0::2]
    a, kappa = _coefficients(plus)
    upper, lower = channel_weights(+1, plus[0].Y, plus[0].Z)
    q = np.array([s.q for s in plus], dtype=float) * (lower * upper + upper * lower)
    block = q[:, None] * _bilinear_products(a, a, sine_product_integrals(kappa[:, None], kappa, False))
    block.flat[:: len(plus) + 1] = [s.d for s in plus]
    out = np.zeros((len(states), len(states)))
    out[0::2, 0::2] = out[1::2, 1::2] = block
    return out


def _sample(states, nodes) -> tuple[np.ndarray, np.ndarray]:
    # the profile S = sin(kappa (x+1)) on the x <= 0 nodes, one column per state,
    # and the rows (A, B) of channel coefficients.  The nodes (simpson_rule's, which
    # are GridSpec.interior_nodes) are exactly antisymmetric with x = 0 exact, and
    # 1 - (-x) = x + 1 bit for bit, so the x > 0 half of every state and left
    # partner is this half mirrored: A S and B S are the arithmetic of
    # wavefunctions._segment_sine at every node
    x = nodes[: nodes.size // 2 + 1]
    kappa = np.array([s.kappa for s in states], dtype=complex)
    coefficients = np.array([[s.A for s in states], [s.B for s in states]], dtype=complex)
    return np.sin(kappa * (x + 1.0)[:, None]), coefficients


def _kets(samples) -> np.ndarray:
    # one column [upper(nodes); lower(nodes)] per state: conjugated on x > 0
    profile, coefficients = samples
    upper, lower = coefficients[:, None] * profile
    return np.concatenate([upper, upper[-2::-1].conj(), lower, lower[-2::-1].conj()])


def _bras(samples, q) -> np.ndarray:
    # one column per left partner, q times the swap-reflect image of its state:
    # (q lower(-x), q upper(-x)), conjugated on x < 0, where -x > 0
    profile, coefficients = samples
    upper, lower = coefficients[:, None] * profile
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
    family = resolve_weights(states, weights, unsafe)
    kernels = list(np.array(family.kernels).reshape(-1, 2, 2))
    per_state = np.array(family.per_state)
    meta = dict(family.meta, weights_by_state=per_state, channel_kernels=kernels)
    if grid is None:
        meta["signature"] = family.signature
        return OperatorRep(np.diag(family.mode_form()), RepBasis.MODE, is_form=True, meta=meta)
    _require_grid(grid)
    bras = _bras(_sample(states, grid.interior_nodes), [s.q for s in states])
    with np.errstate(over="ignore", invalid="ignore"):
        # symmetrized in place: (F + F^dagger) / 2 with one temporary
        matrix = _grid_sum(bras, per_state, grid)
        matrix += matrix.conj().T
        matrix /= 2.0
    meta["grid"] = grid
    _require_finite("metric form [i, k]", matrix)
    return OperatorRep(matrix, RepBasis.GRID, is_form=True, meta=meta)


def _require_finite(what, entries) -> None:
    if not np.isfinite(entries).all():
        index = np.argwhere(~np.isfinite(entries))[0]
        raise out_of_range(what, index.tolist(), entries[tuple(index)])


def _mode_map(states: Sequence[ChannelState], label: str) -> OperatorRep:
    # a spectral sum on the mode basis: diag(float(state_i.<label>))
    order = family_order(states)
    values = np.fromiter(map(attrgetter(label), states), float, len(states))
    return OperatorRep(np.diag(values), RepBasis.MODE, meta={"order": order})


def mode_hamiltonian(states: Sequence[ChannelState]) -> OperatorRep:
    """Map matrix of the Hamiltonian on its own eigenbasis: diag(E)."""
    return _mode_map(states, "level.E")


def mode_spin(states: Sequence[ChannelState]) -> OperatorRep:
    """Map matrix of the channel observable on the mode basis: diag(sigma)."""
    return _mode_map(states, "sigma")


def quasi_hermiticity_defect(op_rep: OperatorRep, theta_rep: OperatorRep) -> float:
    """Normalized size of  M(A)^dagger F(Theta) - F(Theta) M(A).

    Zero exactly when A is Hermitian under the Theta inner product.  The
    operator must be a map representation and the metric a form on the
    same basis.  Real matrices zero off a finite diagonal, as the mode maps
    and form are, take the dense product's bits from its float body on the
    diagonal, _weights.mode_defect (`verify`'s); other maps (the doublet swap
    of demos/metric_family.py) and grid forms take the dense product.
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
    values, form = _real_diagonal(m), _real_diagonal(f)
    if values is not None and form is not None:
        return mode_defect(values, form)
    defect = m.conj().T @ f - f @ m
    denom = float(np.max(np.abs(f))) * float(np.max(np.abs(m)))
    if denom == 0.0:
        raise ModelDomainError("zero operator or metric")
    return float(np.max(np.abs(defect))) / denom


def _real_diagonal(matrix):
    # the diagonal of a non-empty real matrix as floats, if it is finite and the rest is
    # zero, else None (a finite diagonal whose sum overflows takes the dense product)
    values = np.diagonal(matrix).tolist() if matrix.dtype.kind == "f" else []
    if values and math.isfinite(sum(values)):
        return values if np.count_nonzero(matrix) == len(values) - values.count(0.0) else None
    return None


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
    family = resolve_weights(states, weights, False)
    coeff = np.array(inverse_coefficients(states, family))
    meta = dict(family.meta, coefficients=coeff, diagonal_overlaps=np.array(family.d))
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
            a, kappa = _coefficients(states)
            integrals = sine_product_integrals(kappa[0::2, None].conj(), kappa)
            rows = _bilinear_products(a[0::2].conj(), a, integrals)
            upper, lower = channel_weights(+1, states[0].Y, states[0].Z)
            pairs = rows.reshape(-1, 2)  # wu wu' + wl wl' by the column's sigma
            pairs *= (upper * upper + lower * lower, upper * upper + lower * -lower)
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
    diag(1/(S d^2)) F(Theta), _weights.identity_defect, which refuses an
    entry out of the float range (MetricConstraintError).  A form that is
    not a diagonal mode form raises ModelDomainError.
    """
    form = np.diagonal(theta_rep.matrix).tolist()
    if (theta_rep.basis is not RepBasis.MODE or not theta_rep.is_form
            or np.count_nonzero(theta_rep.matrix) > len(form) - form.count(0.0)):
        raise ModelDomainError("identity check expects the mode-basis metric form")
    family = resolve_weights(states, weights, False)
    if theta_rep.dim != len(states):
        raise ModelDomainError("metric dimension does not match the state list")
    return identity_defect(inverse_coefficients(states, family), form)
