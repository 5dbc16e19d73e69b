"""Metric layer: swap-reflect conjugation, biorthogonal pairings, weighted
metric family, inverses and spectral sums."""

import collections
import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import coupledwell._weights as weights_module
import coupledwell.metric as metric_module
import coupledwell.wavefunctions as wavefunctions_module
from coupledwell import (
    ChannelState,
    CouplingPair,
    GridSpec,
    LeftState,
    MetricConstraintError,
    MetricWeights,
    ModelDomainError,
    NormalizationSingularError,
    OperatorRep,
    RepBasis,
    biorthogonality_matrix,
    build_hamiltonian,
    build_theta_metric,
    doublet_family,
    inverse_identity_defect,
    inverse_theta_metric,
    left_vector,
    mode_hamiltonian,
    mode_spin,
    parity_overlap,
    quasi_hermiticity_defect,
    quasi_parity,
    solve_coefficients,
    solve_level,
)
from coupledwell.metric import sine_product_integrals
from coupledwell.wavefunctions import sine_product_integral
from test_doublet_reference import (
    _reference_dense_defect,
    apply_theta,
    assert_same_bytes,
    biorthogonal_overlap,
    channels,
    discrete_theta,
    phi_sesquilinear_product,
    quadrature_overlap,
    reference_sample,
    reference_spectral_sum,
    spin_block,
)

UNIT = CouplingPair(1.0, 1.0)
XS = np.linspace(-1.0, 1.0, 101)


def _singular_state():
    # phi_coeff^2 = i makes the parity overlap exactly zero, which no sign
    # convention can absorb
    lvl = solve_level(0, CouplingPair(0.0, 0.0))
    a = complex(math.sqrt(0.5), math.sqrt(0.5))
    kappa = complex(lvl.s, 0.0)
    return ChannelState(level=lvl, sigma=+1, Y=0.0, Z=0.0,
                        phi_coeff=a, kappa=kappa, A=a, B=a)


def test_apply_theta_swaps_and_reflects():
    f = lambda x: np.asarray(x) ** 2 + 0j
    g = lambda x: np.asarray(x) ** 3 + 0j
    up, low = apply_theta(f, g)
    assert np.array_equal(up(XS), g(-XS))
    assert np.array_equal(low(XS), f(-XS))


def test_apply_theta_is_an_involution():
    states = doublet_family(UNIT, 1)
    st = states[0]
    up2, low2 = apply_theta(*apply_theta(st.upper, st.lower))
    assert np.array_equal(up2(XS), st.upper(XS))
    assert np.array_equal(low2(XS), st.lower(XS))


def test_theta_maps_state_to_scaled_reflection():
    pair = CouplingPair(1.0, 4.0)
    st = doublet_family(pair, 1)[0]
    up, low = apply_theta(st.upper, st.lower)
    # channels swap and reflect: the new upper is sigma sqrt(Y) P phi,
    # the new lower sqrt(Z) P phi
    assert np.abs(up(XS) - st.sigma * math.sqrt(pair.Y) * st.phi(-XS)).max() < 1e-12
    assert np.abs(low(XS) - math.sqrt(pair.Z) * st.phi(-XS)).max() < 1e-12


def test_left_vector_diagonal_pairing():
    for sigma in (+1, -1):
        st = doublet_family(UNIT, 1)[0 if sigma == 1 else 1]
        d = st.d
        assert d > 0.0
        assert abs(d - 2.0 * abs(parity_overlap(st))) < 1e-13
    pair = CouplingPair(2.0, 0.5)
    for st in doublet_family(pair, 3):
        expected = 2.0 * math.sqrt(2.0 * 0.5) * abs(parity_overlap(st))
        assert abs(st.d - expected) < 1e-13


def test_left_vector_component_layout():
    st = doublet_family(CouplingPair(1.0, 4.0), 1)[0]
    lv = left_vector(st)
    q = lv.q
    assert q in (+1, -1)
    upper, lower = channels(lv)
    assert np.array_equal(upper(XS), q * st.lower(-XS))
    assert np.array_equal(lower(XS), q * st.upper(-XS))


def test_decoupled_weights_keep_pairing_finite():
    # at Y = Z = 0 the states carry unit channel factors, so the diagonal
    # pairing stays 2|p| instead of collapsing with sqrt(YZ)
    pair = CouplingPair(0.0, 0.0)
    lvl = solve_level(0, pair)
    st = solve_coefficients(lvl, pair, +1)
    assert abs(st.d - 2.0 * abs(parity_overlap(st))) < 1e-14
    assert st.d > 0.0


def test_biorthogonality_matrix_closed():
    states = doublet_family(UNIT, 3)
    mat = biorthogonality_matrix(states)
    diag = np.diag(mat)
    assert np.all(diag > 0.0)
    off = mat - np.diag(diag)
    assert np.abs(off).max() <= 1e-12 * diag.max()
    # opposite spin members of one level decouple exactly in closed form
    assert mat[0, 1] == 0.0 and mat[1, 0] == 0.0


@pytest.mark.parametrize("c", [1e-5, 1e-2])
def test_closed_pairing_is_diagonal_at_tiny_coupling(c):
    # exactly diagonal in theory; the phases of the coefficients carry eps/t,
    # so sin kappa must come from eps, not from the rounded s (4.9e-8 at 1e-5)
    mat = biorthogonality_matrix(doublet_family(CouplingPair(c, c), 28))
    diag = np.diag(mat)
    assert np.abs(mat - np.diag(diag)).max() <= 1e-14 * diag.max()


def _assert_pairing_matches_scalar(states):
    # the closed pairing verify runs, of a family with its own left partners
    fast = biorthogonality_matrix(states)
    lefts = [left_vector(s) for s in states]
    reference = np.array([[biorthogonal_overlap(l, s) for s in states] for l in lefts])
    assert fast.shape == reference.shape and fast.dtype == reference.dtype
    assert np.array_equal(np.diag(fast), np.diag(reference))
    assert np.abs(fast - reference).max() <= 1e-15 * np.abs(reference).max()


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    log_c=st.floats(min_value=-3.0, max_value=math.log10(4.4)),
    log_ratio=st.floats(min_value=-1.0, max_value=1.0),
    n_levels=st.integers(min_value=1, max_value=40),
)
def test_vector_pairing_and_inverse_match_the_scalar_products(log_c, log_ratio, n_levels):
    # c log-uniform on [1e-3, 4.4], Y/Z = 4**log_ratio on [1/4, 4]
    c, ratio = 10.0**log_c, 4.0**log_ratio
    pair = CouplingPair(c * math.sqrt(ratio), c / math.sqrt(ratio))
    states = doublet_family(pair, n_levels)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_pairing_matches_scalar(states)
        inverse = inverse_theta_metric(states)
    coeff = inverse.meta["coefficients"]
    weights = [wavefunctions_module.channel_weights(s.sigma, s.Y, s.Z) for s in states]
    reference = np.array(
        [
            [
                coeff[i]
                * (wu_a * wu_b + wl_a * wl_b)
                * phi_sesquilinear_product(a, b)
                for b, (wu_b, wl_b) in zip(states, weights)
            ]
            for i, (a, (wu_a, wl_a)) in enumerate(zip(states, weights))
        ]
    )
    assert np.abs(inverse.matrix - reference).max() <= 1e-15 * np.abs(reference).max()


def test_vector_pairing_with_explicit_lefts():
    # the closed pairing takes a family's own partners only; explicit ones
    # are paired by quadrature
    states = doublet_family(CouplingPair(1.0, 4.0), 5)
    lefts = [left_vector(s) for s in states]
    with pytest.raises(ModelDomainError, match="no explicit lefts"):
        biorthogonality_matrix(states, lefts)
    flipped = [LeftState(state=l.state, q=-l.q) for l in lefts]
    # the sign q multiplies each row exactly, diagonal included
    assert np.array_equal(biorthogonality_matrix(states, flipped, method="quadrature"),
                          -biorthogonality_matrix(states, lefts, method="quadrature"))
    # decoupled Y = Z = 0: opposite sigma members share one real wavenumber,
    # so the same-wavenumber branch is taken off the diagonal too
    decoupled = doublet_family(CouplingPair(0.0, 0.0), 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_pairing_matches_scalar(decoupled)


def test_vector_pairing_rejects_mixed_couplings():
    # the quadrature reads the states and the left partners' states, own or
    # explicit, and refuses them unless they share one coupling, as the
    # closed pairing of a family does
    states = doublet_family(CouplingPair(1.0, 4.0), 2)
    other = doublet_family(CouplingPair(2.0, 2.0), 2)
    with pytest.raises(ModelDomainError, match="different couplings"):
        biorthogonality_matrix(states, [left_vector(s) for s in other], method="quadrature")
    # one foreign left partner or state
    mixed_lefts = [left_vector(s) for s in states]
    mixed_lefts[3] = left_vector(other[3])
    for kets, bras in ((states, mixed_lefts),
                       (states[:3] + other[3:4], [left_vector(s) for s in states]),
                       (states[:3] + other[3:4], None)):
        with pytest.raises(ModelDomainError, match="different couplings"):
            biorthogonality_matrix(kets, bras, method="quadrature")
    # every diagonal pair shares a coupling, the off-diagonal ones do not
    mixed = [states[0], other[1]]
    for method in ("closed", "quadrature"):
        with pytest.raises(ModelDomainError, match="different couplings"):
            biorthogonality_matrix(mixed, method=method)
    with pytest.raises(ModelDomainError, match="different couplings"):
        biorthogonality_matrix(mixed, [left_vector(s) for s in mixed], method="quadrature")
    assert biorthogonality_matrix([]).shape == (0, 0)
    assert biorthogonality_matrix([], [], method="quadrature").shape == (0, 0)


def test_pairing_without_lefts_needs_complete_doublets():
    # without lefts the family is read by position, in doublet_family order
    # (sigma = +1 members at [0::2]), so a partial or out-of-order family is
    # refused by every builder; explicit lefts pair any states
    states = doublet_family(UNIT, 3)
    shuffled = [states[k] for k in (3, 0, 5, 2, 1, 4)]
    swapped = [states[1], states[0]] + states[2:]
    for bad in (states[:3], states[2:], [states[0], states[0]], shuffled, swapped):
        for build in (biorthogonality_matrix, build_theta_metric, inverse_theta_metric,
                      mode_hamiltonian, mode_spin):
            with pytest.raises(ModelDomainError, match="doublet_family order"):
                build(bad)
    lefts = [left_vector(s) for s in states[:3]]
    assert biorthogonality_matrix(states[:3], lefts, method="quadrature").shape == (3, 3)


def test_vector_kernel_matches_scalar_without_warnings():
    rng = np.random.default_rng(7)
    p = rng.uniform(0.1, 60.0, 12) - 1j * rng.uniform(-3.0, 3.0, 12)
    # exact and near-equal pairs exercise the same-wavenumber branch
    q = np.concatenate([p[:4], p[4:8] * (1.0 + 1e-15), rng.uniform(0.1, 60.0, 4) + 0.5j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = sine_product_integrals(p[:, None], q)
    reference = np.array([[sine_product_integral(a, b) for b in q] for a in p])
    assert np.abs(fast - reference).max() <= 1e-15 * np.abs(reference).max()
    for k in range(8):
        assert fast[k, k] == 0.5 - np.sin(2.0 * p[k]) / (4.0 * p[k])


C_CRIT_PAIR0 = 4.475308602193255


def _assert_kernel_within_rounding(p, q):
    # the rank-2 kernel against the difference-form scalar: both round sines of
    # size e^|Im|, so each entry is held within 4 eps e^(|Im p| + |Im q|) (0.77 at
    # most over 3000 seeded draws of the domains below and 200 families)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = sine_product_integrals(p[:, None], q)
    reference = np.array([[sine_product_integral(a, b) for b in q] for a in p])
    scale = np.exp(np.abs(p.imag)[:, None] + np.abs(q.imag))
    assert (np.abs(fast - reference) <= 4.0 * np.finfo(float).eps * scale).all()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    p=st.builds(complex, st.floats(0.1, 800.0), st.floats(-3.0, 3.0)),
    far=st.builds(complex, st.floats(0.1, 800.0), st.floats(-3.0, 3.0)),
    log_gap=st.floats(-13.0, math.log10(2.0)),
    turn=st.floats(0.0, 1.0),
)
def test_rank2_kernel_matches_the_difference_form(p, far, log_gap, turn):
    # a near pair, |p - q| log-uniform in [1e-13, 2] in any direction with
    # |Im q| <= 3, the same wavenumber, and one drawn apart
    q = p + 10.0**log_gap * complex(math.cos(2 * math.pi * turn), math.sin(2 * math.pi * turn))
    q = complex(q.real, max(-3.0, min(3.0, q.imag)))
    _assert_kernel_within_rounding(np.array([p, far]), np.array([q, p, far]))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(log_delta=st.floats(-12.0, -2.0), log_ratio=st.floats(-3.0, 3.0),
       n_levels=st.integers(2, 12))
def test_rank2_kernel_matches_the_difference_form_near_the_merger(log_delta, log_ratio, n_levels):
    # at (1 - delta) c_crit(0) the wavenumbers of levels 0 and 1 close in on each
    # other: the pairing's rows and the Gram rows of the inverse, over every state
    c, root_ratio = (1.0 - 10.0**log_delta) * C_CRIT_PAIR0, math.exp(log_ratio / 2)
    states = doublet_family(CouplingPair(c * root_ratio, c / root_ratio), n_levels)
    kappa = np.array([s.kappa for s in states])
    for rows in (kappa[0::2], kappa[0::2].conj()):
        _assert_kernel_within_rounding(rows, kappa)


def test_closed_pairing_and_inverse_make_linear_scalar_calls(monkeypatch):
    # a loop over scalar pairings would make N^2 calls; the vector kernel
    # leaves one d and one q per level, both computed by doublet_family as it
    # builds each sigma = +1 state, whose sigma = -1 partner takes d_- = d_+
    # and q_- = -q_+, and none inside the four builders.  No left partner is
    # built and no scalar segment integral is taken.  d is counted at
    # _phi_squares, the integrals of phi^2 that ChannelState.d and
    # parity_overlap go through too, and q at _quasi_parity, which
    # quasi_parity goes through.
    calls = collections.Counter()

    def counted(name, inner):
        def wrapper(*args):
            calls[name, id(args[0])] += 1
            return inner(*args)

        return wrapper

    for name, module, attr in (
        ("left", metric_module, "left_vector"),
        ("q", wavefunctions_module, "_quasi_parity"),
        ("d", wavefunctions_module, "_phi_squares"),
        ("integral", wavefunctions_module, "sine_product_integral"),
    ):
        monkeypatch.setattr(module, attr, counted(name, getattr(module, attr)))

    def totals():
        return {name: sum(v for (k, _), v in calls.items() if k == name)
                for name in ("left", "q", "d", "integral")}

    states = doublet_family(UNIT, 12)
    assert totals() == {"left": 0, "q": 12, "d": 12, "integral": 0}
    for plus, minus in zip(states[::2], states[1::2]):
        assert calls["q", id(plus)] == calls["d", id(plus)] == 1
        assert calls["q", id(minus)] == calls["d", id(minus)] == 0
    calls.clear()
    biorthogonality_matrix(states)
    inverse_theta_metric(states)
    theta = build_theta_metric(states)
    inverse_identity_defect(theta, states)
    assert totals() == {"left": 0, "q": 0, "d": 0, "integral": 0}


def test_biorthogonality_matrix_quadrature():
    states = doublet_family(UNIT, 3)
    mat = biorthogonality_matrix(states, method="quadrature")
    diag = np.diag(mat)
    assert np.all(diag > 0.0)
    assert np.abs(mat - np.diag(diag)).max() <= 1e-9 * diag.max()
    closed = biorthogonality_matrix(states)
    assert np.abs(mat - closed).max() < 1e-9


class _Counted:
    """Forwards to a state or left partner and counts channel evaluations."""

    def __init__(self, inner, counter):
        self._inner, self._counter = inner, counter

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def upper(self, x):
        self._counter[0] += 1
        return self._inner.upper(x)

    def lower(self, x):
        self._counter[0] += 1
        return self._inner.lower(x)


def test_quadrature_pairing_matches_scalar_reference():
    # the matrix takes 512 Simpson panels per half, as the scalar rule here
    for c in (0.3, 1.0, 4.4):
        for ratio in (0.25, 1.0, 4.0):
            pair = CouplingPair(c * math.sqrt(ratio), c / math.sqrt(ratio))
            states = doublet_family(pair, 4)
            lefts = [left_vector(s) for s in states]
            fast = biorthogonality_matrix(states, method="quadrature")
            reference = np.array(
                [
                    [
                        quadrature_overlap(channels(l)[0], s.upper, 512)
                        + quadrature_overlap(channels(l)[1], s.lower, 512)
                        for s in states
                    ]
                    for l in lefts
                ]
            )
            assert fast.dtype == reference.dtype
            scale = np.abs(np.diag(reference)).max()
            assert np.abs(fast - reference).max() <= 1e-14 * scale


def test_quadrature_pairing_samples_each_state_once(monkeypatch):
    # one sine array per state family: sin(kappa (x+1)) for each state at each
    # of the 512 nodes x <= 0 of the 1024-interval rule, and one more for the
    # states of explicit left partners; no state's channels are called
    states = doublet_family(UNIT, 4)
    sines, counter = [], [0]
    numpy_sin = np.sin

    def counted_sin(z, *args, **kwargs):
        sines.append(np.shape(z))
        return numpy_sin(z, *args, **kwargs)

    monkeypatch.setattr(np, "sin", counted_sin)
    counted = [_Counted(s, counter) for s in states]
    own = biorthogonality_matrix(counted, method="quadrature")
    assert sines == [(512, 8)] and counter[0] == 0
    lefts = [LeftState(_Counted(s, counter), s.q) for s in states]
    explicit = biorthogonality_matrix(counted, lefts, method="quadrature")
    assert sines == [(512, 8)] * 3 and counter[0] == 0
    assert_same_bytes(own, explicit)


def test_fixed_width_panel_count_does_not_wrap():
    # a uint8(254) panel count is read as 254, not wrapped in uint8 arithmetic
    states = doublet_family(UNIT, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalar = quadrature_overlap(states[0].upper, states[1].upper, np.uint8(254))
    assert scalar == quadrature_overlap(states[0].upper, states[1].upper, 254)
    for bad in (np.bool_(True), np.float64(4.0), "4"):
        with pytest.raises(ModelDomainError):
            quadrature_overlap(states[0].upper, states[1].upper, bad)


def test_biorthogonality_matrix_validation():
    states = doublet_family(UNIT, 2)
    with pytest.raises(ModelDomainError):
        biorthogonality_matrix(states, method="monte-carlo")


def test_spin_operator_entries():
    assert np.array_equal(spin_block(UNIT), np.array([[0.0, 1.0], [1.0, 0.0]]))
    omega = spin_block(CouplingPair(1.0, 4.0))
    assert np.array_equal(omega, np.array([[0.0, 2.0], [0.5, 0.0]]))
    assert np.array_equal(omega @ omega, np.eye(2))
    with pytest.raises(ModelDomainError):
        spin_block(CouplingPair(0.0, 1.0))


@pytest.mark.parametrize("Y, Z", [(1e305, 1e-316), (1e-316, 1e305), (1e308, 1e-318),
                                  (1e-318, 1e308), (5e-324, 1.7e308)])
def test_spin_operator_refuses_entries_out_of_the_float_range(Y, Z):
    # sqrt(Z/Y) or sqrt(Y/Z) overflows, or is so small that its inverse does
    with pytest.raises(ModelDomainError,
                       match=r"^spin block entry sqrt\(Z/Y\) = .* or its inverse overflows$"):
        spin_block(CouplingPair(Y, Z))
    # at Y/Z = 1e+-600 both entries are normal floats, and their product is 1
    for pair in (CouplingPair(1e300, 1e-300), CouplingPair(1e-300, 1e300)):
        omega = spin_block(pair)
        assert np.all(np.isfinite(omega))
        assert abs(omega[0, 1] * omega[1, 0] - 1.0) <= 2.0 * np.finfo(float).eps


def test_spin_commutes_with_discrete_hamiltonian():
    for y, z in [(1.0, 1.0), (1.0, 4.0)]:
        pair = CouplingPair(y, z)
        grid = GridSpec(32)
        h = build_hamiltonian(pair, grid).matrix
        omega = np.kron(spin_block(pair), np.eye(grid.n_interior))
        assert np.abs(omega @ h - h @ omega).max() == 0.0


def test_spin_conjugated_by_swap_reflect_gives_adjoint():
    pair = CouplingPair(1.0, 4.0)
    grid = GridSpec(16)
    omega = np.kron(spin_block(pair), np.eye(grid.n_interior))
    s = discrete_theta(grid).matrix
    assert np.abs(s @ omega @ s - omega.conj().T).max() == 0.0


def test_channel_kernel_values():
    weights = MetricWeights([1.0, 1.0], [1.0, 2.0])
    k, k2 = build_theta_metric(doublet_family(UNIT, 2), weights).meta["channel_kernels"]
    assert np.array_equal(k, np.array([[2.0, 0.0], [0.0, 2.0]]))
    assert np.array_equal(k2, np.array([[3.0, -1.0], [-1.0, 3.0]]))


def test_channel_kernel_offdiagonal_exact_zero_at_equal_weights():
    weights = MetricWeights([1.0, 0.7, 3.5], [1.0, 0.7, 3.5])
    for y, z in [(1.0, 1.0), (1.5, 1.5), (2.0, 0.5)]:
        theta = build_theta_metric(doublet_family(CouplingPair(y, z), 3), weights)
        for k in theta.meta["channel_kernels"]:
            assert k[0, 1] == 0.0 and k[1, 0] == 0.0


def test_build_theta_metric_mode_basic():
    states = doublet_family(UNIT, 6)
    theta = build_theta_metric(states)
    assert theta.basis is RepBasis.MODE and theta.is_form
    assert np.abs(theta.matrix - theta.matrix.conj().T).max() == 0.0
    assert np.linalg.eigvalsh(theta.matrix).min() > 0.0
    assert theta.meta["signature"] == (12, 0)
    for k in theta.meta["channel_kernels"]:
        assert k[0, 1] == 0.0 and k[1, 0] == 0.0


def _mode_weights(kind, n_levels, rng):
    if kind == "unit":
        return MetricWeights.unit(n_levels)
    if kind == "positive":
        return MetricWeights(rng.uniform(0.1, 5.0, n_levels), rng.uniform(0.1, 5.0, n_levels))
    # signed weights bounded away from zero, so each sign is unambiguous
    magnitude = rng.uniform(0.5, 2.0, (2, n_levels))
    signs = rng.choice([-1.0, 1.0], (2, n_levels))
    return MetricWeights(*(signs * magnitude))


def test_mode_metric_is_the_diagonal_of_the_pairing_formula():
    # F = C diag(S) C^T with C = G^T, the full closed-form pairing matrix
    rng = np.random.default_rng(2024)
    cases = 0
    for c in (0.01, 0.3, 1.0, 2.5, 4.4):
        for ratio in (0.25, 1.0, 4.0):
            pair = CouplingPair(c * math.sqrt(ratio), c / math.sqrt(ratio))
            for n_levels in (1, 6, 20, 40):
                states = doublet_family(pair, n_levels)
                c_matrix = biorthogonality_matrix(states).T
                for kind in ("unit", "positive", "signed"):
                    weights = _mode_weights(kind, n_levels, rng)
                    theta = build_theta_metric(states, weights, unsafe=kind == "signed")
                    per_state = theta.meta["weights_by_state"]
                    full = c_matrix @ np.diag(per_state) @ c_matrix.T
                    full = (full + full.T) / 2.0
                    diagonal = np.diag(theta.matrix)
                    assert np.array_equal(diagonal, np.diag(full))
                    assert np.all(theta.matrix - np.diag(diagonal) == 0.0)
                    off = np.abs(full - np.diag(np.diag(full))).max()
                    assert off <= 1e-9 * np.abs(np.diag(full)).max()
                    eigenvalues = np.linalg.eigvalsh(full)
                    assert theta.meta["signature"] == (
                        int(np.sum(eigenvalues > 0.0)),
                        int(np.sum(eigenvalues < 0.0)),
                    )
                    cases += 1
    assert cases == 180


def test_theta_intertwines_mode_hamiltonian_and_spin():
    for y, z, n in [(1.0, 1.0, 16), (2.0, 2.0, 16), (1.0, 4.0, 12)]:
        states = doublet_family(CouplingPair(y, z), n)
        theta = build_theta_metric(states)
        assert quasi_hermiticity_defect(mode_hamiltonian(states), theta) <= 1e-8
        assert quasi_hermiticity_defect(mode_spin(states), theta) <= 1e-8
        assert np.linalg.eigvalsh(theta.matrix).min() > 0.0


def test_theta_intertwines_with_nontrivial_weights():
    states = doublet_family(UNIT, 4)
    w = MetricWeights(
        s_plus=np.array([1.0, 2.0, 0.5, 1.25]),
        s_minus=np.array([3.0, 1.0, 1.0, 0.75]),
    )
    theta = build_theta_metric(states, w)
    assert quasi_hermiticity_defect(mode_hamiltonian(states), theta) <= 1e-8
    assert quasi_hermiticity_defect(mode_spin(states), theta) <= 1e-8
    assert np.linalg.eigvalsh(theta.matrix).min() > 0.0
    # unequal spin weights switch on the off-diagonal kernel entries
    k0 = theta.meta["channel_kernels"][0]
    assert k0[0, 1] != 0.0


def test_metric_weights_validation_and_selection():
    w = MetricWeights(s_plus=np.array([1.0, 2.0]), s_minus=np.array([3.0, 4.0]))
    assert w.n_levels == 2
    assert w.select(0, +1) == 1.0 and w.select(1, -1) == 4.0
    with pytest.raises(MetricConstraintError):
        w.select(2, +1)
    with pytest.raises(MetricConstraintError):
        MetricWeights(s_plus=np.array([1.0]), s_minus=np.array([1.0, 2.0]))


def test_metric_weights_copy_the_callers_arrays():
    # the weights are validated once and stored as floats: a later write to
    # the caller's array changes neither them nor the form built from them
    s_plus, s_minus = np.array([1.0, 2.0]), np.ones(2)
    w = MetricWeights(s_plus, s_minus)
    s_plus[0], s_minus[1] = np.nan, -1.0
    assert w.s_plus == (1.0, 2.0) and w.s_minus == (1.0, 1.0)
    assert all(type(v) is float for v in w.s_plus + w.s_minus)
    states = doublet_family(UNIT, 2)
    expected = build_theta_metric(states, MetricWeights([1.0, 2.0], [1.0, 1.0])).matrix
    assert_same_bytes(build_theta_metric(states, w).matrix, expected)
    # a scalar is one level, as before; a 2-d or non-numeric sequence is refused
    assert MetricWeights(np.float64(2.0), 3).select(0, -1) == 3.0
    for bad in (np.ones((2, 1)), [[1.0], [2.0]], ["x"], [1 + 1j], [10**400]):
        with pytest.raises(MetricConstraintError, match="^s_plus must be a 1-d finite array"):
            MetricWeights(bad, np.ones(2))


def test_metric_weight_level_count_validation(tmp_path):
    path = tmp_path / "weights.txt"
    path.write_text("0 2.0 3.0\n")
    for bad in (0, -1, 2.0, np.float64(2.0), np.bool_(True), "2"):
        with pytest.raises(MetricConstraintError, match="n_levels must be an integer >= 1"):
            MetricWeights.unit(bad)
        with pytest.raises(MetricConstraintError, match="n_levels must be an integer >= 1"):
            MetricWeights.from_file(path, bad)
    for count in (np.int64(2), np.uint8(2)):
        assert MetricWeights.unit(count).n_levels == 2
        assert MetricWeights.from_file(path, count).select(0, -1) == 3.0


def test_metric_weight_file_parsing(tmp_path):
    path = tmp_path / "weights.txt"
    path.write_text("# level  S+  S-\n0 1.5 2.5\n\n2 0.5 0.25\n")
    w = MetricWeights.from_file(path, 3)
    assert w.select(0, +1) == 1.5 and w.select(0, -1) == 2.5
    # level 1 falls back to the defaults
    assert w.select(1, +1) == 1.0 and w.select(1, -1) == 1.0
    assert w.select(2, -1) == 0.25


def test_metric_weight_file_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1.0 1.0\n0 2.0 2.0\n")
    with pytest.raises(MetricConstraintError):
        MetricWeights.from_file(bad, 2)
    bad.write_text("7 1.0 1.0\n")
    with pytest.raises(MetricConstraintError):
        MetricWeights.from_file(bad, 2)
    bad.write_text("0 one 1.0\n")
    with pytest.raises(MetricConstraintError):
        MetricWeights.from_file(bad, 2)


def test_weight_file_refuses_non_finite_weights_at_their_line(tmp_path):
    bad = tmp_path / "bad.txt"
    for text in ("0 nan 1.0\n", "0 1.0 inf\n", "0 -inf 1.0\n"):
        bad.write_text("# header\n" + text)
        with pytest.raises(MetricConstraintError, match=f"^{re.escape(str(bad))}:2: "):
            MetricWeights.from_file(bad, 2)


def test_non_positive_weight_is_named_as_a_plain_float():
    states = doublet_family(UNIT, 1)
    w = MetricWeights(s_plus=np.array([0.0]), s_minus=np.array([1.0]))
    with pytest.raises(MetricConstraintError, match=r"^weight 0\.0 for state \(n=0, sigma=1\)"):
        build_theta_metric(states, w)


def test_indefinite_weights_need_unsafe():
    states = doublet_family(UNIT, 2)
    w = MetricWeights(s_plus=np.array([1.0, 1.0]), s_minus=np.array([-1.0, -1.0]))
    with pytest.raises(MetricConstraintError):
        build_theta_metric(states, w)
    theta = build_theta_metric(states, w, unsafe=True)
    assert theta.meta["signature"] == (2, 2)
    assert np.linalg.eigvalsh(theta.matrix).min() < 0.0


def test_unsafe_resolution_does_not_admit_a_safe_call():
    # the builders resolve a family against its weights once in a row: an
    # indefinite family resolved with unsafe=True is refused again without it
    states = doublet_family(UNIT, 2)
    w = MetricWeights(s_plus=np.array([1.0, 1.0]), s_minus=np.array([1.0, -1.0]))
    for _ in range(2):
        assert build_theta_metric(states, w, unsafe=True).meta["signature"] == (3, 1)
        for build in (inverse_theta_metric, build_theta_metric):
            with pytest.raises(MetricConstraintError, match=r"^weight -1\.0 for state \(n=1"):
                build(states, w)


def test_resolution_follows_each_state_and_the_weights(monkeypatch):
    # one resolution serves the calls that follow with the same states, in
    # order and by identity, the same weights object (or None) and flag
    calls = []
    resolve = weights_module._resolve
    monkeypatch.setattr(weights_module, "_resolve", lambda *args: calls.append(args) or resolve(*args))
    states, other = doublet_family(UNIT, 3), doublet_family(CouplingPair(2.0, 0.5), 3)
    w = MetricWeights(np.array([1.0, 2.0, 3.0]), np.array([0.5, 1.5, 2.5]))
    theta = build_theta_metric(states, w)
    inverse_theta_metric(states, w)
    inverse_identity_defect(theta, states, w)
    swapped = list(states)
    assert np.array_equal(build_theta_metric(swapped, w).matrix, theta.matrix)
    assert len(calls) == 1
    # the same list with one state swapped, or an equal copy of one, is resolved again
    swapped[4] = other[4]
    with pytest.raises(ModelDomainError, match="different couplings"):
        build_theta_metric(swapped, w)
    swapped[4] = dataclasses.replace(states[4])
    assert np.array_equal(build_theta_metric(swapped, w).matrix, theta.matrix)
    assert len(calls) == 3
    # another list of the same length, other weights, and None after explicit weights
    d, per_state = np.array([s.d for s in other]), theta.meta["weights_by_state"]
    assert np.array_equal(build_theta_metric(other, w).matrix, np.diag(d * per_state * d))
    doubled = MetricWeights(2.0 * np.array(w.s_plus), 2.0 * np.array(w.s_minus))
    assert np.array_equal(build_theta_metric(other, doubled).matrix,
                          np.diag(d * (2.0 * per_state) * d))
    for _ in range(2):
        assert np.array_equal(build_theta_metric(other).matrix, np.diag(d * 1.0 * d))
    assert len(calls) == 6


def test_refused_resolution_is_refused_on_every_call():
    states = doublet_family(UNIT, 3)
    short = MetricWeights(np.ones(2), np.ones(2))
    for _ in range(3):
        for build in (build_theta_metric, inverse_theta_metric):
            with pytest.raises(MetricConstraintError, match="weights cover 2 levels, need 3"):
                build(states, short)


WEIGHTLESS = (biorthogonality_matrix, mode_hamiltonian, mode_spin)


def test_weightless_builders_read_the_resolved_family_check(monkeypatch):
    # the pairing and the mode maps check a family held by the last resolution
    # (the same states, in order and by identity) no more: one check per request
    calls = []
    validate = weights_module._validate_family
    monkeypatch.setattr(weights_module, "_validate_family",
                        lambda states: calls.append(len(states)) or validate(states))
    states = doublet_family(UNIT, 3)
    theta = build_theta_metric(states)
    for build in WEIGHTLESS:
        build(list(states))
    assert calls == [6]
    # a family not held is checked on every call
    other = doublet_family(CouplingPair(2.0, 0.5), 3)
    for build in WEIGHTLESS:
        build(other)
    assert calls == [6] * 4
    # which leaves the held family as it was
    assert np.array_equal(mode_spin(states).matrix, np.diag([1.0, -1.0] * 3))
    assert theta.meta["order"] == mode_hamiltonian(states).meta["order"]
    assert calls == [6] * 4


@pytest.mark.parametrize("change", ["swap in place", "shuffled copy", "foreign state"])
def test_weightless_builders_refuse_a_family_the_resolution_does_not_hold(change):
    # the same list with two states swapped in place, a shuffled list of the same
    # states and length, and one state of another coupling are each refused, on
    # every call, after the family they came from was resolved
    states = doublet_family(UNIT, 3)
    held = list(states)
    build_theta_metric(held)
    if change == "swap in place":
        bad, message = held, "doublet_family order"
        held[2], held[4] = held[4], held[2]
    elif change == "shuffled copy":
        bad, message = [states[k] for k in (2, 3, 0, 1, 4, 5)], "doublet_family order"
    else:
        bad, message = states[:5] + doublet_family(CouplingPair(2.0, 0.5), 3)[5:], "different couplings"
    for _ in range(2):
        for build in WEIGHTLESS:
            with pytest.raises(ModelDomainError, match=message):
                build(bad)


def test_each_rep_gets_its_own_meta_and_order():
    # the mode maps read their order from the resolution, each its own copy too
    states = doublet_family(UNIT, 2)
    first, second = build_theta_metric(states), inverse_theta_metric(states)
    third = build_theta_metric(states)
    h, spin = mode_hamiltonian(states), mode_spin(states)
    orders = [rep.meta["order"] for rep in (first, second, third, h, spin)]
    assert all(order == orders[0] for order in orders)
    assert len(set(map(id, orders))) == len(orders)
    first.meta["order"].clear()
    h.meta["order"].append((9, 1))
    first.meta["n_levels"] = 0
    for build in (build_theta_metric, mode_hamiltonian, mode_spin):
        assert build(states).meta["order"] == [(0, 1), (0, -1), (1, 1), (1, -1)]
    assert build_theta_metric(states).meta["n_levels"] == second.meta["n_levels"] == 2


@pytest.mark.parametrize("Y, Z, entry", [(1e308, 1e-318, "[0, 0, 0]"),
                                         (1e-318, 1e308, "[0, 1, 1]")])
def test_metric_refuses_a_channel_kernel_out_of_the_float_range(Y, Z, entry):
    # sqrt(YZ) = 1e-5 admits the family, but Y (S+ + S-) or Z (S+ + S-) is inf;
    # the grid form's sum overflows too, and no numpy warning precedes the
    # refusal, which the form, the inverse and the identity defect share
    states = doublet_family(CouplingPair(Y, Z), 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for grid in (None, GridSpec(16)):
            for build in (build_theta_metric, inverse_theta_metric):
                with pytest.raises(MetricConstraintError,
                                   match=re.escape(f"channel kernel [n, i, k] = {entry} is inf")):
                    build(states, grid=grid)
        # the identity defect refuses the same weights, by the same check
        theta = build_theta_metric(states, MetricWeights(np.full(2, 0.25), np.full(2, 0.25)))
        with pytest.raises(MetricConstraintError, match=re.escape(f"channel kernel [n, i, k] = {entry}")):
            inverse_identity_defect(theta, states)


def test_metric_refuses_huge_unsafe_weights_naming_the_entry():
    states = doublet_family(CouplingPair(4.0, 4.0), 3)
    # S+ - S- overflows in the off-diagonal kernel entry of level 1; the
    # form overflows there too, but the kernels are named first
    split = MetricWeights(np.array([1.0, 1e308, 1.0]), np.array([1.0, -1e308, 1.0]))
    # the kernels 8 S stay finite, S d^2 of level 2 (d = 7.19) does not;
    # the refusal alone reports it, with no numpy overflow warning before it
    big = MetricWeights(np.array([1.0, 1.0, 2e307]), np.array([1.0, 1.0, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MetricConstraintError,
                           match=re.escape("channel kernel [n, i, k] = [1, 0, 1] is inf")):
            build_theta_metric(states, split, unsafe=True)
        with pytest.raises(MetricConstraintError,
                           match=re.escape("metric form [i, k] = [4, 4] is inf")):
            build_theta_metric(states, big)
    assert np.all(np.isfinite(build_theta_metric(states, MetricWeights(
        np.full(3, 1e306), np.full(3, 1e306))).matrix))


@pytest.mark.parametrize("sigma", [+1, -1])
def test_inverse_refuses_a_coefficient_out_of_the_float_range(sigma):
    # an admissible weight 1e-320 makes S d^2 subnormal, and 1 / (S d^2) is inf;
    # at 2e307 the form's own d S d is inf, where 1 / (S d^2) would read 0.0
    # (the true 9.66e-310 is subnormal): refused before the reciprocal
    states = doublet_family(CouplingPair(4.0, 4.0), 3)
    theta = build_theta_metric(states)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for weight, what in ((1e-320, "inverse coefficient 1/(S d^2)"), (2e307, "S d^2")):
            level = np.array([1.0, 1.0, weight])
            weights = MetricWeights(*((level, np.ones(3)) if sigma > 0 else (np.ones(3), level)))
            state = re.escape(f"{what} of state (n=2, sigma={sigma}) is inf: the weight {weight!r}")
            for grid in (None, GridSpec(64)):
                with pytest.raises(MetricConstraintError, match=f"^{state}"):
                    inverse_theta_metric(states, weights, grid=grid)
            with pytest.raises(MetricConstraintError, match=f"^{state}"):
                inverse_identity_defect(theta, states, weights)
        # weights of 1e-300 keep 1 / (S d^2) finite and are served
        assert np.isfinite(inverse_theta_metric(states, MetricWeights(
            np.full(3, 1e-300), np.full(3, 1e-300))).matrix).all()


def _refuses(build):
    try:
        return False, build()
    except MetricConstraintError:
        return True, None


@settings(max_examples=200, derandomize=True, deadline=None)
@given(pair=st.sampled_from([(4.0, 4.0), (1e300, 1e-300), (1e-300, 1e300)]),
       n_levels=st.integers(min_value=1, max_value=4),
       logs=st.lists(st.floats(min_value=-320.0, max_value=308.0), min_size=8, max_size=8))
@example(pair=(1e300, 1e-300), n_levels=2, logs=[9.0] * 8)
@example(pair=(1e300, 1e-300), n_levels=1, logs=[-9.0] + [0.0] * 7)
# 1 / (S d^2) = 8.3e307 is finite, its product with the unit form's d^2 = 12.09 is not
@example(pair=(4.0, 4.0), n_levels=1, logs=[-309.0] + [0.0] * 7)
def test_form_and_inverse_refuse_by_one_contract(pair, n_levels, logs):
    # weights log-uniform on [1e-320, 1e308].  At (4, 4) every d^2 >= 11
    # exceeds 2 Y, so where a channel kernel Y (S+ + S-) overflows, S d^2
    # overflows too; at (1e300, 1e-300) and its mirror a kernel overflows
    # long before S d^2 (weights 1e9).  The inverse and the identity defect refuse
    # every weight vector the form refuses, and beyond those exactly the
    # vectors whose form entry S d^2 has no finite reciprocal (subnormal
    # S d^2, which the form serves).  The identity defect also refuses a
    # product 1 / (S d^2) times the given form's entry out of the float range,
    # and the inverse a map entry out of it: its row i is the unit-weight row
    # over S_i, which at (1e300, 1e-300) overflows from S_i ~ 1e-9
    states = doublet_family(CouplingPair(*pair), n_levels)
    weights = 10.0 ** np.array(logs)
    weights = MetricWeights(weights[:n_levels], weights[4:4 + n_levels])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        form_refused, form = _refuses(lambda: build_theta_metric(states, weights))
        inverse_refused, _ = _refuses(lambda: inverse_theta_metric(states, weights))
        defect_refused, _ = _refuses(
            lambda: inverse_identity_defect(build_theta_metric(states), states, weights))
        unit_rows = inverse_theta_metric(states).matrix
        unit_form = build_theta_metric(states).matrix
    per_state = np.column_stack([weights.s_plus, weights.s_minus]).ravel()
    with np.errstate(over="ignore"):
        unrepresentable = form_refused or not np.isfinite(1.0 / np.diag(form.matrix)).all()
        product_overflows = not unrepresentable and not np.isfinite(
            (1.0 / np.diag(form.matrix)) * np.diag(unit_form)).all()
        map_overflows = not np.isfinite(unit_rows / per_state[:, None]).all()
    assert defect_refused == (unrepresentable or product_overflows)
    assert inverse_refused == (unrepresentable or map_overflows)


def test_metric_refuses_near_decoupled_family():
    pair = CouplingPair(1e-7, 1e-7)
    states = doublet_family(pair, 1)
    with pytest.raises(MetricConstraintError):
        build_theta_metric(states)


def test_family_validation():
    states = doublet_family(UNIT, 2)
    with pytest.raises(ModelDomainError):
        build_theta_metric(states[:3])  # missing one spin member
    with pytest.raises(ModelDomainError):
        build_theta_metric([states[0], states[0], states[2], states[3]])
    mixed = doublet_family(CouplingPair(2.0, 2.0), 2)
    with pytest.raises(ModelDomainError):
        build_theta_metric(states[:2] + mixed[2:])


def test_grid_theta_hermitian_and_converging_defect():
    states = doublet_family(UNIT, 2)
    defects = []
    for m in (64, 128):
        grid = GridSpec(m)
        theta = build_theta_metric(states, grid=grid)
        assert np.abs(theta.matrix - theta.matrix.conj().T).max() == 0.0
        h = build_hamiltonian(UNIT, grid)
        defects.append(quasi_hermiticity_defect(h, theta))
    assert defects[0] < 1e-4
    # discretization error of the finite-difference operator dominates and
    # shrinks under refinement
    assert defects[1] < defects[0] / 4.0


def test_grid_theta_requires_grid():
    # the grid form comes from a GridSpec alone; without one both
    # builders give the mode form
    states = doublet_family(UNIT, 2)
    for build in (build_theta_metric, inverse_theta_metric):
        assert build(states).basis is RepBasis.MODE
        assert "grid" not in build(states).meta
        on_grid = build(states, grid=GridSpec(64))
        assert on_grid.basis is RepBasis.GRID and on_grid.meta["grid"] == GridSpec(64)
        assert on_grid.dim == 2 * GridSpec(64).n_interior
        with pytest.raises(ModelDomainError, match="GridSpec"):
            build(states, grid=64)


@pytest.mark.parametrize("M", [64, 512])
@pytest.mark.parametrize("c", [0.01, 1.0, 4.4])
def test_grid_forms_are_the_sampled_sums(c, M):
    # sum_i w_i |v_i><v_i| h over the interior nodes, byte for byte, with v_i
    # from the reference that calls each channel at every node: the metric
    # over the left partners with the weights (symmetrized), the inverse
    # over the states with 1 / (S d^2)
    grid = GridSpec(M)
    for ratio in (0.25, 1.0, 4.0):
        for n_levels in (1, 4, 8):
            states = doublet_family(CouplingPair(c * math.sqrt(ratio), c / math.sqrt(ratio)),
                                    n_levels)
            weights = MetricWeights(np.linspace(0.5, 2.0, n_levels), np.full(n_levels, 1.5))
            per_state = np.array([weights.select(s.level.n, s.sigma) for s in states])
            d = np.array([s.d for s in states])
            lefts = reference_sample([left_vector(s) for s in states], grid.interior_nodes)
            rights = reference_sample(states, grid.interior_nodes)
            form = (lefts * per_state) @ lefts.conj().T * grid.h
            theta = build_theta_metric(states, weights, grid=grid)
            assert_same_bytes(theta.matrix, (form + form.conj().T) / 2.0)
            assert np.array_equal(theta.meta["weights_by_state"], per_state)
            inverse = inverse_theta_metric(states, weights, grid=grid)
            coeff = 1.0 / (per_state * d * d)
            assert_same_bytes(inverse.matrix, (rights * coeff) @ rights.conj().T * grid.h)
            assert np.array_equal(inverse.meta["coefficients"], coeff)


def test_discrete_swap_reflect_has_zero_defect():
    grid = GridSpec(64)
    h = build_hamiltonian(UNIT, grid)
    assert quasi_hermiticity_defect(h, discrete_theta(grid)) == 0.0


def test_identity_metric_in_hermitian_limit():
    grid = GridSpec(32)
    h = build_hamiltonian(CouplingPair(0.0, 0.0), grid)
    eye = OperatorRep(np.eye(h.dim), RepBasis.GRID, is_form=True)
    assert quasi_hermiticity_defect(h, eye) == 0.0


def test_defect_validation():
    states = doublet_family(UNIT, 2)
    theta = build_theta_metric(states)
    grid_h = build_hamiltonian(UNIT, GridSpec(16))
    with pytest.raises(ModelDomainError):
        quasi_hermiticity_defect(grid_h, theta)  # basis mismatch
    with pytest.raises(ModelDomainError):
        quasi_hermiticity_defect(theta, theta)  # form where a map is needed
    small = mode_hamiltonian(doublet_family(UNIT, 1))
    with pytest.raises(ModelDomainError):
        quasi_hermiticity_defect(small, theta)


def test_dense_defect_serves_what_is_not_a_real_mode_diagonal():
    # the doublet swap of demos/metric_family.py, a grid form against grid maps, and
    # mode diagonals whose products or whose sum overflow: the dense formula's bits
    states = doublet_family(CouplingPair(2.0, 2.0), 8)
    theta = build_theta_metric(states)
    order = theta.meta["order"]
    flip = np.zeros_like(theta.matrix)
    for i, (n, sigma) in enumerate(order):
        flip[i, order.index((n, -sigma))] = 1.0
    swap = OperatorRep(flip, RepBasis.MODE)
    skewed = MetricWeights(np.where(np.arange(8) == 1, 3.0, 1.0), np.ones(8))
    grid = GridSpec(64)
    grid_form = build_theta_metric(states[:4], grid=grid)
    huge = np.diag([1.0, 1e300, 2.0, -1e300])  # NaN after a finite term
    cases = [
        (swap, theta), (swap, build_theta_metric(states, skewed)),
        (inverse_theta_metric(states[:4], grid=grid), grid_form),
        (OperatorRep(np.diag(np.linspace(1.0, 2.0, grid_form.dim)), RepBasis.GRID), grid_form),
        (OperatorRep(huge, RepBasis.MODE), OperatorRep(huge, RepBasis.MODE, is_form=True)),
        (OperatorRep(np.diag([1.7e308, 1.7e308]), RepBasis.MODE),
         OperatorRep(np.eye(2), RepBasis.MODE, is_form=True)),
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        for op, form in cases:
            assert repr(quasi_hermiticity_defect(op, form)) == repr(
                _reference_dense_defect(op.matrix, form.matrix))
    assert math.isnan(quasi_hermiticity_defect(*cases[4]))


def test_defect_refusals_keep_their_order_and_messages():
    # each refusal of the mode diagonals, and with several faults the first of
    # bases, dimensions, roles and zeros, as the dense product's (complex copies)
    states = doublet_family(UNIT, 2)
    theta, h = build_theta_metric(states), mode_hamiltonian(states)
    bases = f"representations live on different bases: {RepBasis.MODE} vs {RepBasis.GRID}"
    dims = "dimension mismatch between operator and metric"
    roles = "defect needs an operator map and a metric form"

    def rep(matrix, basis=RepBasis.MODE, is_form=False):
        return OperatorRep(np.asarray(matrix, dtype=float), basis, is_form)

    cases = [
        (h, rep(np.eye(4), RepBasis.GRID, True), bases),
        (mode_hamiltonian(doublet_family(UNIT, 1)), theta, dims),
        (theta, theta, roles), (h, h, roles),
        (rep(np.zeros((4, 4))), theta, "zero operator or metric"),
        (h, rep(np.zeros((4, 4)), is_form=True), "zero operator or metric"),
        (rep(np.zeros((2, 2)), is_form=True), rep(np.zeros((4, 4)), RepBasis.GRID), bases),
        (rep(np.zeros((2, 2)), is_form=True), rep(np.zeros((4, 4))), dims),
        (rep(np.zeros((4, 4)), is_form=True), rep(np.zeros((4, 4))), roles),
    ]
    for op, form, message in cases:
        for cast in (float, complex):
            pair = [OperatorRep(r.matrix.astype(cast), r.basis, r.is_form) for r in (op, form)]
            with pytest.raises(ModelDomainError) as refused:
                quasi_hermiticity_defect(*pair)
            assert str(refused.value) == message


def test_inverse_theta_identity_defect():
    states = doublet_family(UNIT, 4)
    theta = build_theta_metric(states)
    assert inverse_identity_defect(theta, states) <= 1e-8
    # the inverse map's Gram factor cancels against the metric form, so
    # scaling by the coefficients alone must reproduce the identity
    inv = inverse_theta_metric(states)
    coeff = inv.meta["coefficients"]
    assert np.abs(coeff[:, None] * theta.matrix - np.eye(8)).max() <= 1e-8


def test_identity_defect_refuses_a_mode_form_off_its_diagonal():
    # the defect reads the diagonal of the form alone (_weights.identity_defect),
    # so a mode form with one nonzero entry off it is refused, not misread
    states = doublet_family(UNIT, 3)
    theta = build_theta_metric(states)
    matrix = theta.matrix.copy()
    matrix[0, 3] = 1e-300
    skewed = OperatorRep(matrix, RepBasis.MODE, is_form=True, meta=theta.meta)
    with pytest.raises(ModelDomainError, match="expects the mode-basis metric form"):
        inverse_identity_defect(skewed, states)
    assert inverse_identity_defect(theta, states) <= 1e-8


def test_inverse_theta_scaling():
    states = doublet_family(UNIT, 2)
    w1 = MetricWeights.unit(2)
    w2 = MetricWeights(s_plus=np.full(2, 2.0), s_minus=np.full(2, 2.0))
    inv1 = inverse_theta_metric(states, w1)
    inv2 = inverse_theta_metric(states, w2)
    assert np.array_equal(inv2.matrix, inv1.matrix / 2.0)
    # reciprocal relation between metadata coefficients and overlaps
    c = inv1.meta["coefficients"]
    d = inv1.meta["diagonal_overlaps"]
    assert np.abs(c * d * d - 1.0).max() < 1e-12


def test_spectral_reconstruct_grid_accuracy():
    # the truncated spectral sums of H, 1 and the spin, sum_i value_i
    # |state_i><<left_i| / d_i with Simpson-weighted bras, reproduce them on
    # the retained span to the rule's accuracy
    states = doublet_family(UNIT, 4)
    nodes = GridSpec(512).interior_nodes
    rec_h, rec_i, rec_o = (reference_spectral_sum(states, np.array(values), 512) for values in (
        [s.level.E for s in states], [1.0] * len(states), [float(s.sigma) for s in states]))
    for st in states:
        v = np.concatenate([st.upper(nodes), st.lower(nodes)])
        scale = np.abs(v).max()
        assert np.abs(rec_h @ v - st.level.E * v).max() <= 1e-8 * scale * abs(st.level.E)
        assert np.abs(rec_i @ v - v).max() <= 1e-8 * scale
        assert np.abs(rec_o @ v - st.sigma * v).max() <= 1e-8 * scale


def test_singular_parity_overlap_is_refused():
    st = _singular_state()
    assert parity_overlap(st) == 0.0
    with pytest.raises(NormalizationSingularError):
        quasi_parity(st)
    with pytest.raises(NormalizationSingularError):
        left_vector(st)
    # d = 0 is stored as it is, and refused where it normalizes: the weight contract
    assert st.d == 0.0
    with pytest.raises(NormalizationSingularError):
        weights_module._normalizable([st.d])


def test_diagonal_overlap_has_no_relative_floor():
    # d ~ 2 sqrt(YZ): tiny but nonzero, so it is returned, not refused
    pair = CouplingPair(1e-13, 1e-13)
    state = solve_coefficients(solve_level(1, pair), pair, -1)
    assert state.d == pytest.approx(2.0e-13, rel=1e-12)


def test_biorthogonal_overlap_requires_matching_coupling():
    a = doublet_family(UNIT, 1)[0]
    b = doublet_family(CouplingPair(2.0, 2.0), 1)[0]
    lv = left_vector(a)
    with pytest.raises(ModelDomainError):
        biorthogonal_overlap(lv, b)
