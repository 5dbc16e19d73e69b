"""The references the tests compare the package against, which no other
caller runs, and the doublet shortcuts against the per-state, full-grid
formulas they replace.

doublet_family builds each sigma = -1 state from its sigma = +1 partner's
norm and sines, and the metric builders evaluate the sigma = +1 rows only.
The reference below keeps the earlier formulas: one coefficient solve per
sigma, every pairing over the full 2N x 2N grid, and d and q recomputed
per use.  The sampled forms (quadrature pairing, grid forms) read each
state's profile once, on the x <= 0 nodes; their reference calls every
state's and left partner's channels at every node, as does the grid
spectral sum written out here, which the package does not build.
The oracle's `eigenpairs` samples only left sides for YZ >= 0, writes
its doublets into one array and reads its residual off the bands'
constants; its reference samples both sides, stacks the channel blocks
and reads the residual off the stored bands.  `matching_residual` samples
its peak on the 129 points x <= 0; its reference, on all 257.  The
shortcuts must give the same floats, not merely close ones, except the
quadrature pairing: it sums the x < 0 half once, as 2 Re of its terms,
and lies within rounding (4e-15 of max |G|) of the full-grid sum.
"""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from coupledwell import (
    ChannelState,
    CouplingPair,
    GridSpec,
    LeftState,
    MetricConstraintError,
    MetricWeights,
    ModelDomainError,
    NormalizationSingularError,
    NumericalFailureError,
    biorthogonality_matrix,
    build_hamiltonian,
    build_theta_metric,
    critical_coupling,
    doublet_family,
    eigenpairs,
    inverse_identity_defect,
    inverse_theta_metric,
    left_vector,
    matching_residual,
    mode_hamiltonian,
    mode_spin,
    quasi_hermiticity_defect,
    solve_coefficients,
    solve_level,
)
from coupledwell._weights import spin_ratio
from coupledwell.metric import (MIN_ROOT_PRODUCT, OperatorRep, _shared_coupling, simpson_rule,
                               sine_product_integrals)
from coupledwell.model import RepBasis, as_index
from coupledwell.oracle import (_cut, _distinct, _doublets, _lowest_roots, _partner_residual, _require_residual,
                               _TwoRegionBlock)
from coupledwell.wavefunctions import (
    NEAR_WAVENUMBERS,
    _sin_cos_kappa,
    channel_weights,
    check_points,
    phi_bilinear_product,
    quasi_parity,
    sine_product_integral,
)


def biorthogonal_overlap(left, state):
    # <<left|state> in closed form, q (wl wu' + wu wl') integral phi phi'
    ls = left.state
    _shared_coupling((ls, state))
    wu_l, wl_l = channel_weights(ls.sigma, ls.Y, ls.Z)
    wu_r, wl_r = channel_weights(state.sigma, state.Y, state.Z)
    factor = left.q * (wl_l * wu_r + wu_l * wl_r)
    return factor * phi_bilinear_product(ls, state)


def spin_block(coupling):
    # the dense 2x2 spin block [[0, r], [1/r, 0]] with r = sqrt(Z/Y) from
    # _weights.spin_ratio, the block's one body in the package, which refuses
    # every coupling but Y > 0 and Z > 0 and a ratio out of the float range
    ratio = spin_ratio(coupling)
    return np.array([[0.0, ratio], [1.0 / ratio, 0.0]])


def phi_sesquilinear_product(state_a, state_b):
    # <phi_a | phi_b> = integral conj(phi_a) phi_b dx, in closed form
    a, b = state_a, state_b
    return float(2.0 * (a.phi_coeff.conjugate() * b.phi_coeff
                        * sine_product_integral(a.kappa.conjugate(), b.kappa)).real)


def quadrature_overlap(f, g, panels):
    # <f | g> by simpson_rule(2 panels), panels per half even and >= 2; the rule
    # drops the wall nodes, where f and g must vanish
    panels = as_index(panels, "panels must be an even integer >= 2", 2, even=True)
    nodes, w = simpson_rule(2 * panels)
    return complex(np.sum(w * np.conj(f(nodes)) * g(nodes)))


def discrete_theta(grid):
    # the dense S of S H S = H^dagger: channel swap (x) index reversal
    m = grid.n_interior
    reversal = np.fliplr(np.eye(m))
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    return OperatorRep(np.kron(swap, reversal), RepBasis.GRID, is_form=True, meta={"grid": grid})


def apply_theta(upper, lower):
    # the swap-reflect map on channel callables: (x -> lower(-x), x -> upper(-x))
    return (lambda x: lower(np.negative(x))), (lambda x: upper(np.negative(x)))


def channels(item):
    # (upper, lower) of a state, or of a left partner: q times its state's swap-reflect image
    if not isinstance(item, LeftState):
        return item.upper, item.lower
    upper, lower = apply_theta(item.state.upper, item.state.lower)
    return (lambda x: item.q * upper(x)), (lambda x: item.q * lower(x))


def phi_derivative(state, x):
    # the profile's slope: a kappa cos(kappa (x+1)) on x <= 0, mirrored and conjugated on x > 0
    x = check_points(x)
    factor, kappa = state.phi_coeff * state.kappa, state.kappa
    return np.where(x <= 0.0, factor * np.cos(kappa * (x + 1.0)),
                    np.conj(-factor * np.cos(kappa * (1.0 - x))))[()]


def _reference_state(level, coupling, sigma):
    # one coefficient solve per sigma, from that sigma's own sines
    s, t = level.s, level.t
    stretch = math.sinh(2.0 * t) / (2.0 * t) if t else 1.0
    norm = math.sqrt(stretch + math.sin(2.0 * level.eps) / (2.0 * s))
    sk, ck = _sin_cos_kappa(level, sigma)
    if abs(sk) > 0.0:
        a = (sk.conjugate() / abs(sk)) / norm
    else:
        a = 1j * math.copysign(1.0, ck.real) / norm
    wu, wl = channel_weights(sigma, coupling.Y, coupling.Z)
    return ChannelState(level=level, sigma=sigma, Y=coupling.Y, Z=coupling.Z,
                        phi_coeff=a, kappa=complex(s, -sigma * t), A=a * wu, B=a * wl)


def _reference_family(coupling, n_levels):
    return [_reference_state(solve_level(n, coupling), coupling, sigma)
            for n in range(n_levels) for sigma in (+1, -1)]


def _profiles(states):
    a = np.array([s.phi_coeff for s in states], dtype=complex)
    kappa = np.array([s.kappa for s in states], dtype=complex)
    wu, wl = np.array([channel_weights(s.sigma, s.Y, s.Z) for s in states]).T
    return a, kappa, wu, wl


def _bilinear_products(a_row, kappa_row, a, kappa):
    return 2.0 * (a_row[:, None] * a * sine_product_integrals(kappa_row[:, None], kappa)).real


def _d(state):
    wu, wl = channel_weights(state.sigma, state.Y, state.Z)
    return 2.0 * abs(wu * wl) * abs(phi_bilinear_product(state, state))


def _reference_pairing(states):
    # every entry over the full grid; the diagonal is the scalar pairing
    a, kappa, wu, wl = _profiles(states)
    q = np.array([quasi_parity(s) for s in states], dtype=float)
    out = q[:, None] * (wl[:, None] * wu + wu[:, None] * wl) * _bilinear_products(a, kappa, a, kappa)
    for i, s in enumerate(states):
        wu_i, wl_i = channel_weights(s.sigma, s.Y, s.Z)
        out[i, i] = q[i] * (wl_i * wu_i + wu_i * wl_i) * phi_bilinear_product(s, s)
    return out


def _weights_and_d(states, weights):
    per_state = np.array([weights.select(s.level.n, s.sigma) for s in states])
    return per_state, np.array([_d(s) for s in states])


def _reference_theta(states, weights):
    per_state, d = _weights_and_d(states, weights)
    return np.diag(d * per_state * d)


def _reference_inverse(states, weights):
    per_state, d = _weights_and_d(states, weights)
    a, kappa, wu, wl = _profiles(states)
    gram = (wu[:, None] * wu + wl[:, None] * wl) * _bilinear_products(a.conj(), kappa.conj(), a, kappa)
    return (1.0 / (per_state * d * d))[:, None] * gram


def _reference_defect(theta, states, weights):
    per_state, d = _weights_and_d(states, weights)
    product = (1.0 / (per_state * d * d))[:, None] * theta
    return float(np.max(np.abs(product - np.eye(len(states)))))


def _reference_dense_defect(m, f):
    # quasi_hermiticity_defect's dense body, max |M^dagger F - F M| / (max |F| max |M|)
    return float(np.max(np.abs(m.conj().T @ f - f @ m))) / (
        float(np.max(np.abs(f))) * float(np.max(np.abs(m))))


def _q(state, get=quasi_parity):
    # q, or the refusal's message where integral phi^2 = 0
    try:
        return get(state)
    except NormalizationSingularError as exc:
        return str(exc)


def _assert_d_and_q(state, ref):
    # d is stored by the builder, and q unless integral phi^2 = 0, where the
    # property raises as quasi_parity does
    assert "d" in vars(state) and ("q" in vars(state)) == isinstance(_q(ref), int)
    assert repr(state.d) == repr(_d(ref))
    assert _q(state, lambda s: s.q) == _q(ref)


def _assert_matches_reference(pair, n_levels):
    states = doublet_family(pair, n_levels)
    reference = _reference_family(pair, n_levels)
    coefficients = [solve_coefficients(ref.level, pair, ref.sigma) for ref in reference]
    for built in (states, coefficients):
        for state, ref in zip(built, reference):
            for field in dataclasses.fields(ChannelState):
                assert repr(getattr(state, field.name)) == repr(getattr(ref, field.name)), field.name
            _assert_d_and_q(state, ref)
    # a state made by dataclasses.replace computes its own d and q
    changed = dataclasses.replace(states[-1], kappa=1.5 * states[-1].kappa)
    assert not {"d", "q"} & vars(changed).keys()
    assert repr(changed.d) == repr(_d(changed)) and _q(changed, lambda s: s.q) == _q(changed)
    # the builders take a sigma = -1 state's d and q from its partner
    for plus, minus in zip(reference[::2], reference[1::2]):
        assert _d(minus) == _d(plus) and quasi_parity(minus) == -quasi_parity(plus)
    pairing = biorthogonality_matrix(states)
    assert np.array_equal(pairing, _reference_pairing(reference))
    # opposite-sigma members never pair: their channel factor cancels exactly
    sigma = np.array([s.sigma for s in states])
    assert np.all(pairing[sigma[:, None] != sigma] == 0.0)

    rng = np.random.default_rng(n_levels)
    weights = MetricWeights(rng.uniform(0.1, 3.0, n_levels), rng.uniform(0.1, 3.0, n_levels))
    if pair.root_product < MIN_ROOT_PRODUCT:
        with pytest.raises(MetricConstraintError):
            build_theta_metric(states, weights)
        return
    # fresh states per builder: no builder may lean on another's cached d or q
    theta = build_theta_metric(doublet_family(pair, n_levels), weights).matrix
    assert np.array_equal(theta, _reference_theta(reference, weights))
    inverse = inverse_theta_metric(doublet_family(pair, n_levels), weights).matrix
    assert np.array_equal(inverse, _reference_inverse(reference, weights))
    assert inverse_identity_defect(
        build_theta_metric(states, weights), doublet_family(pair, n_levels), weights
    ) == _reference_defect(theta, reference, weights)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(log_c=st.floats(min_value=-10.0, max_value=math.log10(4.4)),
       log_ratio=st.floats(min_value=-3.0, max_value=3.0),
       n_levels=st.integers(min_value=1, max_value=60))
def test_doublet_shortcuts_match_the_per_state_reference(log_c, log_ratio, n_levels):
    # c log-uniform on [1e-10, 4.4], Y/Z log-uniform on [1e-3, 1e3]
    c, root_ratio = 10.0 ** log_c, 10.0 ** (log_ratio / 2.0)
    _assert_matches_reference(CouplingPair(c * root_ratio, c / root_ratio), n_levels)


@pytest.mark.parametrize("value", [0.0, 1e-300])
@pytest.mark.parametrize("n_levels", [3, 60])
def test_doublet_shortcuts_match_the_reference_at_the_decoupled_end(value, n_levels):
    # Y = Z = 0: the odd levels take the sin kappa = 0 branch, where both
    # members share one coefficient; at 1e-300 conj(a_plus) can differ from
    # a_minus in the sign of a zero part (-1-0j against -1+0j at n = 2)
    _assert_matches_reference(CouplingPair(value, value), n_levels)


def _assert_chain_matches_reference(pair, s_plus, s_minus):
    # the metric chain of a `closed-form` request against the per-state formulas, as
    # bits: the form, the inverse and its meta, the pairing, both mode-basis
    # defects by the dense product and the identity defect
    n_levels = len(s_plus)
    states, reference = doublet_family(pair, n_levels), _reference_family(pair, n_levels)
    weights = MetricWeights(np.array(s_plus), np.array(s_minus))
    theta, inverse = build_theta_metric(states, weights), inverse_theta_metric(states, weights)
    assert_same_bytes(theta.matrix, _reference_theta(reference, weights))
    assert_same_bytes(inverse.matrix, _reference_inverse(reference, weights))
    per_state, d = _weights_and_d(reference, weights)
    assert_same_bytes(inverse.meta["coefficients"], 1.0 / (per_state * d * d))
    assert_same_bytes(inverse.meta["diagonal_overlaps"], d)
    # + 0.0 reads -0.0 as 0.0: the reference's opposite-sigma entries are signed products
    assert_same_bytes(biorthogonality_matrix(states) + 0.0, _reference_pairing(reference) + 0.0)
    maps = (np.diag(np.array([s.level.E for s in reference])),
            np.diag(np.array([float(s.sigma) for s in reference])))
    for rep, matrix in zip((mode_hamiltonian(states), mode_spin(states)), maps):
        assert_same_bytes(rep.matrix, matrix)
        assert repr(quasi_hermiticity_defect(rep, theta)) == repr(
            _reference_dense_defect(matrix, theta.matrix))
    assert repr(inverse_identity_defect(theta, states, weights)) == repr(
        _reference_defect(theta.matrix, reference, weights))


# sigma = +1 wavenumbers of levels 0 and 1 lie 0.066 apart at sqrt(YZ) = 4.47, so
# the pairing still gathers near entries off its diagonal; at sqrt(YZ) = 2, 2t > 1
# at level 0 and no two levels are near, so its inverse row keeps the rank-2 form
NEAR_PAIR, WIDE_LOWEST = CouplingPair(4.47, 4.47), CouplingPair(4.0, 1.0)


def test_chain_examples_reach_the_branches_they_pin():
    for pair, near in ((NEAR_PAIR, True), (WIDE_LOWEST, False)):
        plus = doublet_family(pair, 8)[0::2]
        kappa = np.array([s.kappa for s in plus])
        apart = np.abs(kappa[:, None] - kappa)[~np.eye(len(plus), dtype=bool)]
        assert (apart.min() < NEAR_WAVENUMBERS) == near
        assert 2.0 * plus[0].level.t >= NEAR_WAVENUMBERS


@settings(max_examples=60, derandomize=True, deadline=None)
@given(log_c=st.floats(min_value=math.log(1e-4), max_value=math.log(4.47)),
       log_ratio=st.floats(min_value=math.log(0.25), max_value=math.log(4.0)),
       levels=st.integers(min_value=1, max_value=40).flatmap(
           lambda n: st.lists(st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
                              min_size=n, max_size=n)))
@example(log_c=math.log(4.47), log_ratio=0.0, levels=[(1.0, 1.0), (0.5, 2.0)] * 4)
@example(log_c=math.log(2.0), log_ratio=math.log(4.0), levels=[(2.0, 0.5)] * 40)
def test_metric_chain_matches_the_per_state_reference(log_c, log_ratio, levels):
    # c log-uniform on [1e-4, 4.47], Y/Z log-uniform on [1/4, 4], 1-40 levels,
    # weights in [0.5, 2]
    c, root_ratio = math.exp(log_c), math.exp(log_ratio / 2.0)
    s_plus, s_minus = zip(*levels)
    _assert_chain_matches_reference(CouplingPair(c * root_ratio, c / root_ratio), s_plus, s_minus)


def test_sigma_minus_sines_are_the_conjugates():
    # the identity the shortcut rests on, at a zero and a nonzero t
    for pair in (CouplingPair(0.0, 0.0), CouplingPair(1e-300, 1e-300), CouplingPair(1.0, 4.0)):
        for n in range(6):
            level = solve_level(n, pair)
            plus, minus = _sin_cos_kappa(level, +1), _sin_cos_kappa(level, -1)
            for p, m in zip(plus, minus):
                assert repr(p.conjugate()) == repr(m)


def reference_sample(items, nodes):
    # one column [upper(nodes); lower(nodes)] per state or left partner, each
    # channel called at every node
    columns = np.empty((2 * nodes.size, len(items)), dtype=complex)
    for k, item in enumerate(items):
        upper, lower = channels(item)
        columns[: nodes.size, k] = upper(nodes)
        columns[nodes.size :, k] = lower(nodes)
    return columns


def assert_same_bytes(fast, reference):
    # the same bits, signed zeros included, without copying a large matrix
    assert fast.dtype == reference.dtype and fast.shape == reference.shape
    bits = [np.ascontiguousarray(m).view(np.uint64) for m in (fast, reference)]
    assert np.array_equal(*bits)


def reference_spectral_sum(states, values, M):
    # sum_i value_i |state_i><<left_i| / d_i on the interior nodes of GridSpec(M)
    # (M divisible by 4), the bras weighted by Simpson's rule
    nodes, w = simpson_rule(M)
    right = reference_sample(states, nodes)
    bras = reference_sample([left_vector(s) for s in states], nodes)
    d = np.array([s.d for s in states])
    return (right * (values / d)) @ (bras.conj() * np.concatenate([w, w])[:, None]).T


def _shuffled_partners(states, rng):
    # explicit partners of the states: shuffled, some with the opposite sign
    lefts = [left_vector(s) for s in states]
    return [LeftState(lefts[i].state, lefts[i].q * int(rng.choice((-1, 1))))
            for i in rng.permutation(len(lefts))]


def _assert_quadrature_matches_full_grid(states, partners):
    # the quadrature sums the x < 0 half once, as 2 Re of its terms, and adds
    # x = 0: the full-grid Simpson sum over every node, with each channel
    # called at every node, is its reference within rounding of max |G|
    nodes, w = simpson_rule(1024)
    bras = reference_sample([left_vector(s) for s in states] if partners is None else partners, nodes)
    reference = (bras.conj().T * np.concatenate([w, w])) @ reference_sample(states, nodes)
    fast = biorthogonality_matrix(states, partners, method="quadrature")
    assert fast.dtype == reference.dtype and fast.shape == reference.shape
    assert np.abs(fast - reference).max() <= 4e-15 * np.abs(reference).max()


def _assert_sampled_forms_match_reference(pair, n_levels, M, seed):
    states = doublet_family(pair, n_levels)
    lefts = [left_vector(s) for s in states]
    rng = np.random.default_rng(seed)
    for partners in (None, _shuffled_partners(states, rng)):
        _assert_quadrature_matches_full_grid(states, partners)

    grid = GridSpec(M)
    d = np.array([s.d for s in states])
    weights = MetricWeights(rng.uniform(0.1, 3.0, n_levels), rng.uniform(0.1, 3.0, n_levels))
    if pair.root_product < MIN_ROOT_PRODUCT:
        for build in (build_theta_metric, inverse_theta_metric):
            with pytest.raises(MetricConstraintError):
                build(states, weights, grid=grid)
        return
    per_state = np.array([weights.select(s.level.n, s.sigma) for s in states])
    columns = reference_sample(lefts, grid.interior_nodes)
    # in place, the same arithmetic as (form h + (form h)^dagger) / 2 with fewer temporaries
    reference = (columns * per_state) @ columns.conj().T
    reference *= grid.h
    reference += reference.conj().T
    reference /= 2.0
    assert_same_bytes(build_theta_metric(states, weights, grid=grid).matrix, reference)
    columns = reference_sample(states, grid.interior_nodes)
    reference = (columns * (1.0 / (per_state * d * d))) @ columns.conj().T
    reference *= grid.h
    assert_same_bytes(inverse_theta_metric(states, weights, grid=grid).matrix, reference)


@settings(max_examples=15, derandomize=True, deadline=None)
@given(log_c=st.floats(min_value=-10.0, max_value=math.log10(4.4)),
       log_ratio=st.floats(min_value=-3.0, max_value=3.0),
       n_levels=st.integers(min_value=1, max_value=12),
       M=st.integers(min_value=2, max_value=512).map(lambda k: 4 * k),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_sampled_forms_match_the_per_callable_reference(log_c, log_ratio, n_levels, M, seed):
    # c log-uniform on [1e-10, 4.4], Y/Z log-uniform on [1e-3, 1e3], M = 8 ... 2048
    c, root_ratio = 10.0 ** log_c, 10.0 ** (log_ratio / 2.0)
    _assert_sampled_forms_match_reference(CouplingPair(c * root_ratio, c / root_ratio),
                                          n_levels, M, seed)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(log_c=st.floats(min_value=math.log(1e-4), max_value=math.log(4.47)),
       log_ratio=st.floats(min_value=math.log(0.25), max_value=math.log(4.0)),
       n_levels=st.integers(min_value=1, max_value=40),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(log_c=math.log(4.47), log_ratio=0.0, n_levels=40, seed=0)
def test_quadrature_matches_the_full_grid_sum(log_c, log_ratio, n_levels, seed):
    # c log-uniform on [1e-4, 4.47], Y/Z log-uniform on [1/4, 4]: own partners,
    # shuffled sign-flipped explicit ones, and a partial family with its partners
    c, root_ratio = math.exp(log_c), math.exp(log_ratio / 2.0)
    states = doublet_family(CouplingPair(c * root_ratio, c / root_ratio), n_levels)
    rng = np.random.default_rng(seed)
    part = [states[i] for i in sorted(rng.choice(len(states), int(rng.integers(1, len(states) + 1)),
                                                 replace=False))]
    _assert_quadrature_matches_full_grid(states, None)
    _assert_quadrature_matches_full_grid(states, _shuffled_partners(states, rng))
    _assert_quadrature_matches_full_grid(part, _shuffled_partners(part, rng))


def reference_matching_residual(state):
    # matching_residual with its peak sampled at all 257 points of
    # np.linspace(-1, 1, 257): x + 1 on x <= 0, 1 - x on x > 0
    profile = [cmath.sin(state.kappa * (x + 1.0 if x <= 0.0 else 1.0 - x))
               for x in np.linspace(-1.0, 1.0, 257).tolist()]
    amp = max(abs(coeff * sine) for coeff in (state.A, state.B) for sine in profile)
    sin_kappa, cos_kappa = _sin_cos_kappa(state.level, state.sigma)
    defect = 0.0
    for coeff in (state.A, state.B):
        sk = coeff * sin_kappa
        dk = coeff * state.kappa * cos_kappa
        defect = max(defect, abs(sk - sk.conjugate()), abs(dk + dk.conjugate()))
    return defect / amp


def _assert_matching_residual_matches_reference(states):
    for state in states:
        assert matching_residual(state).hex() == reference_matching_residual(state).hex()


@settings(max_examples=40, derandomize=True, deadline=None)
@given(log_c=st.floats(min_value=math.log(1e-10), max_value=math.log(4.47)),
       log_ratio=st.floats(min_value=math.log(0.25), max_value=math.log(4.0)),
       n_levels=st.integers(min_value=1, max_value=60))
def test_matching_residual_is_the_257_point_formula(log_c, log_ratio, n_levels):
    # the peak over the 129 points x <= 0 is the peak over all 257, bit for bit
    c, root_ratio = math.exp(log_c), math.exp(log_ratio / 2.0)
    _assert_matching_residual_matches_reference(
        doublet_family(CouplingPair(c * root_ratio, c / root_ratio), n_levels))


def test_matching_residual_is_the_257_point_formula_decoupled_and_near_merger():
    # the decoupled ladder, whose odd levels vanish at x = 0, and pair 0 just
    # below its merger, where its two levels nearly meet and t is largest
    merger = critical_coupling(0).c_merger
    pairs = [CouplingPair(0.0, 0.0), CouplingPair(1e-300, 1e-300)]
    pairs += [CouplingPair(merger * (1.0 - delta), merger * (1.0 - delta)) for delta in (1e-4, 1e-8)]
    pairs.append(CouplingPair(2.0 * merger * (1.0 - 1e-6), 0.5 * merger * (1.0 - 1e-6)))
    for pair in pairs:
        _assert_matching_residual_matches_reference(doublet_family(pair, 6))


def test_sampled_nodes_are_exactly_antisymmetric():
    # the precondition of reading x > 0 as the mirror of x <= 0: x = 0 exact,
    # x_(M/2 + j) = -x_(M/2 - 2 - j), and 1 - (-x) = x + 1 bit for bit
    def check(nodes):
        half = nodes.size // 2
        assert nodes[half] == 0.0
        assert np.array_equal(nodes[half + 1 :], -nodes[half - 1 :: -1])
        assert np.array_equal(1.0 - nodes[half + 1 :], nodes[half - 1 :: -1] + 1.0)

    for M in range(8, 16385, 2):
        nodes = GridSpec(M).interior_nodes
        check(nodes)
        if M % 4 == 0:
            simpson_nodes, _ = simpson_rule(M)
            assert np.array_equal(simpson_nodes, nodes)
            check(simpson_nodes)
        elif M < 200:  # each half needs an even panel count
            with pytest.raises(ModelDomainError, match="divisible by 4"):
                simpson_rule(M)


def reference_eigenvectors(block, roots):
    # T's unit eigenvectors with both sides sampled at every root
    m = block.m
    j = np.arange(1.0, m + 1)[:, None]
    sides = []
    for sign in (-1.0, 1.0):
        _, theta, cos_m, sin_m, sin_t = np.array([block._side(r, sign) for r in roots.tolist()]).T
        x, y = theta.real, theta.imag
        grow, fade = np.exp((j - m) * abs(y)), np.exp(-(j + m) * abs(y))
        profile = np.sin(j * x) * (grow + fade) / 2 + 1j * (np.copysign((grow - fade) / 2, y) * np.cos(j * x))
        sides.append((profile, cos_m, sin_m, sin_t))
    (left, cos_l, sin_l, sin_tl), (right, cos_r, sin_r, sin_tr) = sides
    continuity = np.maximum(abs(sin_l), abs(sin_r)) >= np.maximum(abs(cos_l), abs(cos_r))
    a = np.where(continuity, sin_r, sin_tr * cos_r)
    b = np.where(continuity, sin_l, -sin_tl * cos_l)
    vectors = np.concatenate([a * left, b * right[-2::-1]])
    return vectors / np.linalg.norm(vectors, axis=0)


def reference_doublets(rep, block, values, vectors):
    # each channel block computed on its own, then stacked
    coupling, c = rep.coupling, rep.coupling.root_product
    if not c:
        a = block.particular(values, -1j * (coupling.Z or coupling.Y) * rep.step[:, None] * vectors)
        scale = np.sqrt(1.0 + np.linalg.norm(a, axis=0) ** 2)
        channels = [[vectors, a / scale], [np.zeros_like(vectors), vectors / scale]]
        if coupling.Y:
            channels.reverse()
        return np.concatenate([values, values]), np.vstack([np.hstack(row) for row in channels])
    if block.shift.real:
        head, partner, partner_values = 1j * coupling.Z, vectors[::-1], values
    else:
        head, partner, partner_values = coupling.Z, vectors.conj(), values.conj()
    norm = math.hypot(coupling.Z, c)
    channels = [[head / norm * vectors, head / norm * partner], [c / norm * vectors, -c / norm * partner]]
    return np.concatenate([values, partner_values]), np.vstack([np.hstack(row) for row in channels])


def reference_residual(rep, values, vectors):
    # max |H x - E x| on the partners, off the stored bands, the step at every node
    partners = values.size // 2
    x = vectors[:, partners:].reshape(2, rep.diagonal.size, -1)
    residual = (rep.diagonal[:, None] - values[partners:]) * x
    cross = np.stack([1j * rep.coupling.Z * rep.step, 1j * rep.coupling.Y * rep.step])
    residual += cross[:, :, None] * x[::-1]
    residual[:, :-1] += rep.sub[:, None] * x[:, 1:]
    residual[:, 1:] += rep.sub[:, None] * x[:, :-1]
    return abs(residual).max()


def reference_eigenpairs(rep, k):
    block, roots = _lowest_roots(rep.coupling, rep.grid, k)
    values = np.array(roots, dtype=complex)
    values, vectors = reference_doublets(rep, block, values, reference_eigenvectors(block, values))
    _require_residual(reference_residual(rep, values, vectors), rep.coupling, rep.grid)
    return _cut(values, vectors, k)


def _solved(solve, pair, grid, k):
    try:
        return solve(build_hamiltonian(pair, grid), k)
    except (ModelDomainError, NumericalFailureError) as exc:
        return type(exc), str(exc)


COUPLING_CLASSES = {
    "YZ > 0": lambda c, r: (c * r, c / r),
    "YZ < 0": lambda c, r: (c * r, -c / r),
    "Y = 0": lambda c, r: (0.0, c),
    "Z = 0": lambda c, r: (c, 0.0),
    "Y = Z = 0": lambda c, r: (0.0, 0.0),
}


@settings(max_examples=200, derandomize=True, deadline=None)
@given(log_c=st.floats(min_value=-10.0, max_value=4.0),
       log_ratio=st.floats(min_value=-3.0, max_value=3.0),
       kind=st.sampled_from(["YZ > 0"] * 3 + sorted(COUPLING_CLASSES)),  # YZ > 0 on half the draws
       half_m=st.integers(min_value=4, max_value=2048),
       k=st.integers(min_value=1, max_value=12))
@example(log_c=math.log10(4.6), log_ratio=0.0, kind="YZ > 0", half_m=128, k=12)  # past c_crit(0)
@example(log_c=math.log10(30.0), log_ratio=0.5, kind="YZ > 0", half_m=2048, k=11)
@example(log_c=4.0, log_ratio=-3.0, kind="YZ < 0", half_m=4, k=12)
def test_eigenpairs_match_the_two_sided_reference(log_c, log_ratio, kind, half_m, k):
    # c log-uniform on [1e-10, 1e4], past c_crit(0) ~ 4.47 for a quarter of
    # the draws, Y/Z log-uniform on [1e-3, 1e3], M = 8 ... 4096: the same
    # values and vector bytes, or the same refusal
    c, root_ratio = 10.0 ** log_c, 10.0 ** (log_ratio / 2.0)
    pair, grid = CouplingPair(*COUPLING_CLASSES[kind](c, root_ratio)), GridSpec(2 * half_m)
    fast, reference = (_solved(solve, pair, grid, k) for solve in (eigenpairs, reference_eigenpairs))
    if isinstance(reference[0], type):
        assert fast == reference
        return
    for a, b in zip(fast, reference):
        assert_same_bytes(a, b)
    # the residual itself, read off the constants and off the stored bands
    rep = build_hamiltonian(pair, grid)
    block, roots = _lowest_roots(pair, grid, k)
    values = np.array(roots, dtype=complex)
    values, vectors = _doublets(rep, block, values, block.eigenvectors(values))
    assert _partner_residual(rep, values, vectors) == reference_residual(rep, values, vectors)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(log_gamma=st.floats(min_value=-10.0, max_value=6.0),
       kind=st.sampled_from(("i gamma", "real", "zero")),
       half_m=st.integers(min_value=4, max_value=2048),
       energies=st.lists(st.tuples(st.floats(min_value=0.0, max_value=1.0),
                                   st.floats(min_value=-1.0, max_value=1.0),
                                   st.sampled_from(("complex", "real", "paired", "at -gamma"))),
                         min_size=1, max_size=6))
def test_eigenvectors_match_the_two_sided_reference_off_the_roots(log_gamma, kind, half_m, energies):
    # the sampling rule, at any energies in the zero count's box and not
    # only at roots: sets with and without their conjugates, real values,
    # and Im E = -gamma exactly, where the conjugate's zero has the other sign
    gamma, grid = 10.0 ** log_gamma, GridSpec(2 * half_m)
    shift = {"i gamma": 1j * gamma, "real": complex(gamma), "zero": complex(0.0)}[kind]
    block = _TwoRegionBlock(width=4.0 / (grid.h * grid.h), shift=shift, m=half_m)
    listed = []
    for where, height, form in energies:
        e = complex(-1.0 + where * (block.width + gamma + 2.0), height * (gamma + 1.0) + 0.0)
        listed += {"complex": [e], "real": [complex(e.real, 0.0)], "paired": [e, e.conjugate()],
                   "at -gamma": [complex(e.real, -gamma)]}[form]
    roots = np.array(_distinct(listed), dtype=complex)
    with np.errstate(invalid="ignore"):  # a sine that vanishes at every node has no unit vector
        assert_same_bytes(block.eigenvectors(roots), reference_eigenvectors(block, roots))
