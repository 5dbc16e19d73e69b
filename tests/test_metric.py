"""Metric layer: swap-reflect conjugation, biorthogonal pairings, weighted
metric family, inverses and spectral sums."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    apply_theta,
    biorthogonal_overlap,
    biorthogonality_matrix,
    build_hamiltonian,
    build_theta_metric,
    channel_kernel,
    diagonal_overlap,
    discrete_theta,
    doublet_family,
    inverse_identity_defect,
    inverse_theta_metric,
    left_vector,
    mode_hamiltonian,
    mode_spin,
    parity_overlap,
    phi_sesquilinear_product,
    quadrature_overlap,
    quasi_hermiticity_defect,
    quasi_parity,
    solve_coefficients,
    solve_level,
    spectral_reconstruct,
    spin_operator,
)
from coupledwell.wavefunctions import sine_product_integral, sine_product_integrals

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
        d = diagonal_overlap(st)
        assert d > 0.0
        assert abs(d - 2.0 * abs(parity_overlap(st))) < 1e-13
    pair = CouplingPair(2.0, 0.5)
    for st in doublet_family(pair, 3):
        expected = 2.0 * math.sqrt(2.0 * 0.5) * abs(parity_overlap(st))
        assert abs(diagonal_overlap(st) - expected) < 1e-13


def test_left_vector_component_layout():
    st = doublet_family(CouplingPair(1.0, 4.0), 1)[0]
    lv = left_vector(st)
    q = lv.q
    assert q in (+1, -1)
    assert np.array_equal(lv.upper(XS), q * st.lower(-XS))
    assert np.array_equal(lv.lower(XS), q * st.upper(-XS))


def test_decoupled_weights_keep_pairing_finite():
    # at Y = Z = 0 the states carry unit channel factors, so the diagonal
    # pairing stays 2|p| instead of collapsing with sqrt(YZ)
    pair = CouplingPair(0.0, 0.0)
    lvl = solve_level(0, pair)
    st = solve_coefficients(lvl, pair, +1)
    assert abs(diagonal_overlap(st) - 2.0 * abs(parity_overlap(st))) < 1e-14
    assert diagonal_overlap(st) > 0.0


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


def _assert_pairing_matches_scalar(states, lefts):
    fast = biorthogonality_matrix(states, lefts, method="closed")
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
        _assert_pairing_matches_scalar(states, [left_vector(s) for s in states])
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
    states = doublet_family(CouplingPair(1.0, 4.0), 5)
    lefts = [left_vector(s) for s in states]
    flipped = [LeftState(state=l.state, q=-l.q) for l in lefts]
    # the sign q multiplies each row exactly, diagonal included
    assert np.array_equal(
        biorthogonality_matrix(states, flipped), -biorthogonality_matrix(states, lefts)
    )
    # partners out of order and with mixed signs: each entry is still the
    # scalar pairing of its row's partner with its column's state
    shuffled = [LeftState(state=l.state, q=l.q * (-1) ** k) for k, l in enumerate(lefts[::-1])]
    _assert_pairing_matches_scalar(states, shuffled)
    # decoupled Y = Z = 0: opposite sigma members share one real wavenumber,
    # so the same-wavenumber branch is taken off the diagonal too
    decoupled = doublet_family(CouplingPair(0.0, 0.0), 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_pairing_matches_scalar(decoupled, [left_vector(s) for s in decoupled])


def test_vector_pairing_rejects_mixed_couplings():
    states = doublet_family(UNIT, 2)
    other = doublet_family(CouplingPair(2.0, 2.0), 2)
    with pytest.raises(ModelDomainError, match="different couplings"):
        biorthogonality_matrix(states, [left_vector(s) for s in other])
    # one foreign left partner or state
    mixed_lefts = [left_vector(s) for s in states]
    mixed_lefts[3] = left_vector(other[3])
    with pytest.raises(ModelDomainError, match="different couplings"):
        biorthogonality_matrix(states, mixed_lefts)
    with pytest.raises(ModelDomainError, match="different couplings"):
        biorthogonality_matrix(states[:3] + other[3:4], [left_vector(s) for s in states])
    # every diagonal pair shares a coupling, the off-diagonal ones do not
    mixed = [states[0], other[1]]
    with pytest.raises(ModelDomainError, match="different couplings"):
        biorthogonality_matrix(mixed, [left_vector(s) for s in mixed])
    assert biorthogonality_matrix([]).shape == (0, 0)


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


def test_closed_pairing_and_inverse_make_linear_scalar_calls(monkeypatch):
    # a loop over scalar pairings would make N^2 calls; the vector kernel
    # leaves N, all of them on the diagonal.  The mode-basis builders take
    # each d from its state and build no left partner.
    calls = dict.fromkeys(("left", "parity", "overlap", "integral"), 0)

    def counted(name, inner):
        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        return wrapper

    for name, module, attr in (
        ("left", metric_module, "left_vector"),
        ("parity", metric_module, "quasi_parity"),
        ("overlap", metric_module, "biorthogonal_overlap"),
        ("integral", wavefunctions_module, "sine_product_integral"),
    ):
        monkeypatch.setattr(module, attr, counted(name, getattr(module, attr)))
    states = doublet_family(UNIT, 12)
    biorthogonality_matrix(states)
    assert calls == {"left": 24, "parity": 24, "overlap": 24, "integral": 24}
    calls.update(left=0, parity=0, overlap=0, integral=0)
    inverse_theta_metric(states)
    assert calls == {"left": 0, "parity": 0, "overlap": 0, "integral": 24}
    calls.update(integral=0)
    theta = build_theta_metric(states)
    assert calls == {"left": 0, "parity": 0, "overlap": 0, "integral": 24}
    calls.update(integral=0)
    inverse_identity_defect(theta, states)
    assert calls == {"left": 0, "parity": 0, "overlap": 0, "integral": 24}


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
                        quadrature_overlap(l.upper, s.upper, 512)
                        + quadrature_overlap(l.lower, s.lower, 512)
                        for s in states
                    ]
                    for l in lefts
                ]
            )
            assert fast.dtype == reference.dtype
            scale = np.abs(np.diag(reference)).max()
            assert np.abs(fast - reference).max() <= 1e-14 * scale


def test_quadrature_pairing_samples_each_state_once():
    states = doublet_family(UNIT, 4)
    counter = [0]
    biorthogonality_matrix(
        [_Counted(s, counter) for s in states],
        [_Counted(left_vector(s), counter) for s in states],
        method="quadrature",
    )
    # upper and lower once for each of 8 states and 8 left partners
    assert counter[0] == 32


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
    assert np.array_equal(spin_operator(UNIT).matrix, np.array([[0.0, 1.0], [1.0, 0.0]]))
    omega = spin_operator(CouplingPair(1.0, 4.0)).matrix
    assert np.array_equal(omega, np.array([[0.0, 2.0], [0.5, 0.0]]))
    assert np.array_equal(omega @ omega, np.eye(2))
    with pytest.raises(ModelDomainError):
        spin_operator(CouplingPair(0.0, 1.0))


def test_spin_commutes_with_discrete_hamiltonian():
    for y, z in [(1.0, 1.0), (1.0, 4.0)]:
        pair = CouplingPair(y, z)
        grid = GridSpec(32)
        h = build_hamiltonian(pair, grid).matrix
        omega = np.kron(spin_operator(pair).matrix, np.eye(grid.n_interior))
        assert np.abs(omega @ h - h @ omega).max() == 0.0


def test_spin_conjugated_by_swap_reflect_gives_adjoint():
    pair = CouplingPair(1.0, 4.0)
    grid = GridSpec(16)
    omega = np.kron(spin_operator(pair).matrix, np.eye(grid.n_interior))
    s = discrete_theta(grid).matrix
    assert np.abs(s @ omega @ s - omega.conj().T).max() == 0.0


def test_channel_kernel_values():
    k = channel_kernel(UNIT, 1.0, 1.0)
    assert np.array_equal(k, np.array([[2.0, 0.0], [0.0, 2.0]]))
    k2 = channel_kernel(UNIT, 1.0, 2.0)
    assert np.array_equal(k2, np.array([[3.0, -1.0], [-1.0, 3.0]]))


def test_channel_kernel_offdiagonal_exact_zero_at_equal_weights():
    for w in (1.0, 0.7, 3.5):
        for y, z in [(1.0, 1.0), (1.5, 1.5), (2.0, 0.5)]:
            k = channel_kernel(CouplingPair(y, z), w, w)
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
    # sum_i w_i |v_i><v_i| h over the interior nodes, bit for bit: the
    # metric over the left partners with the weights (symmetrized), the
    # inverse over the states with 1 / (S d^2)
    grid = GridSpec(M)
    for ratio in (0.25, 1.0, 4.0):
        for n_levels in (1, 4, 8):
            states = doublet_family(CouplingPair(c * math.sqrt(ratio), c / math.sqrt(ratio)),
                                    n_levels)
            weights = MetricWeights(np.linspace(0.5, 2.0, n_levels), np.full(n_levels, 1.5))
            per_state = np.array([weights.select(s.level.n, s.sigma) for s in states])
            d = np.array([diagonal_overlap(s) for s in states])
            lefts = metric_module._sample([left_vector(s) for s in states], grid.interior_nodes)
            rights = metric_module._sample(states, grid.interior_nodes)
            form = (lefts * per_state) @ lefts.conj().T * grid.h
            theta = build_theta_metric(states, weights, grid=grid)
            assert np.array_equal(theta.matrix, (form + form.conj().T) / 2.0)
            assert np.array_equal(theta.meta["weights_by_state"], per_state)
            inverse = inverse_theta_metric(states, weights, grid=grid)
            coeff = 1.0 / (per_state * d * d)
            assert np.array_equal(inverse.matrix, (rights * coeff) @ rights.conj().T * grid.h)
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


def test_inverse_theta_identity_defect():
    states = doublet_family(UNIT, 4)
    theta = build_theta_metric(states)
    assert inverse_identity_defect(theta, states) <= 1e-8
    # the inverse map's Gram factor cancels against the metric form, so
    # scaling by the coefficients alone must reproduce the identity
    inv = inverse_theta_metric(states)
    coeff = inv.meta["coefficients"]
    assert np.abs(coeff[:, None] * theta.matrix - np.eye(8)).max() <= 1e-8


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


@pytest.mark.parametrize("M", [64, 512])
@pytest.mark.parametrize("c", [0.01, 1.0, 4.4])
def test_spectral_reconstruct_is_the_sum_over_left_partners(c, M):
    # the sum, written out with the states' own left partners: their
    # bras and their pairings d, bit for bit
    grid = GridSpec(M)
    nodes, w = metric_module._simpson_rule(M)
    w2 = np.concatenate([w, w])[:, None]
    for ratio in (0.25, 1.0, 4.0):
        for n_levels in (1, 4, 8):
            states = doublet_family(CouplingPair(c * math.sqrt(ratio), c / math.sqrt(ratio)),
                                    n_levels)
            lefts = [left_vector(s) for s in states]
            d = np.array([biorthogonal_overlap(l, s) for l, s in zip(lefts, states)])
            right, bras = metric_module._sample(states, nodes), metric_module._sample(lefts, nodes)
            for kind, values in (
                ("hamiltonian", np.array([s.level.E for s in states])),
                ("spin", np.array([float(s.sigma) for s in states])),
                ("identity", np.ones(len(states))),
            ):
                expected = (right * (values / d)) @ (bras.conj() * w2).T
                assert np.array_equal(spectral_reconstruct(states, kind, grid).matrix, expected)


def test_spectral_reconstruct_grid_accuracy():
    grid = GridSpec(512)
    states = doublet_family(UNIT, 4)
    nodes = grid.interior_nodes
    rec_h = spectral_reconstruct(states, "hamiltonian", grid)
    rec_i = spectral_reconstruct(states, "identity", grid)
    rec_o = spectral_reconstruct(states, "spin", grid)
    for st in states:
        v = np.concatenate([st.upper(nodes), st.lower(nodes)])
        scale = np.abs(v).max()
        assert np.abs(rec_h.matrix @ v - st.level.E * v).max() <= 1e-8 * scale * abs(st.level.E)
        assert np.abs(rec_i.matrix @ v - v).max() <= 1e-8 * scale
        assert np.abs(rec_o.matrix @ v - st.sigma * v).max() <= 1e-8 * scale


def test_spectral_reconstruct_validation():
    states = doublet_family(UNIT, 2)
    with pytest.raises(ModelDomainError):
        spectral_reconstruct(states, "resolvent", GridSpec(128))
    with pytest.raises(ModelDomainError):
        spectral_reconstruct(states, "hamiltonian", GridSpec(126))


def test_singular_parity_overlap_is_refused():
    st = _singular_state()
    assert parity_overlap(st) == 0.0
    with pytest.raises(NormalizationSingularError):
        quasi_parity(st)
    with pytest.raises(NormalizationSingularError):
        left_vector(st)
    with pytest.raises(NormalizationSingularError):
        diagonal_overlap(st)
    with pytest.raises(NormalizationSingularError):
        spectral_reconstruct([st], "identity", GridSpec(64))


def test_diagonal_overlap_has_no_relative_floor():
    # d ~ 2 sqrt(YZ): tiny but nonzero, so it is returned, not refused
    pair = CouplingPair(1e-13, 1e-13)
    state = solve_coefficients(solve_level(1, pair), pair, -1)
    assert diagonal_overlap(state) == pytest.approx(2.0e-13, rel=1e-12)


def test_biorthogonal_overlap_requires_matching_coupling():
    a = doublet_family(UNIT, 1)[0]
    b = doublet_family(CouplingPair(2.0, 2.0), 1)[0]
    lv = left_vector(a)
    with pytest.raises(ModelDomainError):
        biorthogonal_overlap(lv, b)
