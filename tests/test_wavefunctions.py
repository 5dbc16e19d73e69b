"""Channel eigenstates: piecewise construction, matching, parity structure."""

import dataclasses
import math

import numpy as np
import pytest

from coupledwell import (
    CouplingPair,
    ModelDomainError,
    doublet_family,
    evaluate,
    matching_residual,
    parity_overlap,
    phi_bilinear_product,
    quadrature_overlap,
    quasi_parity,
    solve_coefficients,
    solve_level,
    spin_operator,
)

UNIT = CouplingPair(1.0, 1.0)
DECOUPLED = CouplingPair(0.0, 0.0)


def _state(n, pair, sigma=+1):
    return solve_coefficients(solve_level(n, pair), pair, sigma)


def test_decoupled_ground_state_is_cosine():
    state = _state(0, DECOUPLED)
    xs = np.linspace(-1.0, 1.0, 201)
    assert np.abs(state.phi(xs) - np.cos(math.pi * xs / 2)).max() < 1e-12
    assert abs(state.A - 1.0) < 1e-15
    assert state.A.imag == 0.0


def test_decoupled_first_excited_phase():
    # odd level: amplitude purely imaginary, slope at the origin on the
    # positive imaginary axis
    state = _state(1, DECOUPLED)
    assert state.A.real == 0.0
    assert state.phi_derivative(0.0).imag > 0.0
    xs = np.linspace(-0.9, 0.9, 77)
    assert np.abs(state.phi(xs) + state.phi(-xs)).max() < 1e-12


def test_dirichlet_walls_exact():
    for n in range(4):
        for sigma in (+1, -1):
            state = _state(n, UNIT, sigma)
            assert np.all(evaluate(state, 1.0) == 0.0)
            assert np.all(evaluate(state, -1.0) == 0.0)


def test_evaluate_shape_and_domain():
    state = _state(0, UNIT)
    out = evaluate(state, np.linspace(-1, 1, 11))
    assert out.shape == (2, 11)
    assert evaluate(state, 0.25).shape == (2,)
    with pytest.raises(ModelDomainError):
        evaluate(state, 1.0001)


def test_value_at_origin_real_and_consistent():
    for sigma in (+1, -1):
        state = _state(0, UNIT, sigma)
        v = state.phi(0.0)
        assert abs(v.imag) < 1e-12
        assert v.real > 0.0
        # both segment formulas give the same number at the junction
        left = state.phi_coeff * np.sin(state.kappa)
        right = np.conj(state.phi_coeff * np.sin(state.kappa))
        assert abs(left - right) < 1e-12


def test_conjugation_symmetry_on_grid():
    xs = np.linspace(-1.0, 1.0, 101)
    for n in range(3):
        for sigma in (+1, -1):
            state = _state(n, CouplingPair(1.0, 4.0), sigma)
            vals = evaluate(state, xs)
            refl = evaluate(state, -xs)
            assert np.abs(np.conj(vals) - refl).max() < 1e-12


def test_channel_ratio_matches_coupling_asymmetry():
    state = _state(0, CouplingPair(1.0, 4.0), +1)
    assert abs(state.A / state.B - 2.0) < 1e-10
    for y, z in [(1.0, 1.0), (0.5, 2.0), (3.0, 0.3)]:
        pair = CouplingPair(y, z)
        for n in range(4):
            lvl = solve_level(n, pair)
            for sigma in (+1, -1):
                st = solve_coefficients(lvl, pair, sigma)
                assert abs(st.A / st.B - sigma * math.sqrt(z / y)) <= 1e-10


def test_doublet_shares_level_solution():
    family = doublet_family(UNIT, 3)
    assert [(s.level.n, s.sigma) for s in family] == [
        (0, 1), (0, -1), (1, 1), (1, -1), (2, 1), (2, -1)]
    for plus, minus in zip(family[0::2], family[1::2]):
        assert plus.level is minus.level
        assert plus.level.E == minus.level.E


def test_matching_residual_small_on_true_roots():
    for n in range(4):
        for sigma in (+1, -1):
            assert matching_residual(_state(n, UNIT, sigma)) <= 1e-12
    assert matching_residual(_state(0, DECOUPLED)) <= 1e-15


@pytest.mark.parametrize("c", [1e-8, 1e-5, 0.1, 1.0, 4.4])
def test_matching_residual_at_rounding_level_over_28_levels(c):
    # sin kappa and cos kappa from eps; from the rounded s the defect is ~3e-13
    states = doublet_family(CouplingPair(c, c), 28)
    assert max(matching_residual(s) for s in states) <= 1e-15


@pytest.mark.parametrize("c", [1e-10, 1e-11, 1e-12, 1e-15, 1e-18])
def test_tiny_coupling_keeps_the_phase_convention(c):
    # sin kappa is exactly 0 only when decoupled, so every coupled state
    # takes the phi(0) >= 0 branch, down to t = c/2s far below 1e-12
    for state in doublet_family(CouplingPair(c, c), 40):
        assert state.phi(0.0).real >= 0.0
        assert matching_residual(state) <= 1e-12


def test_matching_residual_detects_wrong_wavenumber():
    lvl = solve_level(0, UNIT)
    s_bad = lvl.s + 1e-3
    fake = dataclasses.replace(lvl, s=s_bad, t=1.0 / (2 * s_bad), E=s_bad**2)
    state = solve_coefficients(fake, UNIT, +1)
    assert matching_residual(state) > 1e-4


def test_spin_action_is_pointwise_eigenvalue():
    pair = CouplingPair(1.0, 4.0)
    omega = spin_operator(pair).matrix
    xs = np.linspace(-0.99, 0.99, 41)
    for sigma in (+1, -1):
        state = _state(0, pair, sigma)
        vals = evaluate(state, xs)
        assert np.abs(omega @ vals - sigma * vals).max() < 1e-12


def test_parity_overlap_decoupled_limits():
    assert abs(parity_overlap(_state(0, DECOUPLED)) - 1.0) < 1e-15
    assert abs(parity_overlap(_state(1, DECOUPLED)) + 1.0) < 1e-15


def test_parity_overlap_alternates_in_sign():
    for c in (0.1, 1.0):
        pair = CouplingPair(c, c)
        for n in range(6):
            p = parity_overlap(_state(n, pair))
            assert math.copysign(1.0, p) == (-1.0) ** n
    # same value for both spin members
    a = parity_overlap(_state(2, UNIT, +1))
    b = parity_overlap(_state(2, UNIT, -1))
    assert a == b


def test_parity_overlap_matches_quadrature():
    state = _state(2, UNIT)
    direct = quadrature_overlap(
        lambda x: state.phi(x), lambda x: state.phi(-x), panels=512)
    assert abs(parity_overlap(state) - direct.real) < 1e-9
    assert abs(direct.imag) < 1e-12


def test_quasi_parity_sign_convention():
    # q = sigma * sign(parity overlap)
    assert quasi_parity(_state(0, UNIT, +1)) == +1
    assert quasi_parity(_state(0, UNIT, -1)) == -1
    assert quasi_parity(_state(1, UNIT, +1)) == -1
    assert quasi_parity(_state(1, UNIT, -1)) == +1


def test_bilinear_orthogonality_between_levels():
    # same spin, different levels: the two-sided secular structure makes the
    # unconjugated overlap vanish analytically
    states = [_state(n, UNIT, +1) for n in range(4)]
    for i, a in enumerate(states):
        for b in states[i + 1:]:
            assert abs(phi_bilinear_product(a, b)) < 1e-12


def test_bilinear_closed_form_matches_quadrature():
    a = _state(0, CouplingPair(2.0, 0.5), +1)
    b = _state(2, CouplingPair(2.0, 0.5), +1)
    for u, v in [(a, a), (a, b), (b, b)]:
        direct = quadrature_overlap(
            lambda x: np.conj(u.phi(x)), lambda x: v.phi(x), panels=512)
        assert abs(phi_bilinear_product(u, v) - direct.real) < 1e-9


def test_quadrature_overlap_basics():
    norm = quadrature_overlap(
        lambda x: np.cos(math.pi * x / 2) + 0j,
        lambda x: np.cos(math.pi * x / 2) + 0j,
        panels=512)
    assert abs(norm - 1.0) < 1e-9
    cross = quadrature_overlap(
        lambda x: np.cos(math.pi * x / 2) + 0j,
        lambda x: np.sin(math.pi * x) + 0j,
        panels=512)
    assert abs(cross) < 1e-12


def test_quadrature_overlap_panel_validation():
    f = lambda x: np.asarray(x, dtype=complex)
    with pytest.raises(ModelDomainError):
        quadrature_overlap(f, f, panels=3)
    with pytest.raises(ModelDomainError):
        quadrature_overlap(f, f, panels=0)


def test_solve_coefficients_validation():
    lvl = solve_level(0, UNIT)
    with pytest.raises(ModelDomainError):
        solve_coefficients(lvl, UNIT, 2)
    with pytest.raises(ModelDomainError):
        # level and coupling must agree
        solve_coefficients(lvl, CouplingPair(2.0, 2.0), +1)
    neg = CouplingPair(1.0, -1.0)
    with pytest.raises(ModelDomainError):
        solve_coefficients(solve_level(0, neg), neg, +1)
    semi = CouplingPair(0.0, 3.0)
    with pytest.raises(ModelDomainError):
        solve_coefficients(solve_level(0, semi), semi, +1)


def test_doublet_family_validation():
    for bad in (0, -1, 2.0, np.float64(2.0), np.bool_(True), "2"):
        with pytest.raises(ModelDomainError, match="n_levels must be an integer >= 1"):
            doublet_family(UNIT, bad)
    # numpy integers pass as the level count they hold
    for count in (np.int64(2), np.uint8(2)):
        family = doublet_family(UNIT, count)
        assert [(s.level.n, s.sigma) for s in family] == [(0, 1), (0, -1), (1, 1), (1, -1)]
