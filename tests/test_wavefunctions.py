"""Channel eigenstates: piecewise construction, matching, parity structure."""

import dataclasses
import math
import pickle

import numpy as np
import pytest

from coupledwell import (
    BranchClass,
    ChannelState,
    CouplingPair,
    LevelSolution,
    ModelDomainError,
    doublet_family,
    evaluate,
    matching_residual,
    parity_overlap,
    phi_bilinear_product,
    quasi_parity,
    solve_coefficients,
    solve_level,
)
from test_doublet_reference import phi_derivative, quadrature_overlap, spin_block

UNIT = CouplingPair(1.0, 1.0)
DECOUPLED = CouplingPair(0.0, 0.0)


@dataclasses.dataclass(frozen=True)
class _ReferenceLevel:
    n: int
    s: float
    t: float
    eps: float
    E: float
    residual: float
    branch: BranchClass
    sublabel: int | None = None


@dataclasses.dataclass(frozen=True)
class _ReferenceState:
    level: LevelSolution
    sigma: int
    Y: float
    Z: float
    phi_coeff: complex
    kappa: complex
    A: complex
    B: complex


def _records():
    # (record class, its reference, field values of one record, a changed field)
    level = solve_level(3, UNIT)
    state = doublet_family(UNIT, 4)[7]
    return [
        (LevelSolution, _ReferenceLevel, dataclasses.astuple(level), ("eps", 0.5)),
        (LevelSolution, _ReferenceLevel, (2, 4.5, 0.0, 0.0, 20.25, 0.0,
                                          BranchClass.NEGATIVE_PRODUCT, -1), ("sublabel", 1)),
        (ChannelState, _ReferenceState,
         tuple(getattr(state, f.name) for f in dataclasses.fields(state)), ("sigma", 1)),
    ]


@pytest.mark.parametrize("case", range(3))
def test_hand_written_records_keep_the_frozen_dataclass_contract(case):
    # LevelSolution and ChannelState write their fields into __dict__ by hand;
    # all else must be what @dataclass(frozen=True) gives the same fields
    cls, reference, values, (name, value) = _records()[case]
    assert [(f.name, f.default) for f in dataclasses.fields(cls)] == [
        (f.name, f.default) for f in dataclasses.fields(reference)]
    assert cls.__match_args__ == reference.__match_args__
    names = [f.name for f in dataclasses.fields(cls)]
    record, expected = cls(*values), reference(*values)
    assert cls(**dict(zip(names, values))) == record
    if values[-1] is None:  # sublabel, left to its default
        assert cls(*values[:-1]) == cls(**dict(zip(names[:-1], values))) == record
    assert dataclasses.asdict(record) == dataclasses.asdict(expected)
    assert dataclasses.astuple(record) == dataclasses.astuple(expected)
    changed = dataclasses.replace(record, **{name: value})
    assert type(changed) is cls
    assert dataclasses.asdict(changed) == dataclasses.asdict(dataclasses.replace(expected, **{name: value}))
    assert changed != record and record == cls(*values) and record != expected
    assert hash(record) == hash(expected) == hash(cls(*values))
    assert repr(record) == repr(expected).replace(reference.__qualname__, cls.__qualname__, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, name, value)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(record, name)
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and repr(copy) == repr(record) and hash(copy) == hash(record)


def test_channel_state_caches_q_and_d_on_the_hand_written_record():
    state = doublet_family(UNIT, 2)[3]
    copy = ChannelState(*(getattr(state, f.name) for f in dataclasses.fields(state)))
    assert copy.q == quasi_parity(copy) == state.q
    assert copy.d == state.d and {"q", "d"} <= copy.__dict__.keys()
    assert copy == state and hash(copy) == hash(state)
    assert pickle.loads(pickle.dumps(copy)).q == state.q


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
    assert phi_derivative(state, 0.0).imag > 0.0
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


def test_level_with_a_nan_coordinate_is_refused():
    # 2 s t - sqrt(YZ) reads NaN, which no tolerance passes
    fake = dataclasses.replace(solve_level(0, UNIT), eps=math.nan, s=math.nan)
    with pytest.raises(ModelDomainError, match="2 s t"):
        solve_coefficients(fake, UNIT, +1)


def test_spin_action_is_pointwise_eigenvalue():
    pair = CouplingPair(1.0, 4.0)
    omega = spin_block(pair)
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
