"""Domain types: coupling branches, the off-diagonal potential, operator wrappers."""

import math
import numbers
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from coupledwell import (
    BranchClass,
    CouplingPair,
    GridSpec,
    InvalidToleranceError,
    ModelDomainError,
    OperatorRep,
    RepBasis,
    build_hamiltonian,
    doublet_family,
    evaluate,
)
from coupledwell.model import as_index, validate_tol
from coupledwell.oracle import _swap_reflect_defect


def test_branch_classification():
    assert CouplingPair(1.0, 4.0).branch is BranchClass.POSITIVE_PRODUCT
    assert CouplingPair(1.0, -1.0).branch is BranchClass.NEGATIVE_PRODUCT
    assert CouplingPair(0.0, 3.0).branch is BranchClass.DECOUPLED
    assert CouplingPair(0.0, 0.0).branch is BranchClass.DECOUPLED
    assert CouplingPair(2.0, 0.5).branch is BranchClass.POSITIVE_PRODUCT
    assert CouplingPair(3.0, 0.0).branch is BranchClass.DECOUPLED
    # from the signs, where the float product YZ under- or overflows
    assert CouplingPair(1e-200, 1e-200).branch is BranchClass.POSITIVE_PRODUCT
    assert CouplingPair(-1e-200, -1e-200).branch is BranchClass.POSITIVE_PRODUCT
    assert CouplingPair(1e200, -1e200).branch is BranchClass.NEGATIVE_PRODUCT
    assert CouplingPair(-1e-200, 1e-200).branch is BranchClass.NEGATIVE_PRODUCT
    assert CouplingPair(-0.0, 1e200).branch is BranchClass.DECOUPLED


@pytest.mark.parametrize("Y, Z, root", [
    (1e200, 1e200, 1e200),
    (1e200, -1e200, 1e200),
    (1e-200, 1e-200, 1e-200),
    (2.0**-1060, 2.0**-40, 2.0**-550),  # a subnormal amplitude
    (0.0, 1e300, 0.0),
])
def test_root_product_where_the_product_under_or_overflows(Y, Z, root):
    assert CouplingPair(Y, Z).root_product == pytest.approx(root, rel=1e-15, abs=0.0)


def test_root_product_moves_no_bit_where_the_product_is_normal():
    for Y, Z in [(1.0, 4.0), (2.3, -0.7), (1e-150, 1e-150), (3e153, 5e153), (1e-10, 0.0)]:
        assert CouplingPair(Y, Z).root_product == math.sqrt(abs(Y * Z))


def test_non_diagonalizable_is_exactly_one_nonzero_amplitude():
    assert CouplingPair(0.0, 3.0).non_diagonalizable
    assert CouplingPair(1e-300, -0.0).non_diagonalizable
    assert not CouplingPair(0.0, -0.0).non_diagonalizable
    assert not CouplingPair(1e-200, 1e-200).non_diagonalizable
    assert not CouplingPair(1.0, -1.0).non_diagonalizable


def test_coupling_rejects_non_finite():
    with pytest.raises(ModelDomainError):
        CouplingPair(float("nan"), 1.0)
    with pytest.raises(ModelDomainError):
        CouplingPair(1.0, float("inf"))


def _potential(pair, grid):
    # the off-diagonal entries (upper right, lower left) at the interior nodes,
    # iZ sgn(-x) and iY sgn(-x): the diagonals of the operator's cross-channel blocks
    h, m = build_hamiltonian(pair, grid).matrix, grid.n_interior
    return np.array([np.diag(h[:m, m:]), np.diag(h[m:, :m])])


def test_potential_matrix_shape_and_zero_diagonal():
    # the operator carries the potential: its channel-diagonal blocks are the
    # Laplacian alone, its cross-channel blocks diagonal and purely imaginary
    rep = build_hamiltonian(CouplingPair(1.0, 2.0), GridSpec(16))
    m, h = rep.grid.n_interior, rep.matrix
    laplacian = np.diag(rep.diagonal) + np.diag(rep.sub, 1) + np.diag(rep.sub, -1)
    assert np.array_equal(h[:m, :m], laplacian) and np.array_equal(h[m:, m:], laplacian)
    for block in (h[:m, m:], h[m:, :m]):
        assert np.array_equal(block, np.diag(np.diag(block)))
        assert np.all(block.real == 0.0)


def test_potential_step_values():
    # at x = -0.5, 0.5 and 0, nodes 1, 5 and 3 of GridSpec(8)
    pair = CouplingPair(1.0, 2.0)
    assert np.array_equal(_potential(pair, GridSpec(8))[:, [1, 5, 3]], [[2j, -2j, 0], [1j, -1j, 0]])


def test_potential_domain_guard():
    # the box is |x| <= 1 (wavefunctions.check_points), for the states' samples
    state = doublet_family(CouplingPair(1.0, 2.0), 1)[0]
    with pytest.raises(ModelDomainError):
        evaluate(state, 1.5)
    with pytest.raises(ModelDomainError):
        evaluate(state, -1.0001)


@pytest.mark.parametrize("pair", [(1.0, 2.0), (0.0, 0.0), (5.0, 0.1)])
def test_conjugation_defect_is_exactly_zero(pair):
    # conj(W(x)) = W(-x) where it matters, on the operator's bands: S H S =
    # H^dagger exactly, also at M = 98, where -1 + h j misses x = 0 by an ulp
    for M in (8, 64, 98):
        assert _swap_reflect_defect(CouplingPair(*pair), GridSpec(M)) == 0.0


def test_conjugation_symmetry_at_random_points():
    # conj(W(x)) == W(-x) entrywise at the nodes of random grids, whose
    # reversal is x -> -x; exact in floats since entries are +-iY, +-iZ, 0
    pair = CouplingPair(5.0, 0.1)
    for M in np.random.default_rng(7).integers(4, 200, size=10):
        w = _potential(pair, GridSpec(2 * int(M)))
        assert np.array_equal(np.conj(w), w[:, ::-1])


def test_parity_oddness_pointwise():
    w = _potential(CouplingPair(2.0, 3.0), GridSpec(46))
    assert np.array_equal(w[:, ::-1], -w)


def test_operator_rep_requires_square_matrix():
    with pytest.raises(ModelDomainError):
        OperatorRep(np.zeros((2, 3)), RepBasis.GRID)


def test_operator_rep_dim_and_flags():
    rep = OperatorRep(np.eye(4), RepBasis.MODE, is_form=True)
    assert rep.dim == 4
    assert rep.is_form
    assert rep.basis is RepBasis.MODE


def test_index_validator_returns_a_builtin_int():
    for value in (3, True, np.int64(3), np.uint8(3), np.int8(3)):
        n = as_index(value, "n must be an index")
        assert type(n) is int and n == int(value)
    for bad in (3.0, np.float64(3), np.bool_(True), "3", None, -1, np.int64(-1)):
        with pytest.raises(ModelDomainError, match=r"^n must be an index, got "):
            as_index(bad, "n must be an index")
    assert as_index(np.uint8(200), "M", 8, 254, even=True) == 200
    for bad in (6, 7, 201, 256):
        with pytest.raises(ModelDomainError):
            as_index(bad, "M", 8, 254, even=True)


@pytest.mark.parametrize("tol", [np.float32(1e-3), np.float64(0.5), Fraction(1, 1000), 1e-12])
def test_validate_tol_accepts_any_real_in_the_open_unit_interval(tol):
    validate_tol(tol)


@pytest.mark.parametrize("tol, message", [
    ("1e-3", "tolerance must be a real number, got '1e-3'"),
    (None, "tolerance must be a real number, got None"),
    (1j, "tolerance must be a real number, got 1j"),
    (float("nan"), "tolerance must be finite, got nan"),
    (np.float32("inf"), "tolerance must be finite, got np.float32(inf)"),
    (np.int64(0), "tolerance must lie in (0, 1), got np.int64(0)"),
    (1.0, "tolerance must lie in (0, 1), got 1.0"),
])
def test_validate_tol_messages(tol, message):
    with pytest.raises(InvalidToleranceError) as info:
        validate_tol(tol)
    assert str(info.value) == message


def _outcome(check, *args):
    try:
        return "returns", check(*args)
    except (ModelDomainError, InvalidToleranceError) as exc:
        return type(exc), str(exc)


def _reference_as_index(value, message, minimum):
    # as_index's verdict as the numbers.Integral test alone gives it
    if isinstance(value, numbers.Integral) and int(value) >= minimum:
        return int(value)
    raise ModelDomainError(f"{message}, got {value!r}")


def _reference_validate_tol(tol):
    # validate_tol's verdict as the numbers.Real test alone gives it
    if not isinstance(tol, numbers.Real):
        raise InvalidToleranceError(f"tolerance must be a real number, got {tol!r}")
    if not math.isfinite(tol):
        raise InvalidToleranceError(f"tolerance must be finite, got {tol!r}")
    if tol <= 0.0 or tol >= 1.0:
        raise InvalidToleranceError(f"tolerance must lie in (0, 1), got {tol!r}")


@pytest.mark.parametrize("value", [
    3, 0, -2, True, False, np.int64(3), np.int64(-1), np.uint8(3), np.float32(0.5),
    np.float32(3), np.float64(0.5), np.float64(3), 0.5, 3.0, Fraction(1, 2), Fraction(3),
    Decimal("0.5"), Decimal(3), np.bool_(True), "3", "0.5", complex(0.5, 0), 1j, None,
])
def test_lazy_numbers_test_gives_the_abc_verdicts(value):
    # numbers is imported only for a value that is not a built-in int or
    # float: the verdicts and messages stay those of the Integral and Real tests
    assert _outcome(as_index, value, "n must be an index", 0) == _outcome(
        _reference_as_index, value, "n must be an index", 0)
    assert _outcome(validate_tol, value) == _outcome(_reference_validate_tol, value)
