"""Domain types: coupling branches, the off-diagonal potential, operator wrappers."""

import math
from fractions import Fraction

import numpy as np
import pytest

from coupledwell import (
    BranchClass,
    CouplingPair,
    InvalidToleranceError,
    ModelDomainError,
    OperatorRep,
    PotentialSpec,
    RepBasis,
    check_potential_symmetry,
    classify_branch,
)
from coupledwell.model import as_index, validate_tol


def test_branch_classification():
    assert classify_branch(1.0, 4.0) is BranchClass.POSITIVE_PRODUCT
    assert classify_branch(1.0, -1.0) is BranchClass.NEGATIVE_PRODUCT
    assert classify_branch(0.0, 3.0) is BranchClass.DECOUPLED
    assert classify_branch(0.0, 0.0) is BranchClass.DECOUPLED
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


def test_potential_matrix_shape_and_zero_diagonal():
    spec = PotentialSpec(CouplingPair(1.0, 2.0))
    m = spec.matrix(0.5)
    assert m.shape == (2, 2)
    assert m[0, 0] == 0.0 and m[1, 1] == 0.0
    # purely imaginary off-diagonal entries
    assert m[0, 1].real == 0.0 and m[1, 0].real == 0.0


def test_potential_step_values():
    spec = PotentialSpec(CouplingPair(1.0, 2.0))
    left = spec.matrix(-0.5)
    right = spec.matrix(0.5)
    assert left[0, 1] == 2.0j and left[1, 0] == 1.0j
    assert right[0, 1] == -2.0j and right[1, 0] == -1.0j
    assert np.all(spec.matrix(0.0) == 0.0)


def test_potential_domain_guard():
    spec = PotentialSpec(CouplingPair(1.0, 1.0))
    with pytest.raises(ModelDomainError):
        spec.matrix(1.5)
    with pytest.raises(ModelDomainError):
        spec.matrix(-1.0001)


@pytest.mark.parametrize("pair", [(1.0, 2.0), (0.0, 0.0), (5.0, 0.1)])
def test_conjugation_defect_is_exactly_zero(pair):
    report = check_potential_symmetry(PotentialSpec(CouplingPair(*pair)))
    assert report["max_defect"] == 0.0


def test_conjugation_symmetry_at_random_points():
    # conj(V(x)) == V(-x) entrywise; exact in floats since entries are +-iY, +-iZ, 0
    spec = PotentialSpec(CouplingPair(5.0, 0.1))
    rng = np.random.default_rng(7)
    for x in rng.uniform(-1.0, 1.0, size=100):
        assert np.array_equal(np.conj(spec.matrix(x)), spec.matrix(-x))


def test_parity_oddness_pointwise():
    spec = PotentialSpec(CouplingPair(2.0, 3.0))
    for x in np.linspace(-0.99, 0.99, 23):
        assert np.array_equal(spec.matrix(-x), -spec.matrix(x))


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
