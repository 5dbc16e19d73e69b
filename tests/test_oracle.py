"""Finite-difference oracle: structure checks, convergence, criticality scan.

Everything here is second-order central differences, kept deliberately
independent of the closed-form machinery it cross-checks.  For YZ > 0
the eigensolver works on the channel-diagonal tridiagonal block alone,
taken from the bands `build_hamiltonian` stores, as the roots of its
discrete secular polynomial; the dense eigensolve of the assembled
matrix, reached through a plain `OperatorRep` copy, is the reference it
is checked against here.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import coupledwell.model
import coupledwell.oracle
from coupledwell import (
    CouplingPair,
    GridSpec,
    ModelDomainError,
    NumericalFailureError,
    OperatorRep,
    RepBasis,
    build_hamiltonian,
    compare_spectrum,
    criticality_scan,
    discrete_theta,
    doublet_family,
    eigenpairs,
    first_complex_bracket,
    group_degenerate,
    inverse_theta_metric,
    spectrum,
    subspace_alignment,
)

UNIT = CouplingPair(1.0, 1.0)


def test_grid_spec_validation():
    # one class, defined with the model and re-exported by the oracle
    assert GridSpec is coupledwell.oracle.GridSpec is coupledwell.model.GridSpec
    grid = GridSpec(64)
    assert grid.h == 2.0 / 64
    assert grid.n_interior == 63
    assert grid.interior_nodes[0] == -1.0 + grid.h
    with pytest.raises(ModelDomainError):
        GridSpec(7)
    with pytest.raises(ModelDomainError):
        GridSpec(6)
    with pytest.raises(ModelDomainError):
        GridSpec(64.0)


def test_grid_spec_takes_numpy_integers():
    for value in (np.int64(64), np.uint8(64), np.int32(64)):
        grid = GridSpec(value)
        assert type(grid.M) is int and grid == GridSpec(64)
        assert np.array_equal(grid.interior_nodes, GridSpec(64).interior_nodes)
    for bad in (np.float64(64.0), np.bool_(True), "64", np.int64(6), np.int64(66) - 1):
        with pytest.raises(ModelDomainError):
            GridSpec(bad)


def test_hamiltonian_dimensions_and_layout():
    grid = GridSpec(16)
    rep = build_hamiltonian(CouplingPair(1.0, 2.0), grid)
    assert rep.basis is RepBasis.GRID and not rep.is_form
    m = grid.n_interior
    assert rep.dim == 2 * m
    h2 = grid.h * grid.h
    assert rep.matrix[0, 0] == 2.0 / h2
    assert rep.matrix[0, 1] == -1.0 / h2
    # coupling block: +iZ on the left half, -iZ on the right, 0 at x = 0
    assert rep.matrix[0, m] == 2.0j
    assert rep.matrix[m - 1, 2 * m - 1] == -2.0j
    mid = m // 2
    assert grid.interior_nodes[mid] == 0.0
    assert rep.matrix[mid, m + mid] == 0.0
    assert rep.matrix[m + 2, 2] == 1.0j


@pytest.mark.parametrize("M", [8, 98, 256])
@pytest.mark.parametrize("y, z", [(0.0, 0.0), (1.0, 4.0), (-2.5, 0.3)])
def test_hamiltonian_is_the_kronecker_form(M, y, z):
    # I (x) K + C (x) diag(sgn(-x)), written out with dense Kronecker products
    grid = GridSpec(M)
    m = grid.n_interior
    kinetic = (2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)) / grid.h**2
    channel = np.array([[0.0, 1j * z], [1j * y, 0.0]])
    expected = np.kron(np.eye(2), kinetic) + np.kron(
        channel, np.diag(np.sign(-grid.interior_nodes))
    )
    assert np.array_equal(build_hamiltonian(CouplingPair(y, z), grid).matrix, expected)


def test_decoupled_hamiltonian_is_real_symmetric():
    rep = build_hamiltonian(CouplingPair(0.0, 0.0), GridSpec(32))
    assert np.all(rep.matrix.imag == 0.0)
    assert np.array_equal(rep.matrix, rep.matrix.T)


def test_coupled_hamiltonian_is_not_hermitian():
    rep = build_hamiltonian(UNIT, GridSpec(32))
    assert np.abs(rep.matrix - rep.matrix.conj().T).max() > 0.1


def test_swap_reflect_conjugation_is_exact():
    for m in (16, 64, 98):  # 98: -1 + h*j misses x = 0 by an ulp
        grid = GridSpec(m)
        s = discrete_theta(grid).matrix
        assert np.array_equal(s @ s, np.eye(2 * grid.n_interior))
        for y, z in [(1.0, 1.0), (1.0, 4.0), (2.3, 0.7)]:
            rep = build_hamiltonian(CouplingPair(y, z), grid)
            h = rep.matrix
            assert np.abs(s @ h @ s - h.conj().T).max() == 0.0
            eigenpairs(rep, 2)  # eigenpairs asserts S H S = H^dagger on the bands


def test_box_spectrum_convergence():
    rep = build_hamiltonian(CouplingPair(0.0, 0.0), GridSpec(512))
    values, vectors = eigenpairs(rep, 6)
    assert np.all(values.imag == 0.0)
    assert np.abs(np.linalg.norm(vectors, axis=0) - 1.0).max() < 1e-12
    for j, v in enumerate(values):
        box = (j // 2 + 1) ** 2 * math.pi**2 / 4
        assert abs(v.real - box) / box < 1e-3


def test_eigenpairs_validation():
    rep = build_hamiltonian(UNIT, GridSpec(16))
    with pytest.raises(ModelDomainError):
        eigenpairs(rep, 0)
    with pytest.raises(ModelDomainError):
        eigenpairs(rep, rep.dim + 1)
    for bad in (2.0, np.float64(2.0), np.bool_(True), "2"):
        with pytest.raises(ModelDomainError):
            eigenpairs(rep, bad)
    values, _ = eigenpairs(rep, np.uint8(4))
    assert np.array_equal(values, eigenpairs(rep, 4)[0])


@pytest.mark.parametrize("y, z", [(1.0, 4.0), (-1.0, -4.0), (0.0, 0.0), (25.0, 25.0)])
def test_reducible_hamiltonian_never_builds_its_matrix(y, z):
    rep = build_hamiltonian(CouplingPair(y, z), GridSpec(256))
    for k in (1, 4, 12):
        eigenpairs(rep, k)
    assert "matrix" not in vars(rep)
    small = build_hamiltonian(CouplingPair(y, z), GridSpec(8))
    eigenpairs(small, small.dim)  # the whole spectrum is a root set too
    assert "matrix" not in vars(small)


def test_stored_operator_is_read_only():
    rep = build_hamiltonian(CouplingPair(1.0, 4.0), GridSpec(16))
    with pytest.raises(ValueError):
        rep.matrix[0, 0] = 0.0
    for band in (rep.sub, rep.diagonal, rep.step):
        with pytest.raises(ValueError):
            band[0] = 0.0
    assert rep.matrix is rep.matrix
    with pytest.raises(ModelDomainError):
        dataclasses.replace(rep, step=rep.step[1:])


def test_reduced_solve_at_large_grid():
    # the dense matrix would need ~17 GB here
    pair, M = CouplingPair(1.0, 4.0), 16384
    rep = build_hamiltonian(pair, GridSpec(M))
    values, _ = eigenpairs(rep, 4)
    assert "matrix" not in vars(rep)
    assert np.abs(values.imag).max() <= 1e-6
    report = compare_spectrum(spectrum(pair, 1).levels, values, 2)
    assert report["degeneracy_ok"]
    for row in report["levels"]:
        assert row["rel_err"] <= 5e-3 * (512 / M) ** 2


def test_pairing_assertion_rejects_unpaired_complex_values():
    bad = OperatorRep(np.diag([1.0 + 1.0j, 0.5, 2.0]), RepBasis.GRID)
    with pytest.raises(NumericalFailureError):
        eigenpairs(bad, 1)


def test_above_critical_spectrum_is_complex_but_paired():
    rep = build_hamiltonian(CouplingPair(25.0, 25.0), GridSpec(128))
    values, _ = eigenpairs(rep, 4)
    assert np.abs(values.imag).min() > 1e-3
    assert abs(values[0] - np.conj(values[1])) < 1e-9 * abs(values[0])


def test_group_degenerate_clusters():
    vals = np.array([1.0, 1.0 + 1e-9, 4.0, 9.0, 9.0 + 2e-8])
    clusters = group_degenerate(vals)
    assert [mult for _, mult in clusters] == [2, 1, 2]
    assert group_degenerate(np.array([])) == []


def test_compare_spectrum_matches_analytic_levels():
    levels = spectrum(UNIT, 3).levels
    fine, _ = eigenpairs(build_hamiltonian(UNIT, GridSpec(256)), 8)
    report = compare_spectrum(levels, fine, 4)
    assert report["degeneracy_ok"]
    assert [row["multiplicity"] for row in report["levels"]] == [2, 2, 2, 2]
    for row in report["levels"]:
        assert abs(row["im_numeric"]) < 1e-6
        assert row["abs_err"] / row["E_analytic"] < 5e-3 * (512 / 256) ** 2


def test_compare_spectrum_richardson_orders():
    levels = spectrum(UNIT, 2).levels
    coarse, _ = eigenpairs(build_hamiltonian(UNIT, GridSpec(128)), 6)
    fine, _ = eigenpairs(build_hamiltonian(UNIT, GridSpec(256)), 6)
    report = compare_spectrum(levels, fine, 3, coarse_eigenvalues=coarse)
    for order in report["richardson_orders"]:
        assert abs(order - 2.0) < 0.2


def test_compare_spectrum_flags_broken_degeneracy():
    levels = spectrum(UNIT, 2).levels
    fake = np.array([levels[0].E, levels[0].E + 1e-3, levels[1].E, levels[1].E + 2e-9])
    report = compare_spectrum(levels, fake, 2)
    assert not report["degeneracy_ok"]
    with pytest.raises(ModelDomainError):
        compare_spectrum(levels, fake[:1], 2)


def test_criticality_scan_and_bracket():
    grid = GridSpec(128)
    scan = criticality_scan([1.0, 4.0, 4.4, 4.5, 5.0], grid)
    assert scan[0][1] < 1e-6 and scan[-1][1] > 1e-2
    lo, hi = first_complex_bracket(scan)
    assert (lo, hi) == (4.4, 4.5)


def test_criticality_scan_validation():
    grid = GridSpec(16)
    with pytest.raises(ModelDomainError):
        criticality_scan([1.0, 1.0], grid)
    with pytest.raises(ModelDomainError):
        criticality_scan([-1.0, 2.0], grid)
    with pytest.raises(ModelDomainError):
        first_complex_bracket([(1.0, 1e-9), (2.0, 1e-8)])


def test_analytic_doublet_spans_numeric_eigenspace():
    grid = GridSpec(256)
    values, vectors = eigenpairs(build_hamiltonian(UNIT, grid), 2)
    st = doublet_family(UNIT, 1)[0]
    nodes = grid.interior_nodes
    target = np.concatenate([st.upper(nodes), st.lower(nodes)])
    assert subspace_alignment(vectors[:, :2], target) > 0.999


def test_subspace_alignment_limits():
    basis = np.eye(4)[:, :2]
    assert abs(subspace_alignment(basis, np.array([1.0, 0, 0, 0])) - 1.0) < 1e-12
    assert subspace_alignment(basis, np.array([0.0, 0, 1.0, 0])) < 1e-12
    with pytest.raises(ModelDomainError):
        subspace_alignment(basis, np.zeros(4))


def _dense(rep) -> OperatorRep:
    """The same matrix as a plain OperatorRep: always the dense path."""
    return OperatorRep(rep.matrix, RepBasis.GRID)


def _count_dense_solves(monkeypatch):
    calls = []
    dense_eig = np.linalg.eig
    monkeypatch.setattr(
        np.linalg, "eig", lambda a: calls.append(a.shape) or dense_eig(a)
    )
    return calls


def _assert_same_eigenpairs(values, vectors, ref_values, ref_vectors, rtol=1e-9):
    """Reduced eigenpairs against the full dense spectrum and vectors.

    Both solves leave through one cut, so the k values must equal the
    first k dense values position by position; each reduced vector must
    lie in the dense eigenspace of its value, and a doublet complete in
    both must span it.
    """
    k = values.size
    scale = max(1.0, float(np.abs(ref_values[: k + 4]).max()))
    assert np.abs(values - ref_values[:k]).max() <= rtol * scale
    for v in values:
        mine = np.abs(values - v) <= 1e-6 * scale
        ref = np.abs(ref_values - v) <= 1e-6 * scale
        for vec in vectors[:, mine].T:
            assert subspace_alignment(ref_vectors[:, ref], vec) > 1 - rtol
        if mine.sum() == ref.sum():
            for vec in ref_vectors[:, ref].T:
                assert subspace_alignment(vectors[:, mine], vec) > 1 - rtol


# c = 4.47 sits just below the lowest merger, where the lowest two roots
# of T are a close real pair, 4.6 just above it, where they are a
# complex pair near the real axis; at c = 25 the lowest roots are
# complex quartets far from it, which the real-axis seeds miss and the
# zero count completes.  At M = 8, c = 17.2331 a real root and a complex
# pair share Re E = 32, the real root one ulp above: the real root
# comes first on both solves.
@pytest.mark.parametrize("M", [8, 16, 64, 256])
@pytest.mark.parametrize("c", [0.01, 1.0, 4.47, 4.6, 17.2331, 25.0])
@pytest.mark.parametrize("ratio", [0.25, 1.0, 4.0])
def test_reduced_eigenpairs_match_dense(M, c, ratio, monkeypatch):
    rep = build_hamiltonian(
        CouplingPair(c / math.sqrt(ratio), c * math.sqrt(ratio)), GridSpec(M)
    )
    ref_values, ref_vectors = eigenpairs(_dense(rep), rep.dim)
    dense_calls = _count_dense_solves(monkeypatch)
    # up to the request that falls back; at M = 256 the reference above
    # already is that dense solve
    ks = [k for k in (*range(1, 13), 16, 32, 64) if k < rep.dim]
    ks += [rep.dim] if rep.dim <= 128 else []
    served = 0
    for k in ks:
        values, vectors = eigenpairs(rep, k)
        if dense_calls:
            break
        served = k
        _assert_same_eigenpairs(values, vectors, ref_values, ref_vectors)
    assert served >= 8
    assert bool(dense_calls) == (served < ks[-1])


def test_other_grid_operators_take_the_dense_path(monkeypatch):
    # the inverse metric on the grid carries the same coupling and grid
    # metadata as a Hamiltonian, but is not one
    grid = GridSpec(64)
    inverse = inverse_theta_metric(doublet_family(UNIT, 4), grid=grid)
    calls = _count_dense_solves(monkeypatch)
    values, vectors = eigenpairs(inverse, 6)
    ref_values, ref_vectors = eigenpairs(_dense(inverse), 6)
    assert len(calls) == 2
    assert np.array_equal(values, ref_values)
    assert np.array_equal(vectors, ref_vectors)


# _shift_down and _clear_middle_step edit the bands the reduced solver
# reads.  _shift_down keeps constant bands, so its block is read from
# the bands (d0 and s) and solved by the secular path; _clear_middle_step
# keeps the form I (x) K + C (x) D but not one step at x = 0, so it goes
# to the dense path.  The other two leave the band form, on a plain copy
# of the dense matrix


def _shift_down(rep):
    # Re E < 0 for the lowest levels, which are not the ones nearest 0
    return dataclasses.replace(rep, diagonal=rep.diagonal - 60.0)


def _clear_middle_step(rep):
    # D = 0 on |x| < 1/8 puts a complex pair of lower real part beyond
    # real levels of larger real part but smaller modulus
    m = rep.step.size
    middle = np.abs(np.arange(m) - m // 2) < (m + 1) / 16
    return dataclasses.replace(rep, step=np.where(middle, 0.0, rep.step))


def _mix_channels(rep):
    # a real cross-channel term on every node: still S H S = H^dagger
    matrix, m = rep.matrix.copy(), rep.dim // 2
    idx = np.arange(m)
    matrix[idx, m + idx] += 0.5
    matrix[m + idx, idx] += 0.5
    return OperatorRep(matrix, RepBasis.GRID)


def _off_band(rep):
    # an S-symmetric pair of entries off the tridiagonal bands
    matrix, m = rep.matrix.copy(), rep.dim // 2
    matrix[0, 5] += 0.5
    matrix[2 * m - 6, 2 * m - 1] += 0.5
    return OperatorRep(matrix, RepBasis.GRID)


@pytest.mark.parametrize(
    "edit, c, reduced",
    [
        (_shift_down, 0.0, True),
        (_shift_down, 0.01, True),
        (_mix_channels, 0.0, False),
        (_clear_middle_step, 80.0, False),
        (_mix_channels, 30.0, False),
        (_off_band, 30.0, False),
    ],
)
def test_edited_hamiltonian_is_solved_as_edited(edit, c, reduced, monkeypatch):
    rep = edit(build_hamiltonian(CouplingPair(c / 2, 2 * c), GridSpec(64)))
    ref_values, ref_vectors = eigenpairs(_dense(rep), rep.dim)
    calls = _count_dense_solves(monkeypatch)
    values, vectors = eigenpairs(rep, 5)
    assert bool(calls) != reduced
    _assert_same_eigenpairs(values, vectors, ref_values, ref_vectors)


def test_band_edits_are_the_dense_edits():
    # the band edits above are the in-place matrix edits they replace
    rep = build_hamiltonian(CouplingPair(40.0, 160.0), GridSpec(64))
    m = rep.dim // 2
    shifted = np.array(rep.matrix) - 60.0 * np.eye(2 * m)
    assert np.array_equal(_shift_down(rep).matrix, shifted)
    cleared = np.array(rep.matrix)
    middle = np.flatnonzero(np.abs(np.arange(m) - m // 2) < (m + 1) / 16)
    cleared[middle, m + middle] = 0.0
    cleared[m + middle, middle] = 0.0
    assert np.array_equal(_clear_middle_step(rep).matrix, cleared)


@pytest.mark.parametrize("M", [16, 64, 256])
def test_decoupled_box_takes_the_reduced_path(M, monkeypatch):
    # C = 0: T = K, and the doublet vectors lie in one channel each
    rep = build_hamiltonian(CouplingPair(0.0, 0.0), GridSpec(M))
    ref_values, ref_vectors = eigenpairs(_dense(rep), rep.dim)
    calls = _count_dense_solves(monkeypatch)
    for k in (1, 2, 5, 8, 12):
        values, vectors = eigenpairs(rep, k)
        assert np.all(values.imag == 0.0)
        _assert_same_eigenpairs(values, vectors, ref_values, ref_vectors)
    assert calls == []


@pytest.mark.parametrize("y, z", [(0.0, 2.0), (2.0, 0.0)])
def test_jordan_coupling_takes_the_dense_path(y, z, monkeypatch):
    # exactly one of Y, Z nonzero: C is a Jordan block, no channel basis
    rep = build_hamiltonian(CouplingPair(y, z), GridSpec(64))
    calls = _count_dense_solves(monkeypatch)
    eigenpairs(rep, 4)
    assert len(calls) == 1


def test_reduced_solve_is_bit_reproducible():
    rep = build_hamiltonian(CouplingPair(1.0, 4.0), GridSpec(256))
    first_values, first_vectors = eigenpairs(rep, 8)
    for _ in range(3):
        values, vectors = eigenpairs(rep, 8)
        assert np.array_equal(values, first_values)
        assert np.array_equal(vectors, first_vectors)


def test_reduced_solve_is_bit_reproducible_at_large_grid():
    # the roots and the sine eigenvectors depend on the bands alone
    first_values, first_vectors = eigenpairs(
        build_hamiltonian(CouplingPair(1.0, 4.0), GridSpec(16384)), 4
    )
    for _ in range(2):
        rep = build_hamiltonian(CouplingPair(1.0, 4.0), GridSpec(16384))
        values, vectors = eigenpairs(rep, 4)
        assert np.array_equal(values, first_values)
        assert np.array_equal(vectors, first_vectors)
        assert "matrix" not in vars(rep)


def _block(rep):
    """The two-region block the reduced solve reads from rep's bands."""
    c = math.sqrt(rep.coupling.product)
    return coupledwell.oracle._TwoRegionBlock.from_bands(rep.sub, rep.diagonal, rep.step, c)


def _block_matrix(rep):
    c = math.sqrt(rep.coupling.product)
    return (
        np.diag(rep.diagonal + 1j * c * rep.step) + np.diag(rep.sub, 1) + np.diag(rep.sub, -1)
    )


@pytest.mark.parametrize("M", [8, 16, 32])
@pytest.mark.parametrize("c", [0.0, 0.5, 4.47, 25.0])
def test_secular_polynomial_vanishes_at_dense_eigenvalues(M, c):
    # P is det(E - T) up to a constant factor.  By the maximum modulus
    # principle |P| on the unit circle about a root bounds it inside, so
    # at a root |P| reads many orders below that bound.
    rep = build_hamiltonian(CouplingPair(c, c), GridSpec(M))
    block, t = _block(rep), _block_matrix(rep)
    circle = np.exp(2j * np.pi * np.arange(64) / 64)
    dense = np.linalg.eigvals(t)
    reduced, _ = eigenpairs(rep, rep.dim)
    for value in np.concatenate([dense, reduced]):
        bound = np.abs(block.secular(value + circle)).max()
        assert abs(block.secular(np.array([value]))[0]) <= 1e-9 * bound
    # the same polynomial everywhere: P / det(E - T) keeps one phase
    # (the scaling of P is a positive factor) off the real axis and on it
    off = np.concatenate([np.linspace(-3.0, 1.2 * block.width, 40) + 0.7j, [-2.0, 0.3 * block.width]])
    phases = [
        np.angle(block.secular(np.array([e]))[0] / np.linalg.det(e * np.eye(M - 1) - t)) for e in off
    ]
    assert np.ptp(np.unwrap(phases)) < 1e-9
    # real on the real axis below the top of K's band, to the last bit
    axis = np.linspace(block.floor - 1.0, block.floor + block.width - 1.0, 301)
    assert np.all(block.secular(axis.astype(complex)).imag == 0.0)
    assert np.array_equal(block.secular(axis.astype(complex)).real, block.secular_real(axis))


@pytest.mark.parametrize("c", [0.0, 4.47, 4.6, 25.0])
def test_zero_count_matches_the_dense_spectrum(c):
    # the certificate: the argument-principle count in a box symmetric
    # about the real axis, re0 <= Re E <= re1 and |Im E| <= reach, is the
    # number of dense eigenvalues of T inside it; the boxes of the
    # subdivision are of the same kind, cut across the real direction
    rep = build_hamiltonian(CouplingPair(c, c), GridSpec(64))
    block, dense = _block(rep), np.linalg.eigvals(_block_matrix(rep))
    checked = 0
    for edge in (5.0, 16.0, 30.0, 100.0, 400.0, block.floor + block.width + 1.0):
        for box in (
            (block.floor - 1.0, edge, c + 1.0),
            (block.floor - 1.0, edge, 0.5 * c + 0.3),
            (3.0, edge, c + 1.0),
            (3.0, edge, 0.5 * c + 0.3),
        ):
            re0, re1, reach = box
            if np.min(np.abs(np.concatenate([dense.real - re0, dense.real - re1]))) < 0.1:
                continue
            if np.min(np.abs(np.abs(dense.imag) - reach)) < 0.1:
                continue
            inside = (dense.real > re0) & (dense.real < re1) & (np.abs(dense.imag) < reach)
            assert block._winding(box, (0.5, 0.5, 0.5)) == inside.sum()
            checked += 1
    assert checked >= 12


def test_close_real_pair_next_to_the_merger(monkeypatch):
    # c = 4.47, M = 256, k = 12: the lowest two roots of T are real and
    # 0.37 apart, inside one cell of the real grid, so P does not change
    # sign across that cell.  Both must be found once: a count compared
    # with the roots found, duplicates included, would pass with 6.584
    # found twice and 6.218 missing.
    rep = build_hamiltonian(CouplingPair(4.47, 4.47), GridSpec(256))
    ref_values, ref_vectors = eigenpairs(_dense(rep), rep.dim)
    calls = _count_dense_solves(monkeypatch)
    values, vectors = eigenpairs(rep, 12)
    assert calls == []
    assert np.all(values.imag == 0.0)
    roots = values.real[::2]
    assert np.array_equal(values.real[1::2], roots)  # each root is a doublet
    assert np.all(np.diff(roots) > 0.3)
    assert abs(roots[0] - 6.21821) < 1e-4 and abs(roots[1] - 6.58415) < 1e-4
    _assert_same_eigenpairs(values, vectors, ref_values, ref_vectors)


@pytest.mark.parametrize(
    "c, M, off_axis", [(4.6, 64, False), (4.6, 256, False), (25.0, 64, True), (25.0, 256, True)]
)
def test_complex_quartets_past_the_merger(c, M, off_axis, monkeypatch):
    # past the merger the lowest roots of T are a conjugate pair E, conj E,
    # and the full operator has each twice: a quartet, returned on both
    # solves as E, conj E, E, conj E with Im E < 0.  Near the merger
    # (c = 4.6) the pair sits in a dip of |P| on the real axis; at c = 25
    # it lies far from the axis, the real grid misses it, and the levels
    # of one half of the well shifted by i c seed it.
    rep = build_hamiltonian(CouplingPair(c, c), GridSpec(M))
    ref_values, ref_vectors = eigenpairs(_dense(rep), rep.dim)
    calls = _count_dense_solves(monkeypatch)
    seeded = []
    shifted = coupledwell.oracle._TwoRegionBlock._shifted_levels
    monkeypatch.setattr(
        coupledwell.oracle._TwoRegionBlock,
        "_shifted_levels",
        lambda self, top, found: seeded.append(top) or shifted(self, top, found),
    )
    values, vectors = eigenpairs(rep, 8)
    assert calls == [] and bool(seeded) == off_axis
    quartet = values[:4]
    assert np.abs(quartet.imag).min() > 0.5 and quartet[0].imag < 0
    assert quartet[0] == quartet[1].conjugate() == quartet[2] == quartet[3].conjugate()
    _assert_same_eigenpairs(values, vectors, ref_values, ref_vectors)


@pytest.mark.parametrize("c", [25.0, 80.0])
def test_zero_count_completes_the_root_set(c, monkeypatch):
    # without the off-axis seeds the count finds the quartets missing,
    # and deflated Newton and halving the box with the same count
    # isolate them
    monkeypatch.setattr(
        coupledwell.oracle._TwoRegionBlock, "_shifted_levels", lambda self, top, found: found
    )
    completions = []
    complete = coupledwell.oracle._TwoRegionBlock._complete
    monkeypatch.setattr(
        coupledwell.oracle._TwoRegionBlock,
        "_complete",
        lambda self, *args: completions.append(args[1]) or complete(self, *args),
    )
    rep = build_hamiltonian(CouplingPair(c, c), GridSpec(64))
    ref_values, ref_vectors = eigenpairs(_dense(rep), rep.dim)
    calls = _count_dense_solves(monkeypatch)
    values, vectors = eigenpairs(rep, 12)
    assert calls == [] and completions
    assert np.abs(values[:4].imag).min() > 0.5
    _assert_same_eigenpairs(values, vectors, ref_values, ref_vectors)


def test_mid_line_dips_complete_the_root_set_far_past_the_merger(monkeypatch):
    # c = 4000, M = 256 without the off-axis seeds: the count covers the
    # whole band, and the roots that Newton from mid-height and |gamma|
    # misses are reached from the dips of |P| on each box's mid-line
    rep = build_hamiltonian(CouplingPair(4000.0, 4000.0), GridSpec(256))
    seeded, _ = eigenpairs(rep, 12)
    monkeypatch.setattr(
        coupledwell.oracle._TwoRegionBlock, "_shifted_levels", lambda self, top, found: found
    )
    calls = _count_dense_solves(monkeypatch)
    values, _ = eigenpairs(rep, 12)
    assert calls == []
    assert np.abs(values - seeded).max() <= 1e-9 * np.abs(seeded).max()


@pytest.mark.parametrize("M", [64, 16384])
def test_huge_coupling_is_solved(M):
    # c = 1e6: every low root sits within 1e-3 of Im E = +-c, one
    # half-well level above the band floor, and the count's box is 2e6 tall
    rep = build_hamiltonian(CouplingPair(1e6, 1e6), GridSpec(M))
    values, vectors = eigenpairs(rep, 4)
    assert "matrix" not in vars(rep)
    assert np.all(np.abs(np.abs(values.imag) - 1e6) < 1e-2)
    assert np.all(np.abs(values.real - math.pi**2) < 0.02)
    if M == 64:
        ref_values, ref_vectors = eigenpairs(_dense(rep), rep.dim)
        _assert_same_eigenpairs(values, vectors, ref_values, ref_vectors)


def test_uncertified_roots_take_the_dense_path_only_at_small_grid(monkeypatch):
    # past the merger (c = 25, quartets) the forced dense solve returns
    # the secular solve's values in the same positions: one cut for both
    strong = build_hamiltonian(CouplingPair(25.0, 25.0), GridSpec(64))
    secular_values, _ = eigenpairs(strong, 12)
    monkeypatch.setattr(
        coupledwell.oracle._TwoRegionBlock, "lowest_roots", lambda self, needed: None
    )
    small = build_hamiltonian(UNIT, GridSpec(64))
    ref_values, _ = eigenpairs(_dense(small), 4)
    calls = _count_dense_solves(monkeypatch)
    values, _ = eigenpairs(small, 4)
    assert len(calls) == 1
    assert np.array_equal(values, ref_values)
    values, _ = eigenpairs(strong, 12)
    assert len(calls) == 2
    assert np.abs(values - secular_values).max() <= 1e-9 * np.abs(secular_values).max()
    # the dense matrix at M = 4096 would take 1 GB: refused, never built
    large = build_hamiltonian(UNIT, GridSpec(4096))
    with pytest.raises(NumericalFailureError, match="dense eigensolve is limited"):
        eigenpairs(large, 4)
    assert "matrix" not in vars(large) and len(calls) == 2


def test_eigenvector_residual_is_checked(monkeypatch):
    # vectors that are not T's eigenvectors fail the O(M) residual check,
    # and the request is served by the dense eigensolve instead
    vectors_of = coupledwell.oracle._TwoRegionBlock.eigenvectors
    monkeypatch.setattr(
        coupledwell.oracle._TwoRegionBlock,
        "eigenvectors",
        lambda self, roots: np.roll(vectors_of(self, roots), 1, axis=0),
    )
    rep = build_hamiltonian(UNIT, GridSpec(64))
    ref_values, ref_vectors = eigenpairs(_dense(rep), rep.dim)
    calls = _count_dense_solves(monkeypatch)
    values, vectors = eigenpairs(rep, 4)
    assert len(calls) == 1
    _assert_same_eigenpairs(values, vectors, ref_values, ref_vectors)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    c=st.floats(min_value=0.0, max_value=30.0, exclude_min=True),
    ratio=st.sampled_from([0.25, 1.0, 4.0]),
    half_m=st.integers(min_value=4, max_value=64),
    k=st.integers(min_value=1, max_value=12),
)
def test_reduced_and_dense_paths_agree(c, ratio, half_m, k):
    rep = build_hamiltonian(
        CouplingPair(c / math.sqrt(ratio), c * math.sqrt(ratio)), GridSpec(2 * half_m)
    )
    ref_values, ref_vectors = eigenpairs(_dense(rep), rep.dim)
    values, vectors = eigenpairs(rep, min(k, rep.dim))
    _assert_same_eigenpairs(values, vectors, ref_values, ref_vectors)
