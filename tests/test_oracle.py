"""Finite-difference oracle: structure checks, convergence, criticality scan.

Everything here is second-order central differences, kept deliberately
independent of the closed-form machinery it cross-checks.  For every
coupling the eigensolver works on one tridiagonal block alone, built
from the grid, as the roots of its discrete secular polynomial; the
dense eigensolve of the assembled matrix, cut like every solve
(`_dense_eigenpairs`), is the reference it is checked against here.
"""

import dataclasses
import json
import math
import os
import pathlib
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    doublet_family,
    eigenpairs,
    first_complex_bracket,
    inverse_theta_metric,
    spectrum,
    subspace_alignment,
)
from coupledwell._ranges import _arange
from coupledwell.oracle import _cut, _group_degenerate
from test_doublet_reference import discrete_theta

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


@pytest.mark.parametrize(
    "y, z", [(1.0, 4.0), (-1.0, -4.0), (0.0, 0.0), (25.0, 25.0), (1.0, -4.0), (0.0, 2.0)]
)
def test_reducible_hamiltonian_never_builds_its_matrix(y, z):
    rep = build_hamiltonian(CouplingPair(y, z), GridSpec(256))
    for k in (1, 4, 12):
        eigenpairs(rep, k)
    assert "matrix" not in vars(rep)
    small = build_hamiltonian(CouplingPair(y, z), GridSpec(8))
    eigenpairs(small, small.dim)  # the whole spectrum is a root set too
    assert "matrix" not in vars(small)


def test_stored_operator_is_read_only():
    grid = GridSpec(16)
    rep = build_hamiltonian(CouplingPair(1.0, 4.0), grid)
    # each band is derived on first read, read-only, from the grid alone
    h2 = grid.h * grid.h
    expected = {"sub": np.full(grid.n_interior - 1, -1.0 / h2), "diagonal": np.full(grid.n_interior, 2.0 / h2),
                "step": np.sign(-grid.interior_nodes)}
    for name, band in expected.items():
        assert name not in vars(rep)
        assert not getattr(rep, name).flags.writeable
        assert np.array_equal(getattr(rep, name), band)
        assert getattr(rep, name) is vars(rep)[name]
        with pytest.raises(ValueError):
            getattr(rep, name)[0] = 0.0
    with pytest.raises(ValueError):
        rep.matrix[0, 0] = 0.0
    assert rep.matrix is rep.matrix
    # the bands are derived from the coupling and the grid, not given
    assert [f.name for f in dataclasses.fields(rep)] == ["coupling", "grid"]
    with pytest.raises(TypeError):
        dataclasses.replace(rep, step=-rep.step)


def test_eigenpairs_derives_no_band_for_a_nonzero_product():
    # the residual reads the bands' constants and the step's slices: at
    # YZ != 0 no band is derived; YZ = 0 reads the step for its particular
    # solution
    for pair in (UNIT, CouplingPair(4.6, 4.6), CouplingPair(1.0, -4.0)):
        rep = build_hamiltonian(pair, GridSpec(64))
        eigenpairs(rep, 6)
        assert not {"sub", "diagonal", "step", "matrix"} & set(vars(rep))


def _bits(side):
    # the components of one side as bytes: signed zeros count
    return [struct.pack("dd", complex(v).real, complex(v).imag) for v in side]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(log_gamma=st.floats(min_value=-10.0, max_value=6.0),
       half_m=st.integers(min_value=4, max_value=2**19),
       where=st.floats(min_value=0.0, max_value=1.0),
       height=st.floats(min_value=-1.0, max_value=1.0),
       real=st.booleans())
@example(log_gamma=-10.0, half_m=2**19, where=0.0, height=0.0, real=True)
@example(log_gamma=6.0, half_m=4, where=1.0, height=1.0, real=False)
@example(log_gamma=0.0, half_m=4, where=0.0, height=-0.5, real=False)  # Im E = -gamma
def test_right_side_is_the_conjugate_left_side(log_gamma, half_m, where, height, real):
    # eigenvectors samples only left sides: for lambda = i gamma, _side(E, +1)
    # is the conjugate of _side(conj E, -1) component for component, and for
    # lambda = 0 the two sides are equal.  E runs over the zero count's box,
    # -1 <= Re E <= width + gamma + 1 and |Im E| <= gamma + 1.  The one
    # exception, E + i gamma real, where both sides read Im z = +0.0 and the
    # conjugate -0.0, is why eigenvectors samples both sides there
    gamma, grid = 10.0 ** log_gamma, GridSpec(2 * half_m)
    width = 4.0 / (grid.h * grid.h)
    energy = complex(-1.0 + where * (width + gamma + 2.0), 0.0 if real else height * (gamma + 1.0))
    block = coupledwell.oracle._TwoRegionBlock(width=width, shift=1j * gamma, m=half_m)
    mirrored = [complex(v).conjugate() for v in block._side(energy, 1.0)]
    same = _bits(block._side(energy.conjugate(), -1.0)) == _bits(mirrored)
    assert same != ((energy + block.shift).imag == 0.0)
    flat = coupledwell.oracle._TwoRegionBlock(width=width, shift=complex(0.0), m=half_m)
    energy = complex(energy.real, energy.imag + 0.0)  # no -0.0: conj(E) is E there
    assert _bits(flat._side(energy, -1.0)) == _bits(flat._side(energy, 1.0))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(half_m=st.integers(min_value=4, max_value=8192))
@example(half_m=49)  # M = 98: -1 + h j misses x = 0 by an ulp there
def test_swap_reflect_symmetry_holds_by_construction(half_m):
    # eigenpairs solves the coupling and the grid without checking
    # S H S = H^dagger: the step must be odd with an exact 0 at the centre
    # on every even M, which makes the defect read off the bands exactly 0
    rep = build_hamiltonian(CouplingPair(1.0, 4.0), GridSpec(2 * half_m))
    assert np.array_equal(rep.step[::-1], -rep.step)
    assert rep.step[half_m - 1] == 0.0
    assert coupledwell.oracle._swap_reflect_defect(rep.coupling, rep.grid) == 0.0


def test_node_steps_are_the_sign_of_minus_x_at_every_grid():
    # the one body of the step, as floats and as the band: sgn(-x) at the
    # interior nodes byte for byte, the centre's +0.0 included; the defect,
    # which pairs the step's runs, reads +0.0 bit for bit
    def bits(values):
        return np.asarray(values, dtype=float).view(np.uint64)

    for M in [*range(8, 5001, 2), 2**20]:
        grid = GridSpec(M)
        expected = bits(np.sign(-grid.interior_nodes))
        assert np.array_equal(bits(coupledwell.oracle._node_steps(grid)), expected)
        assert np.array_equal(bits(build_hamiltonian(UNIT, grid).step), expected)
        for coupling in (CouplingPair(1.0, 4.0), CouplingPair(1e300, -1e-300)):
            defect = coupledwell.oracle._swap_reflect_defect(coupling, grid)
            assert struct.pack("d", defect) == struct.pack("d", 0.0), (M, coupling)


def _dense_swap_reflect_defect(coupling, grid):
    # the defect node by node, max |a d(-x) + a d(x)| over both couplings a
    step = np.array(coupledwell.oracle._node_steps(grid))
    return max(float(np.max(np.abs(a * step[::-1] + a * step))) for a in (coupling.Y, coupling.Z))


@pytest.mark.parametrize("runs", [
    lambda side: ((1.0, side + 1), (0.0, 1), (-1.0, side - 1)),
    lambda side: ((1.0, side), (0.5, 1), (-1.0, side)),
    lambda side: ((1.0, side), (0.0, 1), (-0.5, side)),
    lambda side: ((1.0, 2), (0.5, side - 2), (0.0, 1), (-1.0, side)),
    lambda side: ((1.0, side), (0.0, 1), (-1.0, side - 2), (1.0, 2)),
], ids=["centre-off-by-a-node", "nonzero-centre", "unequal-sides", "a-fourth-run", "last-two-flipped"])
@pytest.mark.parametrize("M", [8, 10, 98, 4096])
def test_swap_reflect_defect_reads_runs_that_are_not_mirrored(monkeypatch, runs, M):
    # a step whose runs are not each other's mirror images must not read 0:
    # the row is the node-by-node defect of the patched step, bit for bit
    monkeypatch.setattr(coupledwell.oracle, "_step_runs", lambda grid: runs(grid.M // 2 - 1))
    coupling, grid = CouplingPair(1.0, 4.0), GridSpec(M)
    defect = coupledwell.oracle._swap_reflect_defect(coupling, grid)
    assert defect > 0.0
    assert defect == _dense_swap_reflect_defect(coupling, grid)


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


def test_negative_product_grid_levels_converge_to_the_matching_roots():
    # (Y, Z) = (1, -4): T = K +- 2 D is real symmetric, each root a doublet.
    # The grid converges at second order to the roots of
    # k_L cot k_L + k_R cot k_R = 0 with k^2 = E -+ 2 (mpmath, 30 digits),
    # not to the closed form's s^2 +- sqrt(-YZ)
    exact = np.array([2.07971664207258827, 10.15428578442640404])
    roots = {}
    for M in (512, 1024):
        values, _ = eigenpairs(build_hamiltonian(CouplingPair(1.0, -4.0), GridSpec(M)), 4)
        assert np.all(values.imag == 0.0) and np.array_equal(values[0::2], values[1::2])
        roots[M] = values.real[0::2]
    orders = np.log2(np.abs(roots[512] - exact) / np.abs(roots[1024] - exact))
    assert np.all(np.abs(orders - 2.0) <= 0.01)
    assert np.abs((4.0 * roots[1024] - roots[512]) / 3.0 - exact).max() <= 1e-9
    closed_form = [lvl.E for lvl in spectrum(CouplingPair(1.0, -4.0), 1).levels]
    assert np.abs(np.subtract.outer(closed_form, exact)).min() > 1.0


def _assert_real_block_roots(rep, values):
    """values real, each doublet exact, and its roots the eigenvalues of
    the real symmetric block T = K + sqrt(-YZ) D to 1e-9 relative, plus
    rounding of T's norm."""
    c = rep.coupling.root_product
    t = np.diag(rep.diagonal + c * rep.step) + np.diag(rep.sub, 1) + np.diag(rep.sub, -1)
    assert np.all(values.imag == 0.0)
    roots = values.real[0::2]
    assert np.array_equal(values.real[1::2], roots[: values.size // 2])
    ref = np.linalg.eigvalsh(t)[: roots.size]
    bound = 1e-9 * np.maximum(1.0, np.abs(ref)) + 8 * np.finfo(float).eps * (rep.grid.M**2 + c)
    assert np.all(np.abs(roots - ref) <= bound)


@pytest.mark.parametrize(
    "y, z, M, k",
    [
        # sqrt(-YZ) = 27 band widths: the centre root and the upper band
        (949.5244786616976, -3146.4805178244274, 8, 8),
        # once stopped by a Newton iterate landing on a known root
        (0.8499724940711127, -1992919175.1832635, 80, 108),
        (0.13748781653624956, -5569963204.468907, 62, 109),
        # beside a root P reads only rounding noise, so Newton's steps
        # never pass the step test and the bracket is bisected
        (0.1338342707233252, -121893693849.48743, 498, 341),
    ],
)
def test_negative_product_past_the_band_width(y, z, M, k):
    rep = build_hamiltonian(CouplingPair(y, z), GridSpec(M))
    values, _ = eigenpairs(rep, k)
    assert values.size == k
    _assert_real_block_roots(rep, values)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    half_m=st.integers(min_value=4, max_value=40),
    widths=st.floats(min_value=-2.0, max_value=1.5),
    y_exponent=st.floats(min_value=-1.0, max_value=1.0),
    data=st.data(),
)
def test_negative_product_matches_the_real_block(half_m, widths, y_exponent, data):
    # YZ < 0 with sqrt(-YZ) from 0.01 to ~32 band widths (M^2) and any k:
    # the roots of the lower band, the centre root in the gap between the
    # bands, and the upper band
    M = 2 * half_m
    shift = M * M * 10.0**widths
    y = 10.0**y_exponent
    rep = build_hamiltonian(CouplingPair(y, -shift * shift / y), GridSpec(M))
    k = data.draw(st.integers(min_value=1, max_value=rep.dim), label="k")
    values, _ = eigenpairs(rep, k)
    _assert_real_block_roots(rep, values)


def test_pairing_assertion_rejects_unpaired_complex_values():
    # every solve ends in the cut, which refuses an unpaired complex value
    with pytest.raises(NumericalFailureError, match="no conjugate partner"):
        _cut(np.array([1.0 + 1.0j, 0.5, 2.0]), np.eye(3), 1)


def test_above_critical_spectrum_is_complex_but_paired():
    rep = build_hamiltonian(CouplingPair(25.0, 25.0), GridSpec(128))
    values, _ = eigenpairs(rep, 4)
    assert np.abs(values.imag).min() > 1e-3
    assert abs(values[0] - np.conj(values[1])) < 1e-9 * abs(values[0])


def test_group_degenerate_clusters():
    vals = np.array([1.0, 1.0 + 1e-9, 4.0, 9.0, 9.0 + 2e-8])
    clusters = _group_degenerate(vals)
    assert [mult for _, mult in clusters] == [2, 1, 2]
    assert _group_degenerate(np.array([])) == []


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


NUMPY_FREE_REPORT_SCRIPT = """
import json, sys
sys.modules["numpy"] = None
from coupledwell import CouplingPair, spectrum
from coupledwell.oracle import _group_degenerate, compare_spectrum

fine, coarse = ([complex(*v) for v in values] for values in json.loads(sys.stdin.read()))
levels = spectrum(CouplingPair(1.0, 4.0), 3).levels
print(json.dumps([repr(compare_spectrum(levels, fine, 4)),
                  repr(compare_spectrum(levels, fine, 4, coarse)),
                  repr(_group_degenerate(fine + [complex(1e3, -0.0)]))]))
"""


def test_compare_spectrum_runs_without_numpy_on_a_list():
    # the one comparison report, for the oracle's arrays and the battery's
    # lists: the same report bit for bit from Python numbers with numpy
    # unimportable, and a one-member cluster at Im = -0.0 keeps np.mean's sign
    pair = CouplingPair(1.0, 4.0)
    fine, _ = eigenpairs(build_hamiltonian(pair, GridSpec(128)), 10)
    coarse, _ = eigenpairs(build_hamiltonian(pair, GridSpec(64)), 10)
    levels = spectrum(pair, 3).levels
    lone = np.append(fine, complex(1e3, -0.0))
    expected = [repr(compare_spectrum(levels, fine, 4)),
                repr(compare_spectrum(levels, fine, 4, coarse)),
                repr(_group_degenerate(lone))]
    singleton = _group_degenerate(lone)[-1][0]
    assert singleton == 1e3 and math.copysign(1.0, singleton.imag) == math.copysign(
        1.0, complex(np.mean(lone[-1:])).imag)
    root = pathlib.Path(__file__).resolve().parent.parent
    path = [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    result = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_REPORT_SCRIPT],
        input=json.dumps([[[v.real, v.imag] for v in values.tolist()] for values in (fine, coarse)]),
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == expected


def test_compare_spectrum_refuses_negative_product_levels():
    # the closed-form YZ < 0 levels s^2 +- sqrt(-YZ) are not this operator's
    levels = spectrum(CouplingPair(1.0, -4.0), 1).levels
    with pytest.raises(ModelDomainError, match=r"^oracle comparison covers YZ >= 0"):
        compare_spectrum(levels, np.array([level.E for level in levels]), 1)


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


def _dense_eigenpairs(rep, k=None):
    """The reference: the dense eigensolve of the assembled matrix, cut
    as `eigenpairs` cuts its own eigenpairs."""
    return _cut(*np.linalg.eig(rep.matrix), k or rep.dim)


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
# comes first in the solve and in the dense reference.
@pytest.mark.parametrize("M", [8, 16, 64, 256])
@pytest.mark.parametrize("c", [0.01, 1.0, 4.47, 4.6, 17.2331, 25.0])
@pytest.mark.parametrize("ratio", [0.25, 1.0, 4.0])
def test_reduced_eigenpairs_match_dense(M, c, ratio, monkeypatch):
    rep = build_hamiltonian(
        CouplingPair(c / math.sqrt(ratio), c * math.sqrt(ratio)), GridSpec(M)
    )
    ref_values, ref_vectors = _dense_eigenpairs(rep)
    dense_calls = _count_dense_solves(monkeypatch)
    ks = [k for k in (*range(1, 13), 16, 32, 64) if k < rep.dim]
    ks += [rep.dim] if rep.dim <= 128 else []
    for k in ks:
        values, vectors = eigenpairs(rep, k)
        _assert_same_eigenpairs(values, vectors, ref_values, ref_vectors)
    assert dense_calls == []


def test_other_grid_operators_are_refused():
    # the inverse metric on the grid carries the same coupling and grid
    # metadata as a Hamiltonian, but is not one
    inverse = inverse_theta_metric(doublet_family(UNIT, 4), grid=GridSpec(64))
    with pytest.raises(ModelDomainError, match="BandedHamiltonian"):
        eigenpairs(inverse, 6)


# the edits leave the band form on a plain copy of the dense matrix


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
    [(_mix_channels, 0.0, False), (_mix_channels, 30.0, False), (_off_band, 30.0, False)],
)
def test_edited_hamiltonian_is_solved_as_edited(edit, c, reduced):
    # reduced: whether the edit keeps the operator a BandedHamiltonian.  A
    # dense edit does not, and is refused rather than solved as the unedited
    # coupling and grid
    rep = edit(build_hamiltonian(CouplingPair(c / 2, 2 * c), GridSpec(64)))
    assert isinstance(rep, coupledwell.oracle.BandedHamiltonian) == reduced
    with pytest.raises(ModelDomainError):
        eigenpairs(rep, 5)


@pytest.mark.parametrize("M", [16, 64, 256])
def test_decoupled_box_takes_the_reduced_path(M, monkeypatch):
    # C = 0: T = K, and the doublet vectors lie in one channel each
    rep = build_hamiltonian(CouplingPair(0.0, 0.0), GridSpec(M))
    ref_values, ref_vectors = _dense_eigenpairs(rep)
    calls = _count_dense_solves(monkeypatch)
    for k in (1, 2, 5, 8, 12):
        values, vectors = eigenpairs(rep, k)
        assert np.all(values.imag == 0.0)
        _assert_same_eigenpairs(values, vectors, ref_values, ref_vectors)
    assert calls == []


@pytest.mark.parametrize("y, z", [(0.0, 2.0), (2.0, 0.0)])
def test_jordan_coupling_solves_the_decoupled_block(y, z, monkeypatch):
    # exactly one of Y, Z nonzero: C is a Jordan block, lambda = 0, so the
    # values are those of Y = Z = 0 to the bit; the second vector of each
    # doublet comes from (K - E) a = -i Y or Z D v
    rep = build_hamiltonian(CouplingPair(y, z), GridSpec(64))
    ref_values, ref_vectors = _dense_eigenpairs(rep)
    box_values, _ = eigenpairs(build_hamiltonian(CouplingPair(0.0, 0.0), GridSpec(64)), 12)
    calls = _count_dense_solves(monkeypatch)
    values, vectors = eigenpairs(rep, 12)
    assert calls == []
    assert np.array_equal(values, box_values)
    _assert_same_eigenpairs(values, vectors, ref_values, ref_vectors)


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


def _grid_block(grid, shift):
    """The two-region block of the Laplacian on grid with lambda = shift."""
    return coupledwell.oracle._TwoRegionBlock(width=4.0 / (grid.h * grid.h), shift=shift, m=grid.M // 2)


def _block(rep):
    """The two-region block the solve reads for rep (YZ >= 0)."""
    return _grid_block(rep.grid, 1j * math.sqrt(rep.coupling.product))


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
    circle = np.exp(2j * np.pi * np.arange(64) / 64).tolist()
    dense = np.linalg.eigvals(t)
    reduced, _ = eigenpairs(rep, rep.dim)
    for value in np.concatenate([dense, reduced]).tolist():
        bound = max(abs(block.secular(value + z)) for z in circle)
        assert abs(block.secular(value)) <= 1e-9 * bound
    # the same polynomial everywhere: P / det(E - T) keeps one phase
    # (the scaling of P is a positive factor) off the real axis and on it
    off = (np.linspace(-3.0, 1.2 * block.width, 40) + 0.7j).tolist() + [-2.0, 0.3 * block.width]
    phases = [np.angle(block.secular(e) / np.linalg.det(e * np.eye(M - 1) - t)) for e in off]
    assert np.ptp(np.unwrap(phases)) < 1e-9
    # real on the real axis below the top of K's band, to the last bit
    axis = np.linspace(-1.0, block.width - 1.0, 301).tolist()
    assert all(block.secular(complex(e)).imag == 0.0 for e in axis)
    assert [block.secular(complex(e)).real for e in axis] == [block.secular(e, real=True) for e in axis]


def _shifted_block(shift):
    """The two-region block of the Laplacian on 16 intervals with any
    shift: i gamma, real or 0."""
    return _grid_block(GridSpec(16), shift)


# M = 16: band [0, 256]; with a real shift 7 the sides' bands start at
# -7 and 7 and end at 249 and 263.  The points avoid those ends.
_COMPLEX_POINTS = [5.0 + 3.0j, 40.0 - 10.0j, 120.0 + 1.0j, -20.0 + 0.5j, 300.0 - 4.0j]
_REAL_POINTS = [-30.0, -3.1, 17.3, 100.1, 251.7, 270.2]


@pytest.mark.parametrize("shift", [2.5j, 7.0 + 0j, 0j])
@pytest.mark.parametrize("real", [False, True])
def test_slope_is_the_derivative_of_p(shift, real):
    # secular(..., slope=True) against a central difference of P.  Both
    # carry P's scale exp(-|Im m theta_L| - |Im m theta_R|), which varies
    # with E, so the difference is taken of the unscaled P
    block = _shifted_block(shift)

    def growth(e):
        return math.exp(block.m * sum(abs(block._side(e, sign)[1].imag) for sign in (-1.0, 1.0)))

    for e in _REAL_POINTS if real else _COMPLEX_POINTS:
        p, dp = block.secular(e, slope=True, real=real)
        assert p == block.secular(e, real=real)
        h = 1e-6 * max(1.0, abs(e))
        ahead, behind = (block.secular(e + d, real=real) * growth(e + d) for d in (h, -h))
        difference = (ahead - behind) / (2 * h)
        assert abs(dp * growth(e) - difference) <= 1e-6 * abs(difference)


def test_newton_from_a_known_root_is_a_failed_seed():
    # the deflation 1 / (z - r) is singular when an iterate lands on a
    # known root r: the seed fails instead of dividing by zero
    block = _block(build_hamiltonian(CouplingPair(1.0, 4.0), GridSpec(64)))
    root = complex(block.lowest_roots(1)[0])
    assert block.secular(root) != 0.0
    assert block._newton(root, [root]) is None


@pytest.mark.parametrize("c", [0.0, 4.47, 4.6, 25.0])
def test_zero_count_matches_the_dense_spectrum(c):
    # the certificate: the argument-principle count in a box symmetric
    # about the real axis, re0 <= Re E <= re1 and |Im E| <= reach, is the
    # number of dense eigenvalues of T inside it; the boxes of the
    # subdivision are of the same kind, cut across the real direction
    rep = build_hamiltonian(CouplingPair(c, c), GridSpec(64))
    block, dense = _block(rep), np.linalg.eigvals(_block_matrix(rep))
    checked = 0
    for edge in (5.0, 16.0, 30.0, 100.0, 400.0, block.width + 1.0):
        for box in (
            (-1.0, edge, c + 1.0),
            (-1.0, edge, 0.5 * c + 0.3),
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
    ref_values, ref_vectors = _dense_eigenpairs(rep)
    calls = _count_dense_solves(monkeypatch)
    values, vectors = eigenpairs(rep, 12)
    assert calls == []
    assert np.all(values.imag == 0.0)
    roots = values.real[::2]
    assert np.array_equal(values.real[1::2], roots)  # each root is a doublet
    assert np.all(np.diff(roots) > 0.3)
    assert abs(roots[0] - 6.21821) < 1e-4 and abs(roots[1] - 6.58415) < 1e-4
    _assert_same_eigenpairs(values, vectors, ref_values, ref_vectors)


def test_close_real_pair_split_at_the_parabola_vertex(monkeypatch):
    # M = 38, c = 4.4730662526331155: the lowest two roots of T, 6.3309 and
    # 6.4528, share one cell of the real grid, where |P| dips without a
    # sign change.  P changes sign at the vertex of the parabola through
    # the dip, so the cell is split there into two brackets, one per root
    c = 4.4730662526331155
    rep = build_hamiltonian(CouplingPair(c, c), GridSpec(38))
    ref_values, ref_vectors = _dense_eigenpairs(rep)
    brackets = []
    bracketed_root = coupledwell.oracle._TwoRegionBlock._bracketed_root
    monkeypatch.setattr(
        coupledwell.oracle._TwoRegionBlock,
        "_bracketed_root",
        lambda self, lo, hi, *p: brackets.append((lo, hi)) or bracketed_root(self, lo, hi, *p),
    )
    values, vectors = eigenpairs(rep, 2)
    (lo, vertex), (vertex_again, hi) = brackets
    phi = np.arange(math.pi / 76, math.pi, math.pi / 304)  # the real grid
    samples = _block(rep).width * np.sin(phi / 2) ** 2
    assert vertex == vertex_again and lo in samples and hi in samples
    assert vertex not in samples and lo < 6.3309 < vertex < 6.4528 < hi
    assert np.all(values.imag == 0.0) and values[0] == values[1]
    assert abs(values[0].real - 6.33089354) < 1e-8
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
    ref_values, ref_vectors = _dense_eigenpairs(rep)
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
    ref_values, ref_vectors = _dense_eigenpairs(rep)
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


def test_completion_searches_the_box_one_clear_of_the_numerical_range(monkeypatch):
    # c = 4.4763 next to the merger, M = 58: the count's box stands 11.9
    # above |Im lambda|, its top margin the spacing of the real roots, and
    # finds the pair at 6.3978 -+ 0.1035i missing.  Seeded and split from
    # the count's box, the completion stops with both roots missing; from
    # the box that clears the numerical range by 1 it finds them
    c, ratio = 4.476275640748533, 2.5631959904809873
    rep = build_hamiltonian(CouplingPair(c * ratio, c / ratio), GridSpec(58))
    boxes = []
    complete = coupledwell.oracle._TwoRegionBlock._complete
    monkeypatch.setattr(
        coupledwell.oracle._TwoRegionBlock,
        "_complete",
        lambda self, box, *args: boxes.append(box) or complete(self, box, *args),
    )
    ref_values, ref_vectors = _dense_eigenpairs(rep)
    values, vectors = eigenpairs(rep, 4)
    assert boxes == [(-1.0, boxes[0][1], rep.coupling.root_product + 1.0)]
    assert abs(values[0] - (6.397765996878 - 0.103492825749j)) < 1e-9
    _assert_same_eigenpairs(values, vectors, ref_values, ref_vectors)


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
        ref_values, ref_vectors = _dense_eigenpairs(rep)
        _assert_same_eigenpairs(values, vectors, ref_values, ref_vectors)


@pytest.mark.parametrize(
    "pair, M, k, budget",
    [(CouplingPair(1e6, 1e6), 64, 4, 712577 / 3), (CouplingPair(1.0, 4.0), 256, 10, 162 / 2)],
)
def test_zero_count_clears_the_roots_by_their_spacing(pair, M, k, budget, monkeypatch):
    # the count's box clears the roots by their own spacing and samples each
    # edge every half its margin: P is sampled at most a third, or half, as
    # often as with a top edge sampled every 0.5 (712577 and 162 samples)
    block_type = coupledwell.oracle._TwoRegionBlock
    secular, winding = block_type.secular, block_type._winding
    counting, calls = [False], [0]

    def counted(self, *args, **kwargs):
        calls[0] += counting[0]
        return secular(self, *args, **kwargs)

    def walked(self, *args):
        counting[0] = True
        try:
            return winding(self, *args)
        finally:
            counting[0] = False

    monkeypatch.setattr(block_type, "secular", counted)
    monkeypatch.setattr(block_type, "_winding", walked)
    coupledwell.oracle._lowest_roots(pair, GridSpec(M), k)
    assert 0 < calls[0] <= budget


def test_uncertified_roots_are_refused(monkeypatch):
    # a zero count that needs more than WINDING_POINTS samples leaves the
    # root set uncertified: refused at every grid size, the dense matrix
    # never built
    monkeypatch.setattr(coupledwell.oracle, "WINDING_POINTS", 10)
    for M in (64, 4096):
        for pair in (UNIT, CouplingPair(25.0, 25.0), CouplingPair(1.0, -4.0)):
            rep = build_hamiltonian(pair, GridSpec(M))
            with pytest.raises(NumericalFailureError, match="zero count of P asks for"):
                eigenpairs(rep, 4)
            assert "matrix" not in vars(rep)


def test_eigenvector_residual_is_checked(monkeypatch):
    # vectors that are not T's eigenvectors fail the O(M) residual check
    # of H, for every coupling class and grid size
    vectors_of = coupledwell.oracle._TwoRegionBlock.eigenvectors
    monkeypatch.setattr(
        coupledwell.oracle._TwoRegionBlock,
        "eigenvectors",
        lambda self, roots: np.roll(vectors_of(self, roots), 1, axis=0),
    )
    for M in (64, 4096):
        for pair in (UNIT, CouplingPair(1.0, -4.0), CouplingPair(0.0, 2.0)):
            with pytest.raises(NumericalFailureError, match="residual"):
                eigenpairs(build_hamiltonian(pair, GridSpec(M)), 4)


@pytest.mark.parametrize("pair", [UNIT, CouplingPair(4.6, 4.6), CouplingPair(1.0, -4.0),
                                  CouplingPair(0.0, 2.0), CouplingPair(0.0, 0.0)])
def test_a_nan_residual_is_refused(pair, monkeypatch):
    # NaN compares False with any bound, so the certificate refuses unless
    # the residual is within it: NaN eigenvectors in eigenpairs, and a NaN
    # centre residual at a root other than the first, which max() would drop
    grid, oracle = GridSpec(64), coupledwell.oracle
    vectors_of, residual_at, calls = oracle._TwoRegionBlock.eigenvectors, oracle._TwoRegionBlock.centre_residual, []

    def second_is_nan(self, root):
        calls.append(root)
        return math.nan if len(calls) == 2 else residual_at(self, root)

    monkeypatch.setattr(oracle._TwoRegionBlock, "eigenvectors", lambda self, roots: vectors_of(self, roots) * np.nan)
    monkeypatch.setattr(oracle._TwoRegionBlock, "centre_residual", second_is_nan)
    with np.errstate(invalid="ignore"), pytest.raises(NumericalFailureError, match="residual"):
        eigenpairs(build_hamiltonian(pair, grid), 4)
    with pytest.raises(NumericalFailureError, match="residual"):
        oracle.eigenvalues(pair, grid, 4)
    assert len(calls) >= 2


def test_eigenvector_residual_bound_follows_the_root_product(monkeypatch):
    # at Y/Z = 1e400 the bound on ||C|| is sqrt(YZ) = 1, not max(|Y|, |Z|)
    # = 1e200, which would admit any residual: a 1e-6 perturbation is caught
    rep = build_hamiltonian(CouplingPair(1e200, 1e-200), GridSpec(64))
    eigenpairs(rep, 4)
    vectors_of = coupledwell.oracle._TwoRegionBlock.eigenvectors

    def perturbed(self, roots):
        v = vectors_of(self, roots)
        return v + 1e-6 * np.roll(v, 1, axis=0)

    monkeypatch.setattr(coupledwell.oracle._TwoRegionBlock, "eigenvectors", perturbed)
    with pytest.raises(NumericalFailureError, match="residual"):
        eigenpairs(rep, 4)


def test_partner_residual_catches_a_perturbed_partner(monkeypatch):
    # the residual of H reads the partner columns that eigenpairs returns:
    # one partner entry off by 1e-6 relative is refused, for every class
    doublets = coupledwell.oracle._doublets

    def perturbed(*args):
        values, vectors = doublets(*args)
        column = values.size // 2 + values.size // 4
        vectors[np.argmax(abs(vectors[:, column])), column] *= 1.0 + 1e-6
        return values, vectors

    monkeypatch.setattr(coupledwell.oracle, "_doublets", perturbed)
    for pair in (UNIT, CouplingPair(4.6, 4.6), CouplingPair(1.0, -4.0), CouplingPair(0.0, 2.0),
                 CouplingPair(2.0, 0.0), CouplingPair(0.0, 0.0)):
        for M in (64, 4096):
            with pytest.raises(NumericalFailureError, match="residual"):
                eigenpairs(build_hamiltonian(pair, GridSpec(M)), 4)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    c=st.floats(min_value=0.0, max_value=30.0, exclude_min=True),
    ratio=st.sampled_from([0.25, 1.0, 4.0]),
    signs=st.sampled_from([(1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0)]),
    jordan=st.sampled_from([None, "Y", "Z"]),
    half_m=st.integers(min_value=4, max_value=64),
    k=st.integers(min_value=1, max_value=12),
)
def test_reduced_and_dense_paths_agree(c, ratio, signs, jordan, half_m, k):
    # every coupling class: YZ > 0 either sign, YZ < 0 either sign, and
    # the Jordan pairs Y = 0 or Z = 0
    y, z = signs[0] * c / math.sqrt(ratio), signs[1] * c * math.sqrt(ratio)
    pair = CouplingPair(0.0 if jordan == "Y" else y, 0.0 if jordan == "Z" else z)
    rep = build_hamiltonian(pair, GridSpec(2 * half_m))
    ref_values, ref_vectors = _dense_eigenpairs(rep)
    values, vectors = eigenpairs(rep, min(k, rep.dim))
    _assert_same_eigenpairs(values, vectors, ref_values, ref_vectors)
    if jordan or signs[0] != signs[1]:
        # a real problem: real values, each doublet exactly degenerate
        assert np.all(values.imag == 0.0)
        assert np.array_equal(values[: values.size // 2 * 2 : 2], values[1::2])


# the classes with YZ = 0: exactly one of Y, Z nonzero (a Jordan block
# of C), or both 0; T is then K alone and each root is listed twice
_DECOUPLED = {"Y = 0": lambda y, z: (0.0, z), "Z = 0": lambda y, z: (y, 0.0), "Y = Z = 0": lambda y, z: (0.0, 0.0)}


def _pair(kind, c, root_ratio):
    """The coupling of class `kind` with Y = c r, Z = c / r before a zero is
    set, or Z negated for YZ < 0."""
    y, z = c * root_ratio, c / root_ratio
    if kind == "YZ < 0":
        return CouplingPair(y, -z)
    return CouplingPair(*_DECOUPLED[kind](y, z)) if kind in _DECOUPLED else CouplingPair(y, z)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    kind=st.sampled_from(["YZ > 0"] * 5 + ["YZ < 0"] * 2 + sorted(_DECOUPLED)),  # half the draws YZ > 0
    log_c=st.floats(math.log(1e-4), math.log(4.4)),
    log2_ratio=st.floats(-4.0, 4.0),
    half_m=st.integers(min_value=4, max_value=8192),
    k=st.integers(min_value=1, max_value=8),
)
@example(kind="YZ > 0", log_c=math.log(4.3923354624117446), log2_ratio=-1.7245, half_m=6, k=6)
@example(kind="YZ > 0", log_c=math.log(1.0), log2_ratio=2.0, half_m=8192, k=4)
@example(kind="YZ > 0", log_c=math.log(1e-4), log2_ratio=0.0, half_m=4, k=8)
@example(kind="Y = 0", log_c=0.0, log2_ratio=0.0, half_m=8192, k=4)
@example(kind="Y = Z = 0", log_c=0.0, log2_ratio=0.0, half_m=4, k=8)
@example(kind="YZ < 0", log_c=math.log(4.4), log2_ratio=4.0, half_m=8192, k=8)
@example(kind="YZ < 0", log_c=math.log(1e-4), log2_ratio=-4.0, half_m=4, k=8)
def test_numpy_free_eigenvalues_are_eigenpairs_values(kind, log_c, log2_ratio, half_m, k):
    # eigenvalues, the numpy-free solve of the verify battery, runs the root
    # search of eigenpairs: the same values, bit for bit, for every class
    pair, grid = _pair(kind, math.exp(log_c), 2.0 ** (log2_ratio / 2)), GridSpec(2 * half_m)
    expected, _ = eigenpairs(build_hamiltonian(pair, grid), k)
    values = coupledwell.oracle.eigenvalues(pair, grid, k)
    assert [type(v) for v in values] == [complex] * len(values)
    assert values == expected.tolist()


def test_complex_root_does_not_depend_on_the_number_asked_for():
    # the deflated Newton stops anywhere in the noise band of P: before the
    # polish on P itself, Re E read ...589, ...628, ...65 and ...59 here
    pair, grid = CouplingPair(4.47, 4.47), GridSpec(16)
    rep = build_hamiltonian(pair, grid)
    lowest = []
    for k in (4, 6, 10, 14):
        values, _ = eigenpairs(rep, k)
        assert coupledwell.oracle.eigenvalues(pair, grid, k) == values.tolist()
        assert values[0].imag < 0 and values[1] == values[0].conjugate()
        lowest.append(complex(values[0]))
    for z in lowest[1:]:
        assert abs(z.real - lowest[0].real) <= 4 * math.ulp(lowest[0].real)
        assert abs(z.imag - lowest[0].imag) <= 4 * math.ulp(lowest[0].imag)


@pytest.mark.parametrize("M", [8, 64, 128])
@pytest.mark.parametrize("c", [1e-4, 0.01, 1.0, 4.4])
def test_numpy_free_residual_refuses_a_moved_root(c, M, monkeypatch):
    # the float residual of T is live: roots moved by 1e-8 relative fail it.
    # Its bound grows as 1 / h^2, so the smallest shift it sees grows with M
    # (at M = 1024, c = 4.4, a 1e-8 shift reads 0.46 of the bound)
    pair, grid = CouplingPair(c, c), GridSpec(M)
    assert coupledwell.oracle.eigenvalues(pair, grid, 4)
    lowest = coupledwell.oracle._TwoRegionBlock.lowest_roots
    monkeypatch.setattr(
        coupledwell.oracle._TwoRegionBlock,
        "lowest_roots",
        lambda self, needed: [r * (1.0 + 1e-8) for r in lowest(self, needed)],
    )
    with pytest.raises(NumericalFailureError, match="residual"):
        coupledwell.oracle.eigenvalues(pair, grid, 4)


@pytest.mark.parametrize("pair", [CouplingPair(1.0, -4.0), CouplingPair(-1e-300, 1e-300)])
def test_numpy_free_eigenvalues_cover_the_negative_product(pair):
    # the roots themselves are the partners, real with a +0.0 imaginary part
    values = coupledwell.oracle.eigenvalues(pair, GridSpec(16), 2)
    assert values == eigenpairs(build_hamiltonian(pair, GridSpec(16)), 2)[0].tolist()
    assert values[0] == values[1] and not math.copysign(1.0, values[1].imag) < 0


def _full_residual(block, root):
    """max |T v - E v| over every row of T, for the unit eigenvector v that
    `_TwoRegionBlock.eigenvectors` builds at root, in O(M) floats: the
    reference of the O(1) `centre_residual`.  With it, eps width max |v|,
    the size of one rounding of a row's largest term."""
    m, sides = block.m, []
    for sign in (-1.0, 1.0):
        _, theta, cos_m, sin_m, sin_t = block._side(root, sign)
        x, y = theta.real, abs(theta.imag)
        profile = []
        for j in range(1, m + 1):
            grow, fade = math.exp((j - m) * y), math.exp(-(j + m) * y)
            profile.append(complex(math.sin(j * x) * (grow + fade) / 2,
                                   math.copysign((grow - fade) / 2, theta.imag) * math.cos(j * x)))
        sides.append((profile, cos_m, sin_m, sin_t))
    (left, cos_l, sin_l, sin_tl), (right, cos_r, sin_r, sin_tr) = sides
    if max(abs(sin_l), abs(sin_r)) >= max(abs(cos_l), abs(cos_r)):
        a, b = sin_r, sin_l
    else:
        a, b = sin_tr * cos_r, -sin_tl * cos_l
    v = [a * u for u in left] + [b * u for u in right[-2::-1]]
    norm = math.sqrt(math.fsum(u.real * u.real + u.imag * u.imag for u in v))
    v = [0j] + [u / norm for u in v] + [0j]  # the Dirichlet ends
    diagonal, sub = block.width / 2, -block.width / 4
    rows = [diagonal + block.shift - root] * (m - 1) + [diagonal - root]
    rows += [diagonal - block.shift - root] * (m - 1)
    residual = max(abs(d * v[i] + sub * (v[i - 1] + v[i + 1])) for i, d in enumerate(rows, 1))
    return residual, sys.float_info.epsilon * block.width * max(map(abs, v))


def test_centre_residual_is_the_full_residual_at_the_roots():
    # every row but the three at the centre holds the recursion of its side:
    # at a true root both read sine rounding, far below the bound (7.1e-10
    # against 2.7e-2 for the full loop at M = 16384, 1.5e-6 of it at M = 8)
    for pair, grid in ((UNIT, GridSpec(8)), (UNIT, GridSpec(16384)), (CouplingPair(0.0, 2.0), GridSpec(512))):
        block, roots = coupledwell.oracle._lowest_roots(pair, grid, 8)
        bound = coupledwell.oracle.RESIDUAL_RTOL * (block.width + (pair.root_product or 2.0))
        for root in roots:
            assert block.centre_residual(root) <= 1e-5 * bound
            assert _full_residual(block, root)[0] <= 1e-5 * bound


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    kind=st.sampled_from(["YZ > 0"] + sorted(_DECOUPLED)),
    log_c=st.floats(math.log(1e-4), math.log(4.4)),
    log2_ratio=st.floats(-4.0, 4.0),
    half_m=st.integers(min_value=4, max_value=8192),
    u=st.floats(-12.0, -6.0),
    sign=st.sampled_from([-1.0, 1.0]),
)
@example(kind="YZ > 0", log_c=0.0, log2_ratio=2.0, half_m=4, u=-8.0, sign=1.0)
@example(kind="Y = 0", log_c=0.0, log2_ratio=0.0, half_m=8192, u=-6.0, sign=-1.0)
def test_centre_residual_follows_the_full_residual_at_moved_roots(kind, log_c, log2_ratio, half_m, u, sign):
    # roots moved by 10^u relative: the O(1) certificate reads what the
    # O(M) loop over every row reads, and both refuse the same roots.
    # Where the loop reads below 1e-6 of the bound, both are sine rounding.
    # Above it they agree within 1e-3 relative, give or take the rounding
    # of a row's largest term that each reads on its own (0.48 of it at
    # most past the 1e-3, over 1468 such roots of 1600 drawn, 325 refused)
    pair, grid = _pair(kind, math.exp(log_c), 2.0 ** (log2_ratio / 2)), GridSpec(2 * half_m)
    block, roots = coupledwell.oracle._lowest_roots(pair, grid, 8)
    h2 = grid.h * grid.h
    bound = coupledwell.oracle.RESIDUAL_RTOL * (4.0 / h2 + (pair.root_product or max(abs(pair.Y), abs(pair.Z))))
    for root in roots:
        moved = root * (1.0 + sign * 10.0**u)
        (full, rounding), centre = _full_residual(block, moved), block.centre_residual(moved)
        if full > 1e-6 * bound:
            assert abs(centre - full) <= 1e-3 * full + rounding
        if abs(full / bound - 1.0) > 1e-3:
            assert (centre > bound) == (full > bound)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(m=st.integers(min_value=4, max_value=8192), levels=st.integers(min_value=1, max_value=64))
def test_real_grid_is_numpy_s_bit_for_bit(m, levels):
    # the root search's real grid, uniform in theta, is built in floats: the
    # same points, bit for bit, as numpy's arange and sin give
    phi_top = min(levels * math.pi / (2 * m), math.pi - math.pi / (4 * m))
    phi = np.arange(math.pi / (4 * m), phi_top, math.pi / (16 * m))
    ours = _arange(math.pi / (4 * m), phi_top, math.pi / (16 * m))
    assert [p.hex() for p in ours] == [p.hex() for p in phi.tolist()]
    assert [math.sin(p / 2) for p in ours] == np.sin(phi / 2).tolist()
