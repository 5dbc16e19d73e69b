"""Acceptance battery: ten go/no-go checks with stated tolerances.

Each test prints one [PASS]/[FAIL] line (visible with pytest -s, or in
the captured output on failure) so the battery reads as a checklist.
Frozen numbers come from an independent 40-digit evaluation.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from coupledwell import (
    CouplingPair,
    GridSpec,
    MetricWeights,
    NumericalFailureError,
    biorthogonality_matrix,
    build_hamiltonian,
    build_theta_metric,
    critical_coupling,
    criticality_scan,
    doublet_family,
    eigenpairs,
    first_complex_bracket,
    inverse_identity_defect,
    mode_hamiltonian,
    mode_spin,
    perturbative_eps,
    quasi_hermiticity_defect,
    solve_coefficients,
    solve_level,
    spectrum,
)
from coupledwell.oracle import _cut, _group_degenerate
from test_doublet_reference import apply_theta, discrete_theta, spin_block

C_CRIT_PAIR0 = 4.475308602193255


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {num}: {desc}")
        raise
    print(f"[PASS] criterion {num}: {desc}")


def test_criterion_01_decoupled_ladder_exact():
    with criterion(1, "decoupled levels reproduce the box ladder to 1e-12 in under 1s"):
        start = time.monotonic()
        pair = CouplingPair(0.0, 0.0)
        for n in range(10):
            lvl = solve_level(n, pair)
            assert abs(lvl.s - (n + 1) * math.pi / 2) <= 1e-12
            assert abs(lvl.E - (n + 1) ** 2 * math.pi**2 / 4) <= 1e-12
        assert time.monotonic() - start < 1.0


def test_criterion_02_unit_coupling_roots():
    with criterion(2, "ten lowest roots at Y=Z=1: residual <= 1e-12, |2st-1| <= 1e-10, under 1s"):
        start = time.monotonic()
        pair = CouplingPair(1.0, 1.0)
        for n in range(10):
            lvl = solve_level(n, pair)
            assert abs(lvl.residual) <= 1e-12
            assert abs(2.0 * lvl.s * lvl.t - 1.0) <= 1e-10
        assert time.monotonic() - start < 1.0


def test_criterion_03_perturbative_series():
    with criterion(3, "order-2 displacement: rel err <= 1e-4 at n=9, remainder*(n+1)^7 bounded"):
        start = time.monotonic()
        pair = CouplingPair(1.0, 1.0)
        lvl9 = solve_level(9, pair)
        rel = abs(lvl9.eps - perturbative_eps(9, pair, order=2)) / lvl9.eps
        assert rel <= 1e-4
        scaled = []
        for n in range(4, 15):
            lvl = solve_level(n, pair)
            scaled.append(abs(lvl.eps - perturbative_eps(n, pair, order=2)) * (n + 1) ** 7)
        assert max(scaled) < 0.02
        assert time.monotonic() - start < 1.0


def test_criterion_04_critical_coupling_both_routes():
    with criterion(4, "lowest merger at 4.48 +- 0.02, inside the M=512 oracle bracket, under 60s"):
        start = time.monotonic()
        result = critical_coupling(0, tol=0.01)
        assert abs(result.c_crit - 4.48) <= 0.02
        assert abs(result.c_crit - C_CRIT_PAIR0) <= 0.01
        scan = criticality_scan([4.3, 4.4, 4.5, 4.6], GridSpec(512))
        lo, hi = first_complex_bracket(scan)
        assert lo < result.c_crit < hi
        assert lo < C_CRIT_PAIR0 < hi
        assert time.monotonic() - start < 60.0


def test_criterion_05_oracle_spectrum_agreement():
    with criterion(5, "M=512 oracle: lowest levels real, paired, rel err <= 5e-3, order 2.0 +- 0.2, under 30s"):
        start = time.monotonic()
        pair = CouplingPair(1.0, 1.0)
        levels = spectrum(pair, 3).levels
        fine, _ = eigenpairs(build_hamiltonian(pair, GridSpec(512)), 8)
        coarse, _ = eigenpairs(build_hamiltonian(pair, GridSpec(256)), 8)
        assert np.abs(fine.imag).max() < 1e-6
        for i in range(4):
            a, b = fine[2 * i], fine[2 * i + 1]
            assert abs(a - b) < 1e-6
            assert abs(a.real - levels[i].E) / levels[i].E <= 5e-3
        clusters = _group_degenerate(fine)
        assert [m for _, m in clusters] == [2, 2, 2, 2]
        for i in range(4):
            err_f = abs(clusters[i][0].real - levels[i].E)
            coarse_clusters = _group_degenerate(coarse)
            err_c = abs(coarse_clusters[i][0].real - levels[i].E)
            assert abs(math.log2(err_c / err_f) - 2.0) <= 0.2
        assert time.monotonic() - start < 30.0


def test_criterion_06_doublet_amplitude_ratio():
    with criterion(6, "doublet members share E exactly and satisfy A/B = sigma sqrt(Z/Y) to 1e-10"):
        for y, z in [(1.0, 1.0), (1.0, 4.0), (4.0, 1.0), (0.5, 2.0), (3.0, 0.3)]:
            pair = CouplingPair(y, z)
            for n in range(6):
                lvl = solve_level(n, pair)
                plus = solve_coefficients(lvl, pair, +1)
                minus = solve_coefficients(lvl, pair, -1)
                assert plus.level.E == minus.level.E
                for st in (plus, minus):
                    assert abs(st.A / st.B - st.sigma * math.sqrt(z / y)) <= 1e-10


def test_criterion_07_biorthogonality():
    with criterion(7, "N=6 biorthogonality: off-diagonal <= 1e-9 of max diagonal, diagonals positive"):
        states = doublet_family(CouplingPair(1.0, 1.0), 6)
        for method in ("closed", "quadrature"):
            mat = np.asarray(biorthogonality_matrix(states, method=method))
            diag = np.diag(mat).real
            assert np.all(diag > 0.0)
            off = mat - np.diag(np.diag(mat))
            assert np.abs(off).max() <= 1e-9 * diag.max()


def test_criterion_08_metric_family():
    with criterion(8, "N=16 metrics: Hermitian exactly, positive, defects <= 1e-8, inverse <= 1e-8"):
        for y, z in [(1.0, 1.0), (2.0, 2.0), (1.0, 4.0)]:
            states = doublet_family(CouplingPair(y, z), 16)
            theta = build_theta_metric(states, MetricWeights.unit(16))
            assert np.abs(theta.matrix - theta.matrix.conj().T).max() == 0.0
            assert np.linalg.eigvalsh(theta.matrix).min() > 0.0
            assert quasi_hermiticity_defect(mode_hamiltonian(states), theta) <= 1e-8
            assert quasi_hermiticity_defect(mode_spin(states), theta) <= 1e-8
            assert inverse_identity_defect(theta, states, MetricWeights.unit(16)) <= 1e-8
            if y == z:
                # equal weights kill the channel mixing identically
                for kernel in theta.meta["channel_kernels"]:
                    assert kernel[0, 1] == 0.0 and kernel[1, 0] == 0.0


def test_criterion_09_structural_identities():
    with criterion(9, "swap-reflect involution, S H S = H^dagger, [H, spin] = 0, pairing asserted"):
        xs = np.linspace(-1.0, 1.0, 101)
        st = doublet_family(CouplingPair(1.0, 4.0), 1)[0]
        up2, low2 = apply_theta(*apply_theta(st.upper, st.lower))
        assert np.array_equal(up2(xs), st.upper(xs))
        assert np.array_equal(low2(xs), st.lower(xs))
        for m in (16, 64):
            grid = GridSpec(m)
            s = discrete_theta(grid).matrix
            for y, z in [(1.0, 1.0), (1.0, 4.0), (2.3, 0.7)]:
                h = build_hamiltonian(CouplingPair(y, z), grid).matrix
                assert np.abs(s @ h @ s - h.conj().T).max() == 0.0
        for y, z in [(1.5, 1.5), (1.0, 4.0)]:
            grid = GridSpec(32)
            h = build_hamiltonian(CouplingPair(y, z), grid).matrix
            omega = np.kron(spin_block(CouplingPair(y, z)), np.eye(grid.n_interior))
            assert np.abs(h @ omega - omega @ h).max() == 0.0
        # the reality guard runs on every eigensolve, also above critical
        eigenpairs(build_hamiltonian(CouplingPair(25.0, 25.0), GridSpec(64)), 4)
        with pytest.raises(NumericalFailureError):
            _cut(np.array([1.0 + 1.0j, 0.0, 2.0]), np.eye(3), 1)


def test_criterion_10_negative_product_branch():
    with criterion(10, "negative product branch: t = 0, s = (n+1)pi/2 and E = s^2 +- sqrt(-YZ) exact"):
        pair = CouplingPair(1.0, -1.0)
        res = spectrum(pair, 5)
        assert res.truncated_at is None
        for lvl in res.levels:
            s = (lvl.n + 1) * math.pi / 2
            assert lvl.t == 0.0
            assert lvl.s == s
            assert lvl.E == s * s + lvl.sublabel * 1.0
        # doublet ordering: -1 member first at every n
        assert [l.sublabel for l in res.levels[:4]] == [-1, +1, -1, +1]
