"""The invariant battery as a library call: `Check` records, and the
records the `verify` subcommand prints."""

import contextlib
import dataclasses
import io
import json
import math
from dataclasses import asdict

import numpy as np

import pytest
from hypothesis import given, settings, strategies as st

from coupledwell import (
    Check,
    CouplingPair,
    GridSpec,
    MetricConstraintError,
    ModelDomainError,
    NumericalFailureError,
    RootLostError,
    build_hamiltonian,
    discrete_theta,
    eigenpairs,
    spin_operator,
    verify,
)
from coupledwell.cli import main
from coupledwell.oracle import _entry_max, _spin_commutator_max, _swap_reflect_defect


def records(checks):
    return [dict(asdict(c), passed=c.passed) for c in checks]


def cli_verify(Y, Z, levels, grid):
    out, err = io.StringIO(), io.StringIO()
    argv = ["verify", "--Y", repr(Y), "--Z", repr(Z), "--levels", str(levels),
            "--grid", str(grid), "--format", "json"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def same_records(library, printed):
    # compared as JSON text: the key order counts, and NaN equals NaN
    return json.dumps(records(library)) == json.dumps(printed)


@pytest.mark.parametrize(
    "Y, Z, levels, grid",
    [(1.0, 4.0, 6, 128), (0.1, 0.1, 6, 128), (2.3, 0.7, 6, 512), (1.0, 1.0, 4, 64)],
)
def test_library_records_are_the_cli_json(Y, Z, levels, grid):
    checks = verify(CouplingPair(Y, Z), levels, GridSpec(grid))
    code, out, err = cli_verify(Y, Z, levels, grid)
    payload = json.loads(out)
    assert same_records(checks, payload["checks"])
    assert payload["all_passed"] is all(c.passed for c in checks)
    assert code == (0 if payload["all_passed"] else 4) and err == ""
    assert [type(c.value) for c in checks] == [float] * len(checks)


@pytest.mark.parametrize("c", [1e-200, 1e-100])
def test_tiny_coupling_is_refused_by_the_metric_family(c):
    # at 1e-200 YZ underflows to 0, which is not the decoupled branch; at
    # 1e-100 the perturbation ratio would divide 0 by 0
    with pytest.raises(MetricConstraintError, match="below 1e-06"):
        verify(CouplingPair(c, c), 4, GridSpec(64))


def test_every_check_passes_at_small_coupling():
    # matching residual 1.8e-12 > 1e-12 here when sin kappa and cos kappa
    # come from the rounded s rather than from eps
    checks = verify(CouplingPair(0.1, 0.1), 6, GridSpec(128))
    assert [check.name for check in checks if not check.passed] == []


@pytest.mark.parametrize("levels", [2, 6, 12])
@pytest.mark.parametrize("c", [1e-4, 1e-3, 7e-3, 0.01, 0.3, 0.55, 1.0, 4.4])
def test_every_check_passes_across_the_coupling_range(c, levels):
    checks = verify(CouplingPair(c, c), levels, GridSpec(128))
    assert [check.name for check in checks if not check.passed] == []


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    log_c=st.floats(math.log(1e-3), math.log(4.4)),
    log_ratio=st.floats(math.log(0.25), math.log(4.0)),
    levels=st.integers(1, 6),
    half_grid=st.integers(8, 64),
)
def test_cli_prints_the_library_battery(log_c, log_ratio, levels, half_grid):
    # Y Z = c^2 and Y / Z = ratio; no claim that the checks pass
    c, root_ratio = math.exp(log_c), math.exp(log_ratio / 2)
    Y, Z, grid = c * root_ratio, c / root_ratio, 2 * half_grid
    checks = verify(CouplingPair(Y, Z), levels, GridSpec(grid))
    code, out, _ = cli_verify(Y, Z, levels, grid)
    assert same_records(checks, json.loads(out)["checks"])
    assert code == (0 if all(c.passed for c in checks) else 4)


@pytest.mark.parametrize("comparison, passed", [("<=", True), (">", False)])
def test_check_at_its_bound(comparison, passed):
    assert Check("x", 1e-12, 1e-12, comparison).passed is passed


@pytest.mark.parametrize("comparison", ["<=", ">"])
def test_nan_never_passes(comparison):
    assert not Check("x", math.nan, 0.0, comparison).passed
    assert not Check("x", math.nan, math.inf, comparison).passed


def test_check_rejects_an_unknown_comparison():
    with pytest.raises(ValueError, match="comparison"):
        Check("x", 0.0, 1.0, "<")


@pytest.mark.parametrize("Y, Z", [(0.0, 0.0), (0.0, 3.0), (1.0, -1.0)])
def test_battery_needs_a_positive_product(Y, Z):
    with pytest.raises(ModelDomainError, match="YZ > 0"):
        verify(CouplingPair(Y, Z), 2, GridSpec(16))


def test_root_lost_above_critical_propagates():
    with pytest.raises(RootLostError):
        verify(CouplingPair(6.0, 6.0), 2, GridSpec(16))


def _edits(rep):
    """rep and copies whose bands break the swap-reflect symmetry."""
    m = rep.step.size
    return [
        rep,
        dataclasses.replace(rep, step=np.where(np.arange(m) == 1, 0.5, rep.step)),
        dataclasses.replace(rep, diagonal=rep.diagonal + np.linspace(0.0, 3.0, m)),
        dataclasses.replace(rep, sub=rep.sub * np.linspace(1.0, 1.5, m - 1)),
    ]


@pytest.mark.parametrize("M", [8, 16, 98])
@pytest.mark.parametrize("Y, Z", [(1.0, 4.0), (2.3, 0.7), (0.1, 0.1), (1e-3, 7.0)])
def test_band_structure_checks_are_the_dense_ones(M, Y, Z):
    # the battery reads S H S = H^dagger and [H, spin] off the bands;
    # here the dense products of `.matrix` must give the same numbers,
    # bit for bit, on the built operator (both 0) and on edited bands
    for rep in _edits(build_hamiltonian(CouplingPair(Y, Z), GridSpec(M))):
        h = rep.matrix
        swap = discrete_theta(rep.grid).matrix
        omega = np.kron(spin_operator(rep.coupling).matrix, np.eye(rep.dim // 2))
        assert _swap_reflect_defect(rep) == np.max(np.abs(swap @ h @ swap - h.conj().T))
        assert _spin_commutator_max(rep) == np.max(np.abs(h @ omega - omega @ h))
        assert _entry_max(rep) == np.max(np.abs(h))
    assert _swap_reflect_defect(build_hamiltonian(CouplingPair(Y, Z), GridSpec(M))) == 0.0


@pytest.mark.parametrize("Y, Z", [(1.0, -1.0), (0.0, 2.0), (1.0, 4.0)])
def test_eigenpairs_refuses_bands_that_break_the_symmetry(Y, Z):
    # the band check runs before either solve: YZ < 0 and the Jordan
    # coupling (0, 2) take the dense solve, YZ > 0 the secular one
    built, *edited = _edits(build_hamiltonian(CouplingPair(Y, Z), GridSpec(16)))
    eigenpairs(built, 4)
    for rep in edited:
        with pytest.raises(NumericalFailureError, match="pseudo-Hermiticity violated"):
            eigenpairs(rep, 4)


def test_battery_builds_no_dense_matrix(monkeypatch):
    # verify at M = 16384 reads only bands: the dense matrix would take 17 GB
    from coupledwell import oracle

    def refuse(self):
        raise AssertionError("the battery assembled the dense matrix")

    monkeypatch.setattr(oracle.BandedHamiltonian, "matrix", property(refuse))
    checks = verify(CouplingPair(1.0, 4.0), 4, GridSpec(16384))
    assert [check.name for check in checks if not check.passed] == []
    by_name = {check.name: check.value for check in checks}
    assert by_name["discrete swap-reflect pseudo-Hermiticity defect"] == 0.0
    assert by_name["discrete commutator [H, spin] max"] == 0.0
    assert by_name["oracle lowest eigenvalues |Im| max"] == 0.0
