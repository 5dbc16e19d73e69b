"""The invariant battery as a library call: `Check` records, and the
records the `verify` subcommand prints."""

import contextlib
import io
import json
import math
import warnings
from dataclasses import asdict

import numpy as np

import pytest
from hypothesis import example, given, settings, strategies as st

from coupledwell import (
    MIN_ROOT_PRODUCT,
    Check,
    CouplingPair,
    GridSpec,
    MetricConstraintError,
    ModelDomainError,
    RootLostError,
    biorthogonality_matrix,
    build_hamiltonian,
    build_theta_metric,
    doublet_family,
    inverse_identity_defect,
    mode_hamiltonian,
    mode_spin,
    perturbative_eps,
    quasi_hermiticity_defect,
    verify,
)
from coupledwell.cli import main
from coupledwell.oracle import _spin_commutator_max, _swap_reflect_defect
from coupledwell.wavefunctions import channel_weights, phi_bilinear_product
from test_doublet_reference import discrete_theta, spin_block


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


@pytest.mark.parametrize("Y, Z, error", [
    # sqrt(Y/Z) or sqrt(Z/Y) leaves the float range: the spin block refuses
    # before the coefficient-ratio row would read nan
    (1e305, 1e-316, ModelDomainError),
    (1e-316, 1e305, ModelDomainError),
    # Y (S+ + S-) or Z (S+ + S-) overflows: the metric family refuses first
    (1e308, 1e-318, MetricConstraintError),
    (1e-318, 1e308, MetricConstraintError),
])
def test_battery_refuses_a_channel_ratio_out_of_the_float_range(Y, Z, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            verify(CouplingPair(Y, Z), 2, GridSpec(64))


@pytest.mark.parametrize("Y, Z", [(0.0, 0.0), (0.0, 3.0), (1.0, -1.0)])
def test_battery_needs_a_positive_product(Y, Z):
    with pytest.raises(ModelDomainError, match="YZ > 0"):
        verify(CouplingPair(Y, Z), 2, GridSpec(16))


def test_root_lost_above_critical_propagates():
    with pytest.raises(RootLostError):
        verify(CouplingPair(6.0, 6.0), 2, GridSpec(16))


@pytest.mark.parametrize("M", [8, 16, 98])
@pytest.mark.parametrize("Y, Z", [(1.0, 4.0), (2.3, 0.7), (0.1, 0.1), (1e-3, 7.0)])
def test_band_structure_checks_are_the_dense_ones(M, Y, Z):
    # the battery reads S H S = H^dagger and [H, spin] off the bands;
    # here the dense products of `.matrix` must give the same numbers,
    # bit for bit
    rep = build_hamiltonian(CouplingPair(Y, Z), GridSpec(M))
    h = rep.matrix
    swap = discrete_theta(rep.grid).matrix
    omega = np.kron(spin_block(rep.coupling), np.eye(rep.dim // 2))
    assert _swap_reflect_defect(rep.coupling, rep.grid) == np.max(np.abs(swap @ h @ swap - h.conj().T)) == 0.0
    assert _spin_commutator_max(rep.coupling) == np.max(np.abs(h @ omega - omega @ h))


def test_spin_commutator_bound_follows_the_root_product(monkeypatch):
    # at (1e200, 1e-200) the commutator's terms are +-sqrt(YZ) d = +-d,
    # while max |H_ij| is 1e200: a bound relative to the entries would
    # pass a spin ratio off by 1e-10
    from coupledwell import _weights

    name = "discrete commutator [H, spin] max"
    coupling, grid = CouplingPair(1e200, 1e-200), GridSpec(64)
    assert {c.name: c for c in verify(coupling, 2, grid)}[name].passed
    spin = _weights.spin_ratio
    monkeypatch.setattr(_weights, "spin_ratio", lambda pair: spin(pair) * (1.0 + 1e-10))
    check = {c.name: c for c in verify(coupling, 2, grid)}[name]
    assert not check.passed and check.bound == 1e-14


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


def test_battery_expands_no_step(monkeypatch):
    # the structure rows read the step by its three runs: at M = 2^22 no
    # list of its 4 million node values is built
    from coupledwell import oracle

    def refuse(grid):
        raise AssertionError("the battery expanded the step node by node")

    monkeypatch.setattr(oracle, "_node_steps", refuse)
    checks = verify(CouplingPair(1.0, 4.0), 4, GridSpec(2**22))
    assert [check.name for check in checks if not check.passed] == []


RATIO = "perturbation order-2/order-1 error ratio"


@pytest.mark.parametrize("levels", ["13", "14"])
def test_perturbation_ratio_is_left_out_at_the_rounding_of_eps(levels, capsys):
    # c = 1e-6: eps is within 1 ulp of its 40-digit root at n = 12 and 13,
    # and |eps - eps_1| reads 0.0 at n = 12 (the row divided by zero) and one
    # ulp of eps at n = 13 (a ratio of 2.0 between two rounding errors, exit
    # 4): below battery.RATIO_FLOOR_ULPS the row is left out and the rest pass
    code = main(["verify", "--Y", "1e-6", "--Z", "1e-6", "--levels", levels])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert RATIO not in out and out.endswith("OK: 16/16 checks passed\n")


def test_perturbation_ratio_keeps_its_value_where_resolvable():
    # above the floor the row is the error ratio as before, bound 1
    checks = {c.name: c for c in verify(CouplingPair(0.1, 0.1), 6, GridSpec(128))}
    level = doublet_family(CouplingPair(0.1, 0.1), 6)[-1].level
    err1 = abs(level.eps - perturbative_eps(5, CouplingPair(0.1, 0.1), order=1))
    err2 = abs(level.eps - perturbative_eps(5, CouplingPair(0.1, 0.1), order=2))
    assert checks[RATIO].value == err2 / err1 and checks[RATIO].bound == 1.0


@settings(max_examples=50, derandomize=True, deadline=None)
@given(
    log_c=st.floats(math.log(1e-6), math.log(4.4)),
    log2_ratio=st.floats(-20.0, 20.0),
    levels=st.integers(1, 40),
    half_grid=st.integers(4, 2048),
)
# c = 1.0000000000000004e-06 and 2.000000000000001e-06: |eps - eps_1| = 0.0
# at n = 12 and n = 20 (the ZeroDivisionError) and 3 ulp of eps at n = 13
@example(log_c=math.log(1e-6), log2_ratio=0.0, levels=13, half_grid=64)
@example(log_c=math.log(1e-6), log2_ratio=0.0, levels=14, half_grid=64)
@example(log_c=math.log(2e-6), log2_ratio=0.0, levels=21, half_grid=64)
@example(log_c=math.log(4.4), log2_ratio=20.0, levels=40, half_grid=2048)
def test_every_check_passes_or_is_refused_over_the_domain(log_c, log2_ratio, levels, half_grid):
    # Y Z = c^2 and Y / Z = 2^log2_ratio: each request passes every row or
    # raises the documented refusal, MetricConstraintError where sqrt(YZ)
    # rounds below MIN_ROOT_PRODUCT
    c, root_ratio = math.exp(log_c), 2.0 ** (log2_ratio / 2)
    coupling = CouplingPair(c * root_ratio, c / root_ratio)
    if coupling.root_product < MIN_ROOT_PRODUCT:
        with pytest.raises(MetricConstraintError, match="below 1e-06"):
            verify(coupling, levels, GridSpec(2 * half_grid))
        return
    checks = verify(coupling, levels, GridSpec(2 * half_grid))
    assert [check.name for check in checks if not check.passed] == []


def reference_pairing_row(states):
    # the row as the difference form gives it: the O(N^2) loop of scalar
    # pairings, each with four complex sines, over i != j
    wu, wl = channel_weights(+1, states[0].Y, states[0].Z)
    factor = wl * wu + wu * wl
    plus = states[0::2]
    off = max((abs(factor * phi_bilinear_product(a, b)) for i, a in enumerate(plus)
               for j, b in enumerate(plus) if i != j), default=0.0)
    return off / max(s.d for s in states)


def _coupling(log_c, log_ratio):
    # Y Z = c^2 and Y / Z = e^log_ratio
    c, root_ratio = math.exp(log_c), math.exp(log_ratio / 2)
    return CouplingPair(c * root_ratio, c / root_ratio)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    log_c=st.floats(math.log(1e-4), math.log(4.4)),
    log_ratio=st.floats(math.log(1e-3), math.log(1e3)),
    levels=st.integers(1, 60),
)
@example(log_c=math.log(4.4), log_ratio=math.log(1e3), levels=40)
def test_pairing_row_is_the_difference_form_loop(log_c, log_ratio, levels):
    # the rank-2 entries and the scalar's difference form round the same
    # off-diagonal noise differently: the rows agree within one ulp of 1, the
    # diagonal's scale (0.497 ulp at most over 706 seeded draws of up to
    # 500 levels)
    coupling = _coupling(log_c, log_ratio)
    rows = {check.name: check.value for check in verify(coupling, levels, GridSpec(16))}
    reference = reference_pairing_row(doublet_family(coupling, levels))
    assert abs(rows["biorthogonal off-diagonal / max diagonal"] - reference) <= math.ulp(1.0)


@settings(max_examples=10, derandomize=True, deadline=None)
@given(
    log_c=st.floats(math.log(1e-4), math.log(4.4)),
    log_ratio=st.floats(math.log(0.25), math.log(4.0)),
    levels=st.integers(1, 500),
)
@example(log_c=math.log(4.4), log_ratio=0.0, levels=500)
@example(log_c=math.log(1e-4), log_ratio=math.log(4.0), levels=500)
def test_every_check_passes_up_to_500_levels(log_c, log_ratio, levels):
    checks = verify(_coupling(log_c, log_ratio), levels, GridSpec(128))
    assert [check.name for check in checks if not check.passed] == []


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    log_c=st.floats(math.log(1e-4), math.log(4.4)),
    log_ratio=st.floats(math.log(1e-3), math.log(1e3)),
    levels=st.integers(1, 40),
)
@example(log_c=math.log(4.4), log_ratio=math.log(1e3), levels=40)
def test_metric_rows_are_the_numpy_api(log_c, log_ratio, levels):
    # the battery's float rows against the public numpy functions they twin.
    # The off-diagonal pairing is rounding noise, which numpy's broadcast in
    # the closed pairing and CPython's scalar arithmetic round differently,
    # both in the rank-2 form with its operations in one order: the ratio rows
    # agree within a quarter ulp of 1, the diagonal's scale (2.4e-17 at most
    # over 400 seeded draws of this domain).  The defects
    # agree exactly: the identity defect is one body, and both
    # quasi-Hermiticity defects read 0.0
    c, root_ratio = math.exp(log_c), math.exp(log_ratio / 2)
    coupling = CouplingPair(c * root_ratio, c / root_ratio)
    rows = {check.name: check.value for check in verify(coupling, levels, GridSpec(16))}
    states = doublet_family(coupling, levels)
    pairing = biorthogonality_matrix(states)
    diagonal = np.diag(pairing)
    ratio = np.abs(pairing - np.diag(diagonal)).max() / np.abs(diagonal).max()
    assert abs(rows["biorthogonal off-diagonal / max diagonal"] - ratio) <= math.ulp(1.0) / 4
    theta = build_theta_metric(states)
    for name, operator in (("Hamiltonian", mode_hamiltonian), ("spin observable", mode_spin)):
        assert rows[f"quasi-Hermiticity defect ({name})"] == quasi_hermiticity_defect(operator(states), theta)
    assert rows["inverse metric identity defect"] == inverse_identity_defect(theta, states)
