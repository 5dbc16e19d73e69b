"""Command-line interface: formats, determinism, exit codes."""

import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from coupledwell import CouplingPair, build_hamiltonian, eigenpairs, solve_level, spectrum
from coupledwell._ranges import _linspace
from coupledwell.cli import main
from test_oracle import _DECOUPLED, _pair

C_CRIT_PAIR0 = 4.475308602193255


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_json_round_trip(capsys):
    code, out, err = run(capsys, "spectrum", "--Y", "1", "--Z", "1", "--levels", "2")
    assert code == 0 and err == ""
    records = json.loads(out)
    assert [r["n"] for r in records] == [0, 1]
    lvl0 = solve_level(0, CouplingPair(1.0, 1.0))
    # full float precision survives the JSON round trip
    assert records[0]["s"] == lvl0.s
    assert records[0]["E"] == lvl0.E
    assert records[0]["branch"] == "POSITIVE_PRODUCT"
    assert records[0]["sublabel"] is None


def test_spectrum_csv_has_exactly_seven_columns(capsys):
    code, out, _ = run(capsys, "spectrum", "--Y", "1", "--Z", "1",
                       "--levels", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "s", "t", "eps", "E", "residual", "branch"]
    assert all(len(row) == 7 for row in rows)
    assert len(rows) == 4


def test_spectrum_negative_branch_csv_pairs_rows(capsys):
    code, out, _ = run(capsys, "spectrum", "--Y", "1", "--Z", "-1",
                       "--levels", "1", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 3  # header + both doublet members of n = 0
    s = math.pi / 2
    assert float(rows[1][4]) == s * s - 1.0
    assert float(rows[2][4]) == s * s + 1.0


def test_spectrum_is_byte_identical_across_runs(capsys):
    args = ("spectrum", "--Y", "0.8", "--Z", "1.3", "--levels", "4")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_spectrum_above_critical_exits_3(capsys):
    code, out, err = run(capsys, "spectrum", "--Y", "5", "--Z", "5")
    assert code == 3
    assert json.loads(out) == []
    assert "root lost" in err


def test_spectrum_tiny_coupling_keeps_each_root_in_its_cell(capsys):
    code, out, _ = run(capsys, "spectrum", "--Y", "1e-8", "--Z", "1e-8", "--levels", "2")
    assert code == 0
    second = json.loads(out)[1]
    assert second["n"] == 1
    assert abs(second["E"] - math.pi**2) <= 1e-9 * math.pi**2


def test_spectrum_overflowing_coupling_exits_3(capsys):
    # at 1e200 the float product YZ is inf, sqrt(YZ) = 1e200 is not
    for amplitude in ("3000", "1e200"):
        code, out, err = run(capsys, "spectrum", "--Y", amplitude, "--Z", amplitude,
                             "--levels", "1")
        assert code == 3
        assert out == "[]\n"
        assert "root lost" in err


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_spectrum_overflowing_negative_product_prints_finite_energies(capsys):
    code, out, err = run(capsys, "spectrum", "--Y", "1e200", "--Z", "-1e200", "--levels", "2")
    assert code == 0 and err == ""
    assert [r["E"] for r in strict_json(out)] == [-1e200, 1e200, -1e200, 1e200]


def test_spectrum_underflowing_product_is_the_positive_branch(capsys):
    # YZ = 0 in floats, but neither amplitude is 0: box levels, no Jordan block
    code, out, err = run(capsys, "spectrum", "--Y", "1e-200", "--Z", "1e-200", "--levels", "2")
    assert code == 0 and err == ""
    records = strict_json(out)
    assert [r["branch"] for r in records] == ["POSITIVE_PRODUCT"] * 2
    assert [r["E"] for r in records] == [((n + 1) * math.pi / 2.0) ** 2 for n in range(2)]


def test_spectrum_jordan_warning(capsys):
    code, out, err = run(capsys, "spectrum", "--Y", "0", "--Z", "3", "--levels", "1")
    assert code == 0
    assert "Jordan" in err
    assert len(json.loads(out)) == 2


def test_validation_errors_exit_2(capsys):
    code, _, err = run(capsys, "critical", "--tol", "0")
    assert code == 2 and "error:" in err
    code, _, _ = run(capsys, "spectrum", "--Y", "1")  # missing --Z
    assert code == 2
    code, _, _ = run(capsys, "nonsense")
    assert code == 2


@pytest.mark.parametrize(
    "command",
    [
        ["spectrum", "--Y", "1", "--Z", "4"],
        ["scan", "--c-min", "0", "--c-max", "1"],
        ["oracle", "--Y", "1", "--Z", "4"],
        ["metric", "--Y", "1", "--Z", "4"],
        ["verify", "--Y", "1", "--Z", "4"],
    ],
    ids=lambda command: command[0],
)
@pytest.mark.parametrize("levels", ["0", "-3", "2.0", "two"])
def test_level_count_error_names_the_flag_and_value(capsys, command, levels):
    # not the secular layer's "n_max ... got -1" for --levels 0
    code, out, err = run(capsys, *command, "--levels", levels)
    assert code == 2 and out == ""
    assert f"argument --levels: must be an integer >= 1, got {levels}" in err
    assert "n_max" not in err


@pytest.mark.parametrize(
    "command",
    [
        ["spectrum", "--Y", "1", "--Z", "4"],
        ["critical"],
        ["metric", "--Y", "1", "--Z", "4"],
        ["verify", "--Y", "1", "--Z", "4"],
        ["scan", "--c-min", "0", "--c-max", "1"],
        ["oracle", "--Y", "1", "--Z", "4"],
    ],
    ids=lambda command: command[0],
)
@pytest.mark.parametrize("tol", ["0", "nan", "2", "-0.5", "inf", "tiny"])
def test_tolerance_error_names_the_flag_and_value(capsys, command, tol):
    # only critical takes --tol (a bracket width); the level solver's
    # residual bound is a constant, so the others refuse the flag
    code, out, err = run(capsys, *command, "--tol", tol)
    assert code == 2 and out == ""
    if command[0] == "critical":
        assert f"argument --tol: must be a number in (0, 1), got {tol}" in err
    else:
        assert f"unrecognized arguments: --tol {tol}" in err


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0


def test_critical_default_tolerance(capsys):
    code, out, _ = run(capsys, "critical")
    assert code == 0
    payload = json.loads(out)
    assert payload["pair_index"] == 0
    assert payload["bracket_width"] <= 1e-3
    assert abs(payload["c_crit"] - C_CRIT_PAIR0) <= 1e-3
    assert payload["evaluations"] > 0


def test_critical_answers_up_to_the_last_resolved_pair_and_refuses_past_it(capsys):
    code, out, _ = run(capsys, "critical", "--pair", "20000")
    assert code == 0 and 2.0**19 < json.loads(out)["c_crit"] < 2.0**20
    code, out, _ = run(capsys, "critical", "--pair", "30317")
    assert code == 0 and 1e6 < json.loads(out)["c_crit"] < 2.0**20
    code, out, _ = run(capsys, "critical", "--pair", "85445658")
    assert code == 0 and json.loads(out)["pair_index"] == 85445658
    for pair in ("85445659", str(2**1100)):
        code, out, err = run(capsys, "critical", "--pair", pair)
        assert code == 2 and out == ""
        assert f"pair_index must be an integer in [0, 85445658], got {pair}" in err


def test_metric_json_structure(capsys):
    code, out, _ = run(capsys, "metric", "--Y", "1", "--Z", "4", "--levels", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["signature"] == [4, 0]
    assert payload["order"] == [[0, 1], [0, -1], [1, 1], [1, -1]]
    theta = payload["theta"]
    assert len(theta) == 4 and all(len(row) == 4 for row in theta)
    assert all(v > 0 for v in payload["eigenvalues"])
    for kernel in payload["channel_kernels"]:
        assert kernel[0][1] == 0.0 and kernel[1][0] == 0.0


def test_metric_csv_header_names_states(capsys):
    code, out, _ = run(capsys, "metric", "--Y", "1", "--Z", "1",
                       "--levels", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["state_0_p", "state_0_m", "state_1_p", "state_1_m"]
    assert len(rows) == 5


def test_metric_weight_file(tmp_path, capsys):
    wfile = tmp_path / "w.txt"
    wfile.write_text("0 1 1\n1 2 0.5\n")
    code, out, _ = run(capsys, "metric", "--Y", "1", "--Z", "1",
                       "--levels", "2", "--weights", str(wfile))
    assert code == 0
    payload = json.loads(out)
    # unequal spin weights at level 1 activate that kernel's off-diagonal
    assert payload["channel_kernels"][0][0][1] == 0.0
    assert payload["channel_kernels"][1][0][1] != 0.0


def _hex(values):
    # floats, nested, as their bits: json round-trips them exactly, signed zeros too
    return [_hex(v) for v in values] if isinstance(values, list) else float(values).hex()


@pytest.mark.parametrize("pair", [(1.0, 4.0), (0.01, 0.02), (4.4, 4.3), (1e300, 1e-300)])
@pytest.mark.parametrize("weights", [None, "0 3 0.5\n2 0.25 7\n", "0 1 1\n1 2 -1\n"])
def test_metric_prints_the_library_form(tmp_path, capsys, pair, weights):
    # the CLI runs the weight contract without numpy and formats its lists;
    # they are build_theta_metric's mode form and meta, bit for bit
    from coupledwell import MetricWeights, build_theta_metric, doublet_family

    argv = ["metric", "--Y", repr(pair[0]), "--Z", repr(pair[1]), "--levels", "3"]
    library_weights = MetricWeights.unit(3)
    if weights is not None:
        path = tmp_path / "w.txt"
        path.write_text(weights)
        argv += ["--weights", str(path), "--unsafe"]
        library_weights = MetricWeights.from_file(path, 3)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    theta = build_theta_metric(doublet_family(CouplingPair(*pair), 3), library_weights,
                               unsafe=True)
    assert _hex(payload["theta"]) == _hex(theta.matrix.tolist())
    assert _hex(payload["eigenvalues"]) == _hex(np.sort(np.diag(theta.matrix)).tolist())
    assert _hex(payload["channel_kernels"]) == _hex(
        [k.tolist() for k in theta.meta["channel_kernels"]])
    assert tuple(payload["signature"]) == theta.meta["signature"]
    assert payload["order"] == [list(label) for label in theta.meta["order"]]


def test_metric_indefinite_weights_need_unsafe(tmp_path, capsys):
    wfile = tmp_path / "w.txt"
    wfile.write_text("0 1 -1\n")
    code, _, err = run(capsys, "metric", "--Y", "1", "--Z", "1",
                       "--levels", "1", "--weights", str(wfile))
    assert code == 2 and "unsafe" in err
    code, out, _ = run(capsys, "metric", "--Y", "1", "--Z", "1",
                       "--levels", "1", "--weights", str(wfile), "--unsafe")
    assert code == 0
    assert json.loads(out)["signature"] == [1, 1]


def test_metric_non_finite_weight_exits_2_at_its_line(tmp_path, capsys):
    wfile = tmp_path / "w.txt"
    wfile.write_text("0 1 1\n1 nan 1\n")
    code, out, err = run(capsys, "metric", "--Y", "1", "--Z", "1",
                         "--levels", "2", "--weights", str(wfile))
    assert code == 2 and out == ""
    assert err == f"error: {wfile}:2: weights must be finite, got '1 nan 1\\n'\n"


def test_metric_non_positive_weight_exits_2_as_a_plain_float(tmp_path, capsys):
    wfile = tmp_path / "w.txt"
    wfile.write_text("0 0 1\n")
    code, out, err = run(capsys, "metric", "--Y", "1", "--Z", "1",
                         "--levels", "1", "--weights", str(wfile))
    assert code == 2 and out == ""
    assert err == ("error: weight 0.0 for state (n=0, sigma=1) is not positive; "
                   "indefinite weight choices need unsafe=True\n")


def test_metric_overflowing_form_prints_only_its_refusal(tmp_path, capsys):
    # S d^2 overflows at level 2: no numpy warning precedes the error line
    wfile = tmp_path / "w.txt"
    wfile.write_text("2 2e307 2e307\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "metric", "--Y", "4", "--Z", "4",
                             "--levels", "3", "--weights", str(wfile))
    assert code == 2 and out == ""
    assert err == ("error: metric form [i, k] = [4, 4] is inf: "
                   "the coupling or the weights leave the float range\n")


def test_metric_missing_weight_file_exits_2(capsys):
    code, _, err = run(capsys, "metric", "--Y", "1", "--Z", "1",
                       "--weights", "/nonexistent/w.txt")
    assert code == 2 and "error:" in err


def test_scan_csv_layout(capsys):
    code, out, _ = run(capsys, "scan", "--c-min", "0.5", "--c-max", "1.5",
                       "--steps", "3", "--levels", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["c", "all_real", "n", "s", "t", "eps", "E", "residual", "branch"]
    assert len(rows) == 1 + 3 * 2
    assert [row[0] for row in rows[1:3]] == ["0.5", "0.5"]


def test_scan_json_covers_transition(capsys):
    code, out, _ = run(capsys, "scan", "--c-min", "4.4", "--c-max", "4.6",
                       "--steps", "2", "--levels", "1")
    assert code == 0
    entries = json.loads(out)
    assert entries[0]["all_real"] is True
    assert entries[1]["all_real"] is False
    assert entries[1]["truncated_at"] == 0


def test_scan_validation_exit_2(capsys):
    code, _, _ = run(capsys, "scan", "--c-min", "2.0", "--c-max", "1.0")
    assert code == 2
    code, _, _ = run(capsys, "scan", "--c-min", "0", "--c-max", "1", "--steps", "0")
    assert code == 2


@pytest.mark.parametrize(
    "c_min, c_max, flag, shown",
    [("0", "inf", "--c-max", "inf"), ("nan", "1", "--c-min", "nan")],
)
def test_scan_non_finite_bound_names_the_flag(capsys, c_min, c_max, flag, shown):
    # not the coupling layer's "Y must be finite, got nan"
    code, out, err = run(capsys, "scan", "--c-min", c_min, "--c-max", c_max)
    assert code == 2 and out == ""
    assert err == f"error: {flag} must be finite, got {shown}\n"


def test_negative_exponent_y_is_a_value(capsys):
    # argparse's stock negative-number pattern read -1e-3 as an option
    code, out, err = run(capsys, "spectrum", "--Y", "-1e-3", "--Z", "1", "--levels", "2")
    assert code == 0 and err == ""
    assert out == run(capsys, "spectrum", "--Y=-0.001", "--Z", "1", "--levels", "2")[1]


def test_negative_exponent_z_is_a_value(capsys):
    code, out, err = run(capsys, "spectrum", "--Y", "1", "--Z", "-1E-3", "--levels", "2")
    assert code == 0 and err == ""
    assert [r["branch"] for r in json.loads(out)] == ["NEGATIVE_PRODUCT"] * 4


def test_negative_exponent_tol_is_a_value(capsys):
    code, out, err = run(capsys, "critical", "--tol", "-1e-3")
    assert code == 2 and out == ""
    assert "argument --tol: must be a number in (0, 1), got -1e-3" in err


def test_negative_exponent_c_min_is_a_value(capsys):
    code, out, err = run(capsys, "scan", "--c-min", "-1e-3", "--c-max", "1")
    assert code == 2 and out == ""
    assert err == "error: need 0 <= c-min <= c-max\n"


def test_negative_exponent_c_max_is_a_value(capsys):
    code, out, err = run(capsys, "scan", "--c-min", "0", "--c-max", "-1.5e+0")
    assert code == 2 and out == ""
    assert err == "error: need 0 <= c-min <= c-max\n"


def test_verify_table_passes(capsys):
    code, out, _ = run(capsys, "verify", "--Y", "1", "--Z", "1",
                       "--levels", "4", "--grid", "64")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].startswith("OK:")
    assert "FAIL" not in out


def test_verify_json_passes(capsys):
    code, out, _ = run(capsys, "verify", "--Y", "1", "--Z", "4",
                       "--levels", "3", "--grid", "64", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert all(c["passed"] for c in payload["checks"])


def test_verify_above_critical_exits_3(capsys):
    code, _, err = run(capsys, "verify", "--Y", "6", "--Z", "6",
                       "--levels", "2", "--grid", "16")
    assert code == 3 and "error:" in err


def test_verify_rejects_uncoupled_input(capsys):
    code, _, _ = run(capsys, "verify", "--Y", "0", "--Z", "0")
    assert code == 2


def test_verify_underflowing_product_is_refused_by_the_metric_family(capsys):
    # not as YZ <= 0: the family has no metric below sqrt(YZ) = 1e-6
    code, out, err = run(capsys, "verify", "--Y", "1e-200", "--Z", "1e-200",
                         "--levels", "4", "--grid", "64")
    assert code == 2 and out == ""
    assert "sqrt(|YZ|) = 1.000e-200" in err


def test_oracle_underflowing_product_takes_the_secular_path(capsys):
    # YZ underflows to 0 in floats, sqrt(YZ) does not: lambda = i sqrt(YZ), and the roots are real
    code, out, _ = run(capsys, "oracle", "--Y", "1e-200", "--Z", "1e-200", "--grid", "512")
    assert code == 0
    report = strict_json(out)
    assert [r["im_numeric"] for r in report["levels"]] == [0.0] * 4
    assert report["degeneracy_ok"]


def test_oracle_csv_with_orders(capsys):
    code, out, _ = run(capsys, "oracle", "--Y", "1", "--Z", "1",
                       "--levels", "2", "--grid", "64", "--order", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][-1] == "order"
    assert len(rows) == 3
    for row in rows[1:]:
        assert abs(float(row[-1]) - 2.0) < 0.3
        assert int(row[4]) == 2


def test_oracle_json_report(capsys):
    code, out, _ = run(capsys, "oracle", "--Y", "1", "--Z", "4",
                       "--levels", "2", "--grid", "64")
    assert code == 0
    payload = json.loads(out)
    assert payload["grid_M"] == 64
    assert payload["degeneracy_ok"] is True
    analytic = spectrum(CouplingPair(1.0, 4.0), 1).levels
    assert payload["levels"][0]["E_analytic"] == analytic[0].E


def test_oracle_negative_product_exits_2(capsys):
    code, out, err = run(capsys, "oracle", "--Y", "1", "--Z", "-1")
    assert code == 2 and out == ""
    assert "closed-form levels s^2 +- sqrt(-YZ) are not this operator's levels" in err


def test_oracle_past_the_merger_exits_3_before_the_eigensolve(capsys, monkeypatch):
    # c = 5 > c_crit(0): the analytic level 0 is lost, so there is nothing
    # to compare, and the operator is neither built nor solved
    import coupledwell.oracle

    def refuse(*args):
        raise AssertionError("the oracle built or solved the operator")

    monkeypatch.setattr(coupledwell.oracle, "build_hamiltonian", refuse)
    monkeypatch.setattr(coupledwell.oracle, "eigenpairs", refuse)
    monkeypatch.setattr(coupledwell.oracle, "eigenvalues", refuse)
    code, out, err = run(capsys, "oracle", "--Y", "5", "--Z", "5")
    assert code == 3 and out == ""
    assert err == "error: analytic root lost at n=0; coupling at or above critical\n"


@pytest.mark.parametrize("argv", [
    # a channel kernel Y (S+ + S-) or Z (S+ + S-) overflows
    "metric --Y 1e308 --Z 1e-318 --levels 2",
    "metric --Y 1e-318 --Z 1e308 --levels 2",
    "verify --Y 1e308 --Z 1e-318 --levels 2 --grid 64",
    # the spin entry sqrt(Y/Z) or sqrt(Z/Y) overflows
    "verify --Y 1e305 --Z 1e-316 --levels 2 --grid 64",
    "verify --Y 1e-316 --Z 1e305 --levels 2 --grid 64",
    # YZ < 0, refused before an eigensolve that fails at this size
    "oracle --Y 1 --Z -4 --levels 2",
    "oracle --Y 1e300 --Z -1e300 --levels 2",
])
def test_refused_couplings_exit_2_with_nothing_on_stdout(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("grid", ["8", "10"])
def test_oracle_order_names_the_grid_given(capsys, grid):
    # the coarse grid (4, 5) is never named: the user did not pass it
    code, out, err = run(capsys, "oracle", "--Y", "1", "--Z", "4", "--grid", grid, "--order")
    assert code == 2 and out == ""
    assert err == (
        "error: --order halves the grid, so --grid must be divisible by 4 "
        f"and at least 16, got {grid}\n"
    )


def test_oracle_at_large_grid(capsys):
    code, out, _ = run(capsys, "oracle", "--Y", "1", "--Z", "4",
                       "--grid", "16384", "--levels", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["grid_M"] == 16384 and payload["degeneracy_ok"] is True


def _oracle_report(argv, solve=None):
    """The oracle subcommand's JSON report and exit code, its eigenvalues
    taken from `solve` in place of the numpy-free solve when given."""
    import coupledwell.oracle

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        if solve is not None:
            patch.setattr(coupledwell.oracle, "eigenvalues", solve)
        patch.setattr(sys, "stdout", out)
        code = main(argv)
    return code, json.loads(out.getvalue()) if code == 0 else None


def _eigenpairs_values(coupling, grid, k):
    return eigenpairs(build_hamiltonian(coupling, grid), k)[0]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    kind=st.sampled_from(["YZ > 0"] + sorted(_DECOUPLED)),
    log_c=st.floats(math.log(1e-4), math.log(4.4)),
    log2_ratio=st.floats(-4.0, 4.0),
    half_m=st.integers(4, 8192),
    levels=st.integers(1, 4),
    order=st.booleans(),
)
@example(kind="YZ > 0", log_c=math.log(4.4), log2_ratio=0.0, half_m=4, levels=4, order=False)
@example(kind="YZ > 0", log_c=0.0, log2_ratio=2.0, half_m=8192, levels=2, order=True)
@example(kind="Y = 0", log_c=math.log(2.0), log2_ratio=0.0, half_m=32, levels=2, order=False)
def test_oracle_subcommand_over_every_grid(kind, log_c, log2_ratio, half_m, levels, order):
    # every even M in [8, 16384] (a multiple of 4 from 16 with --order) and
    # every coupling class the oracle compares: exit 0, each level a doublet,
    # and the same rows as the report built on eigenpairs
    pair = _pair(kind, math.exp(log_c), 2.0 ** (log2_ratio / 2))
    grid = 4 * max(4, half_m // 2) if order else 2 * half_m
    argv = ["oracle", "--Y", repr(pair.Y), "--Z", repr(pair.Z), "--levels", str(levels), "--grid", str(grid)]
    argv += ["--order"] if order else []
    code, report = _oracle_report(argv)
    assert code == 0
    assert [row["multiplicity"] for row in report["levels"]] == [2] * levels
    _, reference = _oracle_report(argv, _eigenpairs_values)
    assert report["levels"] == reference["levels"]


def test_out_writes_identical_bytes(tmp_path, capsys):
    target = tmp_path / "spec.json"
    code, out, _ = run(capsys, "spectrum", "--Y", "1", "--Z", "1", "--levels", "3")
    assert code == 0
    code2, out2, _ = run(capsys, "spectrum", "--Y", "1", "--Z", "1",
                         "--levels", "3", "--out", str(target))
    assert code2 == 0 and out2 == ""
    assert target.read_text(encoding="utf-8") == out


IMPORT_GRAPH_SCRIPT = """
import json, os, sys, tempfile

def loaded(*packages):
    return sorted(m for m in sys.modules if m.split(".")[0] in packages)

import coupledwell
after_import = loaded("numpy", "scipy")
from coupledwell.cli import main

closed_form = [
    ["spectrum", "--Y", "1", "--Z", "4"],
    ["critical", "--tol", "1e-6"],
    ["scan", "--c-min", "0", "--c-max", "5", "--steps", "5"],
    ["spectrum", "--Y", "3000", "--Z", "3000"],
    ["spectrum", "--Y", "2", "--Z", "2", "--levels", "48"],
    ["scan", "--c-min", "0", "--c-max", "5", "--steps", "0"],
]
codes = [main(argv + ["--out", os.devnull]) for argv in closed_form]
after_closed_form = loaded("numpy", "scipy")
with tempfile.TemporaryDirectory() as tmp:
    signed = os.path.join(tmp, "signed.txt")
    with open(signed, "w") as fh:
        fh.write("0 1 1\\n1 2 -1\\n")
    metric = [
        ["--Y", "1", "--Z", "4", "--out", os.devnull],
        ["--Y", "2", "--Z", "2", "--levels", "3", "--weights", signed, "--unsafe",
         "--out", os.devnull],
        ["--Y", "1", "--Z", "4", "--levels", "3", "--format", "csv", "--out", os.devnull],
        # refused with exit 2: a weight that is not positive, a channel kernel,
        # the decoupled limit, the Jordan class and a weight file's line
        ["--Y", "2", "--Z", "2", "--levels", "3", "--weights", signed],
        ["--Y", "1e308", "--Z", "1e-318", "--levels", "2"],
        ["--Y", "1e-7", "--Z", "1e-7"],
        ["--Y", "0", "--Z", "2"],
        ["--Y", "2", "--Z", "2", "--levels", "1", "--weights", signed],
    ]
    codes += [main(["metric"] + argv) for argv in metric]
after_metric = loaded("numpy", "scipy", "coupledwell")
verify = [
    ["--Y", "1", "--Z", "4", "--levels", "4"],
    ["--Y", "1", "--Z", "4", "--levels", "40", "--grid", "16384"],
    # refused with exit 2: YZ < 0 and a spin ratio out of the float range;
    # exit 3: a coupling past c_crit(0)
    ["--Y", "1", "--Z", "-4"],
    ["--Y", "1e305", "--Z", "1e-316", "--levels", "2", "--grid", "64"],
    ["--Y", "4.5", "--Z", "4.5"],
]
codes += [main(["verify"] + argv + ["--out", os.devnull]) for argv in verify]
after_verify = loaded("numpy", "scipy", "coupledwell")
codes.append(main(["oracle", "--Y", "1", "--Z", "4", "--grid", "64", "--out", os.devnull]))
print(json.dumps({"codes": codes, "after_import": after_import,
                  "after_closed_form": after_closed_form,
                  "after_metric": after_metric,
                  "after_verify": after_verify,
                  "after_oracle": loaded("numpy", "scipy", "coupledwell")}))
"""


def test_closed_form_subcommands_load_no_scipy():
    # no subcommand imports numpy or scipy: the closed-form subcommands,
    # metric, verify and oracle import neither, on their error exits either
    # (metric runs the weight contract without the numpy-backed metric
    # module, verify its battery in floats, and verify and oracle take their
    # eigenvalues from the oracle's numpy-free solve)
    root = pathlib.Path(__file__).resolve().parent.parent
    path = [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_GRAPH_SCRIPT],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["codes"] == [0, 0, 0, 3, 0, 2, 0, 0, 0, 2, 2, 2, 2, 2, 0, 0, 2, 2, 3, 0]
    assert report["after_import"] == []
    assert report["after_closed_form"] == []
    assert not any(m.split(".")[0] in ("numpy", "scipy") for m in report["after_metric"])
    assert "coupledwell._weights" in report["after_metric"]
    assert "coupledwell.metric" not in report["after_metric"]
    assert not any(m.split(".")[0] in ("numpy", "scipy") for m in report["after_verify"])
    assert {"coupledwell.battery", "coupledwell.oracle"} <= set(report["after_verify"])
    assert "coupledwell.metric" not in report["after_verify"]
    assert not any(m.split(".")[0] in ("numpy", "scipy") for m in report["after_oracle"])
    assert "coupledwell.metric" not in report["after_oracle"]


DIET_SCRIPT = """
import sys
before = set(sys.modules)
from coupledwell.cli import main
code = main(sys.argv[1:])
loaded = set(sys.modules) - before
import json
package = sorted(m.removeprefix("coupledwell.") for m in loaded if m.startswith("coupledwell."))
print(json.dumps({"code": code, "stdlib": sorted({"csv", "numbers"} & loaded), "package": package}))
"""
_SPECTRUM = ["cli", "errors", "model", "secular"]
_STATES = _SPECTRUM + ["_ranges", "_weights", "wavefunctions"]
_ORACLE = _SPECTRUM + ["_bracket", "_ranges", "oracle"]
_DIETS = [
    (["spectrum", "--Y", "1", "--Z", "4"], _SPECTRUM),
    (["scan", "--c-min", "4", "--c-max", "4.6", "--steps", "4"], _SPECTRUM + ["_ranges"]),
    (["critical", "--pair", "0"], _SPECTRUM + ["_bracket", "critical"]),
    (["metric", "--Y", "1", "--Z", "4"], _STATES),
    (["verify", "--Y", "1", "--Z", "4", "--levels", "4"], _STATES + ["_bracket", "battery", "oracle"]),
    (["oracle", "--Y", "1", "--Z", "4", "--grid", "64"], _ORACLE),
]


@pytest.mark.parametrize("argv, package", _DIETS + [
    (argv + ["--format", "csv"], package) for argv, package in _DIETS if argv[0] != "verify"])
def test_each_subcommand_loads_only_what_it_runs(argv, package):
    # every request is a fresh process that compiles what it imports: the
    # critical search, the scan grid and csv load only where they run, and
    # built-in arguments never reach the numbers ABCs
    root = pathlib.Path(__file__).resolve().parent.parent
    path = [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    result = subprocess.run(
        [sys.executable, "-c", DIET_SCRIPT, *argv, "--out", os.devnull],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {
        "code": 0, "stdlib": ["csv"] if "csv" in argv else [], "package": sorted(package)}


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    c_min=st.floats(0.0, 10.0),
    width=st.floats(0.0, 10.0),
    steps=st.integers(1, 200),
)
@example(c_min=2.5, width=0.0, steps=7)  # c_min == c_max
@example(c_min=0.0, width=5.0, steps=1)
@example(c_min=-0.0, width=0.0, steps=1)  # numpy's 0 * delta + start is +0.0
@example(c_min=0.0, width=5.0, steps=2)
@example(c_min=0.0, width=5e-324, steps=3)  # the step underflows to zero
def test_scan_grid_is_linspace_bit_for_bit(c_min, width, steps):
    c_max = c_min + width
    expected = [c.hex() for c in np.linspace(c_min, c_max, steps).tolist()]
    assert [c.hex() for c in _linspace(c_min, c_max, steps)] == expected
