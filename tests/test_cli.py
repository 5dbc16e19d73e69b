"""Command-line interface: formats, determinism, exit codes."""

import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from coupledwell import CouplingPair, solve_level, spectrum
from coupledwell.cli import _linspace, main

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
    code, _, err = run(capsys, "spectrum", "--Y", "1", "--Z", "1", "--tol", "0")
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
    code, out, err = run(capsys, *command, "--tol", tol)
    assert code == 2 and out == ""
    assert f"argument --tol: must be a number in (0, 1), got {tol}" in err


TOL_IMPORT_SCRIPT = """
import json, os, sys
from coupledwell.cli import main
codes = [main([command, "--Y", "1", "--Z", "4", "--tol", "nan", "--out", os.devnull])
         for command in ("metric", "verify", "oracle")]
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}))
"""


def test_tolerance_is_refused_before_numpy_loads():
    root = pathlib.Path(__file__).resolve().parent.parent
    path = [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    result = subprocess.run(
        [sys.executable, "-c", TOL_IMPORT_SCRIPT],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {"codes": [2, 2, 2], "numpy": False}


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


def test_critical_past_the_last_doubling_exits_0_and_past_the_cap_3(capsys):
    code, out, _ = run(capsys, "critical", "--pair", "20000")
    assert code == 0 and 2.0**19 < json.loads(out)["c_crit"] < 1e6
    code, out, _ = run(capsys, "critical", "--pair", "30316")
    assert code == 0 and json.loads(out)["c_crit"] < 1e6
    code, out, err = run(capsys, "critical", "--pair", "30317")
    assert code == 3 and out == ""
    assert "no criticality transition up to sqrt(YZ)=1000000.0" in err


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
    code, out, err = run(capsys, "spectrum", "--Y", "1", "--Z", "1", "--tol", "-1e-3")
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
    # the dense path leaves rounding noise in Im E; the secular roots are real
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
    code, _, _ = run(capsys, "oracle", "--Y", "1", "--Z", "-1")
    assert code == 2


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


def test_out_writes_identical_bytes(tmp_path, capsys):
    target = tmp_path / "spec.json"
    code, out, _ = run(capsys, "spectrum", "--Y", "1", "--Z", "1", "--levels", "3")
    assert code == 0
    code2, out2, _ = run(capsys, "spectrum", "--Y", "1", "--Z", "1",
                         "--levels", "3", "--out", str(target))
    assert code2 == 0 and out2 == ""
    assert target.read_text(encoding="utf-8") == out


IMPORT_GRAPH_SCRIPT = """
import json, os, sys

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
codes.append(main(["metric", "--Y", "1", "--Z", "4", "--out", os.devnull]))
after_metric = loaded("numpy", "scipy", "coupledwell")
for argv in (["verify", "--Y", "1", "--Z", "4", "--levels", "4"],
             ["oracle", "--Y", "1", "--Z", "4", "--grid", "64"]):
    codes.append(main(argv + ["--out", os.devnull]))
print(json.dumps({"codes": codes, "after_import": after_import,
                  "after_closed_form": after_closed_form,
                  "after_metric": after_metric,
                  "after_oracle": loaded("scipy", "coupledwell")}))
"""


def test_closed_form_subcommands_load_no_scipy():
    # numpy is imported by the metric, verify and oracle subcommands only,
    # and scipy by none: the closed-form subcommands import neither, on
    # their error exits either, and the oracle and the verify battery
    # solve and check with numpy alone
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
    assert report["codes"] == [0, 0, 0, 3, 0, 2, 0, 0, 0]
    assert report["after_import"] == []
    assert report["after_closed_form"] == []
    assert "numpy" in report["after_metric"]
    assert "coupledwell.metric" in report["after_metric"]
    assert "coupledwell.oracle" not in report["after_metric"]
    assert not any(m.split(".")[0] == "scipy" for m in report["after_metric"])
    assert {"coupledwell.battery", "coupledwell.oracle"} <= set(report["after_oracle"])
    assert not any(m.split(".")[0] == "scipy" for m in report["after_oracle"])


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
