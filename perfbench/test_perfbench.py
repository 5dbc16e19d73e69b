"""Self-tests of the benchmark: run with `python3 -m pytest perfbench`."""

import dataclasses
import json
import os
import re
import subprocess
import sys

import mpmath
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

import coupledwell as cw  # noqa: E402

from perfbench import checks, inputs, spec  # noqa: E402
from perfbench.probe import import_times  # noqa: E402
from perfbench.spans import NullTracer, Tracer, self_times  # noqa: E402
from perfbench.speed import SpeedGauge  # noqa: E402
from perfbench.workloads import PASS, REFUSED, WRONG, Executor, run_request  # noqa: E402


def _blocks(workload, seed, n_blocks):
    return [inputs.block(workload, seed, i) for i in range(n_blocks)]


def _dump(workload, seed, n_blocks=3):
    return json.dumps(_blocks(workload, seed, n_blocks), sort_keys=True)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    here = _dump(workload, 7)
    assert here == _dump(workload, 7)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from perfbench import inputs; import json;"
            f"print(json.dumps([inputs.block({workload!r}, 7, i) for i in range(3)], sort_keys=True))")
    env = dict(os.environ, PYTHONHASHSEED="12345")
    other = subprocess.run([sys.executable, "-c", code, ROOT], env=env,
                           capture_output=True, text=True, check=True).stdout.strip()
    assert other == here
    assert _dump(workload, 8) != here


def test_blocks_keep_the_mix_and_spectrum_ranges_are_shared():
    for workload, kinds in inputs.BLOCKS.items():
        want = dict(kinds)
        for probe in inputs.PROBES[workload]:
            want[probe["kind"]] = want.get(probe["kind"], 0) + 1
        for index in range(20):
            got = {}
            for req in inputs.block(workload, 3, index):
                got[req["kind"]] = got.get(req["kind"], 0) + 1
            assert got == want
    for kind, workload in (("spectrum", "closed-form"), ("cli-spectrum", "cli-short")):
        reqs = [r for b in _blocks(workload, 5, 200) for r in b
                if r["kind"] == kind and r not in inputs.PROBES[workload]]
        cs = [checks.root_product(r["Y"], r["Z"]) for r in reqs]
        levels = [r["levels"] for r in reqs]
        assert inputs.SPECTRUM_C_MIN * (1 - 1e-15) <= min(cs) < 0.2
        assert 5.3 < max(cs) <= inputs.SPECTRUM_C_MAX * (1 + 1e-15)
        assert min(levels) == 1 and max(levels) == inputs.SPECTRUM_LEVELS_MAX


def test_speed_factors_follow_the_nearby_readings():
    gauge = SpeedGauge("oracle")
    readings = [gauge.reference_s] * 10 + [2 * gauge.reference_s] * 10
    scale = gauge.factors(readings)
    assert len(scale) == 19 and scale[0] == 1.0 and scale[-1] == 0.5


def test_run_length_is_a_fixed_number_of_blocks():
    for workload in inputs.WORKLOADS:
        assert inputs.n_blocks(workload, 0.001) == 1
        assert inputs.n_blocks(workload, 100 * inputs.BLOCK_SECONDS[workload]) == 100


@pytest.fixture(scope="module")
def executor():
    return Executor(cw)


def _run(executor, req):
    prepared = executor.prepare(req)
    out = executor.execute(NullTracer(), req, prepared)
    return prepared, out


def test_correct_outputs_pass(executor):
    for req in inputs.WARMUP["closed-form"] + inputs.WARMUP["oracle"]:
        assert run_request(executor, NullTracer(), 0, req).outcome == PASS


def test_shifted_root_is_caught(executor):
    req = {"kind": "spectrum", "Y": 1.5, "Z": 0.6, "levels": 6, "check_levels": [3]}
    prepared, out = _run(executor, req)
    assert executor.classify(req, prepared, out, None) == (PASS, None)
    levels = list(out.levels)
    lv = levels[3]
    s, c = lv.s + 1e-6, checks.root_product(req["Y"], req["Z"])
    t = c / (2 * s)  # a self-consistent level, only the root is off
    levels[3] = dataclasses.replace(lv, s=s, t=t, E=s * s - t * t)
    outcome, detail = executor.classify(req, prepared, dataclasses.replace(out, levels=tuple(levels)), None)
    assert outcome == WRONG and "mpmath" in detail


def test_swapped_root_of_a_pair_is_caught():
    s1 = cw.solve_level(1, cw.CouplingPair(2.0, 2.0)).s
    assert checks.root_problem(1, s1, 2.0) is None
    assert "falling" in checks.root_problem(0, s1, 2.0)


def test_wrong_eigenvalue_is_caught(executor):
    req = {"kind": "compare-256", "Y": 1.2, "Z": 2.0, "M": 64, "k": 3, "check_levels": [1]}
    prepared, out = _run(executor, req)
    assert executor.classify(req, prepared, out, None) == (PASS, None)
    values = out["values"].copy()
    values[2:4] *= 1.0 + 1e-3
    outcome, detail = executor.classify(req, prepared, dict(out, values=values), None)
    assert outcome == WRONG and "level 1" in detail


def test_wrong_critical_coupling_and_truncation_are_caught():
    req = {"pair": 0, "tol": 1e-6}
    res = cw.critical_coupling(0, 1e-6)
    assert checks.critical_problem(req, res.c_crit, res.bracket_width, res.evaluations) is None
    assert checks.critical_problem(req, res.c_crit + 1e-5, res.bracket_width, 1) is not None
    spec_req = {"Y": 5.0, "Z": 5.0, "levels": 3, "check_levels": [0]}
    assert checks.spectrum_problem(spec_req, [], 0) is None
    assert checks.spectrum_problem(spec_req, [], None) is not None


def test_known_stall_counts_as_failed_not_wrong(executor):
    req = {"kind": "spectrum", "Y": 1.0, "Z": 1.0, "levels": 48, "check_levels": [0]}
    record = run_request(executor, NullTracer(), 0, req)
    assert record.outcome == REFUSED and "NumericalFailureError" in record.detail


def test_library_probes_fail_and_seeded_spectra_pass(executor):
    for probe in inputs.PROBES["closed-form"]:
        assert run_request(executor, NullTracer(), 0, probe).outcome == REFUSED
    for req in inputs.block("closed-form", 1, 0):
        if req["kind"] == "spectrum" and req not in inputs.PROBES["closed-form"]:
            assert run_request(executor, NullTracer(), 0, req).outcome == PASS


def test_cli_corrupted_output_is_caught():
    req = {"kind": "cli-spectrum", "Y": 1.0, "Z": 1.0, "levels": 2, "check_levels": [0, 1]}
    records = [checks.level_dict(lv) for lv in cw.spectrum(cw.CouplingPair(1.0, 1.0), 1).levels]
    assert checks.cli_problem(req, 0, json.dumps(records)) is None
    records[1]["s"] = records[0]["s"]
    assert checks.cli_problem(req, 0, json.dumps(records)) is not None
    assert checks.cli_problem(req, 3, json.dumps(records)) is not None


def test_spans_give_self_time_per_layer(executor):
    tracer = Tracer()
    req = inputs.WARMUP["closed-form"][2]
    record = run_request(executor, tracer, 0, req)
    assert record.outcome == PASS
    layers = {s.layer for s in tracer.spans}
    assert layers == {"request", "wavefunctions", "metric"}
    own = self_times(tracer.spans)
    root = tracer.spans[0]
    assert sum(own.values()) == pytest.approx(root.end - root.start, rel=1e-9)
    assert all(s.parent == 0 for s in tracer.spans[1:])


def test_import_time_parser():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy",
        "import time:       200 |        300 |     scipy.linalg",
        "import time:        50 |        350 |   coupledwell.oracle",
        "import time:        10 |        400 | coupledwell",
        "import time:         5 |          5 | coupledwell.cli",
    ])
    own, scipy = import_times(stderr)
    assert own == pytest.approx(405e-6)
    assert scipy == pytest.approx(300e-6)


def test_critical_reference_table():
    def g(s, c):
        t = c / (2 * s)
        return s * mpmath.sin(2 * s) + t * mpmath.sinh(2 * t)

    def dg(s, c):
        return mpmath.diff(lambda x: g(x, c), s)

    with mpmath.workdps(40):
        for k, ref in enumerate(checks.CRITICAL_REF):
            s0 = mpmath.findroot(lambda s: dg(s, ref), sum(cw.pair_interval(k)) / 2)
            _, c = mpmath.findroot([g, dg], (s0, mpmath.mpf(ref)))
            assert float(c) == ref
    assert checks.CRITICAL_REF[0] == inputs.C_CRIT0


def test_benchmark_json_matches_spec_and_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        text = fh.read()
    assert text == spec.render()
    data = json.loads(text)
    assert set(data) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in data["workloads"]] == list(inputs.WORKLOADS)
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in data[group]]
    assert len(names) == len(set(names)) and all(name_re.match(n) for n in names)
    for w in data["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in data["end_to_end"] + data["per_layer"]:
        assert unit_re.match(m["unit"]) and m["better"] in ("lower", "higher")
    for m in data["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = [m for m in data["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    assert 1 <= data["run_seconds"] <= 60 and len(text.encode()) <= 64 * 1024


def test_refuses_to_run_outside_a_checkout():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", "oracle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=os.path.join(ROOT, "perfbench"), capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
