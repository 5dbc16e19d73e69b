"""Request executors and the closed-loop runner.

One client sends the next request only after the previous one has
returned (closed loop, one process).  Library requests run in this
process; CLI requests run one fresh `python -m coupledwell.cli`
subprocess each.  `prepare` builds argument objects before the clock
starts, `execute` is the timed part, and the output check runs after
the clock stops.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import checks
from .inputs import GAUGE_EVERY, block
from .spans import NullTracer

PASS, REFUSED, WRONG, CRASH = "pass", "refused", "wrong", "crash"
CLI_TIMEOUT_S = 60


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv: list[str], env: dict):
    proc = subprocess.run(
        [sys.executable, "-m", "coupledwell.cli", *argv],
        env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr


def cli_argv(req) -> list[str]:
    kind = req["kind"]
    if kind == "cli-help":
        return ["--help"]
    if kind == "cli-spectrum":
        return ["spectrum", "--Y", repr(req["Y"]), "--Z", repr(req["Z"]),
                "--levels", str(req["levels"])]
    if kind == "cli-critical":
        return ["critical", "--pair", str(req["pair"]), "--tol", repr(req["tol"])]
    if kind == "cli-metric":
        return ["metric", "--Y", repr(req["Y"]), "--Z", repr(req["Z"]),
                "--levels", str(req["levels"])]
    if kind == "cli-scan":
        return ["scan", "--c-min", repr(req["c_min"]), "--c-max", repr(req["c_max"]),
                "--steps", str(req["steps"]), "--levels", str(req["levels"])]
    if kind == "cli-verify":
        return ["verify", "--Y", repr(req["Y"]), "--Z", repr(req["Z"]),
                "--levels", str(req["levels"]), "--grid", str(req["grid"]),
                "--format", "json"]
    raise ValueError(f"unknown request kind {kind!r}")


class Executor:
    """Runs requests of every kind against the imported package `cw`."""

    def __init__(self, cw):
        self.cw = cw
        self.env = cli_env()
        # the package's own error types; anything else escaping is a crash
        self.documented = tuple(
            v for v in vars(cw.errors).values()
            if isinstance(v, type) and issubclass(v, Exception)
            and v.__module__ == cw.errors.__name__
        )

    def prepare(self, req):
        cw, kind = self.cw, req["kind"]
        if kind.startswith("cli"):
            return cli_argv(req)
        if kind == "critical":
            return None
        if kind == "scan":
            return cw.GridSpec(req["M"])
        pair = cw.CouplingPair(req["Y"], req["Z"])
        if kind == "metric":
            return pair, cw.MetricWeights(np.array(req["s_plus"]), np.array(req["s_minus"]))
        if kind == "quadrature":
            return cw.doublet_family(pair, req["levels"])
        if kind.startswith("compare"):
            return pair, cw.GridSpec(req["M"]), cw.GridSpec(req["M"] // 2)
        return pair

    def execute(self, tracer, req, prepared):
        cw, kind, call = self.cw, req["kind"], tracer.call
        if kind.startswith("cli"):
            return call("cli", run_cli, prepared, self.env)
        if kind == "spectrum":
            return call("secular", cw.spectrum, prepared, req["levels"] - 1)
        if kind == "critical":
            return call("secular", cw.critical_coupling, req["pair"], req["tol"])
        if kind == "metric":
            pair, weights = prepared
            states = call("wavefunctions", cw.doublet_family, pair, req["levels"])
            theta = call("metric", cw.build_theta_metric, states, weights)
            inverse = call("metric", cw.inverse_theta_metric, states, weights)
            h = call("metric", cw.mode_hamiltonian, states)
            spin = call("metric", cw.mode_spin, states)
            return {
                "states": states,
                "theta": theta,
                "inverse": inverse,
                "defect_hamiltonian": call("metric", cw.quasi_hermiticity_defect, h, theta),
                "defect_spin": call("metric", cw.quasi_hermiticity_defect, spin, theta),
                "defect_inverse": call("metric", cw.inverse_identity_defect, theta, states, weights),
                "pairing": call("metric", cw.biorthogonality_matrix, states),
            }
        if kind == "quadrature":
            return call("metric", cw.biorthogonality_matrix, prepared, method="quadrature")
        if kind.startswith("compare"):
            pair, fine, coarse = prepared
            n_request = 2 * req["k"] + 2
            values, _ = call("oracle", cw.eigenpairs,
                             call("oracle", cw.build_hamiltonian, pair, fine), n_request)
            coarse_values, _ = call("oracle", cw.eigenpairs,
                                    call("oracle", cw.build_hamiltonian, pair, coarse), n_request)
            analytic = call("secular", cw.spectrum, pair, req["k"] - 1)
            report = call("oracle", cw.compare_spectrum, analytic.levels, values,
                          req["k"], coarse_values)
            return {"spectrum": analytic, "values": values,
                    "coarse_values": coarse_values, "report": report}
        if kind == "scan":
            scan = call("oracle", cw.criticality_scan, req["c_values"], prepared)
            return scan, call("oracle", cw.first_complex_bracket, scan)
        raise ValueError(f"unknown request kind {kind!r}")

    def classify(self, req, prepared, out, exc) -> tuple[str, str | None]:
        """(outcome, detail) of one request; runs outside the timed region."""
        if exc is not None:
            if isinstance(exc, self.documented):
                return REFUSED, f"{type(exc).__name__}: {exc}"
            return CRASH, f"{type(exc).__name__}: {exc}"
        if req["kind"].startswith("cli"):
            returncode, stdout, stderr = out
            if returncode == 4:  # documented exit code of a numerical failure
                return REFUSED, checks.cli_refusal(req, stdout)
            if returncode not in (0, 3):
                return CRASH, f"exit {returncode}: {stderr.strip()[-300:]}"
        problem = self.problem(req, prepared, out)
        return (PASS, None) if problem is None else (WRONG, problem)

    def problem(self, req, prepared, out) -> str | None:
        kind = req["kind"]
        if kind.startswith("cli"):
            returncode, stdout, _ = out
            return checks.cli_problem(req, returncode, stdout)
        if kind == "spectrum":
            return checks.spectrum_problem(
                req, [checks.level_dict(lv) for lv in out.levels], out.truncated_at)
        if kind == "critical":
            return checks.critical_problem(req, out.c_crit, out.bracket_width, out.evaluations)
        if kind == "metric":
            return checks.metric_problem(req, out)
        if kind == "quadrature":
            closed = self.cw.biorthogonality_matrix(prepared)
            return checks.quadrature_problem(closed, out)
        if kind.startswith("compare"):
            return checks.compare_problem(req, out)
        if kind == "scan":
            return checks.scan_problem(req, *out)
        raise ValueError(f"unknown request kind {kind!r}")


@dataclass
class Record:
    kind: str
    seconds: float
    outcome: str
    detail: str | None
    scaled: float | None = None  # seconds at the speed gauge's reference speed
    interval: int = 0  # index of the speed-gauge reading taken last before it


def run_request(executor, tracer, request_id, req, check=True):
    prepared = executor.prepare(req)
    out = exc = None
    t0 = time.perf_counter()
    tracer.begin(request_id, req["kind"])
    try:
        out = executor.execute(tracer, req, prepared)
    except Exception as e:  # classified below: documented refusal or crash
        exc = e
    tracer.end(None if exc is None else type(exc).__name__)
    elapsed = time.perf_counter() - t0
    if not check:
        return Record(req["kind"], elapsed, PASS, None)
    outcome, detail = executor.classify(req, prepared, out, exc)
    return Record(req["kind"], elapsed, outcome, detail)


def run_loop(executor, tracer, workload, seed, blocks, gauge, twins=None):
    """Run `blocks` whole blocks; returns (requests, records).

    The speed gauge is read before the first request and after every
    GAUGE_EVERY[workload] requests, and each request's `scaled` time
    uses the readings around it.

    With a `twins` list, every request is also run untraced and unchecked
    right before or after its traced run (alternating, so warm caches
    favour neither side) and that time is appended to `twins`: the pair
    shares the machine's state, which a later replay would not.
    """
    requests, records = [], []
    untraced = NullTracer()
    readings = [gauge.measure()]
    for index in range(blocks):
        for req in block(workload, seed, index):
            twin_first = twins is not None and len(records) % 2 == 1
            if twin_first:
                twins.append(run_request(executor, untraced, -1, req, check=False).seconds)
            record = run_request(executor, tracer, len(records), req)
            if twins is not None and not twin_first:
                twins.append(run_request(executor, untraced, -1, req, check=False).seconds)
            record.interval = len(readings) - 1
            requests.append(req)
            records.append(record)
            if len(records) % GAUGE_EVERY[workload] == 0:
                readings.append(gauge.measure())
    if len(records) % GAUGE_EVERY[workload]:
        readings.append(gauge.measure())
    scale = gauge.factors(readings)
    for record in records:
        record.scaled = record.seconds * scale[record.interval]
    return requests, records
