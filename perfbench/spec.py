"""The benchmark's definition: workloads, metrics, units and bounds.

BENCHMARK.json at the repository root is written from this module;
regenerate it with `python3 perfbench/spec.py` after editing, and the
self-tests fail while the two differ.
"""

from __future__ import annotations

import json
import os

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 25

WORKLOADS = [
    {"name": "cli-short",
     "why": "one fresh CLI process per request over spectrum/critical/metric/scan/verify: "
            "the import graph and the CLI dominate; verify at M=128 is the small-M oracle side"},
    {"name": "closed-form",
     "why": "in-process secular, doublet-family and metric requests, never the oracle: "
            "p50 follows the secular layer, p90 the metric layer; no-change control for the oracle"},
    {"name": "oracle",
     "why": "in-process finite-difference comparisons at M=256/512 and criticality scans at "
            "M=256: dense eigensolves are >95% of the time"},
]

END_TO_END = [
    {"name": "latency_p50_s", "unit": "s", "better": "lower", "bound": 0.24},
    {"name": "latency_p90_s", "unit": "s", "better": "lower", "bound": 0.24},
    {"name": "throughput_rps", "unit": "req/s", "better": "higher", "bound": 0.24},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

LAYERS = ("cli", "secular", "wavefunctions", "metric", "oracle")

PER_LAYER = [
    {"name": "cli.help_s", "unit": "s", "better": "lower"},
    {"name": "cli.import_s", "unit": "s", "better": "lower"},
    {"name": "cli.import.scipy_s", "unit": "s", "better": "lower"},
    {"name": "secular.spectrum_ms", "unit": "ms", "better": "lower"},
    {"name": "secular.level_us", "unit": "us", "better": "lower"},
    {"name": "secular.critical_ms", "unit": "ms", "better": "lower"},
    {"name": "secular.critical_evals", "unit": "count", "better": "lower"},
    {"name": "secular.failed", "unit": "count", "better": "lower"},
    {"name": "secular.attempts", "unit": "count", "better": "higher"},
    {"name": "wavefunctions.doublet_family_ms", "unit": "ms", "better": "lower"},
    {"name": "metric.build_theta_mode_ms", "unit": "ms", "better": "lower"},
    {"name": "metric.inverse_theta_mode_ms", "unit": "ms", "better": "lower"},
    {"name": "metric.biorth_closed_ms", "unit": "ms", "better": "lower"},
    {"name": "metric.biorth_quadrature_ms", "unit": "ms", "better": "lower"},
    {"name": "metric.quadrature_evals", "unit": "count", "better": "lower"},
    {"name": "metric.tiny_c_pairing_error", "unit": "ratio", "better": "lower"},
    {"name": "oracle.build_hamiltonian_ms.M256", "unit": "ms", "better": "lower"},
    {"name": "oracle.build_hamiltonian_ms.M512", "unit": "ms", "better": "lower"},
    {"name": "oracle.eigenpairs_s.M256", "unit": "s", "better": "lower"},
    {"name": "oracle.eigenpairs_s.M512", "unit": "s", "better": "lower"},
    {"name": "oracle.criticality_scan_s", "unit": "s", "better": "lower"},
    {"name": "oracle.matrix_bytes.M256", "unit": "B", "better": "lower"},
    {"name": "oracle.matrix_bytes.M512", "unit": "B", "better": "lower"},
    {"name": "oracle.eigensolves", "unit": "1/req", "better": "lower"},
] + [
    {"name": f"{layer}.share", "unit": "ratio", "better": "lower"} for layer in LAYERS + ("bench",)
] + [
    {"name": "trace.overhead_frac", "unit": "ratio", "better": "lower"},
    {"name": "trace.spans", "unit": "count", "better": "lower"},
]


def render() -> str:
    """Text of BENCHMARK.json."""
    return json.dumps({
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }, indent=2) + "\n"


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
        fh.write(render())
