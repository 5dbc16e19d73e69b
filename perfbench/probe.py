"""Per-layer figures at fixed reference inputs, taken in every traced run.

The inputs are the ones the project's first baseline quotes (import
floor, spectrum of 40 levels, critical_coupling(0, 1e-6), a 20-level
doublet family and its metrics, eigenpairs at M = 256 and 512), so each
layer's figure means the same thing on every workload and every commit.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

from .workloads import cli_env

_REF_LEVELS = 20
_QUADRATURE_LEVELS = 4


def _median_time(fn, repeats: int) -> tuple[float, object]:
    times, result = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def import_times(stderr: str) -> tuple[float, float]:
    """(coupledwell, scipy) cumulative import seconds from -X importtime.

    importtime prints a module after its children, indented two spaces
    per level, so reading the lines backwards meets each parent first.
    A scipy line counts when its parent is not scipy itself.
    """
    own = scipy = 0.0
    parents: list[str] = []
    for line in reversed(stderr.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name_field = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # header line
        depth = (len(name_field) - len(name_field.lstrip()) - 1) // 2
        name = name_field.strip()
        del parents[depth:]
        parents.append(name)
        seconds = int(cumulative) * 1e-6
        if depth == 0 and name.split(".")[0] == "coupledwell":
            own += seconds
        if name.split(".")[0] == "scipy" and (depth == 0 or parents[depth - 1].split(".")[0] != "scipy"):
            scipy += seconds
    return own, scipy


def cli_figures(repeats: int = 3) -> dict:
    env = cli_env()
    help_times, imports = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "coupledwell.cli", "--help"], env=env,
                       capture_output=True, check=True, timeout=60)
        help_times.append(time.perf_counter() - t0)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import coupledwell.cli"],
                              env=env, capture_output=True, text=True, check=True, timeout=60)
        imports.append(import_times(proc.stderr))
    return {
        "cli.help_s": statistics.median(help_times),
        "cli.import_s": statistics.median(i[0] for i in imports),
        "cli.import.scipy_s": statistics.median(i[1] for i in imports),
    }


class _Counted:
    """Forwards to a state object and counts channel evaluations."""

    def __init__(self, inner, counter: list[int]):
        self._inner, self._counter = inner, counter

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def upper(self, x):
        self._counter[0] += 1
        return self._inner.upper(x)

    def lower(self, x):
        self._counter[0] += 1
        return self._inner.lower(x)


def library_figures(cw) -> dict:
    pair = cw.CouplingPair(1.0, 1.0)
    out = {}
    t, _ = _median_time(lambda: cw.spectrum(pair, 39), 7)
    out["secular.spectrum_ms"] = 1e3 * t
    out["secular.level_us"] = 1e6 * t / 40
    t, crit = _median_time(lambda: cw.critical_coupling(0, 1e-6), 7)
    out["secular.critical_ms"] = 1e3 * t
    out["secular.critical_evals"] = crit.evaluations

    t, states = _median_time(lambda: cw.doublet_family(pair, _REF_LEVELS), 7)
    out["wavefunctions.doublet_family_ms"] = 1e3 * t
    weights = cw.MetricWeights.unit(_REF_LEVELS)
    t, _ = _median_time(lambda: cw.build_theta_metric(states, weights), 7)
    out["metric.build_theta_mode_ms"] = 1e3 * t
    t, _ = _median_time(lambda: cw.inverse_theta_metric(states, weights), 7)
    out["metric.inverse_theta_mode_ms"] = 1e3 * t
    t, _ = _median_time(lambda: cw.biorthogonality_matrix(states), 7)
    out["metric.biorth_closed_ms"] = 1e3 * t

    # known lost-eps defect: at tiny coupling the pairs' offsets fall under
    # one ulp and the closed-form pairing stops being diagonal (exact: 0)
    tiny = cw.doublet_family(cw.CouplingPair(1e-5, 1e-5), 28)
    pairing = cw.biorthogonality_matrix(tiny)
    diag = np.diag(pairing)
    out["metric.tiny_c_pairing_error"] = float(
        np.max(np.abs(pairing - np.diag(diag))) / np.max(np.abs(diag)))

    small = cw.doublet_family(pair, _QUADRATURE_LEVELS)
    t, _ = _median_time(lambda: cw.biorthogonality_matrix(small, method="quadrature"), 3)
    out["metric.biorth_quadrature_ms"] = 1e3 * t
    counter = [0]
    cw.biorthogonality_matrix(
        [_Counted(s, counter) for s in small],
        [_Counted(cw.left_vector(s), counter) for s in small],
        method="quadrature",
    )
    out["metric.quadrature_evals"] = counter[0]

    for M, repeats in ((256, 3), (512, 1)):
        grid = cw.GridSpec(M)
        t, rep = _median_time(lambda: cw.build_hamiltonian(pair, grid), 3)
        out[f"oracle.build_hamiltonian_ms.M{M}"] = 1e3 * t
        out[f"oracle.matrix_bytes.M{M}"] = rep.matrix.nbytes
        t, _ = _median_time(lambda: cw.eigenpairs(rep, 10), repeats)
        out[f"oracle.eigenpairs_s.M{M}"] = t
    t, _ = _median_time(lambda: cw.criticality_scan([4.40, 4.55], cw.GridSpec(256)), 1)
    out["oracle.criticality_scan_s"] = t
    return out
