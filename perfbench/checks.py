"""Output checks, run outside the timed region after every request.

Each check returns None when the output is right and a one-line reason
when it is not.  The references are independent of the closed-form
chain where that is cheap: secular roots are re-bracketed in mpmath at
30 digits, critical couplings come from a 40-digit mpmath solve of the
double-root condition (table below), oracle levels and Richardson
orders are recomputed from the raw eigenvalues rather than read from
compare_spectrum's report, and the quadrature pairing matrix is held
against the closed-form one.
"""

from __future__ import annotations

import json
import math

import mpmath
import numpy as np

from .inputs import C_CRIT0

# c_crit of root pairs 0..7: mpmath.findroot on (g, dg/ds) = 0 in (s, c)
# at 40 digits, rounded to double.  test_perfbench recomputes them.
CRITICAL_REF = (
    4.475308602193255,
    12.801544262555984,
    22.633436438001294,
    33.39899655996171,
    44.84572324505982,
    56.83036171274561,
    69.26022961972492,
    82.07029830856564,
)

ROOT_REL_TOL = 1e-12  # mpmath brackets the root within this share of s
IDENTITY_REL_TOL = 1e-12  # E = s^2 - t^2 and 2 s t = c, relative
DEFECT_TOL = 1e-8  # quasi-Hermiticity and inverse-identity defects
PAIRING_OFF_TOL = 1e-9  # off-diagonal pairing / largest diagonal
QUADRATURE_REL_TOL = 1e-8  # Simpson with 512 panels vs closed form
DOUBLET_RTOL = 1e-6  # split of a discrete doublet, as in the oracle
IMAG_TOL = 1e-6  # |Im E| of a real oracle level; scan threshold
ORDER_TOL = 0.2  # Richardson order must lie in 2 +/- ORDER_TOL


def root_product(Y: float, Z: float) -> float:
    return math.sqrt(abs(Y * Z))


def _g(s, c):
    t = c / (2 * s)
    return s * mpmath.sin(2 * s) + t * mpmath.sinh(2 * t)


def root_problem(n: int, s: float, c: float) -> str | None:
    """Is s the n-th secular root at coupling c?

    The n-th root lies in the cell of pair n // 2; g falls through zero
    at the first root of the cell (even n) and rises through zero at the
    second (odd n).  Evaluating g at s -/+ ROOT_REL_TOL * s in mpmath
    checks both the position and which of the two roots it is.
    """
    k = n // 2
    a, b = (2 * k + 1) * math.pi / 2, (2 * k + 2) * math.pi / 2
    if not a < s < b:
        return f"n={n}: s={s!r} outside the cell ({a:.6g}, {b:.6g})"
    with mpmath.workdps(30):
        delta = mpmath.mpf(s) * ROOT_REL_TOL
        left = _g(mpmath.mpf(s) - delta, mpmath.mpf(c))
        right = _g(mpmath.mpf(s) + delta, mpmath.mpf(c))
    ok = (left > 0 > right) if n % 2 == 0 else (left < 0 < right)
    if not ok:
        return f"n={n}: mpmath finds no {'falling' if n % 2 == 0 else 'rising'} root within {ROOT_REL_TOL:g}*s of s={s!r} at c={c!r}"
    return None


def levels_problem(levels, c: float, check_levels) -> str | None:
    """Consistency of level records (dicts with n, s, t, eps, E) plus an
    mpmath root check at the sampled indices."""
    for i, lv in enumerate(levels):
        if lv["n"] != i:
            return f"level {i} is labelled n={lv['n']}"
        s, t, E = lv["s"], lv["t"], lv["E"]
        if abs(E - (s * s - t * t)) > IDENTITY_REL_TOL * max(1.0, abs(E)):
            return f"n={i}: E != s^2 - t^2"
        if abs(2 * s * t - c) > IDENTITY_REL_TOL * max(1.0, c):
            return f"n={i}: 2 s t != sqrt(YZ)"
        if not lv["eps"] >= 0.0:
            return f"n={i}: eps={lv['eps']!r} is negative"
    for n in check_levels:
        if n < len(levels):
            problem = root_problem(n, levels[n]["s"], c)
            if problem:
                return problem
    return None


def level_dict(level) -> dict:
    return {"n": level.n, "s": level.s, "t": level.t, "eps": level.eps, "E": level.E}


def spectrum_problem(req, levels, truncated_at) -> str | None:
    c = root_product(req["Y"], req["Z"])
    if c > C_CRIT0:
        if truncated_at != 0 or levels:
            return f"c={c!r} > c_crit(0) but truncated_at={truncated_at}, {len(levels)} levels"
        return None
    if truncated_at is not None or len(levels) != req["levels"]:
        return f"c={c!r} <= c_crit(0) but truncated_at={truncated_at}, {len(levels)} of {req['levels']} levels"
    return levels_problem(levels, c, req["check_levels"])


def critical_problem(req, c_crit: float, width: float, evaluations: int) -> str | None:
    ref = CRITICAL_REF[req["pair"]]
    if not 0.0 < width <= req["tol"]:
        return f"bracket width {width!r} not in (0, tol={req['tol']!r}]"
    if abs(c_crit - ref) > 0.5 * width + 1e-13 * ref:
        return f"pair {req['pair']}: c_crit={c_crit!r} is {c_crit - ref:.3e} from {ref!r}"
    if evaluations < 1:
        return f"evaluations={evaluations}"
    return None


def metric_problem(req, out) -> str | None:
    n_states = 2 * req["levels"]
    states = out["states"]
    if len(states) != n_states:
        return f"{len(states)} states for {req['levels']} levels"
    c = root_product(req["Y"], req["Z"])
    problem = levels_problem(
        [level_dict(s.level) for s in states[::2]], c, req["check_levels"]
    )
    if problem:
        return problem
    theta = out["theta"].matrix
    if theta.shape != (n_states, n_states) or not np.array_equal(theta, theta.T):
        return "metric form is not a symmetric matrix of the family's size"
    lowest = float(np.linalg.eigvalsh(theta)[0])
    if not lowest > 0.0:
        return f"metric not positive: lowest eigenvalue {lowest!r}"
    for name in ("defect_hamiltonian", "defect_spin", "defect_inverse"):
        if not out[name] <= DEFECT_TOL:
            return f"{name}={out[name]!r} > {DEFECT_TOL:g}"
    inverse = out["inverse"].matrix
    if inverse.shape != theta.shape or not np.all(out["inverse"].meta["coefficients"] > 0):
        return "inverse metric has the wrong size or a non-positive coefficient"
    pairing = out["pairing"]
    diag = np.diag(pairing)
    if not np.all(diag > 0):
        return "biorthogonal diagonal not positive"
    off = np.max(np.abs(pairing - np.diag(diag))) / np.max(diag)
    if off > PAIRING_OFF_TOL:
        return f"biorthogonal off-diagonal share {off:.3e} > {PAIRING_OFF_TOL:g}"
    return None


def quadrature_problem(closed: np.ndarray, quadrature: np.ndarray) -> str | None:
    scale = float(np.max(np.abs(np.diag(closed))))
    if quadrature.shape != closed.shape:
        return f"shape {quadrature.shape} != {closed.shape}"
    err = float(np.max(np.abs(quadrature - closed))) / scale
    if not err <= QUADRATURE_REL_TOL:
        return f"quadrature pairing differs from closed form by {err:.3e} (relative)"
    return None


def _doublet_levels(values: np.ndarray, k: int):
    """Real parts of the first k doublets of a sorted eigenvalue list."""
    out = []
    for i in range(k):
        a, b = values[2 * i], values[2 * i + 1]
        scale = max(1.0, abs(a))
        if abs(a - b) > DOUBLET_RTOL * scale:
            return None, f"eigenvalues {2 * i}, {2 * i + 1} are not a doublet: {a}, {b}"
        if max(abs(a.imag), abs(b.imag)) > IMAG_TOL * scale:
            return None, f"doublet {i} is not real: {a}, {b}"
        out.append(0.5 * (a.real + b.real))
    return out, None


def compare_problem(req, out) -> str | None:
    k, M = req["k"], req["M"]
    spec = out["spectrum"]
    c = root_product(req["Y"], req["Z"])
    levels = [level_dict(lv) for lv in spec.levels]
    if spec.truncated_at is not None or len(levels) != k:
        return f"analytic spectrum has {len(levels)} of {k} levels"
    problem = levels_problem(levels, c, req["check_levels"])
    if problem:
        return problem
    fine, problem = _doublet_levels(np.asarray(out["values"]), k)
    if problem:
        return f"M={M}: {problem}"
    coarse, problem = _doublet_levels(np.asarray(out["coarse_values"]), k)
    if problem:
        return f"M={M // 2}: {problem}"
    bound = 5e-3 * (512.0 / M) ** 2
    report = out["report"]
    for i, lv in enumerate(levels):
        err_f = abs(fine[i] - lv["E"])
        err_c = abs(coarse[i] - lv["E"])
        rel = err_f / max(1.0, abs(lv["E"]))
        if not rel <= bound:
            return f"M={M} level {i}: relative error {rel:.3e} > {bound:.3e}"
        if err_f == 0.0 or err_c == 0.0:
            return f"M={M} level {i}: zero error, no Richardson order"
        order = math.log2(err_c / err_f)
        if not abs(order - 2.0) <= ORDER_TOL:
            return f"M={M} level {i}: Richardson order {order:.3f} outside 2 +/- {ORDER_TOL}"
        reported = report["levels"][i]["rel_err"], report["richardson_orders"][i]
        if not (math.isclose(reported[0], rel, rel_tol=1e-6, abs_tol=1e-15)
                and math.isclose(reported[1], order, abs_tol=1e-6)):
            return f"M={M} level {i}: report says {reported}, recomputed {(rel, order)}"
    return None


def scan_problem(req, scan, bracket) -> str | None:
    if [c for c, _ in scan] != [float(c) for c in req["c_values"]]:
        return "scan couplings differ from the request"
    lo, hi = bracket
    if not lo < C_CRIT0 < hi:
        return f"bracket ({lo!r}, {hi!r}) does not contain c_crit(0)"
    for c, im in scan:
        if (im > IMAG_TOL) != (c >= hi):
            return f"c={c!r}: max |Im E|={im:.3e} disagrees with the bracket ({lo}, {hi})"
    return None


# --- command line -------------------------------------------------------


def cli_problem(req, returncode: int, stdout: str) -> str | None:
    """Check one CLI request whose exit code is 0 or 3."""
    kind = req["kind"]
    if kind == "cli-help":
        return None if returncode == 0 and "usage" in stdout else "--help failed"
    if kind == "cli-spectrum":
        c = root_product(req["Y"], req["Z"])
        records = json.loads(stdout)
        expected = 3 if c > C_CRIT0 else 0
        if returncode != expected:
            return f"exit {returncode} at c={c!r}, expected {expected}"
        return spectrum_problem(req, records, 0 if returncode == 3 else None)
    if returncode != 0:
        if kind == "cli-verify" and returncode == 3:
            c = root_product(req["Y"], req["Z"])
            return None if c > C_CRIT0 else f"exit 3 at c={c!r} <= c_crit(0)"
        return f"exit {returncode}"
    payload = json.loads(stdout)
    if kind == "cli-critical":
        return critical_problem(req, payload["c_crit"], payload["bracket_width"], payload["evaluations"])
    if kind == "cli-metric":
        n_states = 2 * req["levels"]
        theta = np.array(payload["theta"])
        if theta.shape != (n_states, n_states) or not np.array_equal(theta, theta.T):
            return "metric form is not a symmetric matrix of the family's size"
        if payload["signature"] != [n_states, 0] or not min(payload["eigenvalues"]) > 0:
            return f"metric not positive: signature {payload['signature']}"
        return None
    if kind == "cli-scan":
        if len(payload) != req["steps"]:
            return f"{len(payload)} scan entries for {req['steps']} steps"
        for entry in payload:
            c = root_product(entry["c"], entry["c"])
            if entry["all_real"] != (c <= C_CRIT0):
                return f"c={c!r}: all_real={entry['all_real']}"
            problem = spectrum_problem(
                {"Y": entry["c"], "Z": entry["c"], "levels": req["levels"],
                 "check_levels": range(req["levels"])},
                entry["levels"], entry["truncated_at"],
            )
            if problem:
                return problem
        return None
    if kind == "cli-verify":
        c = root_product(req["Y"], req["Z"])
        if c > C_CRIT0:
            return f"verify passed at c={c!r} > c_crit(0)"
        return None if payload["all_passed"] else "verify exit 0 but all_passed is false"
    raise ValueError(f"unknown request kind {kind!r}")


def cli_refusal(req, stdout: str) -> str:
    """Detail for a documented exit code 4 (numerical failure)."""
    if req["kind"] == "cli-verify":
        try:
            failed = [c["name"] for c in json.loads(stdout)["checks"] if not c["passed"]]
            return f"verify checks failed: {', '.join(failed)}"
        except (ValueError, KeyError):
            pass
    return "exit 4 (numerical failure)"
