"""Seeded request generator shared by the three workloads.

A run is a fixed number of blocks (BLOCK_SECONDS sets how many for a
given --seconds).  Every block of a workload holds the same number of
requests of each kind (BLOCKS) plus the same known-defect probes
(PROBES), in a seeded order, so the mix, and with it the position of
the median and the 90th percentile, is the same on every seed; the
seed only moves the parameters of the seeded requests.  Block i of
(workload, seed) comes from its own random.Random seeded with a
string, which Python hashes with SHA-512, so the same seed gives
byte-identical inputs in any process and any PYTHONHASHSEED.

Within a block, the requests of one kind take their parameters from a
Latin hypercube: each dimension is cut into as many strata as there
are requests of that kind and each stratum is used once.  That keeps
the share of high level counts, couplings above c_crit and other slow
corners steady from block to block.

Known defects fail at fixed inputs, not at seeded ones.  The seeded
requests stay where today's code passes, and each block carries the
same probes at inputs where it fails (PROBES).  So a run of n blocks
fails exactly n times the failing probes, on every seed and every
machine, and a fix of a defect shows as probes that pass.  The
boundary of a defect moves erratically with the coupling (the level
solver's first stall lies anywhere from n = 40 to n = 54 for c in
[1e-5, 4.45]), so seeded inputs that straddle it would make the
failure count depend on the seed.

Ranges, and why they were chosen:

* spectrum, in-process and CLI alike: c = sqrt(YZ) in [1e-4, 5.5]
  and 1..40 levels.  5.5 lies past c_crit(0) = 4.4753, so about a
  fifth of the requests truncate at n = 0 (the truncation check sees
  both sides).  40 levels (n <= 39) and c >= 1e-4 stay below the
  level solver's absolute-tolerance stall, which starts at n = 40..54
  for c >= 1e-5 and at n = 12 for c ~ 1e-6.  Y/Z varies by up to 4x
  because the spectrum depends on YZ only.
* spectrum probes: levels 48, 56 and 64 at c = 2, 0.5 and 3.5 (first
  stall at n = 42, 40 and 43), so the requested counts up to 64 are
  still sent, at inputs where the stall is certain.  A stalled request
  costs about what a successful one does (10 ms against 13 ms at 64
  levels), so a fix does not read as a slowdown.
* critical: pairs 0..7 at tolerances 1e-3..1e-12, log-uniform: the
  bisection count grows with both.
* metric (library): c in [0.01, 4.4].  4.4 keeps every level below its
  merger (c_crit(0) = 4.4753, the smallest).  Below c ~ 3e-4 the known
  lost-eps defect of the level solver (eps_n falls under one ulp of s)
  makes the closed-form pairing matrix wrong, up to off-diagonal
  entries as large as the diagonal at c = 1e-5; the workloads stay at
  c >= 0.01 so that a wrong output in them is a new error, and the
  traced run measures that defect at a fixed input instead
  (metric.tiny_c_pairing_error).  16..40 levels make each metric
  request slower than the slowest secular request, so the slowest
  tenth of closed-form requests are metric and quadrature requests and
  latency_p90_s follows the metric layer; 40 is the largest family the
  level solver reaches before its stall.
* quadrature: c as for metric, 2..8 levels; one quadrature matrix
  costs O(N^2) Simpson integrals, 9 ms at N = 2 and 130 ms at N = 8
  on a 2-core Xeon.
* compare (oracle): c in (0, 4.4], 2..4 levels, fine grid M = 256 or
  512 with the coarse grid M/2 for the Richardson order.  Four M=256
  requests and one scan per M=512 request put the median inside the
  M = 256 requests (at their 75th percentile) and the 90th percentile
  inside the M = 512 ones.
* scan (oracle): three couplings at M = 256, one in [4.0, 4.25), one in
  [4.30, 4.45) and one in [4.50, 4.70), so the last real and the first
  complex coupling bracket c_crit(0) with a margin of at least 0.025
  on each side, far wider than the O(h^2) shift of the discrete
  transition.
* CLI metric: c as for metric, 2..12 levels (the JSON output grows as
  N^2).  CLI scan: 3..11 couplings in [1e-4, 5.5] with 1..4 levels.
  CLI verify: c in [1, 5.5], 2..6 levels (6 is the CLI default), on
  the M = 128 grid, the largest the verify requests use, so they are
  the slowest fifth of the CLI requests and latency_p90_s lands on
  them.  Below c ~ 0.55 verify with 4..6 levels (and with 2..3 levels
  at c ~ 0.007) fails its own 1e-12 matching-residual bound, a known
  defect; the probe sends 6 levels at c = 0.1, where it fails, and a
  CLI spectrum probe sends 48 levels at c = 2.
"""

from __future__ import annotations

import random

C_CRIT0 = 4.475308602193255  # sqrt(YZ) where root pair 0 merges (mpmath, 40 digits)

SPECTRUM_C_MIN = 1e-4
SPECTRUM_C_MAX = 5.5
SPECTRUM_LEVELS_MAX = 40
VERIFY_C_MIN = 1.0
FAMILY_C_MIN = 0.01
FAMILY_C_MAX = 4.4

BLOCKS = {
    "cli-short": (
        ("cli-spectrum", 2),
        ("cli-critical", 2),
        ("cli-metric", 2),
        ("cli-scan", 1),
        ("cli-verify", 1),
    ),
    "closed-form": (
        ("spectrum", 8),
        ("critical", 5),
        ("metric", 3),
        ("quadrature", 1),
    ),
    "oracle": (
        ("compare-256", 4),
        ("scan", 1),
        ("compare-512", 1),
    ),
}
WORKLOADS = tuple(BLOCKS)

# Requests at fixed inputs where a known defect makes today's code
# fail, sent once in every block (see the module docstring).
PROBES = {
    "cli-short": (
        {"kind": "cli-spectrum", "Y": 2.0, "Z": 2.0, "levels": 48, "check_levels": [0, 41]},
        {"kind": "cli-verify", "Y": 0.1, "Z": 0.1, "levels": 6, "grid": 128},
    ),
    "closed-form": (
        {"kind": "spectrum", "Y": 2.0, "Z": 2.0, "levels": 48, "check_levels": [0, 41]},
        {"kind": "spectrum", "Y": 0.5, "Z": 0.5, "levels": 56, "check_levels": [0, 39]},
        {"kind": "spectrum", "Y": 3.5, "Z": 3.5, "levels": 64, "check_levels": [0, 42]},
    ),
    "oracle": (),
}

# Summed request time of one block with one BLAS thread on a 2-core
# Xeon: a run is round(seconds / BLOCK_SECONDS) blocks, at least one,
# so its number of requests does not depend on the machine's speed.
BLOCK_SECONDS = {"cli-short": 6.0, "closed-form": 0.21, "oracle": 9.8}


# Requests between two readings of the speed gauge (speed.py): one for
# the long requests, two blocks (about 0.4 s) for closed-form, so the
# gauge's 40 ms costs a tenth of that run.
GAUGE_EVERY = {"cli-short": 1, "closed-form": 40, "oracle": 1}


def n_blocks(workload: str, seconds: float) -> int:
    return max(1, round(seconds / BLOCK_SECONDS[workload]))

# One small request per kind, run untimed before the clock starts so
# that lazy imports and first-call set-up inside numpy/scipy are paid.
WARMUP = {
    "cli-short": ({"kind": "cli-help"},),
    "closed-form": (
        {"kind": "spectrum", "Y": 1.0, "Z": 1.0, "levels": 2, "check_levels": [0]},
        {"kind": "critical", "pair": 0, "tol": 1e-3},
        {
            "kind": "metric", "Y": 1.0, "Z": 1.0, "levels": 2,
            "s_plus": [1.0, 1.0], "s_minus": [1.0, 1.0], "check_levels": [0],
        },
        {"kind": "quadrature", "Y": 1.0, "Z": 1.0, "levels": 1},
    ),
    "oracle": (
        {"kind": "compare-16", "Y": 1.0, "Z": 1.0, "M": 16, "k": 2, "check_levels": [0]},
        {"kind": "scan", "M": 16, "c_values": [4.0, 4.3, 4.6]},
    ),
}


def _strata(rng: random.Random, k: int) -> list[float]:
    """k uniforms in [0, 1), one in each of k equal strata, in random order."""
    cells = list(range(k))
    rng.shuffle(cells)
    return [(cell + rng.random()) / k for cell in cells]


def _pick(u: float, lo: int, hi: int) -> int:
    """Integer in lo..hi from a uniform u in [0, 1)."""
    return lo + int(u * (hi - lo + 1))


def _coupling(c: float, u_ratio: float) -> tuple[float, float]:
    """(Y, Z) with sqrt(YZ) = c and Y/Z = q^2, q in [1/2, 2)."""
    q = 2.0 ** (2.0 * u_ratio - 1.0)
    return c * q, c / q


def _sample_levels(rng: random.Random, levels: int, k: int) -> list[int]:
    return sorted({rng.randrange(levels) for _ in range(k)})


def _c_between(lo: float, hi: float, u: float) -> float:
    return lo + (hi - lo) * (1.0 - u)


def _spectrum(rng, u_c, u_n, u_q):
    c = _c_between(SPECTRUM_C_MIN, SPECTRUM_C_MAX, u_c)
    levels = _pick(u_n, 1, SPECTRUM_LEVELS_MAX)
    Y, Z = _coupling(c, u_q)
    return {"Y": Y, "Z": Z, "levels": levels, "check_levels": _sample_levels(rng, levels, 2)}


def _critical(u_pair, u_tol):
    return {"pair": _pick(u_pair, 0, 7), "tol": 10.0 ** (-3.0 - 9.0 * u_tol)}


def _family(rng, u_c, u_n, u_q, n_lo, n_hi):
    levels = _pick(u_n, n_lo, n_hi)
    Y, Z = _coupling(_c_between(FAMILY_C_MIN, FAMILY_C_MAX, u_c), u_q)
    return {"Y": Y, "Z": Z, "levels": levels, "check_levels": _sample_levels(rng, levels, 1)}


def _make(kind: str, rng: random.Random, u: list[float]) -> dict:
    if kind in ("spectrum", "cli-spectrum"):
        return _spectrum(rng, u[0], u[1], u[2])
    if kind in ("critical", "cli-critical"):
        return _critical(u[0], u[1])
    if kind == "metric":
        req = _family(rng, u[0], u[1], u[2], 16, 40)
        n = req["levels"]
        req["s_plus"] = [0.5 + 1.5 * rng.random() for _ in range(n)]
        req["s_minus"] = [0.5 + 1.5 * rng.random() for _ in range(n)]
        return req
    if kind == "quadrature":
        req = _family(rng, u[0], u[1], u[2], 2, 8)
        del req["check_levels"]
        return req
    if kind == "cli-metric":
        return _family(rng, u[0], u[1], u[2], 2, 12)
    if kind in ("compare-256", "compare-512"):
        Y, Z = _coupling(FAMILY_C_MAX * (1.0 - u[0]), u[2])
        k = _pick(u[1], 2, 4)
        return {"Y": Y, "Z": Z, "M": int(kind[-3:]), "k": k,
                "check_levels": _sample_levels(rng, k, 1)}
    if kind == "scan":
        return {"M": 256, "c_values": [4.0 + 0.25 * u[0], 4.30 + 0.15 * u[1], 4.50 + 0.20 * u[2]]}
    if kind == "cli-scan":
        a = _c_between(SPECTRUM_C_MIN, SPECTRUM_C_MAX, u[0])
        b = _c_between(SPECTRUM_C_MIN, SPECTRUM_C_MAX, rng.random())
        return {"c_min": min(a, b), "c_max": max(a, b), "steps": _pick(u[1], 3, 11),
                "levels": _pick(u[2], 1, 4)}
    if kind == "cli-verify":
        Y, Z = _coupling(_c_between(VERIFY_C_MIN, SPECTRUM_C_MAX, u[0]), u[2])
        return {"Y": Y, "Z": Z, "levels": _pick(u[1], 2, 6), "grid": 128}
    raise ValueError(f"unknown request kind {kind!r}")


def block(workload: str, seed: int, index: int) -> list[dict]:
    """Requests of block `index` of a workload, in their run order."""
    rng = random.Random(f"coupledwell-bench/{workload}/{seed}/{index}")
    requests = []
    for kind, count in BLOCKS[workload]:
        dims = [_strata(rng, count) for _ in range(3)]
        for i in range(count):
            req = _make(kind, rng, [d[i] for d in dims])
            req["kind"] = kind
            requests.append(req)
    requests.extend(dict(probe) for probe in PROBES[workload])
    rng.shuffle(requests)
    return requests
