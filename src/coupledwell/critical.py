"""Critical coupling of a root pair: the merger of the two roots of a
pair cell, an exceptional point, where they leave the real axis.

`critical_coupling` solves the double root g = g' = 0 of pair k by
guarded Newton on the dip depth min_s g (`_merger`), then doubles and
bisects the coupling, which takes the walk onto the cell minimum
(`secular._negative_point`) only within _MERGER_WINDOW of the merger
coupling c* and is decided by c* farther out.

The search lives apart from the level solves in `secular` so that a
process that only solves levels neither compiles it nor imports
`_bracket`; the package exports its names on first lookup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._bracket import newton_in_bracket
from .model import as_index, validate_tol
from .secular import DEFAULT_CRITICAL_TOL, _negative_point, _slope, _value, pair_interval

MAX_PAIR = int(2**28 / math.pi) - 1  # cells end below 2^28: c_merger within 4 ulp
_PAIR_INDEX = f"pair_index must be an integer in [0, {MAX_PAIR}]"  # formatted once, not per call
_MERGER_WINDOW = 1e-12  # relative half-width about c* inside which the bisection walks


@dataclass(frozen=True)
class CriticalResult:
    """Merger coupling of one root pair.

    c_crit: midpoint of the final coupling bracket, whose ends the walk
    onto the cell minimum decides; bracket_width: its width;
    evaluations: calls of g, dg/ds, d2g/ds2 and dg/dc over the whole
    search, each one closed-form expression.  About 45-70 of them solve
    the merger, and each walk costs 10-30 more.  Pair 0 at tol=1e-6
    takes 87 calls, pair 7 at tol=1e-12 236.

    c_merger, s_merger: the double root g = g' = 0 of the pair cell,
    c_merger the first float at which the cell minimum g(s_merger) reads
    >= 0; E_merger = s^2 - t^2 there, with t = c_merger / (2 s_merger).
    Unlike c_crit they do not depend on `tol`, and at the float floor,
    where the rounding of g decides the walk, they stay within a few
    ulp of the exact double root.
    """

    pair_index: int
    c_crit: float
    bracket_width: float
    evaluations: int
    c_merger: float
    s_merger: float
    E_merger: float


def _lift(s: float, c: float) -> float:
    """dg/dc = (sinh 2t + 2t cosh 2t) / (2s), positive at every s."""
    t = c / (2.0 * s)
    try:
        return (math.sinh(2.0 * t) + 2.0 * t * math.cosh(2.0 * t)) / (2.0 * s)
    except OverflowError:
        return math.inf


def _cell_minimum(lo: float, hi: float, c: float, x: float) -> tuple[float, int]:
    """The cell minimum of g at the coupling c, the first float of
    (lo, hi] at which g' reads >= 0, by Newton on g' with g'' from x, and
    the evaluations of g' and g'' spent: the rules of `newton_in_bracket`
    on -g', in one loop that runs no callback."""
    newton, last, before_last, evaluations = True, math.inf, math.inf, 0
    reach = 0.0  # the probe's offset from Newton's last point, 0.0 outside the gallop
    while True:
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                return hi, evaluations
        evaluations += 2 if newton else 1
        t = c / (2.0 * x)
        u, v = 2.0 * t, 2.0 * x
        sin, cos = math.sin(v), math.cos(v)
        try:  # g' and g'' as in `_negative_point`
            sinh, cosh = math.sinh(u), math.cosh(u)
        except OverflowError:
            slope, curve = -math.inf, math.inf
        else:
            slope = sin + v * cos - (t / x) * (sinh + u * cosh)
            if newton:
                curve = 4.0 * (cos - x * sin) + (u / (x * x)) * (
                    (1.0 + u * t) * sinh + 4.0 * t * cosh)
        if slope < 0.0:
            lo = x
        else:
            hi = x
        if not newton:
            if reach and (x == lo) == (reach > 0.0):  # the probe kept the iterate's sign
                x += reach
                reach *= 2.0
            else:
                reach = 0.0
                x = 0.5 * (lo + hi)
            continue
        size = abs(step := slope / curve)
        if size <= 2.0 * math.ulp(x):
            newton = False
            reach = math.nextafter(x, hi if x == lo else lo) - x
            x += reach
        elif size >= 0.5 * before_last:
            newton = False
            x += (1.0 if x == lo else -1.0) * (size + 4.0 * math.ulp(x))
        elif lo < (x := x - step) < hi:
            last, before_last = size, last


def _merger(k: int, lo: float, hi: float) -> tuple[float, float, int]:
    """The double root g = g' = 0 of cell k, given the pair alive at the
    coupling lo and merged at hi: the merger coupling c* in (lo, hi], the
    cell minimum s* there, and the evaluations of g and its derivatives.

    Each dip depth m(c) = min_s g(s, c) takes the cell minimum by
    guarded Newton on g' with g'' over the upper half of the cell, from
    the previous minimum, unless g' < 0 at the cell's upper end b, which
    puts the minimum on b.  m rises with c through zero at c*, and the
    search on c ends on two adjacent floats: c* is the upper, the first
    at which m reads >= 0.  Its steps are Newton's on
    log(t sinh 2t) - log(-s sin 2s) at the minimum, which has m's sign:
    past c*, m grows like exp(c/s), and Newton on m itself moves about
    s per step, too slowly for the helper's noise rule (pair 5000 then
    bisected from 2^17 * 1.5, 455 evaluations).  The derivative taken,
    (dg/dc) / (t sinh 2t), leaves out a term that vanishes at c*, where
    -s sin 2s = t sinh 2t and g' = 0, so convergence stays quadratic.
    """
    a, b = pair_interval(k)
    half = 0.5 * (a + b)
    s = 0.5 * (half + b)
    merged = None  # (c, s*) where m last read >= 0: the bracket's hi end
    evaluations = 0

    def dip(c: float, newton: bool):  # -m(c), > 0 while the pair is alive
        nonlocal s, merged, evaluations
        evaluations += 2
        if _slope(b, c) < 0.0:
            s = b
        else:
            s, spent = _cell_minimum(half, b, c, s)
            evaluations += spent
        depth = _value(s, c)
        if not depth < 0.0:
            merged = c, s
        if not newton:
            return -depth, None
        evaluations += 1
        t = c / (2.0 * s)
        tail = t * math.sinh(2.0 * t)
        swing = tail - depth  # -s sin 2s, > 0 short of b
        return -depth, (tail * math.log(tail / swing) if swing > 0.0 else depth) / _lift(s, c)

    c = newton_in_bracket(dip, lo, hi, 0.5 * (lo + hi))[1]
    if merged is None or merged[0] != c:  # the search never sampled hi
        dip(c, False)
        merged = c, s
    return merged[0], merged[1], evaluations


def critical_coupling(
    pair_index: int,
    tol: float = DEFAULT_CRITICAL_TOL,
) -> CriticalResult:
    """Critical coupling root c = sqrt(YZ) at which the roots s_{2k},
    s_{2k+1} merge: a bisection bracket of the coupling, and the merger
    point itself (`CriticalResult.c_merger`, `s_merger`, `E_merger`).

    The bracket's predicate is "g dips below zero inside the pair cell",
    decided by the same walk onto the cell's single minimum that brackets
    the roots in `solve_level`.  The walk ends on the minimum to machine
    precision, so it holds arbitrarily close to the merger, where the
    negative window is narrower than any fixed mesh.  The merger is
    solved first, from a closed-form bracket of the pair cell, and the
    doubling from 1 and the bisection walk only at couplings within
    1e-12 (relative) of it, where the dip depth nears the rounding of g;
    farther out the merger decides as the walk would.

    `tol` is an absolute width of the coupling bracket.  Below about
    one ulp of c_crit the bisection stops at the float floor instead,
    so `bracket_width` is the figure to trust: pair 20000 at tol=1e-12
    returns 1.16e-10.

    Every pair up to MAX_PAIR = 85445658 is answered, the last whose cell
    end (k+1) pi stays below 2^28 (c* = 4.81e9 there), with c_merger
    within 4 ulp of the double root.  Past it the float s resolves the
    cell ever more coarsely, the cell minimum lands up to one ulp of s
    off, and c_merger reads several ulp low (4.4 at pair 130911768), so
    larger pairs raise ModelDomainError.
    """
    k = as_index(pair_index, _PAIR_INDEX, 0, MAX_PAIR)
    validate_tol(tol)
    # alive at 1/2 s1 ln s1: t = ln(s1) / 4 at s1 = a + pi/4, where sin 2s1 = -1,
    # so g(s1) < -s1 + ln(s1) sqrt(s1) / 8 < 0.  Merged at b ln(4b + 2): there
    # t >= ln(4b + 2) / 2 >= 1/2 on the cell, so t sinh 2t >= (t/2)(e^2t - 1) > b >= -s sin 2s
    a, b = pair_interval(k)
    s1 = a + 0.25 * math.pi
    c_merger, s_merger, evaluations = _merger(k, 0.5 * s1 * math.log(s1), b * math.log(4.0 * b + 2.0))
    near_lo, near_hi = c_merger * (1.0 - _MERGER_WINDOW), c_merger * (1.0 + _MERGER_WINDOW)

    def alive(c: float) -> bool:  # the walk onto the cell minimum
        nonlocal evaluations
        point, spent = _negative_point(k, c)
        evaluations += spent
        return point is not None

    # once the walk agrees with c* at both ends of its window, a coupling
    # outside the window is decided by c* alone; otherwise every coupling walks
    if not (alive(near_lo) and not alive(near_hi)):
        near_lo, near_hi = -math.inf, math.inf
    lo, hi = 1e-3, 1.0
    while alive(hi) if near_lo <= hi <= near_hi else hi < c_merger:
        lo, hi = hi, 2.0 * hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if alive(mid) if near_lo <= mid <= near_hi else mid < c_merger:
            lo = mid
        else:
            hi = mid
    t_merger = c_merger / (2.0 * s_merger)
    return CriticalResult(
        pair_index=k,
        c_crit=0.5 * (lo + hi),
        bracket_width=hi - lo,
        evaluations=evaluations,
        c_merger=c_merger,
        s_merger=s_merger,
        E_merger=s_merger * s_merger - t_merger * t_merger,
    )
