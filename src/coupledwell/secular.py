"""Secular equation of the coupled square wells and its root structure.

For a positive coupling product YZ the bound-state condition reduces to

    g(s) = s sin(2s) + t sinh(2t) = 0,   t = sqrt(YZ) / (2 s),

with energy E = s^2 - t^2.  Roots sit near odd multiples of pi/2 in
pairs: the n-th root is s_n = (n+1) pi/2 + (-1)^n eps_n with eps_n > 0,
so the pair (s_{2k}, s_{2k+1}) lives inside the open cell
((2k+1) pi/2, (2k+2) pi/2) where g is positive at both ends and dips
negative exactly once.  As the coupling grows the two roots of a pair
walk toward the dip minimum, merge there, and leave the real axis: that
merger defines the critical coupling of the pair.

Numerical strategy: one mesh-free path of guarded Newton iterations.
On the lower half of cell k, g' < 0 (sin 2s, cos 2s and the
s-derivative of t sinh 2t are all negative there); on the upper half
g'' > 0 (cos 2s > 0, -s sin 2s > 0, and t sinh 2t is convex in s).  So
g has exactly one minimum per cell, in its upper half, and g' rises
through zero there.  The walk onto that minimum takes Newton steps on
g' with the closed-form g'', inside the sign bracket of g' on the upper
half; a step that leaves the bracket is replaced by the bracket's
midpoint.  The first sample with g < 0 splits the cell into the two
root brackets.
Once a step is within 2 ulp, one last sample at the Newton point
decides: g >= 0 there means the pair has merged (ROOT_LOST), and so
does a bracket that collapses first.  A step past the cell's upper end
samples g' there: g' < 0 at that end puts the minimum on it, where
g = t sinh 2t > 0, so the pair has merged too.  Once 2t passes the
float overflow point, t sinh 2t exceeds any |s sin 2s|: g, g' and g''
are then +inf, -inf and +inf, which reads as a merged pair, not as an
error.

The criticality search (`critical.critical_coupling`) solves the
double root g = g' = 0 of a pair, the merger, in its own module and
takes its walk from here.

Each root is solved and stored as its offset eps: with
s = (n+1) pi/2 + (-1)^n eps, sin 2s = -sin 2eps and g = t sinh(2t) -
s sin(2 eps), positive at eps = 0 for both roots of a pair.  Newton
steps on this form (dg/deps = (-1)^n dg/ds) solve eps from its
first-order value in its sign bracket, from 0 to the negative point
(see `_bracket`): eps keeps its full relative precision at any
coupling and is one of two adjacent floats at a sign change of the
float g; s, t and E are derived from it.  Both roots of a pair share
one walk: `spectrum` and `wavefunctions.doublet_family` walk each cell
once and solve both eps brackets from its negative point, the point
`solve_level` finds when it walks the cell for one root.  Where no
float of the bracket reads g <= 0, not even its far end, the negative
window is below the rounding of g and the pair counts as merged.  A root is
refused only if |g| there exceeds RESIDUAL_RTOL of the scale
max(1, |t sinh 2t| + |s sin 2eps|), with which the rounding of g grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ModelDomainError, NumericalFailureError, RootLostError
from .model import BranchClass, CouplingPair, as_index

RESIDUAL_RTOL = 1e-12  # |g| at a root, relative to max(1, |t sinh 2t| + |s sin 2eps|)
DEFAULT_CRITICAL_TOL = 1e-3  # here, not in `critical`: the CLI's parser reads it
MAX_LEVEL = 2 * (int(2**51 / math.pi) - 1) + 1  # pair cells end below 2^51: floats 1/4 apart
_LEVEL_INDEX = f"level index must be an integer in [0, {MAX_LEVEL}]"  # formatted once, not per call
_CELL_INDEX = f"pair_index must be an integer in [0, {MAX_LEVEL // 2}]"
_N_MAX = f"n_max must be an integer in [0, {MAX_LEVEL}]"
_PI_CUBED = math.pi**3


@dataclass(frozen=True, init=False)
class LevelSolution:
    """One solved bound-state root.

    n: level index (0-based); eps: the stored coordinate, the offset
    with s = (n+1) pi/2 + (-1)^n eps (0 off the positive branch); s, t:
    real and (minus) imaginary part of kappa = s - i t, derived from eps;
    E: energy; residual: |g| at the returned root, in the eps form;
    branch: coupling product class; sublabel: +/-1 energy member for
    NEGATIVE_PRODUCT, None otherwise.

    The `__init__` is written by hand, with the generated one's
    signature: that one stores each field through object.__setattr__,
    the cost of a frozen dataclass, and took 1.38 us per record against
    0.50 us for these stores into __dict__ (CPython 3.11), where a level
    of a 40-level `spectrum` at c = 0.5 to 4 takes ~3.9 us to solve.
    Equality, hash, repr, `dataclasses.replace` and pickling are the
    dataclass's own.
    """

    n: int
    s: float
    t: float
    eps: float
    E: float
    residual: float
    branch: BranchClass
    sublabel: int | None = None

    def __init__(self, n, s, t, eps, E, residual, branch, sublabel=None):
        fields = self.__dict__
        fields["n"] = n
        fields["s"] = s
        fields["t"] = t
        fields["eps"] = eps
        fields["E"] = E
        fields["residual"] = residual
        fields["branch"] = branch
        fields["sublabel"] = sublabel


@dataclass(frozen=True)
class SpectrumResult:
    levels: tuple[LevelSolution, ...]
    truncated_at: int | None = None
    non_diagonalizable: bool = False


def residual(s: float, c: float) -> float:
    """g(s) = s sin(2s) + t sinh(2t) with t = c / (2s), c = sqrt(YZ) >= 0."""
    if not (math.isfinite(s) and s > 0.0):
        raise ModelDomainError(f"s must be finite and positive, got {s!r}")
    if not (math.isfinite(c) and c >= 0.0):
        raise ModelDomainError(f"coupling root c must be finite and >= 0, got {c!r}")
    return _value(s, c)


def _value(s: float, c: float) -> float:
    """`residual` without its domain checks."""
    t = c / (2.0 * s)
    try:
        return s * math.sin(2.0 * s) + t * math.sinh(2.0 * t)
    except OverflowError:
        return math.inf


def _slope(s: float, c: float) -> float:
    """dg/ds = sin 2s + 2s cos 2s - (t/s)(sinh 2t + 2t cosh 2t); -inf past overflow."""
    t = c / (2.0 * s)
    u, v = 2.0 * t, 2.0 * s
    try:
        return math.sin(v) + v * math.cos(v) - (t / s) * (math.sinh(u) + u * math.cosh(u))
    except OverflowError:
        return -math.inf


def pair_interval(pair_index: int) -> tuple[float, float]:
    """Open cell ((2k+1) pi/2, (2k+2) pi/2) holding roots 2k and 2k+1, k <= MAX_LEVEL // 2."""
    k = as_index(pair_index, _CELL_INDEX, 0, MAX_LEVEL // 2)
    return ((2 * k + 1) * math.pi / 2.0, (2 * k + 2) * math.pi / 2.0)


def _negative_point(k: int, c: float) -> tuple[float | None, int]:
    """A point of cell k where g < 0 (None once the pair has merged),
    with the number of evaluations of g, dg/ds and d2g/ds2 spent.

    Walks by guarded Newton steps on dg/ds over the upper half of the
    cell, which holds the single minimum of g, and stops at the first
    sample below zero.  A step forms g, g' (see `_slope`) and
    g'' = 4 cos 2s - 4s sin 2s + (2t/s^2)((1 + 2t^2) sinh 2t + 4t cosh 2t)
    from one t, sin 2s and sinh 2t, with cos 2s and cosh 2t once g >= 0;
    g' and g'' read -inf and +inf past overflow.
    """
    a, b = (2 * k + 1) * math.pi / 2.0, (2 * k + 2) * math.pi / 2.0  # pair_interval(k)
    lo, hi = 0.5 * (a + b), b
    s = 0.5 * (lo + hi)
    near = 2.0 * math.ulp(b)
    evaluations = 0
    while lo < s < hi:
        evaluations += 1
        t = c / (2.0 * s)
        u, v = 2.0 * t, 2.0 * s
        sin = math.sin(v)
        try:  # _value(s, c), then g' and g''
            sinh = math.sinh(u)
            if s * sin + t * sinh < 0.0:
                return s, evaluations
            cos, cosh = math.cos(v), math.cosh(u)
        except OverflowError:
            slope, curve = -math.inf, math.inf
        else:
            slope = sin + v * cos - (t / s) * (sinh + u * cosh)
            curve = 4.0 * (cos - s * sin) + (u / (s * s)) * ((1.0 + u * t) * sinh + 4.0 * t * cosh)
        evaluations += 2
        if slope < 0.0:
            lo = s
        else:
            hi = s
        step = slope / curve
        s -= step
        if abs(step) <= near:
            evaluations += 1
            return (s if _value(s, c) < 0.0 else None), evaluations
        if not lo < s < hi:
            if s >= hi == b:  # g' < 0 at b: g falls all the way to g(b) = t sinh 2t > 0
                evaluations += 1
                if _slope(b, c) < 0.0:
                    return None, evaluations
            s = 0.5 * (lo + hi)
    return None, evaluations


def _first_order(n: int, product: float) -> float:
    """First-order eps_n, 2 YZ / ((n+1)^3 pi^3)."""
    return 2.0 * product / ((n + 1) ** 3 * _PI_CUBED)


def _positive_levels(c: float, count: int):
    """Levels 0..count-1 at the coupling root c > 0, in order: one walk
    of each pair cell serves both of its roots.  Raises RootLostError at
    the first level of a merged pair."""
    for n in range(count):
        if not n % 2:
            p = _negative_point(n // 2, c)[0]
        yield _level_at(n, c, p)[0]


def _eps_sample(s0: float, sign: float, c: float, eps: float) -> tuple[float, float, float, float]:
    """s, t, t sinh 2t and s sin 2eps at s = s0 + sign eps."""
    s = s0 + sign * eps
    t = c / (2.0 * s)
    return s, t, t * math.sinh(2.0 * t), s * math.sin(2.0 * eps)


def _level_at(n: int, c: float, p: float | None) -> tuple[LevelSolution, int]:
    """Level n, given a point p of its pair cell where g < 0 (None once
    the pair has merged), and the evaluations of g its eps solve spent.

    The eps solve ends on adjacent floats lo < hi in [0, top] with
    g(lo) > 0 >= g(hi), for g(eps) = t sinh 2t - s sin 2eps at
    s = s0 + sign eps (s sin 2s + t sinh 2t with sin 2s = -sin 2eps), by
    Newton from the first-order eps with dg/deps = sign dg/ds.  It runs
    the rules of `_bracket.newton_in_bracket`, its gallop past a converged
    iterate included, in one loop: g and its step share t and sinh 2t,
    which are kept with dg/ds while s stays the same float, no callback
    runs, and the level takes s, t and |g| from the sample at the end it
    returns.  Where the first-order eps underflows to 0 (c^2 does, or
    nearly), eps is below the least float and the level is its sample at
    eps = 0, which the solve would reach by ~1000 bisections from top."""
    if p is None:
        raise RootLostError(n, c)
    s0 = (n + 1) * math.pi / 2.0
    sign = -1.0 if n % 2 else 1.0
    x = _first_order(n, c * c)
    if x == 0.0:
        s, t, tail, swing = _eps_sample(s0, sign, c, 0.0)
        return LevelSolution(n, s, t, 0.0, s * s - t * t, abs(tail - swing),
                             BranchClass.POSITIVE_PRODUCT), 1
    # g(0) = t sinh 2t > 0 and g(eps_p) < 0 for either root of the pair
    lo, hi = 0.0, sign * (p - s0)
    at_lo = at_hi = None  # (s, t, t sinh 2t, s sin 2eps) sampled at lo, at hi
    newton, last, before_last, evaluations = True, math.inf, math.inf, 0
    reach = 0.0  # the probe's offset from Newton's last point, 0.0 outside the gallop
    s_tail, slope = 0.0, None  # the s of t, sinh 2t and t sinh 2t; dg/ds there, once formed
    while True:
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                break
        evaluations += 1
        s = s0 + sign * x
        if s != s_tail:
            s_tail, slope = s, None
            t = c / (2.0 * s)
            u = 2.0 * t
            sinh = math.sinh(u)
            tail = t * sinh
        swing = s * math.sin(2.0 * x)
        if (value := tail - swing) > 0.0:
            lo, at_lo = x, (s, t, tail, swing)
        else:
            hi, at_hi = x, (s, t, tail, swing)
        if not newton:
            if reach and (x == lo) == (reach > 0.0):  # the probe kept the iterate's sign
                x += reach
                reach *= 2.0
            else:
                reach = 0.0
                x = 0.5 * (lo + hi)
            continue
        if slope is None:
            v = 2.0 * s
            try:  # _slope(s, c)
                slope = math.sin(v) + v * math.cos(v) - (t / s) * (sinh + u * math.cosh(u))
            except OverflowError:
                slope = -math.inf
        size = abs(step := sign * value / slope)
        if size <= 2.0 * math.ulp(x):
            newton = False
            reach = math.nextafter(x, hi if x == lo else lo) - x
            x += reach
        elif size >= 0.5 * before_last:
            newton = False
            x += (1.0 if x == lo else -1.0) * (size + 4.0 * math.ulp(x))
        elif lo < (x := x - step) < hi:
            last, before_last = size, last
    if at_hi is None:  # hi = top, never sampled
        at_hi = _eps_sample(s0, sign, c, hi)
        if at_hi[2] - at_hi[3] > 0.0:  # the negative window is below the rounding of g
            raise RootLostError(n, c)
    eps = 0.5 * (lo + hi)  # lo or hi
    if eps == hi:
        s, t, tail, swing = at_hi
    else:
        s, t, tail, swing = at_lo or _eps_sample(s0, sign, c, lo)  # lo = 0 at tiny couplings
    res = abs(tail - swing)  # |g(eps)|
    scale = tail + abs(swing)
    if not scale > 1.0:  # max(1, scale) without the builtin's ~0.1 us call
        scale = 1.0
    if res > RESIDUAL_RTOL * scale:
        raise NumericalFailureError(
            f"bisection stalled at |g|={res:.3e} > {RESIDUAL_RTOL:g} of its scale "
            f"{scale:.3e} for level n={n}"
        )
    level = LevelSolution(n, s, t, eps, s * s - t * t, res, BranchClass.POSITIVE_PRODUCT)
    return level, evaluations


def solve_level(
    n: int,
    coupling: CouplingPair,
    sublabel: int | None = None,
) -> LevelSolution:
    """Solve the n-th bound-state root for the given coupling pair.

    On the NEGATIVE_PRODUCT branch the level splits into the doublet
    E = s^2 +/- sqrt(-YZ); `sublabel` (+1 or -1, default +1) selects the
    member.  On other branches `sublabel` must be omitted.

    Raises RootLostError when the root pair of n has merged (coupling at
    or above the pair's critical value), and ModelDomainError past
    MAX_LEVEL = 1433540284805663: farther out floats space the pair cell
    1/2 apart, and the walk misses g < 0 (n = MAX_LEVEL + 7 at YZ = 1).
    """
    n = as_index(n, _LEVEL_INDEX, 0, MAX_LEVEL)
    branch = coupling.branch
    if branch is BranchClass.NEGATIVE_PRODUCT:
        sublabel = +1 if sublabel is None else sublabel
        if sublabel not in (+1, -1):
            raise ModelDomainError(f"sublabel must be +1 or -1, got {sublabel!r}")
    elif sublabel is not None:
        raise ModelDomainError("sublabel applies to the NEGATIVE_PRODUCT branch only")
    c = coupling.root_product
    if branch is BranchClass.POSITIVE_PRODUCT:
        return _level_at(n, c, _negative_point(n // 2, c)[0])[0]
    return _box_level(n, branch, c, sublabel)


def _box_level(n: int, branch: BranchClass, root: float, sublabel: int | None) -> LevelSolution:
    """Level n of a coupling off the YZ > 0 branch, root = sqrt(|YZ|), without
    `solve_level`'s checks of n and sublabel: the exact box root, which
    NEGATIVE_PRODUCT shifts by sublabel sqrt(-YZ)."""
    s = (n + 1) * math.pi / 2.0
    return LevelSolution(
        n=n,
        s=s,
        t=0.0,
        eps=0.0,
        E=s * s if sublabel is None else s * s + sublabel * root,
        residual=abs(residual(s, 0.0)),
        branch=branch,
        sublabel=None if sublabel is None else int(sublabel),
    )


def spectrum(coupling: CouplingPair, n_max: int) -> SpectrumResult:
    """Solve levels 0..n_max.

    POSITIVE_PRODUCT and the fully decoupled Y = Z = 0 case yield one
    entry per level; truncation at the first ROOT_LOST is recorded in
    `truncated_at`.  NEGATIVE_PRODUCT yields the split doublet, two
    entries per level ordered sublabel -1 then +1 (ordering across
    levels is by n, so for very large |YZ| doublets of neighbouring n
    may interleave in energy).  A semi-decoupled pair (exactly one of
    Y, Z nonzero) yields each box level listed twice, with the
    non_diagonalizable flag set: the channel matrix is a Jordan block
    there, yet each level v keeps two independent states, for Y = 0
    (v, 0) and (a, v) with (-d^2/dx^2 - E) a = -iZ sgn(-x) v, solvable
    because sgn(-x) v^2 integrates to 0 by parity.  The closed form
    builds no states for this class.
    """
    n_max = as_index(n_max, _N_MAX, 0, MAX_LEVEL)
    branch, root = coupling.branch, coupling.root_product
    levels: list[LevelSolution] = []
    truncated_at: int | None = None
    non_diagonalizable = False

    if branch is BranchClass.POSITIVE_PRODUCT:
        try:
            for level in _positive_levels(root, n_max + 1):
                levels.append(level)
        except RootLostError as exc:
            truncated_at = exc.n
    elif branch is BranchClass.NEGATIVE_PRODUCT:
        for n in range(n_max + 1):
            levels.append(_box_level(n, branch, root, -1))
            levels.append(_box_level(n, branch, root, +1))
    else:
        non_diagonalizable = coupling.non_diagonalizable
        for n in range(n_max + 1):
            sol = _box_level(n, branch, root, None)
            levels.append(sol)
            if non_diagonalizable:
                levels.append(sol)

    return SpectrumResult(
        levels=tuple(levels),
        truncated_at=truncated_at,
        non_diagonalizable=non_diagonalizable,
    )


def perturbative_eps(n: int, coupling: CouplingPair, order: int = 2) -> float:
    """Small-coupling expansion of eps_n in powers of YZ.

    order 1:  2 YZ / ((n+1)^3 pi^3)
    order 2:  + 4 (YZ)^2 / (3 (n+1)^5 pi^5) - 24 (-1)^n (YZ)^2 / ((n+1)^7 pi^7)

    The (YZ)^2 coefficient has two parts: the first from the t^4 term of
    t sinh 2t, the second from expanding t^2 / s = YZ / (4 s^3) about
    s_0 = (n+1) pi / 2, with s = s_0 + (-1)^n eps.  The error of order K
    is O((YZ)^(K+1)).
    """
    n = as_index(n, _LEVEL_INDEX, 0, MAX_LEVEL)
    if order not in (1, 2):
        raise ModelDomainError(f"order must be 1 or 2, got {order!r}")
    product = coupling.product
    if product < 0.0:
        raise ModelDomainError("perturbative eps applies to YZ >= 0 only (branch mismatch)")
    if product == 0.0:
        return 0.0
    first = _first_order(n, product)
    if order == 1:
        return first
    sign = -1.0 if n % 2 else 1.0
    return first + product**2 * (
        4.0 / (3.0 * (n + 1) ** 5 * math.pi**5) - sign * 24.0 / ((n + 1) ** 7 * math.pi**7))
