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

Numerical strategy: one mesh-free path.  On the lower half of cell k,
g' < 0 (sin 2s, cos 2s and the s-derivative of t sinh 2t are all
negative there); on the upper half g'' > 0 (cos 2s > 0, -s sin 2s > 0,
and t sinh 2t is convex in s).  So g has exactly one minimum per cell,
in its upper half.  Bisecting the sign of g' over the upper half walks
onto that minimum; the first sample with g < 0 splits the cell into the
two root brackets, and a bisection that collapses without one means the
pair has merged (ROOT_LOST).  The criticality search bisects the
coupling against the same predicate.  Once 2t passes the float overflow
point, t sinh 2t exceeds any |s sin 2s|: g and g' are then +inf and
-inf, which reads as a merged pair, not as an error.

Each root is solved and stored as its offset eps: with
s = (n+1) pi/2 + (-1)^n eps, sin 2s = -sin 2eps and g = t sinh(2t) -
s sin(2 eps), positive at eps = 0 for both roots of a pair.  eps is
bisected between 0 and the negative point, so it keeps its full
relative precision at any coupling; s, t and E are derived from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BracketError, ModelDomainError, NumericalFailureError, RootLostError
from .model import BranchClass, CouplingPair, as_index, validate_tol

DEFAULT_RESIDUAL_TOL = 1e-12
DEFAULT_CRITICAL_TOL = 1e-3
_COUPLING_CAP = 1e6  # criticality scan gives up past this coupling


@dataclass(frozen=True)
class LevelSolution:
    """One solved bound-state root.

    n: level index (0-based); eps: the stored coordinate, the offset
    with s = (n+1) pi/2 + (-1)^n eps (0 off the positive branch); s, t:
    real and (minus) imaginary part of kappa = s - i t, derived from eps;
    E: energy; residual: |g| at the returned root, in the eps form;
    branch: coupling product class; sublabel: +/-1 energy member for
    NEGATIVE_PRODUCT, None otherwise.
    """

    n: int
    s: float
    t: float
    eps: float
    E: float
    residual: float
    branch: BranchClass
    sublabel: int | None = None


@dataclass(frozen=True)
class SpectrumResult:
    levels: tuple[LevelSolution, ...]
    truncated_at: int | None = None
    non_diagonalizable: bool = False


@dataclass(frozen=True)
class CriticalResult:
    """Merger coupling of one root pair.

    c_crit: midpoint of the final coupling bracket; bracket_width: its
    width; evaluations: calls of g and of dg/ds over the whole search.
    Every coupling past the merger costs a full bisection of the cell's
    upper half (about 50 samples, two calls each) before the pair counts
    as merged, so the count is high (1149 for pair 0 at tol=1e-6) while
    each call is one closed-form expression.
    """

    pair_index: int
    c_crit: float
    bracket_width: float
    evaluations: int


def residual(s: float, c: float) -> float:
    """g(s) = s sin(2s) + t sinh(2t) with t = c / (2s), c = sqrt(YZ) >= 0."""
    if not (math.isfinite(s) and s > 0.0):
        raise ModelDomainError(f"s must be finite and positive, got {s!r}")
    if not (math.isfinite(c) and c >= 0.0):
        raise ModelDomainError(f"coupling root c must be finite and >= 0, got {c!r}")
    t = c / (2.0 * s)
    try:
        return s * math.sin(2.0 * s) + t * math.sinh(2.0 * t)
    except OverflowError:
        return math.inf


def _slope(s: float, c: float) -> float:
    """dg/ds = sin 2s + 2s cos 2s - (t/s)(sinh 2t + 2t cosh 2t)."""
    t = c / (2.0 * s)
    try:
        pull = (t / s) * (math.sinh(2.0 * t) + 2.0 * t * math.cosh(2.0 * t))
    except OverflowError:
        return -math.inf
    return math.sin(2.0 * s) + 2.0 * s * math.cos(2.0 * s) - pull


def pair_interval(pair_index: int) -> tuple[float, float]:
    """Open cell ((2k+1) pi/2, (2k+2) pi/2) holding roots 2k and 2k+1."""
    if pair_index < 0:
        raise ModelDomainError("pair_index must be >= 0")
    k = pair_index
    return ((2 * k + 1) * math.pi / 2.0, (2 * k + 2) * math.pi / 2.0)


def _negative_point(k: int, c: float) -> tuple[float | None, int]:
    """A point of cell k where g < 0 (None once the pair has merged),
    with the number of g and dg/ds evaluations spent.

    Bisects the sign of dg/ds over the upper half of the cell, which
    holds the single minimum of g, and stops at the first sample below
    zero.
    """
    a, b = pair_interval(k)
    lo, hi = 0.5 * (a + b), b
    evaluations = 0
    while True:
        s = 0.5 * (lo + hi)
        if s == lo or s == hi:
            return None, evaluations
        evaluations += 1
        if residual(s, c) < 0.0:
            return s, evaluations
        evaluations += 1
        if _slope(s, c) < 0.0:
            lo = s
        else:
            hi = s


def _solve_positive(n: int, c: float, tol: float) -> LevelSolution:
    p, _ = _negative_point(n // 2, c)
    if p is None:
        raise RootLostError(n, c)
    s0 = (n + 1) * math.pi / 2.0
    sign = -1.0 if n % 2 else 1.0

    def g(eps: float) -> float:  # s sin 2s + t sinh 2t, with sin 2s = -sin 2eps
        s = s0 + sign * eps
        t = c / (2.0 * s)
        return t * math.sinh(2.0 * t) - s * math.sin(2.0 * eps)

    # g(0) = t sinh 2t > 0 and g(eps_p) < 0 for either root of the pair
    lo, hi = 0.0, sign * (p - s0)
    eps = 0.5 * hi
    while lo < eps < hi:
        if g(eps) > 0.0:
            lo = eps
        else:
            hi = eps
        eps = 0.5 * (lo + hi)
    res = abs(g(eps))
    if res > tol:
        raise NumericalFailureError(
            f"bisection stalled at |g|={res:.3e} > tol={tol:.3e} for level n={n}"
        )
    s = s0 + sign * eps
    t = c / (2.0 * s)
    return LevelSolution(
        n=n,
        s=s,
        t=t,
        eps=eps,
        E=s * s - t * t,
        residual=res,
        branch=BranchClass.POSITIVE_PRODUCT,
    )


def solve_level(
    n: int,
    coupling: CouplingPair,
    tol: float = DEFAULT_RESIDUAL_TOL,
    sublabel: int | None = None,
) -> LevelSolution:
    """Solve the n-th bound-state root for the given coupling pair.

    On the NEGATIVE_PRODUCT branch the level splits into the doublet
    E = s^2 +/- sqrt(-YZ); `sublabel` (+1 or -1, default +1) selects the
    member.  On other branches `sublabel` must be omitted.

    Raises RootLostError when the root pair of n has merged (coupling at
    or above the pair's critical value).
    """
    n = as_index(n, "level index must be a non-negative integer")
    validate_tol(tol)
    branch = coupling.branch
    if branch is BranchClass.NEGATIVE_PRODUCT:
        sublabel = +1 if sublabel is None else sublabel
        if sublabel not in (+1, -1):
            raise ModelDomainError(f"sublabel must be +1 or -1, got {sublabel!r}")
    elif sublabel is not None:
        raise ModelDomainError("sublabel applies to the NEGATIVE_PRODUCT branch only")
    if branch is BranchClass.POSITIVE_PRODUCT:
        return _solve_positive(n, coupling.root_product, tol)
    # exact box root; NEGATIVE_PRODUCT shifts it by +-sqrt(-YZ)
    s = (n + 1) * math.pi / 2.0
    return LevelSolution(
        n=n,
        s=s,
        t=0.0,
        eps=0.0,
        E=s * s if sublabel is None else s * s + sublabel * coupling.root_product,
        residual=abs(residual(s, 0.0)),
        branch=branch,
        sublabel=None if sublabel is None else int(sublabel),
    )


def spectrum(
    coupling: CouplingPair,
    n_max: int,
    tol: float = DEFAULT_RESIDUAL_TOL,
) -> SpectrumResult:
    """Solve levels 0..n_max.

    POSITIVE_PRODUCT and the fully decoupled Y = Z = 0 case yield one
    entry per level; truncation at the first ROOT_LOST is recorded in
    `truncated_at`.  NEGATIVE_PRODUCT yields the split doublet, two
    entries per level ordered sublabel -1 then +1 (ordering across
    levels is by n, so for very large |YZ| doublets of neighbouring n
    may interleave in energy).  A semi-decoupled pair (exactly one of
    Y, Z nonzero) yields each unperturbed level doubly listed with the
    non_diagonalizable flag set: the channel matrix is a Jordan block
    there and the doubled listing is an algebraic multiplicity, not two
    independent states.
    """
    n_max = as_index(n_max, "n_max must be a non-negative integer")
    validate_tol(tol)
    branch = coupling.branch
    levels: list[LevelSolution] = []
    truncated_at: int | None = None
    non_diagonalizable = False

    if branch is BranchClass.POSITIVE_PRODUCT:
        for n in range(n_max + 1):
            try:
                levels.append(solve_level(n, coupling, tol))
            except RootLostError:
                truncated_at = n
                break
    elif branch is BranchClass.NEGATIVE_PRODUCT:
        for n in range(n_max + 1):
            levels.append(solve_level(n, coupling, tol, sublabel=-1))
            levels.append(solve_level(n, coupling, tol, sublabel=+1))
    else:
        non_diagonalizable = coupling.non_diagonalizable
        for n in range(n_max + 1):
            sol = solve_level(n, coupling, tol)
            levels.append(sol)
            if non_diagonalizable:
                levels.append(sol)

    return SpectrumResult(
        levels=tuple(levels),
        truncated_at=truncated_at,
        non_diagonalizable=non_diagonalizable,
    )


def perturbative_eps(n: int, coupling: CouplingPair, order: int = 2) -> float:
    """Small-coupling expansion of eps_n.

    order 1:  2 YZ / ((n+1)^3 pi^3)
    order 2:  + 4 (YZ)^2 / (3 (n+1)^5 pi^5)

    The absolute error of order 2 scales as (YZ)^3 / (n+1)^7 (with an
    additional (n+1)^-7 piece from the expansion of the prefactors).
    """
    n = as_index(n, "level index must be a non-negative integer")
    if order not in (1, 2):
        raise ModelDomainError(f"order must be 1 or 2, got {order!r}")
    product = coupling.product
    if product < 0.0:
        raise ModelDomainError("perturbative eps applies to YZ >= 0 only (branch mismatch)")
    if product == 0.0:
        return 0.0
    m = n + 1
    first = 2.0 * product / (m**3 * math.pi**3)
    if order == 1:
        return first
    return first + 4.0 * product**2 / (3.0 * m**5 * math.pi**5)


def critical_coupling(
    pair_index: int,
    tol: float = DEFAULT_CRITICAL_TOL,
) -> CriticalResult:
    """Critical coupling root c = sqrt(YZ) at which the roots s_{2k},
    s_{2k+1} merge, by bisection on the coupling.

    The predicate is "g dips below zero inside the pair cell", decided
    by the same walk onto the cell's single minimum that brackets the
    roots in `solve_level`.  The walk ends on the minimum to machine
    precision, so it holds arbitrarily close to the merger, where the
    negative window is narrower than any fixed mesh.

    The coupling doubles from 1 up to the cap sqrt(YZ) = 1e6, which is
    the last coupling tried; a pair still alive there raises
    BracketError.  Pair 30317 is the first such pair (c_crit of pair
    30316 is 999972.37).
    """
    k = as_index(pair_index, "pair_index must be a non-negative integer")
    validate_tol(tol)
    evaluations = 0

    def pair_alive(c: float) -> bool:
        nonlocal evaluations
        point, spent = _negative_point(k, c)
        evaluations += spent
        return point is not None

    lo = 1e-3
    if not pair_alive(lo):
        raise BracketError(
            f"pair {pair_index}: no live root pair even at sqrt(YZ)={lo}; scan aborted"
        )
    hi = 1.0
    while pair_alive(hi):
        if hi == _COUPLING_CAP:
            raise BracketError(
                f"pair {pair_index}: no criticality transition up to sqrt(YZ)={_COUPLING_CAP}"
            )
        lo = hi
        hi = min(2.0 * hi, _COUPLING_CAP)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if pair_alive(mid):
            lo = mid
        else:
            hi = mid
    return CriticalResult(
        pair_index=k,
        c_crit=0.5 * (lo + hi),
        bracket_width=hi - lo,
        evaluations=evaluations,
    )
