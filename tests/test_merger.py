"""The merger point g = g' = 0 and the bisection that replays from it.

`critical_coupling` solves the double root first, then bisects the
coupling bracket and walks onto the cell minimum only at midpoints next
to the merger.  The plain bisection below walks at every midpoint; the
two must return the same bracket bit for bit.
"""

import math
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from coupledwell import (
    CouplingPair,
    ModelDomainError,
    RootLostError,
    critical_coupling,
    doublet_family,
    solve_coefficients,
    solve_level,
    spectrum,
)
from coupledwell import critical
from coupledwell.critical import MAX_PAIR
from coupledwell.secular import _negative_point


def _bisection_reference(k, tol):
    """(c_crit, bracket_width) by doubling, then bisecting with a walk onto
    the cell minimum at every coupling."""

    def alive(c):
        return _negative_point(k, c)[0] is not None

    lo, hi = 1e-3, 1.0
    assert alive(lo)
    while alive(hi):
        lo, hi = hi, 2.0 * hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if alive(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), hi - lo


# k log-uniform over [0, MAX_PAIR]: an integer strategy over the whole range
# would draw almost only pairs above 1e7
_PAIRS = st.floats(0.0, math.log1p(MAX_PAIR)).map(lambda u: min(int(math.expm1(u)), MAX_PAIR))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(k=_PAIRS, exponent=st.floats(-13.0, -1.0))
@example(k=0, exponent=-12.0)
@example(k=7, exponent=-13.0)
@example(k=20000, exponent=-12.0)
@example(k=30316, exponent=-13.0)
def test_replay_matches_the_plain_bisection(k, exponent):
    tol = 10.0**exponent
    res = critical_coupling(k, tol)
    assert (res.c_crit, res.bracket_width) == _bisection_reference(k, tol)


def test_replay_and_reference_agree_past_the_old_cap_up_to_max_pair():
    # pair 30317 is the first still alive at c = 1e6, where the doubling used
    # to stop: both now double on to the pair's own bracket, up to MAX_PAIR
    for k in (30317, MAX_PAIR):
        assert _negative_point(k, 1e6)[0] is not None
        for tol in (1e-1, 1e-13):
            res = critical_coupling(k, tol)
            assert (res.c_crit, res.bracket_width) == _bisection_reference(k, tol)
    with pytest.raises(ModelDomainError, match="pair_index must be an integer"):
        critical_coupling(MAX_PAIR + 1)


@pytest.mark.parametrize("shift", [0.9, 1.1])
def test_a_merger_the_walk_refutes_makes_every_midpoint_walk(monkeypatch, shift):
    # a wrong c* fails the two certifying walks: the same loop then walks at
    # every midpoint and still returns the walk's bracket
    merger = critical._merger

    def wrong(k, lo, hi):
        c, s, spent = merger(k, lo, hi)
        return shift * c, s, spent

    monkeypatch.setattr(critical, "_merger", wrong)
    for k, tol in [(0, 1e-3), (3, 1e-10), (500, 1e-12)]:
        res = critical_coupling(k, tol)
        assert (res.c_crit, res.bracket_width) == _bisection_reference(k, tol)


def _mp_merger(k):
    """(c*, s*, E*) of cell k at 60 digits: mpmath Newton on g = g' = 0 from
    a coarse bracket's midpoint and the upper quarter of the cell."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60

    def equations(c, s):
        t = c / (2 * s)
        return [
            s * mp.sin(2 * s) + t * mp.sinh(2 * t),
            mp.sin(2 * s) + 2 * s * mp.cos(2 * s)
            - (t / s) * (mp.sinh(2 * t) + 2 * t * mp.cosh(2 * t)),
        ]

    start = (mp.mpf(critical_coupling(k, 1e-3).c_crit), (2 * k + 1.75) * mp.pi / 2)
    c, s = mp.findroot(equations, start)
    t = c / (2 * s)
    return c, s, s * s - t * t


# c* of pairs 0 and 20000, the 60-digit double roots to 20 significant digits
MERGER_C = {0: "4.4753086021932552072", 20000: "635884.23586990534169"}


@pytest.mark.parametrize("k", [0, 7, 500, 20000, 30316, 30317, MAX_PAIR])
def test_merger_point_matches_the_mpmath_double_root(k):
    mp = pytest.importorskip("mpmath")
    res = critical_coupling(k, 1e-6)
    c, s, energy = _mp_merger(k)
    if k in MERGER_C:
        assert abs(c - mp.mpf(MERGER_C[k])) <= mp.mpf(10) ** -18 * c
    for value, ref in [(res.c_merger, c), (res.s_merger, s), (res.E_merger, energy)]:
        assert abs(mp.mpf(value) - ref) <= 4 * math.ulp(float(ref))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(k=_PAIRS, exponent=st.floats(-13.0, -1.0))
@example(k=MAX_PAIR, exponent=-13.0)
def test_merger_point_matches_mpmath_over_every_pair(k, exponent):
    # the merger within 4 ulp, and inside the bracket but for the slack of
    # the float floor, where the rounding of g at the cell minimum moves its ends
    mp = pytest.importorskip("mpmath")
    res = critical_coupling(k, 10.0**exponent)
    c, s, energy = _mp_merger(k)
    for value, ref in [(res.c_merger, c), (res.s_merger, s), (res.E_merger, energy)]:
        assert abs(mp.mpf(value) - ref) <= 4 * math.ulp(float(ref))
    assert abs(c - res.c_crit) <= res.bracket_width / 2 + 1e-13 * res.c_crit


def test_merger_point_does_not_depend_on_tol():
    results = [critical_coupling(20000, tol) for tol in (1e-1, 1e-6, 1e-12)]
    assert len({(r.c_merger, r.s_merger, r.E_merger) for r in results}) == 1


# critical_coupling(pair, tol).evaluations for pairs 0..7 when every
# bisection midpoint took a walk onto the cell minimum
WALK_EVERY_MIDPOINT_EVALUATIONS = {
    1e-10: (377, 472, 477, 506, 497, 506, 613, 586),
    1e-12: (449, 544, 549, 602, 557, 578, 703, 700),
}


@pytest.mark.parametrize("tol", sorted(WALK_EVERY_MIDPOINT_EVALUATIONS))
@pytest.mark.parametrize("pair", range(8))
def test_replay_costs_at_most_half_the_walk_at_every_midpoint(pair, tol):
    # a perf guard that needs no clock: the count is deterministic
    ceiling = WALK_EVERY_MIDPOINT_EVALUATIONS[tol][pair] // 2
    assert critical_coupling(pair, tol).evaluations <= ceiling


def _seeded_couplings():
    rng = random.Random(2312)
    pairs = [CouplingPair(0.0, 0.0), CouplingPair(0.0, 2.0), CouplingPair(1.0, -4.0),
             CouplingPair(4.4708332935910, 4.4708332935910), CouplingPair(5.0, 5.0)]
    for _ in range(40):
        c = math.exp(rng.uniform(math.log(1e-10), math.log(5.5)))
        ratio = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
        pairs.append(CouplingPair(c * math.sqrt(ratio), c / math.sqrt(ratio)))
    return [(pair, rng.randint(0, 60)) for pair in pairs]


@pytest.mark.parametrize("pair, n_max", _seeded_couplings())
def test_spectrum_levels_equal_the_per_level_solve(pair, n_max):
    res = spectrum(pair, n_max)
    expected = []
    for n in range(n_max + 1):
        if res.truncated_at == n:
            break
        if pair.Y * pair.Z < 0:
            expected += [solve_level(n, pair, sublabel=-1), solve_level(n, pair, sublabel=+1)]
        else:
            expected += [solve_level(n, pair)] * (2 if res.non_diagonalizable else 1)
    if res.truncated_at is not None:
        with pytest.raises(RootLostError):
            solve_level(res.truncated_at, pair)
    assert [repr(level) for level in res.levels] == [repr(level) for level in expected]


@pytest.mark.parametrize("pair, n_max", _seeded_couplings())
def test_doublet_family_levels_equal_the_per_level_solve(pair, n_max):
    # the same levels, or the same refusal (YZ < 0, a Jordan coupling, a lost root)
    n_levels = min(n_max + 1, 12)
    try:
        expected = [solve_coefficients(solve_level(n, pair), pair, sigma)
                    for n in range(n_levels) for sigma in (+1, -1)]
    except (ModelDomainError, RootLostError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            doublet_family(pair, n_levels)
        return
    states = doublet_family(pair, n_levels)
    assert [repr(state.level) for state in states] == [repr(state.level) for state in expected]
