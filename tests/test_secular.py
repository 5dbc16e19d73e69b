"""Secular equation: residual, root solving, perturbation series, critical coupling.

Frozen reference values were computed independently with mpmath at 40-digit
working precision (bisection on the residual, then Newton polish) and rounded
to double precision.  The library must reproduce them through its own float
pipeline, so agreement is evidence, not circularity.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from coupledwell import (
    BracketError,
    BranchClass,
    CouplingPair,
    InvalidToleranceError,
    ModelDomainError,
    RootLostError,
    critical_coupling,
    pair_interval,
    perturbative_eps,
    residual,
    solve_level,
    spectrum,
)
from coupledwell.secular import _negative_point, _slope

# roots of the lowest pair at Y = Z = 1, 40-digit oracle
S0_AT_C1 = 1.63211812842334197
E0_AT_C1 = 2.56995903312329405
S1_AT_C1 = 3.13332674726452998
E1_AT_C1 = 9.7922723872108519

# residual at the box wavenumber: sinh(2/pi)/pi
RESIDUAL_HALFPI_C1 = 0.21661041172051912

# merger couplings of the lowest two pair cells, bracketing oracle at 1e-12
C_CRIT_PAIR0 = 4.475308602193255
C_CRIT_PAIR1 = 12.801544262556


def test_frozen_constants_regenerate_under_mpmath():
    # keep the frozen literals honest: recompute them at 40 digits and
    # round to double
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    def g(s):
        t = 1 / (2 * s)
        return s * mp.sin(2 * s) + t * mp.sinh(2 * t)
    s0 = mp.findroot(g, mp.mpf("1.632"))
    s1 = mp.findroot(g, mp.mpf("3.133"))
    assert float(s0) == S0_AT_C1
    assert float(s1) == S1_AT_C1
    assert float(s0**2 - 1 / (4 * s0**2)) == E0_AT_C1
    assert float(s1**2 - 1 / (4 * s1**2)) == E1_AT_C1
    assert float(mp.sinh(2 / mp.pi) / mp.pi) == RESIDUAL_HALFPI_C1


def test_residual_vanishes_without_coupling():
    # box wavenumbers are roots up to the rounding of sin(2s) at float pi
    assert abs(residual(math.pi / 2, 0.0)) < 1e-15
    assert abs(residual(math.pi, 0.0)) < 1e-14


def test_residual_frozen_value_at_half_pi():
    assert abs(residual(math.pi / 2, 1.0) - RESIDUAL_HALFPI_C1) < 1e-15
    # closed form for this point: s*sin(2s) term dies, sinh term survives
    assert abs(residual(math.pi / 2, 1.0) - math.sinh(2 / math.pi) / math.pi) < 1e-15


def test_residual_sign_change_brackets_lowest_root():
    # the lowest root sits near pi/2 + 0.0613 at c = 1
    assert residual(math.pi / 2, 1.0) > 0.0
    assert residual(math.pi / 2 + 0.07, 1.0) < 0.0


def test_residual_rejects_nonpositive_wavenumber():
    with pytest.raises(ModelDomainError):
        residual(0.0, 1.0)
    with pytest.raises(ModelDomainError):
        residual(-1.0, 1.0)


def test_pair_interval_edges():
    lo, hi = pair_interval(0)
    assert lo == math.pi / 2 and hi == math.pi
    lo, hi = pair_interval(3)
    assert lo == 7 * math.pi / 2 and hi == 4 * math.pi
    with pytest.raises(ModelDomainError):
        pair_interval(-1)


def test_decoupled_levels_are_exact():
    pair = CouplingPair(0.0, 0.0)
    for n in range(10):
        lvl = solve_level(n, pair)
        assert lvl.s == (n + 1) * math.pi / 2
        assert lvl.t == 0.0
        assert lvl.eps == 0.0
        assert abs(lvl.E - (n + 1) ** 2 * math.pi**2 / 4) <= 1e-12
        assert lvl.branch is BranchClass.DECOUPLED


def test_frozen_roots_at_unit_coupling():
    pair = CouplingPair(1.0, 1.0)
    lvl0 = solve_level(0, pair)
    lvl1 = solve_level(1, pair)
    assert abs(lvl0.s - S0_AT_C1) < 1e-13
    assert abs(lvl0.E - E0_AT_C1) < 1e-12
    assert abs(lvl1.s - S1_AT_C1) < 1e-13
    assert abs(lvl1.E - E1_AT_C1) < 1e-12
    assert abs(lvl0.residual) < 1e-12 and abs(lvl1.residual) < 1e-12


def test_root_pair_lives_in_its_cell():
    pair = CouplingPair(1.0, 1.0)
    lo, hi = pair_interval(0)
    s0 = solve_level(0, pair).s
    s1 = solve_level(1, pair).s
    assert lo < s0 < s1 < hi


def test_level_constraint_2st_equals_coupling():
    for y, z in [(1.0, 1.0), (2.0, 0.5), (1.0, 4.0)]:
        pair = CouplingPair(y, z)
        c = math.sqrt(y * z)
        for n in range(6):
            lvl = solve_level(n, pair)
            assert abs(2 * lvl.s * lvl.t - c) <= 1e-10 * max(1.0, c)


def test_spectrum_depends_only_on_product():
    a = spectrum(CouplingPair(0.3, 0.7), 4).levels
    b = spectrum(CouplingPair(0.3 * 0.7, 1.0), 4).levels
    for la, lb in zip(a, b):
        assert abs(la.s - lb.s) < 1e-14
        assert abs(la.E - lb.E) < 1e-13


def test_wavenumbers_strictly_increase():
    levels = spectrum(CouplingPair(2.0, 2.0), 9).levels
    for a, b in zip(levels, levels[1:]):
        assert a.s < b.s


def test_pair_members_move_toward_each_other():
    levels = spectrum(CouplingPair(1.0, 1.0), 5).levels
    for lvl in levels:
        box = (lvl.n + 1) ** 2 * math.pi**2 / 4
        # even member rises, odd member falls: the cell pair closes
        assert (-1) ** lvl.n * (lvl.E - box) > 0.0
        assert abs(lvl.E - (lvl.s**2 - lvl.t**2)) < 1e-12


def test_displacement_scales_like_inverse_cube():
    levels = spectrum(CouplingPair(1.0, 1.0), 9).levels
    limit = 2.0 / math.pi**3
    scaled = [abs(l.eps) * (l.n + 1) ** 3 for l in levels]
    for a, b in zip(scaled[1:], scaled[2:]):
        assert b < a
    assert abs(scaled[-1] / limit - 1.0) < 0.01
    assert all(s < 1.1 * limit for s in scaled)


def test_displacement_positive_below_merger():
    for c in (0.25, 1.0, 3.0):
        for lvl in spectrum(CouplingPair(c, c), 5).levels:
            assert lvl.eps > 0.0


def test_solve_level_validation():
    pair = CouplingPair(1.0, 1.0)
    with pytest.raises(ModelDomainError):
        solve_level(-1, pair)
    with pytest.raises(InvalidToleranceError):
        solve_level(0, pair, tol=0.0)
    with pytest.raises(InvalidToleranceError):
        solve_level(0, pair, tol=2.0)
    with pytest.raises(ModelDomainError):
        # sublabel only means something on the negative-product branch
        solve_level(0, pair, sublabel=+1)


def test_root_survives_at_moderate_coupling():
    lvl = solve_level(0, CouplingPair(3.0, 3.0))
    assert abs(lvl.residual) < 1e-12


def test_root_lost_past_merger():
    with pytest.raises(RootLostError):
        solve_level(0, CouplingPair(5.0, 5.0))
    with pytest.raises(RootLostError):
        solve_level(1, CouplingPair(5.0, 5.0))


def test_spectrum_truncates_at_first_lost_pair():
    res = spectrum(CouplingPair(5.0, 5.0), 5)
    assert res.truncated_at == 0
    assert len(res.levels) == 0
    # pair 1 merges far above c = 5, so only the lowest pair is gone
    res2 = spectrum(CouplingPair(4.6, 4.6), 5)
    assert res2.truncated_at == 0


def test_negative_branch_doublet_is_exact():
    pair = CouplingPair(1.0, -1.0)
    for n in range(4):
        s = (n + 1) * math.pi / 2
        plus = solve_level(n, pair, sublabel=+1)
        minus = solve_level(n, pair, sublabel=-1)
        assert plus.s == s and minus.s == s
        assert plus.t == 0.0 and minus.t == 0.0
        assert plus.E == s * s + 1.0
        assert minus.E == s * s - 1.0
        assert plus.sublabel == +1 and minus.sublabel == -1
    # default sublabel is +1
    assert solve_level(0, pair).E == solve_level(0, pair, sublabel=+1).E


def test_negative_branch_spectrum_shape():
    res = spectrum(CouplingPair(2.0, -0.5), 1)
    assert [l.sublabel for l in res.levels] == [-1, +1, -1, +1]
    assert [l.n for l in res.levels] == [0, 0, 1, 1]
    assert not res.non_diagonalizable


def test_semi_decoupled_spectrum_flags_jordan_structure():
    res = spectrum(CouplingPair(0.0, 3.0), 1)
    assert res.non_diagonalizable
    assert [l.n for l in res.levels] == [0, 0, 1, 1]
    assert res.levels[0].E == res.levels[1].E


def test_perturbative_eps_leading_orders():
    assert abs(perturbative_eps(0, CouplingPair(1.0, 1.0), order=1) - 2 / math.pi**3) < 1e-16
    expected2 = 2 / math.pi**3 + 4 / (3 * math.pi**5)
    assert abs(perturbative_eps(0, CouplingPair(1.0, 1.0), order=2) - expected2) < 1e-16
    assert perturbative_eps(3, CouplingPair(0.0, 0.0), order=2) == 0.0


def test_perturbative_eps_validation():
    with pytest.raises(ModelDomainError):
        perturbative_eps(0, CouplingPair(1.0, -1.0), order=1)
    with pytest.raises(ModelDomainError):
        perturbative_eps(0, CouplingPair(1.0, 1.0), order=3)


def test_perturbative_accuracy_at_level_nine():
    pair = CouplingPair(1.0, 1.0)
    lvl = solve_level(9, pair)
    rel = abs(lvl.eps - perturbative_eps(9, pair, order=2)) / lvl.eps
    assert rel < 1e-4
    # frozen magnitude: 1.247e-5 from the 40-digit run
    assert 1e-6 < rel < 5e-5


def test_perturbative_remainder_scales_like_seventh_power():
    pair = CouplingPair(1.0, 1.0)
    scaled = []
    for n in range(4, 15):
        lvl = solve_level(n, pair)
        r = abs(lvl.eps - perturbative_eps(n, pair, order=2))
        scaled.append(r * (n + 1) ** 7)
    assert 0.005 < min(scaled) and max(scaled) < 0.02


def test_critical_coupling_lowest_pair():
    res = critical_coupling(0, tol=1e-3)
    assert res.pair_index == 0
    assert res.bracket_width <= 1e-3
    assert abs(res.c_crit - C_CRIT_PAIR0) <= 1e-3
    assert res.evaluations > 0


def test_critical_coupling_second_pair_is_larger():
    res0 = critical_coupling(0, tol=0.01)
    res1 = critical_coupling(1, tol=0.01)
    assert res1.c_crit > res0.c_crit
    assert abs(res1.c_crit - C_CRIT_PAIR1) <= 0.01


def test_numpy_float_tolerance_is_accepted():
    # the same answer as the built-in float of the same value
    tol = np.float32(1e-3)
    pair = CouplingPair(1.0, 4.0)
    assert solve_level(3, pair, tol=tol) == solve_level(3, pair, tol=float(tol))
    assert critical_coupling(0, tol=tol) == critical_coupling(0, tol=float(tol))


def test_critical_coupling_validation():
    with pytest.raises(ModelDomainError):
        critical_coupling(-1)
    with pytest.raises(InvalidToleranceError):
        critical_coupling(0, tol=0.0)


INDEX_CALLS = {
    "solve_level": lambda i: solve_level(i, CouplingPair(1.0, 1.0)),
    "spectrum": lambda i: spectrum(CouplingPair(1.0, 1.0), i),
    "perturbative_eps": lambda i: perturbative_eps(i, CouplingPair(0.5, 0.5)),
    "critical_coupling": lambda i: critical_coupling(i),
}


@pytest.mark.parametrize("call", sorted(INDEX_CALLS))
@pytest.mark.parametrize("value", [3, True, np.int64(3), np.uint8(3)])
def test_integer_like_indices_are_accepted(call, value):
    # bool is an int; numpy integer scalars count as integers too
    assert INDEX_CALLS[call](value) == INDEX_CALLS[call](int(value))


def test_fixed_width_indices_do_not_wrap():
    # uint8: 255 + 1 and 4**5 both wrap to 0 unless widened first
    assert len(spectrum(CouplingPair(0.0, 0.0), np.uint8(255)).levels) == 256
    pair = CouplingPair(1.0, 1.0)
    assert perturbative_eps(np.uint8(3), pair) == perturbative_eps(3, pair)


@pytest.mark.parametrize("call", sorted(INDEX_CALLS))
@pytest.mark.parametrize("value", [3.0, np.float64(3), np.bool_(True), "3"])
def test_non_integer_indices_are_rejected(call, value):
    with pytest.raises(ModelDomainError):
        INDEX_CALLS[call](value)


def test_roots_exist_just_below_merger_and_not_above():
    c_lo = C_CRIT_PAIR0 - 0.05
    c_hi = C_CRIT_PAIR0 + 0.05
    assert abs(solve_level(0, CouplingPair(c_lo, c_lo)).residual) < 1e-12
    with pytest.raises(RootLostError):
        solve_level(0, CouplingPair(c_hi, c_hi))


# critical_coupling(pair, tol) -> (c_crit, bracket_width), the search's own
# output pinned bit for bit: any change of its merger predicate shows here
FROZEN_CRITICAL = {
    (0, 1e-3): (4.47509765625, 0.0009765625),
    (0, 1e-6): (4.475308895111084, 9.5367431640625e-07),
    (0, 1e-10): (4.47530860218103, 5.820766091346741e-11),
    (1, 1e-3): (12.80126953125, 0.0009765625),
    (1, 1e-6): (12.801544666290283, 9.5367431640625e-07),
    (1, 1e-10): (12.801544262532843, 5.820766091346741e-11),
    (2, 1e-3): (22.63330078125, 0.0009765625),
    (2, 1e-6): (22.633436679840088, 9.5367431640625e-07),
    (2, 1e-10): (22.63343643801636, 5.820766091346741e-11),
    (3, 1e-3): (33.39892578125, 0.0009765625),
    (3, 1e-6): (33.39899682998657, 9.5367431640625e-07),
    (3, 1e-10): (33.39899655999034, 5.820766091346741e-11),
    (4, 1e-3): (44.84619140625, 0.0009765625),
    (4, 1e-6): (44.8457236289978, 9.5367431640625e-07),
    (4, 1e-10): (44.84572324503097, 5.820766091346741e-11),
    (5, 1e-3): (56.83056640625, 0.0009765625),
    (5, 1e-6): (56.83036184310913, 9.5367431640625e-07),
    (5, 1e-10): (56.830361712753074, 5.820766091346741e-11),
    (6, 1e-3): (69.26025390625, 0.0009765625),
    (6, 1e-6): (69.26022958755493, 9.5367431640625e-07),
    (6, 1e-10): (69.26022961971466, 5.820766091346741e-11),
    (7, 1e-3): (82.06982421875, 0.0009765625),
    (7, 1e-6): (82.07029867172241, 9.5367431640625e-07),
    (7, 1e-10): (82.07029830859392, 5.820766091346741e-11),
}


@pytest.mark.parametrize("pair, tol", sorted(FROZEN_CRITICAL))
def test_critical_coupling_frozen_brackets(pair, tol):
    res = critical_coupling(pair, tol)
    assert (res.c_crit, res.bracket_width) == FROZEN_CRITICAL[pair, tol]


def test_critical_bracket_holds_the_mpmath_merger():
    res = critical_coupling(0, tol=1e-10)
    assert abs(res.c_crit - C_CRIT_PAIR0) <= res.bracket_width / 2


@settings(max_examples=80, derandomize=True, deadline=None)
@given(exponent=st.floats(-9.0, -4.0), n=st.integers(0, 500))
@example(exponent=-8.0, n=1)
@example(exponent=-8.0, n=12)
@example(exponent=-8.0, n=35)
def test_tiny_coupling_roots_stay_in_their_half_cell(exponent, n):
    # each root lies within pi/4 of its box value (n+1) pi/2; a root of the
    # other half of the pair cell is the partner's root, returned as this one
    c = 10.0**exponent
    level = solve_level(n, CouplingPair(c, c))
    assert abs(level.s - (n + 1) * math.pi / 2) <= math.pi / 4


@pytest.mark.parametrize("c", [2e3, 1e4, 1e6])
@pytest.mark.parametrize("n", [0, 1, 5, 40])
def test_overflowing_coupling_is_a_lost_root(c, n):
    # past the float overflow of sinh(2t) the pair has long merged
    with pytest.raises(RootLostError):
        solve_level(n, CouplingPair(c, c))


def test_residual_and_slope_saturate_past_overflow():
    assert residual(1.0, 1e4) == math.inf
    assert _slope(1.0, 1e4) == -math.inf


def _mp_cell_minimum(k, c):
    """Minimum of g over cell k at 40 digits, by bisecting the sign of g'."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    c = mp.mpf(c)

    def g(s):
        t = c / (2 * s)
        return s * mp.sin(2 * s) + t * mp.sinh(2 * t)

    def dg(s):
        t = c / (2 * s)
        return (mp.sin(2 * s) + 2 * s * mp.cos(2 * s)
                - (t / s) * (mp.sinh(2 * t) + 2 * t * mp.cosh(2 * t)))

    lo, hi = (2 * k + 1.5) * mp.pi / 2, (2 * k + 2) * mp.pi / 2
    if dg(hi) <= 0:
        return g(hi)
    for _ in range(140):
        mid = (lo + hi) / 2
        if dg(mid) < 0:
            lo = mid
        else:
            hi = mid
    return g(lo)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(c=st.floats(1e-3, 40.0), k=st.integers(0, 60))
@example(c=C_CRIT_PAIR0 - 1e-6, k=0)
@example(c=C_CRIT_PAIR0 + 1e-6, k=0)
@example(c=C_CRIT_PAIR1 - 1e-6, k=1)
@example(c=C_CRIT_PAIR1 + 1e-6, k=1)
@example(c=30.0, k=2)
def test_negative_point_exists_iff_the_cell_minimum_is_negative(c, k):
    g_min = _mp_cell_minimum(k, c)
    scale = pair_interval(k)[1]
    assume(abs(g_min) > 1e-12 * scale)
    point, evaluations = _negative_point(k, c)
    assert (point is None) == (g_min >= 0)
    assert evaluations > 0
    if point is not None:
        a, b = pair_interval(k)
        assert (a + b) / 2 < point < b and residual(point, c) < 0.0


def test_critical_coupling_between_the_last_doubling_and_the_cap():
    # the doubling passes 2^19 = 524288 alive; the cap 1e6 is tried next
    res = critical_coupling(20000)
    assert 2.0**19 < res.c_crit < 1e6
    lo, hi = res.c_crit - res.bracket_width / 2, res.c_crit + res.bracket_width / 2
    assert _mp_cell_minimum(20000, lo) < 0 < _mp_cell_minimum(20000, hi)


# the first pair still alive at the cap sqrt(YZ) = 1e6
FIRST_PAIR_PAST_CAP = 30317


def test_first_pair_past_the_cap_raises_bracket_error():
    assert _mp_cell_minimum(FIRST_PAIR_PAST_CAP, 1e6) < 0 < _mp_cell_minimum(
        FIRST_PAIR_PAST_CAP - 1, 1e6)
    with pytest.raises(BracketError, match="no criticality transition"):
        critical_coupling(FIRST_PAIR_PAST_CAP)
    assert critical_coupling(FIRST_PAIR_PAST_CAP - 1).c_crit < 1e6


def _mp_eps(n, c):
    """eps_n at 50 digits: g(eps) = t sinh 2t - s sin 2eps with
    s = (n+1) pi/2 + (-1)^n eps, solved on the bracket [0, eps_p] whose
    upper end is checked negative at 50 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        c = mp.mpf(c)
        s0, sign = (n + 1) * mp.pi / 2, -1 if n % 2 else 1

        def g(eps):
            s = s0 + sign * eps
            t = c / (2 * s)
            return t * mp.sinh(2 * t) - s * mp.sin(2 * eps)

        point, _ = _negative_point(n // 2, float(c))
        hi = sign * (mp.mpf(point) - s0)
        assert g(0) > 0 > g(hi)
        return mp.findroot(g, (mp.mpf(0), hi), solver="anderson")


@functools.lru_cache(maxsize=None)
def _c_crit(k):
    return critical_coupling(k).c_crit


@settings(max_examples=120, derandomize=True, deadline=None)
@given(n=st.integers(0, 500), u=st.floats(0.0, 1.0))
@example(n=0, u=0.0)
@example(n=35, u=0.5)
@example(n=500, u=1.0)
def test_solved_eps_matches_mpmath(n, u):
    # c log-uniform in [1e-10, 0.9 c_crit]: eps to 1e-14 relative, from
    # eps ~ 1e-21 up to the pair's approach to its merger
    lo, hi = math.log(1e-10), math.log(0.9 * _c_crit(n // 2))
    c = math.exp(lo + u * (hi - lo))
    level = solve_level(n, CouplingPair(c, c))
    assert abs(level.eps - _mp_eps(n, c)) <= 1e-14 * level.eps
    assert level.residual <= 1e-12


@settings(max_examples=80, derandomize=True, deadline=None)
@given(n=st.integers(0, 500), exponent=st.floats(-10.0, -4.0))
@example(n=0, exponent=-4.0)
@example(n=1, exponent=-4.0)
def test_perturbative_eps_matches_the_solved_root_at_small_coupling(n, exponent):
    # order 2 lacks the -(-1)^n 24 (YZ)^2 / ((n+1)^7 pi^7) term from the
    # expansion of s about (n+1) pi/2: relative error 12 YZ / ((n+1)^4 pi^4),
    # below 0.13 YZ / (n+1)^4, over a floor of a few ulps
    c = 10.0**exponent
    pair = CouplingPair(c, c)
    eps = solve_level(n, pair).eps
    bound = (0.13 * c * c / (n + 1) ** 4 + 4 * 2.0**-52) * eps
    assert abs(perturbative_eps(n, pair, order=2) - eps) <= bound


def test_tiny_coupling_keeps_the_ground_offset():
    # eps_0 = 2 c^2 / pi^3 + ... = 6.4503e-18 at c = 1e-8, not lost to ulp(s)
    eps = solve_level(0, CouplingPair(1e-8, 1e-8)).eps
    assert abs(eps - _mp_eps(0, 1e-8)) <= 1e-15 * eps
    assert abs(eps - 6.4503e-18) <= 1e-5 * eps


@pytest.mark.parametrize("c", [1e-8, 1e-5, 0.1, 1.0, 2.0, 4.0])
def test_two_hundred_levels_solve_below_the_merger(c):
    # every pair up to n = 199 is below its merger at these couplings
    result = spectrum(CouplingPair(c, c), 199)
    assert result.truncated_at is None and len(result.levels) == 200
    assert max(level.residual for level in result.levels) <= 1e-12
