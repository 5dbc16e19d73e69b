"""Secular equation: residual, root solving, perturbation series, critical coupling.

Frozen reference values were computed independently with mpmath at 40-digit
working precision (bisection on the residual, then Newton polish) and rounded
to double precision.  The library must reproduce them through its own float
pipeline, so agreement is evidence, not circularity.
"""

import contextlib
import functools
import io
import math
import os
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from coupledwell import (
    BranchClass,
    CouplingPair,
    InvalidToleranceError,
    ModelDomainError,
    NumericalFailureError,
    RootLostError,
    critical_coupling,
    doublet_family,
    pair_interval,
    perturbative_eps,
    residual,
    solve_level,
    spectrum,
)
from coupledwell import critical, secular
from coupledwell._bracket import newton_in_bracket
from coupledwell.cli import main
from coupledwell.critical import MAX_PAIR
from coupledwell.secular import MAX_LEVEL, _first_order, _negative_point, _slope

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
    # the (YZ)^2 term: 4 / (3 (n+1)^5 pi^5) - 24 (-1)^n / ((n+1)^7 pi^7)
    expected2 = 2 / math.pi**3 + 4 / (3 * math.pi**5) - 24 / math.pi**7
    assert abs(perturbative_eps(0, CouplingPair(1.0, 1.0), order=2) - expected2) < 1e-16
    expected2 = 2 / (8 * math.pi**3) + 4 / (3 * 32 * math.pi**5) + 24 / (128 * math.pi**7)
    assert abs(perturbative_eps(1, CouplingPair(1.0, 1.0), order=2) - expected2) < 1e-17
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
    # frozen magnitude: 1.620e-7 against the 200-bit root (the order-2 series
    # without its -24 (-1)^n (YZ)^2 / ((n+1)^7 pi^7) term read 1.247e-5)
    assert 1e-7 < rel < 3e-7


def test_perturbative_remainder_scales_like_seventh_power():
    # the order-3 remainder: its leading part is (YZ)^3 / (480 s0^7) from the
    # t^6 term of t sinh 2t, s0 = (n+1) pi / 2; terms in 1/s0^9 alternate
    # with n about it
    pair = CouplingPair(1.0, 1.0)
    scaled = []
    for n in range(4, 15):
        lvl = solve_level(n, pair)
        r = abs(lvl.eps - perturbative_eps(n, pair, order=2))
        scaled.append(r * (n + 1) ** 7)
    assert 3e-5 < min(scaled) and max(scaled) < 1.5e-4
    r = abs(solve_level(60, pair).eps - perturbative_eps(60, pair, order=2)) * 61**7
    assert abs(r / (128 / (480 * math.pi**7)) - 1) < 0.01


@pytest.mark.parametrize("n, coefficient", [(0, 4.67e-4), (1, 4.63e-6), (2, 1.41e-8)])
def test_perturbative_order_two_error_scales_as_yz_cubed(n, coefficient):
    # against the 200-bit root, |eps - eps_2| / (YZ)^3 is flat over c; without
    # the -24 (-1)^n (YZ)^2 / ((n+1)^7 pi^7) term it grew as 1 / YZ, and at
    # n = 0 and c = 0.1 order 2 erred by 7.9e-7 against 3.6e-7 for order 1
    for c in (0.01, 0.02, 0.05, 0.1):
        pair = CouplingPair(c, c)
        eps = _mp_eps(n, c)
        err2 = float(abs(eps - perturbative_eps(n, pair, order=2)))
        assert abs(err2 / c**6 / coefficient - 1) < 0.01
        assert err2 < 1e-2 * float(abs(eps - perturbative_eps(n, pair, order=1)))


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
    "pair_interval": pair_interval,
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
@pytest.mark.parametrize("value", [3.0, np.float64(3), np.bool_(True), "3", 1.5])
def test_non_integer_indices_are_rejected(call, value):
    with pytest.raises(ModelDomainError):
        INDEX_CALLS[call](value)


# the largest index each call answers: the level bound keeps the pair cell
# end (k+1) pi below 2^51, the critical bound below 2^28
LARGEST_INDEX = {"solve_level": MAX_LEVEL, "spectrum": MAX_LEVEL, "perturbative_eps": MAX_LEVEL,
                 "critical_coupling": MAX_PAIR, "pair_interval": MAX_LEVEL // 2}


def test_largest_indices_are_the_last_cells_floats_resolve():
    assert (MAX_PAIR, MAX_LEVEL) == (85445658, 1433540284805663)
    assert (MAX_PAIR + 1) * math.pi < 2**28 < (MAX_PAIR + 2) * math.pi
    k = MAX_LEVEL // 2
    assert MAX_LEVEL == 2 * k + 1 and (k + 1) * math.pi < 2**51 < (k + 2) * math.pi


@pytest.mark.parametrize("call", sorted(INDEX_CALLS))
@pytest.mark.parametrize("past", [1, 2**1100])
def test_indices_past_float_resolution_are_refused(call, past):
    # ModelDomainError, not an OverflowError from (n + 1) pi or a lost root
    with pytest.raises(ModelDomainError, match=rf"in \[0, {LARGEST_INDEX[call]}\], got"):
        INDEX_CALLS[call](LARGEST_INDEX[call] + past)


def test_the_last_level_keeps_its_first_order_offset():
    # at n = MAX_LEVEL + 7 and sqrt(YZ) = 1 the walk finds no negative g;
    # up to MAX_LEVEL every level is answered, eps within a few ulp of 2 YZ / (n+1)^3 pi^3
    for n in (10**15, MAX_LEVEL - 1, MAX_LEVEL):
        level = solve_level(n, CouplingPair(1.0, 1.0))
        assert abs(level.eps - _first_order(n, 1.0)) <= 8 * math.ulp(level.eps)


def _mp_condition(n, c, eps):
    """max(1, |t sinh 2t| + |s sin 2eps|) / |dg/deps| at the root eps, at
    200 bits: the error in eps that a rounding of g of one unit of its
    scale makes, large only next to a merger."""
    mp = pytest.importorskip("mpmath")
    with mp.workprec(200):
        c, s0, sign = mp.mpf(c), (n + 1) * mp.pi / 2, -1 if n % 2 else 1

        def terms(eps):
            s = s0 + sign * eps
            t = c / (2 * s)
            return t * mp.sinh(2 * t), s * mp.sin(2 * eps)

        growth, dip = terms(eps)
        slope = mp.diff(lambda e: mp.fsub(*terms(e)), eps)
        return float(max(1, abs(growth) + abs(dip)) / abs(slope))


# level indices log-uniform over [0, MAX_LEVEL]: an integer strategy over the whole range
_LEVELS = st.floats(0.0, math.log1p(MAX_LEVEL)).map(lambda u: min(int(math.expm1(u)), MAX_LEVEL))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(n=_LEVELS)
@example(n=0)
@example(n=60634)  # the first level alive at sqrt(YZ) = 1e6, next to its merger
@example(n=MAX_LEVEL)
def test_every_level_index_matches_mpmath(n):
    # eps against a 60-digit root of the eps form of g, at sqrt(YZ) = 1e-6,
    # 1 and 1e6: within 8 ulp, plus 8 ulp of g's scale carried through
    # dg/deps, which next to a merger lets 2.7e2 ulp through (n = 60635,
    # c = 1e6; 8.4 ulp at most elsewhere over 450 draws).  A pair past its
    # merger (pairs up to 30316 at c = 1e6) is refused with RootLostError,
    # its cell minimum positive at 40 digits
    for c in (1e-6, 1.0, 1e6):
        try:
            eps = solve_level(n, CouplingPair(c, c)).eps
        except RootLostError:
            assert _mp_cell_minimum(n // 2, c) > 0
            continue
        exact = _mp_eps(n, c)
        assert abs(eps - exact) <= 8 * math.ulp(eps) + 8 * 2.0**-52 * _mp_condition(n, c, exact)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(log_c=st.floats(math.log(1e-10), math.log(1.7e308)), n_max=st.integers(0, 40))
@example(log_c=math.log(1.7e308), n_max=40)
@example(log_c=math.log(C_CRIT_PAIR0 * (1 - 1e-9)), n_max=40)
@example(log_c=math.log(C_CRIT_PAIR0 * (1 + 1e-9)), n_max=3)
def test_spectrum_returns_its_levels_or_truncates_at_the_first_merged_pair(log_c, n_max):
    # up to the float overflow of sqrt(YZ): every level, or the levels below
    # the first pair past its merger, where the solve raises RootLostError
    # and the cell minimum is positive at 40 digits; nothing else is raised.
    # The CLI exits 0 or 3 to match
    c = math.exp(log_c)
    pair = CouplingPair(c, c)
    result = spectrum(pair, n_max)
    if result.truncated_at is None:
        assert [level.n for level in result.levels] == list(range(n_max + 1))
        assert all(0 < level.eps < math.pi / 2 for level in result.levels)
    else:
        cut = result.truncated_at
        assert cut % 2 == 0 and [level.n for level in result.levels] == list(range(cut))
        with pytest.raises(RootLostError):
            solve_level(cut, pair)
        assert _mp_cell_minimum(cut // 2, c) > 0
        if cut:
            assert _mp_cell_minimum(cut // 2 - 1, c) < 0
    argv = ["spectrum", "--Y", repr(c), "--Z", repr(c), "--levels", str(n_max + 1), "--out", os.devnull]
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == (0 if result.truncated_at is None else 3)


def _hex(level):
    return (level.n, level.branch, level.sublabel,
            *(v.hex() for v in (level.s, level.t, level.eps, level.E, level.residual)))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(log_c=st.floats(math.log(1e-10), math.log(1e6)), n_max=st.integers(0, 300))
@example(log_c=math.log(0.999 * C_CRIT_PAIR0), n_max=2)
@example(log_c=math.log(0.5 * (C_CRIT_PAIR0 + C_CRIT_PAIR1)), n_max=5)
@example(log_c=math.log(1e-10), n_max=299)
def test_spectrum_and_family_walk_each_pair_cell_once(log_c, n_max):
    # both levels of a pair share one walk onto the cell minimum, and each is
    # the level `solve_level` returns after walking the cell on its own
    c = math.exp(log_c)
    pair = CouplingPair(c, c)
    expected, lost = [], None
    for n in range(n_max + 1):
        try:
            expected.append(_hex(solve_level(n, pair)))
        except RootLostError:
            lost = n
            break
    cells = list(range((n_max if lost is None else lost) // 2 + 1))
    walks, walk = [], secular._negative_point

    def counted(k, c):
        walks.append(k)
        return walk(k, c)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(secular, "_negative_point", counted)
        result = spectrum(pair, n_max)
        assert [_hex(level) for level in result.levels] == expected
        assert result.truncated_at == lost and walks == cells
        walks.clear()
        if lost is not None:
            with pytest.raises(RootLostError) as info:
                doublet_family(pair, n_max + 1)
            assert info.value.n == lost
        else:
            states = doublet_family(pair, n_max + 1)
            assert [_hex(state.level) for state in states[::2]] == expected
            assert all(a.level is b.level for a, b in zip(states[::2], states[1::2]))
        assert walks == cells


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


# critical_coupling(pair, tol).evaluations for pairs 0..7 when the walk onto
# the cell minimum bisected the sign of g'
BISECTION_WALK_EVALUATIONS = {
    1e-3: (742, 825, 1005, 1106, 926, 906, 1189, 1106),
    1e-10: (2056, 2465, 2350, 2637, 2562, 2521, 2723, 2453),
}


@pytest.mark.parametrize("tol", sorted(BISECTION_WALK_EVALUATIONS))
@pytest.mark.parametrize("pair", range(8))
def test_critical_search_costs_at_most_half_the_bisection_walk(pair, tol):
    # a perf guard that needs no clock: the count is deterministic
    ceiling = BISECTION_WALK_EVALUATIONS[tol][pair] // 2
    assert critical_coupling(pair, tol).evaluations <= ceiling


def _eps_solve_costs(monkeypatch):
    """A list that gains, per eps solve, the evaluations of g that
    `_level_at` reports."""
    costs = []
    level_at = secular._level_at

    def counted(*args):
        result = level_at(*args)  # level, evaluations
        costs.append(result[1])
        return result

    monkeypatch.setattr(secular, "_level_at", counted)
    return costs


def test_eps_solve_costs_a_few_evaluations(monkeypatch):
    # an exact g = 0.0 at the last Newton point makes it the hi end; a probe
    # past it would leave the bracket, which then cost ~45 evaluations to
    # bisect again (level 10 at Y = Z = 1 took 45)
    costs = _eps_solve_costs(monkeypatch)
    solve_level(10, CouplingPair(1.0, 1.0))
    assert len(costs) == 1 and costs[0] <= 8
    rng = random.Random(3000)
    for _ in range(3000):
        c = math.exp(rng.uniform(math.log(1e-4), math.log(4.4)))
        solve_level(rng.randint(0, 39), CouplingPair(c, c))
    assert len(costs) == 3001 and max(costs) <= 12
    # Newton lands within an ulp or two of the sign change, and the gallop
    # closes the bracket from there in a probe or two (5.34 when a probe of
    # the last step plus 4 ulp and a bisection followed it)
    assert sum(costs[1:]) / 3000 <= 4.0


# The level solve as it ran through the shared helper: the walk by one call
# each of g, dg/ds and d2g/ds2, and the eps solve by a callback handed to
# `newton_in_bracket`.  The library runs both as inline loops that share
# t, sinh 2t and the trigonometric terms, so it must return the same bits.


def _reference_g(s, c):
    t = c / (2.0 * s)
    try:
        return s * math.sin(2.0 * s) + t * math.sinh(2.0 * t)
    except OverflowError:
        return math.inf


def _reference_slope(s, c):
    t = c / (2.0 * s)
    try:
        pull = (t / s) * (math.sinh(2.0 * t) + 2.0 * t * math.cosh(2.0 * t))
    except OverflowError:
        return -math.inf
    return math.sin(2.0 * s) + 2.0 * s * math.cos(2.0 * s) - pull


def _reference_curvature(s, c):
    t = c / (2.0 * s)
    try:
        push = (2.0 * t / (s * s)) * (
            (1.0 + 2.0 * t * t) * math.sinh(2.0 * t) + 4.0 * t * math.cosh(2.0 * t)
        )
    except OverflowError:
        return math.inf
    return 4.0 * (math.cos(2.0 * s) - s * math.sin(2.0 * s)) + push


def _reference_negative_point(k, c):
    a, b = pair_interval(k)
    lo, hi = 0.5 * (a + b), b
    s = 0.5 * (lo + hi)
    near = 2.0 * math.ulp(b)
    evaluations = 0
    while lo < s < hi:
        evaluations += 1
        if _reference_g(s, c) < 0.0:
            return s, evaluations
        evaluations += 2
        slope = _reference_slope(s, c)
        if slope < 0.0:
            lo = s
        else:
            hi = s
        step = slope / _reference_curvature(s, c)
        s -= step
        if abs(step) <= near:
            evaluations += 1
            return (s if _reference_g(s, c) < 0.0 else None), evaluations
        if not lo < s < hi:
            if s >= hi == b:
                evaluations += 1
                if _reference_slope(b, c) < 0.0:
                    return None, evaluations
            s = 0.5 * (lo + hi)
    return None, evaluations


def _reference_level(n, c):
    """(s, t, eps, E, residual) and the evaluations of g in the eps solve."""
    p, _ = _reference_negative_point(n // 2, c)
    if p is None:
        raise RootLostError(n, c)
    s0 = (n + 1) * math.pi / 2.0
    sign = -1.0 if n % 2 else 1.0
    calls = 0

    def g(eps, newton=False):
        nonlocal calls
        calls += 1
        s = s0 + sign * eps
        t = c / (2.0 * s)
        value = t * math.sinh(2.0 * t) - s * math.sin(2.0 * eps)
        return value, (sign * value / _reference_slope(s, c) if newton else None)

    top = sign * (p - s0)
    lo, hi = newton_in_bracket(g, 0.0, top, _first_order(n, c * c))
    evaluations = calls
    if hi == top and g(top)[0] > 0.0:
        raise RootLostError(n, c)
    eps = 0.5 * (lo + hi)
    s = s0 + sign * eps
    t = c / (2.0 * s)
    tail, swing = t * math.sinh(2.0 * t), s * math.sin(2.0 * eps)
    res = abs(tail - swing)
    if res > secular.RESIDUAL_RTOL * max(1.0, tail + abs(swing)):
        raise NumericalFailureError(f"level n={n}")
    return (s, t, eps, s * s - t * t, res), evaluations


def _outcome(solve, *args):
    try:
        return solve(*args)
    except (RootLostError, NumericalFailureError) as exc:
        return type(exc)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(n=st.integers(0, 300000), c=st.floats(-10.0, 6.0).map(lambda e: 10.0**e))
@example(n=22455, c=315474.6835568906)  # |g| = 7.3e-12, within 1e-12 of its scale
@example(n=31774, c=494671.7563675102)  # inside the noise band of g next to the merger
@example(n=0, c=0.999 * C_CRIT_PAIR0)
@example(n=1, c=0.999 * C_CRIT_PAIR0)
@example(n=2, c=0.999 * C_CRIT_PAIR0)
# the walk finds g < 0, yet g(top) > 0 and no float of the bracket reads g <= 0
@example(n=18, c=108.64916991857332)
@example(n=303, c=2763.220032794599)
def test_level_solve_is_the_helper_driven_solve_bit_for_bit(n, c):
    pair = CouplingPair(c, c)
    assert _negative_point(n // 2, c) == _reference_negative_point(n // 2, c)
    expected = _outcome(_reference_level, n, c)
    got = _outcome(solve_level, n, pair)
    if isinstance(expected, type):
        assert got is expected
        return
    values, evaluations = expected
    assert [v.hex() for v in (got.s, got.t, got.eps, got.E, got.residual)] == [
        v.hex() for v in values]
    # the count `_level_at` reports is the helper's count of callbacks
    assert secular._level_at(n, c, _negative_point(n // 2, c)[0]) == (got, evaluations)
    if n < 200:  # spectrum takes the same solve, up to the first merged pair
        levels = spectrum(pair, n).levels
        assert len(levels) <= n or levels[n] == got


@pytest.mark.parametrize("n", range(4))
def test_subnormal_product_keeps_the_box_root_bit_for_bit(n):
    # YZ = 5e-324 leaves the first-order eps at 0.0: the bracket closes on
    # [0, 5e-324] and the level is taken at eps = 0, an end never sampled
    pair = CouplingPair(1.0, 5e-324)
    level = solve_level(n, pair)
    assert level.eps == 0.0 and level.s == (n + 1) * math.pi / 2.0
    values, _ = _reference_level(n, pair.root_product)
    assert [v.hex() for v in (level.s, level.t, level.eps, level.E, level.residual)] == [
        v.hex() for v in values]


@pytest.mark.parametrize("pair", [CouplingPair(1.0, 5e-324), CouplingPair(5e-324, 1.0),
                                  CouplingPair(1e-200, 1e-200)])
def test_underflowed_first_order_eps_takes_the_level_at_eps_zero(pair):
    # c^2 underflows and the first-order eps with it: the level is its sample
    # at eps = 0, the record that a bisection from top reached after ~1000
    # evaluations of g
    c = pair.root_product
    levels = spectrum(pair, 39).levels
    for n in range(40):
        level, evaluations = secular._level_at(n, c, _negative_point(n // 2, c)[0])
        s0 = (n + 1) * math.pi / 2.0
        t = c / (2.0 * s0)
        record = (s0, t, 0.0, s0 * s0 - t * t, abs(t * math.sinh(2.0 * t)))
        assert level.n == n and [v.hex() for v in (
            level.s, level.t, level.eps, level.E, level.residual)] == [v.hex() for v in record]
        assert evaluations <= 2
        assert levels[n] == level


def _reference_cell_minimum(lo, hi, c, x):
    """The merger's cell minimum as it ran through the shared helper: -g'
    by a callback handed to `newton_in_bracket`, and its evaluations."""
    evaluations = 0

    def fall(x, newton):  # -g', > 0 below the minimum
        nonlocal evaluations
        if not newton:
            evaluations += 1
            return -_reference_slope(x, c), None
        evaluations += 2
        slope = _reference_slope(x, c)
        return -slope, slope / _reference_curvature(x, c)

    return newton_in_bracket(fall, lo, hi, x)[1], evaluations


@functools.lru_cache(maxsize=None)
def _c_merger(k):
    return critical_coupling(k).c_merger


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    log_pair=st.floats(0.0, math.log(MAX_PAIR + 1.0)),
    log_gap=st.floats(math.log(1e-13), math.log(1e-1)),
    side=st.sampled_from((-1.0, 1.0)),
    u=st.floats(0.0, 1.0),
)
@example(log_pair=0.0, log_gap=math.log(1e-13), side=-1.0, u=0.5)
@example(log_pair=0.0, log_gap=math.log(1e-1), side=1.0, u=0.5)
@example(log_pair=math.log(MAX_PAIR + 1.0), log_gap=math.log(1e-13), side=1.0, u=0.0)
# the gallop doubles its reach twice (1 in ~3000 draws)
@example(log_pair=0.5338317993205977, log_gap=-2.5752680256796303, side=1.0, u=0.07616033479928064)
def test_cell_minimum_is_the_helper_driven_solve_bit_for_bit(log_pair, log_gap, side, u):
    # couplings within a relative 1e-13..1e-1 of the merger, from any start
    # in the upper half of the cell, the merger's own start at u = 1/2
    k = min(MAX_PAIR, int(math.exp(log_pair)) - 1)
    c = _c_merger(k) * (1.0 + side * math.exp(log_gap))
    a, b = pair_interval(k)
    half = 0.5 * (a + b)
    x = half + u * (b - half)
    assert critical._cell_minimum(half, b, c, x) == _reference_cell_minimum(half, b, c, x)


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
    # the doubling passes 2^19 = 524288 alive and 2^20 merged
    res = critical_coupling(20000)
    assert 2.0**19 < res.c_crit < 2.0**20
    lo, hi = res.c_crit - res.bracket_width / 2, res.c_crit + res.bracket_width / 2
    assert _mp_cell_minimum(20000, lo) < 0 < _mp_cell_minimum(20000, hi)
    # at tol=1e-12 the bracket is one ulp wide and the rounding of g at the
    # cell minimum moves its ends: the merger lies within 1e-13 c_crit of it
    res = critical_coupling(20000, 1e-12)
    slack = res.bracket_width / 2 + 1e-13 * res.c_crit
    assert _mp_cell_minimum(20000, res.c_crit - slack) < 0 < _mp_cell_minimum(
        20000, res.c_crit + slack)


def test_pairs_alive_at_1e6_are_answered_up_to_the_last_resolved_cell():
    # pair 30317 is the first still alive at sqrt(YZ) = 1e6, MAX_PAIR the last
    # whose merger floats resolve; both merge inside the bracket they return
    assert _mp_cell_minimum(30317, 1e6) < 0 < _mp_cell_minimum(30316, 1e6)
    for k in (30317, MAX_PAIR):
        res = critical_coupling(k)
        lo, hi = res.c_crit - res.bracket_width / 2, res.c_crit + res.bracket_width / 2
        assert 1e6 < res.c_crit and _mp_cell_minimum(k, lo) < 0 < _mp_cell_minimum(k, hi)


def _mp_eps(n, c):
    """eps_n at 200 bits: g(eps) = t sinh 2t - s sin 2eps with
    s = (n+1) pi/2 + (-1)^n eps, solved on the bracket [0, eps_p] whose
    upper end is checked negative at 200 bits."""
    mp = pytest.importorskip("mpmath")
    with mp.workprec(200):
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
    # the order-3 remainder is a relative error below 0.01 (YZ)^2 / (n+1)^4
    # (9.2e-3 at n = 1), under 1e-18 here: what is left is a floor of a few ulps
    c = 10.0**exponent
    pair = CouplingPair(c, c)
    eps = solve_level(n, pair).eps
    bound = (0.01 * c**4 / (n + 1) ** 4 + 4 * 2.0**-52) * eps
    assert abs(perturbative_eps(n, pair, order=2) - eps) <= bound


@pytest.mark.parametrize(
    "n, c",
    [(11794, 161197.94071474453), (22455, 315474.6835568906), (49692, 765215.8744495689)],
)
def test_large_level_roots_match_mpmath(n, c):
    # |g| is 1.8e-12 to 7.3e-12 at these roots, above an absolute 1e-12,
    # while eps is within a few ulps of the root
    eps = solve_level(n, CouplingPair(c, c)).eps
    assert abs(eps - _mp_eps(n, c)) <= 1e-14 * eps


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
