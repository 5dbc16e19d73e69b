"""The safeguarded bracketed Newton iteration, on synthetic functions."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from coupledwell._bracket import newton_in_bracket


def solve(f, lo, hi, x):
    """newton_in_bracket with its calls counted and recorded."""
    points = []

    def counted(x, newton):
        points.append(x)
        return f(x, newton)

    return newton_in_bracket(counted, lo, hi, x), points


def assert_adjacent_sign_change(f, lo, hi):
    assert math.nextafter(lo, math.inf) == hi
    assert f(lo, False)[0] > 0.0 >= f(hi, False)[0]


def assert_cost(points, width, root):
    # at most about twice a plain bisection to adjacent floats
    assert len(points) <= 2 * math.log2(width / math.ulp(root)) + 4


def test_an_iterate_on_an_exact_zero_probes_below_it():
    # the first Newton step lands on f = 0.0, which makes x the hi end: the
    # probe goes below it, into the bracket, not past it
    def f(x, newton):
        return 0.5 - x, (x - 0.5 if newton else None)

    (lo, hi), points = solve(f, 0.0, 1.0, 0.25)
    assert points[1] == hi == 0.5
    assert points[2] < 0.5
    assert_adjacent_sign_change(f, lo, hi)
    assert len(points) <= 6


@pytest.mark.parametrize("above", [True, False])
def test_a_converged_iterate_one_float_from_the_sign_change_closes_with_one_probe(above):
    # Newton lands on a, the step there is 0, and the sign change lies
    # between a and its neighbour: one probe at that neighbour closes it
    a = 0.75
    edge = math.nextafter(a, math.inf) if above else a

    def f(x, newton):
        return (1.0 if x < edge else -1.0), (x - a if newton else None)

    (lo, hi), points = solve(f, 0.0, 1.0, 0.25)
    assert points == [0.25, a, math.nextafter(a, 1.0 if above else 0.0)]
    assert (lo, hi) == (math.nextafter(edge, 0.0), edge)


def test_an_exact_zero_at_the_converged_iterate_gallops_downward():
    # f = 0 on [a - 5u, a] makes the converged iterate a the hi end: the
    # probes go 1, 2, 4, 8 floats below it, then bisect (a - 8u, a - 4u)
    a = 0.75
    u = math.ulp(a)

    def f(x, newton):
        value = (a - 5 * u) - x if x < a - 5 * u else min(a - x, 0.0)
        return value, (x - a if newton else None)

    (lo, hi), points = solve(f, 0.0, 1.0, 0.25)
    assert points[:2] == [0.25, a]
    assert points[2:] == [a - u, a - 2 * u, a - 4 * u, a - 8 * u, a - 6 * u, a - 5 * u]
    assert (lo, hi) == (a - 6 * u, a - 5 * u)
    assert_adjacent_sign_change(f, lo, hi)


def test_a_root_several_ulp_past_a_one_sided_creep_costs_no_more_than_the_bound():
    # f = e^(r - x) - 1, with Newton steps that aim 20 floats short of r:
    # the iterates creep up from below, all on lo's side, and the step falls
    # under 2 ulp 20 floats below the sign change, which the gallop climbs
    # to in 1, 2, 4, ... floats and then bisects
    root = 1.5
    aim = root - 20 * math.ulp(root)

    def f(x, newton):
        return math.expm1(root - x), (-math.expm1(aim - x) / math.exp(aim - x) if newton else None)

    newton_points = []

    def recorded(x, newton):
        if newton:
            newton_points.append(x)
        return f(x, newton)

    (lo, hi), points = solve(recorded, 0.0, 3.0, 0.2)
    assert all(f(x, False)[0] > 0.0 for x in newton_points)  # one-sided
    assert newton_points[-1] == aim
    gallop = points[len(newton_points):]
    assert gallop[0] == math.nextafter(aim, math.inf)
    assert (lo, hi) == (math.nextafter(root, 0.0), root)
    assert_cost(points, 3.0, root)
    assert len(gallop) <= 2 * math.log2(20) + 2


@settings(max_examples=300, derandomize=True, deadline=None)
@given(edge=st.floats(0.01, 0.99), offset=st.integers(-8, 8),
       factor=st.floats(0.3, 3.0), start=st.floats(0.0, 1.0))
@example(edge=0.75, offset=0, factor=1.0, start=0.25)
@example(edge=0.5, offset=-1, factor=1.0, start=0.25)  # a binade edge below
def test_a_single_float_sign_change_is_the_returned_pair(edge, offset, factor, start):
    # f = edge - x changes sign once, at the float edge (f(edge) = 0 makes it
    # hi); Newton's steps aim `offset` floats off it and are off by `factor`,
    # so it converges short of, past or onto the edge, or oscillates into
    # the noise-band exit: every path must return the same adjacent pair
    target = edge + offset * math.ulp(edge)

    def f(x, newton):
        return edge - x, ((x - target) * factor if newton else None)

    (lo, hi), _ = solve(f, 0.0, 1.0, start)
    assert (lo, hi) == (math.nextafter(edge, 0.0), edge)


def test_one_sided_creep_in_a_noise_band_ends_in_a_probe():
    # f = e^(r - x) - 1 is convex, so Newton approaches r from below; within
    # 3q of r f reads the floor q, and the iterate creeps by q a step with
    # every sample on lo's side, as g does at n = 0, c = 4.381079882685317
    root, q = 1.0, 5e-13

    def f(x, newton):
        d = root - x
        value = q if 0.0 < d < 3 * q else math.expm1(d)
        return value, (-value / math.exp(d) if newton else None)

    newton_points = []

    def recorded(x, newton):
        if newton:
            newton_points.append(x)
        return f(x, newton)

    (lo, hi), points = solve(recorded, -1.0, 2.0, 0.0)
    assert all(f(x, False)[0] > 0.0 for x in newton_points)  # one-sided
    assert sum(root - x < 3 * q for x in newton_points) >= 2  # crept in the band
    assert f(points[len(newton_points)], False)[0] <= 0.0  # the probe crossed
    assert_adjacent_sign_change(f, lo, hi)
    assert_cost(points, 3.0, root)


def test_a_step_that_leaves_the_bracket_becomes_the_midpoint():
    # Newton on atan overshoots from more than ~1.39 away
    root = 0.3

    def f(x, newton):
        d = root - x
        return math.atan(d), (-math.atan(d) * (1 + d * d) if newton else None)

    (lo, hi), points = solve(f, -20.0, 30.0, 10.0)
    assert points[1] == 0.5 * (-20.0 + 10.0)
    assert_adjacent_sign_change(f, lo, hi)
    assert_cost(points, 50.0, root)


def test_a_none_value_stops_at_the_point():
    def f(x, newton):
        if abs(x - 0.75) < 1e-3:
            return None, None
        return 0.75 - x, ((x - 0.75) / 2 if newton else None)

    (lo, hi), points = solve(f, 0.0, 1.0, 0.0)
    assert lo == hi == points[-1]
    assert abs(lo - 0.75) < 1e-3


@settings(max_examples=200, derandomize=True, deadline=None)
@given(root=st.floats(0.01, 0.99), rate=st.floats(0.1, 50.0),
       floor=st.floats(-16.0, -6.0).map(lambda u: 10.0**u),
       start=st.floats(0.0, 1.0))
def test_rounded_exponentials_cost_at_most_twice_a_bisection(root, rate, floor, start):
    # e^(rate (r - x)) - 1 rounded to multiples of `floor`: Newton steps
    # that cannot shrink below the rounding, and one root between the
    # last positive and the first non-positive sample
    def f(x, newton):
        d = rate * (root - x)
        value = floor * round(math.expm1(d) / floor)
        return value, (-value / (rate * math.exp(d)) if newton else None)

    (lo, hi), points = solve(f, 0.0, 1.0, start)
    assert_adjacent_sign_change(f, lo, hi)
    assert_cost(points, 1.0, root)
