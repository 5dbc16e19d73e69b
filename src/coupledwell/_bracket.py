"""Safeguarded Newton for a real root in a sign bracket, shared by the
closed form's merger search on the coupling (`critical._merger`) and the
oracle's real roots (`oracle._TwoRegionBlock._bracketed_root`), which
stays independent of the closed form.  Two closed-form loops run their
own copies of these rules, the ε solve of each level (`secular._level_at`)
and the cell minimum at each coupling the merger search samples
(`critical._cell_minimum`); the walk onto the cell minimum
(`secular._negative_point`) runs a guarded Newton loop of its own.  The
call overhead is the reason: through this helper, with callbacks that
form the same terms as the loops (the same brackets and counts, bit for
bit), a 40-level `spectrum` at (Y, Z) = (1, 4) plus a 25-level one at
(2, 1.5) took 331-341 us against 252-257 us inline, and
`critical_coupling` of pairs 0-7 at tol=1e-6 290-291 us against
259-261 us (medians of 100 rounds, both forms interleaved in one
process, in each of 3 runs; Xeon, CPython 3.11).  The rules,
Dekker/Brent-style (R. P. Brent, Algorithms for Minimization without
Derivatives, 1973):

1. a step that leaves the open bracket is replaced by its midpoint;
2. Newton ends once a step is within 2 ulp of the iterate, or at least
   half the accepted step before last: the noise band of f;
3. after a step within 2 ulp, a gallop: the float 1 ulp from the iterate
   is probed, toward the end the iterate did not become (f = 0 makes it
   the hi end), and the distance doubles while probes keep its sign;
4. after the noise band's step, one probe, that step's size plus 4 ulp
   past the iterate, away from the end it became;
5. bisection finishes the bracket to adjacent floats.

Newton mostly lands within 1 or 2 ulp of the sign change, where the
gallop closes the bracket in one or two probes: the 11931 ε solves of
the `spectrum` requests in 40 perfbench `closed-form` blocks at seed 1
take 4.48 evaluations of g each, against 6.13 with rule 4's probe and
bisection in its place.
"""

import math


def newton_in_bracket(f, lo: float, hi: float, x: float) -> tuple[float, float]:
    """Adjacent floats lo < hi with f(lo) > 0 >= f(hi), by Newton from x,
    given f > 0 on lo's side and f <= 0 on hi's.  f(x, newton) returns
    (value, step), with the Newton step (to x - step) computed only while
    `newton` is true; a value of None stops the search at (x, x).  Past
    a Newton step within 2 ulp the cost is about twice a bisection of
    the distance to the sign change: one probe when that is one float."""
    newton, last, before_last = True, math.inf, math.inf
    reach = 0.0  # the probe's offset from Newton's last point, 0.0 outside the gallop
    while True:
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                return lo, hi
        value, step = f(x, newton)
        if value is None:
            return x, x
        lo, hi = (x, hi) if value > 0.0 else (lo, x)
        if not newton:
            if reach and (x == lo) == (reach > 0.0):  # the probe kept the iterate's sign
                x += reach
                reach *= 2.0
            else:
                reach = 0.0
                x = 0.5 * (lo + hi)
        elif (size := abs(step)) <= 2.0 * math.ulp(x):
            newton = False
            reach = math.nextafter(x, hi if x == lo else lo) - x
            x += reach
        elif size >= 0.5 * before_last:
            newton = False
            x += (1.0 if x == lo else -1.0) * (size + 4.0 * math.ulp(x))
        elif lo < (x := x - step) < hi:
            last, before_last = size, last
