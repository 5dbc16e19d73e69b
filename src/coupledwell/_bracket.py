"""Safeguarded Newton for a real root in a sign bracket, shared by the
closed form (`secular`) and the oracle, which stays independent of it.
The rules, Dekker/Brent-style (R. P. Brent, Algorithms for Minimization
without Derivatives, 1973):

1. a step that leaves the open bracket is replaced by its midpoint;
2. Newton ends once a step is within 2 ulp of the iterate, or at least
   half the accepted step before last: the noise band of f;
3. one probe follows, the last step's size plus 4 ulp past the iterate,
   away from the end it became (f = 0 makes it the hi end);
4. bisection finishes the bracket to adjacent floats.
"""

import math


def newton_in_bracket(f, lo: float, hi: float, x: float) -> tuple[float, float]:
    """Adjacent floats lo < hi with f(lo) > 0 >= f(hi), by Newton from x,
    given f > 0 on lo's side and f <= 0 on hi's.  f(x, newton) returns
    (value, step), with the Newton step (to x - step) computed only while
    `newton` is true; a value of None stops the search at (x, x).  The
    cost is at most about twice a plain bisection's."""
    newton, last, before_last = True, math.inf, math.inf
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
            x = 0.5 * (lo + hi)
        elif (size := abs(step)) <= 2.0 * math.ulp(x) or size >= 0.5 * before_last:
            newton = False
            x += (1.0 if x == lo else -1.0) * (size + 4.0 * math.ulp(x))
        elif lo < (x := x - step) < hi:
            last, before_last = size, last
