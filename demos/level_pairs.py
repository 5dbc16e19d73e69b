"""How the coupling reorganizes the box spectrum into close pairs.

With the channels uncoupled the well is two copies of the textbook box,
levels E_n = ((n+1) pi / 2)^2.  Switching on the imaginary channel
coupling pushes the members of each consecutive pair toward each other:
level 0 rises, level 1 falls, and so on in alternation.  The offset
eps_n shrinks like (n+1)^-3, which we check against the closed-form
leading coefficient.
"""

import math

from coupledwell import CouplingPair, perturbative_eps, spectrum

box = lambda n: ((n + 1) * math.pi / 2.0) ** 2

print("uncoupled reference (Y = Z = 0)")
free = spectrum(CouplingPair(0.0, 0.0), 5)
for lvl in free.levels:
    print(f"  n={lvl.n}  E={lvl.E:.10f}  box={box(lvl.n):.10f}")

print()
print("coupled, Y = Z = 1")
res = spectrum(CouplingPair(1.0, 1.0), 5)
for lvl in res.levels:
    shift = lvl.E - box(lvl.n)
    arrow = "up" if shift > 0 else "down"
    print(
        f"  n={lvl.n}  s={lvl.s:.12f}  E={lvl.E:.12f}  "
        f"shift={shift:+.3e} ({arrow})"
    )

# each pair (2k, 2k+1) closes: even member up, odd member down
print()
print("pair gaps, coupled vs uncoupled")
for k in range(3):
    e_lo, e_hi = res.levels[2 * k].E, res.levels[2 * k + 1].E
    b_lo, b_hi = box(2 * k), box(2 * k + 1)
    print(f"  pair {k}:  {e_hi - e_lo:.6f}  <  {b_hi - b_lo:.6f}")

# eps_n (n+1)^3 tends to 2 YZ / pi^3 from the expansion of the secular
# equation; compare the exact roots with the order-2 series
print()
print("offset decay, eps_n * (n+1)^3  ->  2/pi^3 =", f"{2.0 / math.pi**3:.8f}")
pair = CouplingPair(1.0, 1.0)
wide = spectrum(pair, 11)
for lvl in wide.levels:
    series = perturbative_eps(lvl.n, pair)
    print(
        f"  n={lvl.n:2d}  eps={lvl.eps:.3e}  scaled={lvl.eps * (lvl.n + 1) ** 3:.8f}"
        f"  series rel err={abs(series - lvl.eps) / lvl.eps:.2e}"
    )
