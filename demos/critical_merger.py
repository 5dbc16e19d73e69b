"""Where the real spectrum ends: the pair merger.

Raising the coupling product pushes the two roots of a pair cell toward
each other until they collide and leave the real axis.  The criticality
search solves that merger as the double root g = g' = 0 and brackets
its coupling by bisection; past it the analytic solver reports the
roots as lost, and the finite-difference oracle sees a conjugate pair
of genuinely complex eigenvalues appear in the low spectrum.
"""

from coupledwell import (
    CouplingPair,
    GridSpec,
    RootLostError,
    critical_coupling,
    criticality_scan,
    first_complex_bracket,
    solve_level,
    spectrum,
)

# the gap of pair 0 closes as c = sqrt(YZ) grows
print("pair-0 gap vs coupling")
for c in (1.0, 2.0, 3.0, 4.0, 4.4):
    res = spectrum(CouplingPair(c, c), 1)
    e0, e1 = res.levels[0].E, res.levels[1].E
    print(f"  c={c:4.1f}  E0={e0:10.6f}  E1={e1:10.6f}  gap={e1 - e0:.6f}")

crit0 = critical_coupling(0, tol=1e-10)
crit1 = critical_coupling(1, tol=1e-10)
print()
print(f"pair 0 merges at c = {crit0.c_crit:.10f}  ({crit0.evaluations} evaluations)")
print(f"  merger point: c = {crit0.c_merger!r}, s = {crit0.s_merger!r}, E = {crit0.E_merger!r}")
print(f"pair 1 merges at c = {crit1.c_crit:.10f}")

# just below: two tight real roots.  just above: no real roots at all.
below = CouplingPair(crit0.c_crit - 1e-4, crit0.c_crit - 1e-4)
lo, hi = solve_level(0, below), solve_level(1, below)
print()
print(f"c_crit - 1e-4:  s0={lo.s:.8f}  s1={hi.s:.8f}  (still split)")
above = CouplingPair(crit0.c_crit + 1e-4, crit0.c_crit + 1e-4)
try:
    solve_level(0, above)
except RootLostError as exc:
    print(f"c_crit + 1e-4:  {exc}")

# independent confirmation on the grid: the max |Im E| of the lowest
# four eigenvalues jumps from discretization noise to O(1)
scan = criticality_scan([4.2, 4.4, 4.6, 4.8], GridSpec(256))
print()
print("oracle scan, M = 256")
for c, im in scan:
    print(f"  c={c:.1f}  max|Im E| = {im:.3e}")
lo_c, hi_c = first_complex_bracket(scan)
print(f"transition bracketed in ({lo_c}, {hi_c}); analytic value {crit0.c_crit:.6f}")
