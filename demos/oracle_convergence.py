"""Cross-checking the closed form against a finite-difference oracle.

The oracle knows nothing about sine profiles or secular roots: it
builds the three-point Laplacian on a uniform grid, adds the stepwise
imaginary coupling, and diagonalizes.  The discrete operator satisfies
the pseudo-Hermiticity relation S H S = H^dagger exactly, in floating
point, so its eigenvalues come real or in conjugate pairs by
construction.  Errors against the analytic energies fall off at the
expected second order, verified by Richardson ratios between grids.
"""

from coupledwell import (
    CouplingPair,
    GridSpec,
    build_hamiltonian,
    compare_spectrum,
    eigenpairs,
    spectrum,
    subspace_alignment,
    verify,
)
from coupledwell.wavefunctions import doublet_family, evaluate

pair = CouplingPair(1.0, 4.0)
levels = spectrum(pair, 3).levels

coarse = build_hamiltonian(pair, GridSpec(256))
fine = build_hamiltonian(pair, GridSpec(512))

# the invariant battery at M = 256, the exact discrete symmetry
# S H S = H^dagger (swap channels, reflect the grid) among its checks
for check in verify(pair, 4, GridSpec(256)):
    print(
        f"{'PASS' if check.passed else 'FAIL'}  {check.name}: "
        f"{check.value:.3e} {check.comparison} {check.bound:.3e}"
    )

vals_c, _ = eigenpairs(coarse, 8)
vals_f, vecs_f = eigenpairs(fine, 8)
report = compare_spectrum(levels, vals_f, 4, coarse_eigenvalues=vals_c)

print()
print(" n   E_analytic      E_grid          rel err    mult   order")
for row, order in zip(report["levels"], report["richardson_orders"]):
    print(
        f"{row['n']:2d}   {row['E_analytic']:12.8f}  {row['E_numeric']:12.8f}"
        f"   {row['rel_err']:.2e}    {row['multiplicity']}     {order:.4f}"
    )
print("degeneracy pattern ok:", report["degeneracy_ok"])

# the numerical doublet subspace should contain the sampled analytic state
nodes = GridSpec(512).interior_nodes
state = doublet_family(pair, 1)[0]
sampled = evaluate(state, nodes).reshape(-1)
# columns 0,1 of vecs_f span the ground doublet
align = subspace_alignment(vecs_f[:, 0:2], sampled)
print()
print("ground-state alignment with the grid doublet:", f"{align:.12f}")
