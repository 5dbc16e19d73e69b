"""Property tests: invariants that should hold over the whole coupling range,
not just at hand-picked points."""

import contextlib
import io
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from coupledwell import (
    MIN_ROOT_PRODUCT,
    BranchClass,
    CouplingPair,
    MetricConstraintError,
    MetricWeights,
    RepBasis,
    biorthogonal_overlap,
    biorthogonality_matrix,
    build_theta_metric,
    diagonal_overlap,
    doublet_family,
    inverse_identity_defect,
    inverse_theta_metric,
    left_vector,
    matching_residual,
    mode_hamiltonian,
    mode_spin,
    parity_overlap,
    quasi_hermiticity_defect,
    solve_coefficients,
    solve_level,
    spectrum,
)
from coupledwell.cli import main
from coupledwell.wavefunctions import channel_weights

# keep sqrt(YZ) <= 4, safely below the lowest merger at 4.4753
amplitudes = st.floats(min_value=0.05, max_value=4.0,
                       allow_nan=False, allow_infinity=False)
level_indices = st.integers(min_value=0, max_value=6)
signs = st.sampled_from([+1, -1])


@settings(max_examples=40, derandomize=True, deadline=None)
@given(y=amplitudes, z=amplitudes, n=level_indices)
def test_solved_roots_satisfy_secular_equation(y, z, n):
    lvl = solve_level(n, CouplingPair(y, z))
    assert abs(lvl.residual) <= 1e-12
    assert abs(2.0 * lvl.s * lvl.t - math.sqrt(y * z)) <= 1e-10
    assert lvl.eps > 0.0


@settings(max_examples=40, derandomize=True, deadline=None)
@given(y=amplitudes, z=amplitudes, n=level_indices)
def test_spectrum_depends_on_coupling_product_only(y, z, n):
    c = math.sqrt(y * z)
    a = solve_level(n, CouplingPair(y, z))
    b = solve_level(n, CouplingPair(c, c))
    assert abs(a.s - b.s) <= 1e-10
    assert abs(a.E - b.E) <= 1e-9


@settings(max_examples=30, derandomize=True, deadline=None)
@given(y=amplitudes, z=amplitudes, n=level_indices, sigma=signs)
def test_doublet_member_invariants(y, z, n, sigma):
    pair = CouplingPair(y, z)
    state = solve_coefficients(solve_level(n, pair), pair, sigma)
    assert abs(state.A / state.B - sigma * math.sqrt(z / y)) <= 1e-10
    assert matching_residual(state) <= 1e-11
    assert math.copysign(1.0, parity_overlap(state)) == (-1.0) ** n
    assert diagonal_overlap(state) > 0.0


@settings(max_examples=25, derandomize=True, deadline=None)
@given(y=amplitudes, z=amplitudes, sigma=signs,
       x=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_states_are_self_conjugate_under_reflection(y, z, sigma, x):
    pair = CouplingPair(y, z)
    state = solve_coefficients(solve_level(2, pair), pair, sigma)
    vals = np.asarray([state.upper(x), state.lower(x)])
    refl = np.asarray([state.upper(-x), state.lower(-x)])
    assert np.abs(np.conj(vals) - refl).max() < 1e-12


@settings(max_examples=60, derandomize=True, deadline=None)
@given(log_c=st.floats(min_value=-12.0, max_value=math.log10(4.4)),
       log_ratio=st.floats(min_value=-math.log10(4.0), max_value=math.log10(4.0)),
       n_levels=st.integers(min_value=1, max_value=60))
def test_diagonal_overlap_is_the_left_partner_pairing(log_c, log_ratio, n_levels):
    # d = 2 |wu wl| |integral phi^2| is the pairing with the left partner,
    # bit for bit, and the parity overlap's closed form to rounding
    c, root_ratio = 10.0 ** log_c, 10.0 ** (log_ratio / 2.0)
    for state in doublet_family(CouplingPair(c * root_ratio, c / root_ratio), n_levels):
        d = diagonal_overlap(state)
        assert d == biorthogonal_overlap(left_vector(state), state)
        wu, wl = channel_weights(state.sigma, state.Y, state.Z)
        assert abs(d - 2.0 * abs(wu * wl) * abs(parity_overlap(state))) <= 2e-15 * d


# +-10^u over the finite range, where YZ under- and overflows, and exact zeros
any_amplitudes = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda sign, u: sign * 10.0**u, st.sampled_from([1.0, -1.0]),
              st.floats(min_value=-300.0, max_value=300.0)),
)


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=200, derandomize=True, deadline=None)
@given(y=any_amplitudes, z=any_amplitudes)
# sqrt|Y| sqrt|Z| rounds 1.5 ulp from the root here
@example(y=1.1e201, z=1.3e201)
@example(y=1.7e201, z=-2.2e201)
def test_coupling_domain_gives_levels_or_a_truncation(y, z):
    pair = CouplingPair(y, z)
    if y == 0.0 or z == 0.0:
        assert pair.branch is BranchClass.DECOUPLED
    elif (y > 0.0) == (z > 0.0):
        assert pair.branch is BranchClass.POSITIVE_PRODUCT
    else:
        assert pair.branch is BranchClass.NEGATIVE_PRODUCT
    with mpmath.workprec(200):
        exact = mpmath.sqrt(abs(mpmath.mpf(y) * mpmath.mpf(z)))
        assert abs(mpmath.mpf(pair.root_product) - exact) <= math.ulp(pair.root_product)
    result = spectrum(pair, 2)
    assert result.levels or result.truncated_at is not None
    assert all(math.isfinite(level.E) for level in result.levels)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["spectrum", "--Y", repr(y), "--Z", repr(z), "--levels", "2"])
    assert code in (0, 3)
    json.loads(out.getvalue(), parse_constant=_refuse_constant)


# c = 10^u from MIN_ROOT_PRODUCT to below the lowest merger, Y/Z = 4^v
metric_couplings = st.builds(
    lambda u, v: CouplingPair(10.0**u * 2.0**v, 10.0**u / 2.0**v),
    st.floats(min_value=-6.0, max_value=math.log10(4.4)),
    st.floats(min_value=-1.0, max_value=1.0),
)
positive_weights = st.floats(min_value=1e-3, max_value=1e3)


def _weights(draw, n_levels, elements):
    return MetricWeights(
        np.array(draw(st.lists(elements, min_size=n_levels, max_size=n_levels))),
        np.array(draw(st.lists(elements, min_size=n_levels, max_size=n_levels))),
    )


@settings(max_examples=60, derandomize=True, deadline=None)
@given(pair=metric_couplings, n_levels=st.integers(min_value=1, max_value=40), data=st.data())
def test_mode_metric_over_the_family_domain(pair, n_levels, data):
    states = doublet_family(pair, n_levels)
    weights = _weights(data.draw, n_levels, positive_weights)
    if pair.root_product < MIN_ROOT_PRODUCT:  # 10^-6 rounded one ulp down
        with pytest.raises(MetricConstraintError):
            build_theta_metric(states, weights)
        return
    theta = build_theta_metric(states, weights)
    assert theta.basis is RepBasis.MODE and theta.is_form
    assert theta.meta["signature"] == (2 * n_levels, 0)
    assert quasi_hermiticity_defect(mode_hamiltonian(states), theta) <= 1e-8
    assert quasi_hermiticity_defect(mode_spin(states), theta) <= 1e-8
    assert inverse_identity_defect(theta, states, weights) <= 1e-8
    assert inverse_theta_metric(states, weights).basis is RepBasis.MODE
    pairing = biorthogonality_matrix(states)
    diagonal = np.abs(np.diag(pairing))
    assert np.abs(pairing - np.diag(np.diag(pairing))).max() <= 1e-9 * diagonal.max()


@settings(max_examples=20, derandomize=True, deadline=None)
@given(u=st.floats(min_value=-9.0, max_value=-6.0, exclude_max=True),
       v=st.floats(min_value=-1.0, max_value=1.0),
       n_levels=st.integers(min_value=1, max_value=40))
def test_metric_refuses_couplings_below_the_family(u, v, n_levels):
    states = doublet_family(CouplingPair(10.0**u * 2.0**v, 10.0**u / 2.0**v), n_levels)
    for build in (build_theta_metric, inverse_theta_metric):
        with pytest.raises(MetricConstraintError):
            build(states)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(pair=metric_couplings, n_levels=st.integers(min_value=1, max_value=40), data=st.data())
def test_signed_weights_need_unsafe_and_set_the_signature(pair, n_levels, data):
    states = doublet_family(pair, n_levels)
    weights = _weights(data.draw, n_levels, st.one_of(
        positive_weights, st.just(0.0), positive_weights.map(lambda w: -w)))
    per_state = np.array([weights.select(s.level.n, s.sigma) for s in states])
    assume(pair.root_product >= MIN_ROOT_PRODUCT and not np.all(per_state > 0.0))
    for build in (build_theta_metric, inverse_theta_metric):
        with pytest.raises(MetricConstraintError):
            build(states, weights)
    theta = build_theta_metric(states, weights, unsafe=True)
    assert theta.meta["signature"] == (int(np.sum(per_state > 0.0)), int(np.sum(per_state < 0.0)))
    with pytest.raises(MetricConstraintError):
        inverse_identity_defect(theta, states, weights)
