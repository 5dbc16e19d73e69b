"""Piecewise-analytic bound states of the coupled wells.

A bound state of the positive-product branch is, per channel, a sine
wave with complex wavenumber on each half of the box:

    phi(x) = a sin(kappa (x+1))            on (-1, 0]
    phi(x) = conj(a sin(kappa (1-x)))      on [0, 1)

with kappa = s - i sigma t.  The right half uses the conjugated
coefficient and wavenumber, which encodes the self-conjugacy
phi(-x) = conj(phi(x)) and makes the Dirichlet walls exact.  The spin
doublet member sigma = -1 uses the conjugated kappa (equivalently, it is
the parity image of the sigma = +1 state), whose sines it conjugates bit
for bit; both members are built from one norm and one pair of sines.
The two-channel state scales the same phi by (sqrt(Z), sigma sqrt(Y)).

Phase convention: the common value at x = 0 is real and >= 0; for the
decoupled odd states (value 0 at the origin) the derivative at 0 is
purely imaginary with positive imaginary part.  Normalization is unit
L2 norm of phi alone, not of the two-channel vector.

The states, their d and q, the segment integral and the matching
residual are math/cmath scalars; the samplers (phi, upper, lower,
evaluate) import numpy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING

from ._ranges import _linspace
from .errors import ModelDomainError, NormalizationSingularError
from .model import HALF_WIDTH, BranchClass, CouplingPair, as_index
from .secular import LevelSolution, _box_level, _positive_levels

if TYPE_CHECKING:
    import numpy as np

_CONSISTENCY_TOL = 1e-10
_AMPLITUDE_SAMPLES = 257
# |p - q| below which the pairings built from many segment integrals
# (metric.sine_product_integrals and the `verify` battery's) keep the
# difference form of sine_product_integral rather than the rank-2 form:
# the difference form takes p - q directly, to an ulp, while the rank-2
# numerator cancels, leaving an error of ~eps e^(|Im p| + |Im q|) / |p - q|
# (see the metric module notes)
NEAR_WAVENUMBERS = 1.0


@dataclass(frozen=True, init=False)
class ChannelState:
    """Two-channel bound state (phi, chi) = (A, B) * segment sine.

    A and B are the left-segment coefficients of the upper and lower
    channel; both channels share the same normalized single-channel
    profile, so B/A = sigma sqrt(Y/Z) up to rounding.  phi_coeff is the
    coefficient of the unit-norm phi and kappa its left-segment
    wavenumber s - i sigma t.  The `__init__` is written by hand, as
    `LevelSolution`'s is, and for the same reason: `doublet_family`
    builds two states per level.  It and `solve_coefficients` store each
    state's d and q as they build it; a state made otherwise (say by
    `dataclasses.replace`) computes them on first use.
    """

    level: LevelSolution
    sigma: int
    Y: float
    Z: float
    phi_coeff: complex
    kappa: complex
    A: complex
    B: complex

    def __init__(self, level, sigma, Y, Z, phi_coeff, kappa, A, B):
        fields = self.__dict__
        fields["level"] = level
        fields["sigma"] = sigma
        fields["Y"] = Y
        fields["Z"] = Z
        fields["phi_coeff"] = phi_coeff
        fields["kappa"] = kappa
        fields["A"] = A
        fields["B"] = B

    def phi(self, x):
        """Normalized single-channel profile."""
        return _segment_sine(self.phi_coeff, self.kappa, x)

    def upper(self, x):
        return _segment_sine(self.A, self.kappa, x)

    def lower(self, x):
        return _segment_sine(self.B, self.kappa, x)

    @cached_property
    def q(self) -> int:
        """quasi_parity of this state, stored or computed once."""
        return quasi_parity(self)

    @cached_property
    def d(self) -> float:
        """Diagonal pairing d = <<left|state> with the state's own left partner,
        q (wl wu + wu wl) integral phi^2 = 2 |wu wl| |integral phi^2|: wu wl has
        the sign sigma and q = sigma sign(integral phi^2).  Stored or computed once."""
        wu, wl = channel_weights(self.sigma, self.Y, self.Z)
        return _diagonal_pairing(_phi_squares(self, *_sin_cos_kappa(self.level, self.sigma))[0], wu, wl)


def check_points(x) -> np.ndarray:
    """x as a float array, refused unless every point is finite and in |x| <= 1:
    the potential and the states are defined on the box only."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ModelDomainError("sample points must be finite")
    if np.any(np.abs(x) > HALF_WIDTH):
        raise ModelDomainError("sample points must lie on |x| <= 1")
    return x


def _segment_sine(coeff, kappa, x):
    # coeff sin(kappa (x+1)) on x <= 0 and its mirrored conjugate
    # conj(coeff sin(kappa (1-x))) on x > 0
    import numpy as np

    x = check_points(x)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty(x.shape, dtype=complex)
    left = x <= 0.0
    out[left] = coeff * np.sin(kappa * (x[left] + 1.0))
    out[~left] = np.conj(coeff * np.sin(kappa * (1.0 - x[~left])))
    return out[0] if scalar else out


def _sin_cos_kappa(level: LevelSolution, sigma: int) -> tuple[complex, complex]:
    """sin kappa, cos kappa for kappa = (n+1) pi/2 + w, w = (-1)^n eps - i sigma t,
    as quarter turns of w: eps is not lost to the rounding of s."""
    w = complex(-level.eps if level.n % 2 else level.eps, -sigma * level.t)
    sw, cw, turns = cmath.sin(w), cmath.cos(w), (level.n + 1) % 4
    if turns < 2:
        return (sw, cw) if turns == 0 else (cw, -sw)
    return (-sw, -cw) if turns == 2 else (-cw, sw)


def channel_weights(sigma: int, Y: float, Z: float) -> tuple[float, float]:
    """(upper, lower) factors of the unit-norm profile: (sqrt(Z), sigma sqrt(Y)),
    or (1, sigma) when fully decoupled.

    Every other pair needs Y > 0 and Z > 0 and raises ModelDomainError
    otherwise.  The channel ratio sqrt(Z/Y) is the quotient of the two
    factors at sigma = +1, which stays finite where Z / Y under- or
    overflows.
    """
    if Y == 0.0 and Z == 0.0:
        return 1.0, float(sigma)
    if Y <= 0.0 or Z <= 0.0:
        raise ModelDomainError("channel factors sqrt(Y), sqrt(Z) require Y > 0 and Z > 0")
    return math.sqrt(Z), sigma * math.sqrt(Y)


def _doublet_builder(coupling: CouplingPair):
    # build(level): both members of a solved level, the coupling checked once.
    # sin kappa of sigma = -1 is conj(sk) bit for bit, so its coefficient is the
    # same arithmetic on sk, not conj(a), whose zero parts can differ in sign; at
    # sk = 0 (odd decoupled levels) the two coincide.  The partner stores d and -q
    # (metric's module notes); where integral phi^2 = 0 the q property raises
    branch = coupling.branch
    if branch is BranchClass.NEGATIVE_PRODUCT:
        raise ModelDomainError("coefficient solver covers the positive-product branch only")
    if coupling.non_diagonalizable:
        raise ModelDomainError(
            "semi-decoupled coupling (YZ = 0 with one amplitude nonzero): the channel matrix "
            "is a Jordan block, and the closed form builds no states for this class"
        )
    Y, Z = coupling.Y, coupling.Z
    weight_upper, weight_lower = channel_weights(+1, Y, Z)
    c = coupling.root_product
    tol = _CONSISTENCY_TOL * max(1.0, c)

    def build(level: LevelSolution) -> tuple[ChannelState, ChannelState]:
        if level.branch is not branch:
            raise ModelDomainError(
                f"level was solved on branch {level.branch.value}, coupling is {branch.value}"
            )
        s, t = level.s, level.t
        if not abs(2.0 * s * t - c) <= tol:
            raise ModelDomainError("level does not satisfy 2 s t = sqrt(YZ) for this coupling")
        # L2 norm of sin(kappa (x+1)): sinh 2t / 2t - sin 2s / 2s, sin 2s = -sin 2eps
        stretch = math.sinh(2.0 * t) / (2.0 * t) if t else 1.0
        norm = math.sqrt(stretch + math.sin(2.0 * level.eps) / (2.0 * s))
        sk, ck = _sin_cos_kappa(level, +1)
        if abs(sk) > 0.0:
            # value at the origin real and non-negative
            a_plus, a_minus = (sk.conjugate() / abs(sk)) / norm, (sk / abs(sk)) / norm
        else:
            # sin kappa = 0 only for odd decoupled states, and then |cos kappa| >= 1
            # (|sin|^2 + |cos|^2 = cosh 2t): phi'(0) imaginary, Im > 0
            a_plus = a_minus = 1j * math.copysign(1.0, ck.real) / norm
        plus = ChannelState(level, +1, Y, Z, a_plus, complex(s, -t),
                            a_plus * weight_upper, a_plus * weight_lower)
        minus = ChannelState(level, -1, Y, Z, a_minus, complex(s, t),
                             a_minus * weight_upper, a_minus * -weight_lower)
        square, p = _phi_squares(plus, sk, ck)
        plus.__dict__["d"] = minus.__dict__["d"] = _diagonal_pairing(square, weight_upper, weight_lower)
        if p != 0.0:
            q = plus.__dict__["q"] = _quasi_parity(plus, p)
            minus.__dict__["q"] = -q
        return plus, minus

    return build


def solve_coefficients(level: LevelSolution, coupling: CouplingPair, sigma: int) -> ChannelState:
    """Build the sigma member of the degenerate doublet for a solved level.

    Parameters
    ----------
    level : LevelSolution
        Root on the POSITIVE_PRODUCT branch (or the fully decoupled
        Y = Z = 0 limit, where the channel factors degenerate to
        (1, sigma)).
    coupling : CouplingPair
        Must be consistent with the level (2 s t = sqrt(YZ)); channel
        amplitude factors sqrt(Z), sqrt(Y) require Y, Z > 0 when coupled.
    sigma : int
        Spin label +1 or -1.
    """
    if sigma not in (+1, -1):
        raise ModelDomainError(f"sigma must be +1 or -1, got {sigma!r}")
    return _doublet_builder(coupling)(level)[0 if sigma > 0 else 1]


def evaluate(state: ChannelState, x):
    """Sample the two-channel state; returns shape (2,) + shape(x)."""
    import numpy as np

    return np.stack([state.upper(x), state.lower(x)])


def matching_residual(state: ChannelState) -> float:
    """Mismatch of value and slope across x = 0, relative to the peak
    channel amplitude.

    For a state built from a converged secular root this is at rounding
    level; the slope defect is proportional to the secular residual, so
    perturbing s at fixed coupling makes it jump by orders of magnitude.
    The peak over the points of np.linspace(-1, 1, 257) (_ranges._linspace)
    is sampled with cmath on its 129 points x <= 0: on x > 0, 1 - x is the
    mirror point's x + 1 bit for bit, and |conj w| = |w|.
    """
    profile = [cmath.sin(state.kappa * (x + 1.0))
               for x in _linspace(-1.0, 1.0, _AMPLITUDE_SAMPLES)[: _AMPLITUDE_SAMPLES // 2 + 1]]
    amp = max(abs(coeff * sine) for coeff in (state.A, state.B) for sine in profile)
    if amp == 0.0:
        raise ModelDomainError("state has zero amplitude")
    sin_kappa, cos_kappa = _sin_cos_kappa(state.level, state.sigma)
    defect = 0.0
    for coeff in (state.A, state.B):
        sk = coeff * sin_kappa
        dk = coeff * state.kappa * cos_kappa
        value_jump = abs(sk - sk.conjugate())       # phi(0-) - phi(0+)
        slope_jump = abs(dk + dk.conjugate())       # phi'(0-) - phi'(0+)
        defect = max(defect, value_jump, slope_jump)
    return defect / amp


def parity_overlap(state: ChannelState) -> float:
    """<phi | P | phi> = integral conj(phi(x)) phi(-x) dx, in closed form.

    Self-conjugacy makes this equal to integral phi^2 dx, which is real;
    its sign alternates as (-1)^n at small coupling and it enters every
    biorthogonal normalization.
    """
    return _phi_squares(state, *_sin_cos_kappa(state.level, state.sigma))[1]


def _phi_squares(state: ChannelState, sin_kappa: complex, cos_kappa: complex) -> tuple[float, float]:
    # integral phi^2 dx from one a^2, for d as 2 Re(a^2 I(kappa, kappa)) and for q as
    # the parity overlap Re(a^2 (1 - sin kappa cos kappa / kappa)), which can differ in
    # the last bit: the one body of both (ChannelState.d, parity_overlap, the builder)
    square = state.phi_coeff * state.phi_coeff
    return (2.0 * (square * _same_wavenumber_integral(state.kappa)).real,
            (square * (1.0 - sin_kappa * cos_kappa / state.kappa)).real)


def quasi_parity(state: ChannelState) -> int:
    """Sign convention q = sigma * sign(parity overlap).

    Chosen so that every diagonal biorthogonal pairing comes out
    positive.  Raises if the parity overlap vanishes, since no sign
    convention can then normalize the left partner.
    """
    return _quasi_parity(state, parity_overlap(state))


def _quasi_parity(state: ChannelState, p: float) -> int:
    if p == 0.0:
        raise NormalizationSingularError(
            f"parity overlap vanishes for level n={state.level.n}, sigma={state.sigma}"
        )
    return int(state.sigma * math.copysign(1.0, p))


def _diagonal_pairing(square: float, wu: float, wl: float) -> float:
    return 2.0 * abs(wu * wl) * abs(square)


def doublet_family(coupling: CouplingPair, n_levels: int) -> list[ChannelState]:
    """Solve levels 0..n_levels-1 and build both doublet members of each.

    Order is (0,+1), (0,-1), (1,+1), ...; the two sigma states of a
    level share the same LevelSolution object, hence identical E.
    """
    n_levels = as_index(n_levels, "n_levels must be an integer >= 1", 1)
    branch, root = coupling.branch, coupling.root_product
    if branch is BranchClass.POSITIVE_PRODUCT:
        levels = _positive_levels(root, n_levels)
    else:
        levels = (_box_level(n, branch, root, None) for n in range(n_levels))
    # level 0 is solved before the coupling is checked: where both refuse, the solver speaks first
    first = next(levels)
    build = _doublet_builder(coupling)
    return [state for level in chain((first,), levels) for state in build(level)]


def sine_product_integral(p: complex, q: complex) -> complex:
    """integral_0^1 sin(p u) sin(q u) du for complex wavenumbers.

    The difference form, sin(p - q) / (2 (p - q)) - sin(p + q) / (2 (p + q)),
    with 0.5 - sin(2p) / (4p) where p and q agree to 1e-14: the reference of
    the rank-2 pairings; the same-wavenumber branch is d's integral (_phi_squares).
    """
    p, q = complex(p), complex(q)
    if abs(p - q) < 1e-14 * max(1.0, abs(p)):
        return _same_wavenumber_integral(p)
    return cmath.sin(p - q) / (2.0 * (p - q)) - cmath.sin(p + q) / (2.0 * (p + q))


def _same_wavenumber_integral(p: complex) -> complex:
    # integral_0^1 sin(p u)^2 du, sine_product_integral at q = p
    return 0.5 - cmath.sin(2.0 * p) / (4.0 * p)


def phi_bilinear_product(state_a: ChannelState, state_b: ChannelState) -> float:
    """integral phi_a(x) phi_b(x) dx (no conjugation), in closed form.

    This is the product under which distinct levels of the same sigma
    are exactly orthogonal; the diagonal reproduces parity_overlap.
    """
    term = (
        state_a.phi_coeff
        * state_b.phi_coeff
        * sine_product_integral(state_a.kappa, state_b.kappa)
    )
    # right half contributes the conjugate of the left half
    return float(2.0 * term.real)
