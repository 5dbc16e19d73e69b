"""Piecewise-analytic bound states of the coupled wells.

A bound state of the positive-product branch is, per channel, a sine
wave with complex wavenumber on each half of the box:

    phi(x) = a sin(kappa (x+1))            on (-1, 0]
    phi(x) = conj(a sin(kappa (1-x)))      on [0, 1)

with kappa = s - i sigma t.  The right half uses the conjugated
coefficient and wavenumber, which encodes the self-conjugacy
phi(-x) = conj(phi(x)) and makes the Dirichlet walls exact.  The spin
doublet member sigma = -1 uses the conjugated kappa (equivalently, it is
the parity image of the sigma = +1 state).  The two-channel state scales
the same phi by (sqrt(Z), sigma sqrt(Y)).

Phase convention: the common value at x = 0 is real and >= 0; for the
decoupled odd states (value 0 at the origin) the derivative at 0 is
purely imaginary with positive imaginary part.  Normalization is unit
L2 norm of phi alone, not of the two-channel vector.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMatchError, ModelDomainError, NormalizationSingularError
from .model import BranchClass, CouplingPair, as_index
from .secular import DEFAULT_RESIDUAL_TOL, LevelSolution, solve_level

_CONSISTENCY_TOL = 1e-10
_AMPLITUDE_SAMPLES = 257


@dataclass(frozen=True)
class ChannelState:
    """Two-channel bound state (phi, chi) = (A, B) * segment sine.

    A and B are the left-segment coefficients of the upper and lower
    channel; both channels share the same normalized single-channel
    profile, so B/A = sigma sqrt(Y/Z) up to rounding.  phi_coeff is the
    coefficient of the unit-norm phi and kappa its left-segment
    wavenumber s - i sigma t.
    """

    level: LevelSolution
    sigma: int
    Y: float
    Z: float
    phi_coeff: complex
    kappa: complex
    A: complex
    B: complex

    def phi(self, x):
        """Normalized single-channel profile."""
        return _segment_values(self.phi_coeff, self.kappa, x)

    def phi_derivative(self, x):
        return _segment_derivative(self.phi_coeff, self.kappa, x)

    def upper(self, x):
        return _segment_values(self.A, self.kappa, x)

    def lower(self, x):
        return _segment_values(self.B, self.kappa, x)


def _check_domain(x):
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ModelDomainError("evaluation points must be finite")
    if np.any(np.abs(x) > 1.0):
        raise ModelDomainError("states live on |x| <= 1 only")
    return x


def _segment_values(coeff, kappa, x):
    x = _check_domain(x)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty(x.shape, dtype=complex)
    left = x <= 0.0
    out[left] = coeff * np.sin(kappa * (x[left] + 1.0))
    out[~left] = np.conj(coeff * np.sin(kappa * (1.0 - x[~left])))
    return out[0] if scalar else out


def _segment_derivative(coeff, kappa, x):
    x = _check_domain(x)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty(x.shape, dtype=complex)
    left = x <= 0.0
    out[left] = coeff * kappa * np.cos(kappa * (x[left] + 1.0))
    out[~left] = np.conj(-coeff * kappa * np.cos(kappa * (1.0 - x[~left])))
    return out[0] if scalar else out


def _sin_cos_kappa(level: LevelSolution, sigma: int) -> tuple[complex, complex]:
    """sin kappa, cos kappa for kappa = (n+1) pi/2 + w, w = (-1)^n eps - i sigma t,
    as quarter turns of w: eps is not lost to the rounding of s."""
    w = complex(-level.eps if level.n % 2 else level.eps, -sigma * level.t)
    sw, cw = cmath.sin(w), cmath.cos(w)
    return ((sw, cw), (cw, -sw), (-sw, -cw), (-cw, sw))[(level.n + 1) % 4]


def channel_weights(sigma: int, Y: float, Z: float) -> tuple[float, float]:
    """(upper, lower) factors of the unit-norm profile: (sqrt(Z), sigma sqrt(Y)),
    or (1, sigma) when fully decoupled."""
    if Y == 0.0 and Z == 0.0:
        return 1.0, float(sigma)
    return math.sqrt(Z), sigma * math.sqrt(Y)


def solve_coefficients(
    level: LevelSolution,
    coupling: CouplingPair,
    sigma: int,
) -> ChannelState:
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
    branch = coupling.branch
    if branch is BranchClass.NEGATIVE_PRODUCT:
        raise ModelDomainError("coefficient solver covers the positive-product branch only")
    if coupling.non_diagonalizable:
        raise ModelDomainError(
            "semi-decoupled coupling (YZ = 0 with one amplitude nonzero) is non-diagonalizable; "
            "no channel doublet exists"
        )
    if branch is BranchClass.POSITIVE_PRODUCT and (coupling.Y <= 0.0 or coupling.Z <= 0.0):
        raise ModelDomainError("channel factors sqrt(Y), sqrt(Z) require Y > 0 and Z > 0")
    if level.branch is not branch:
        raise ModelDomainError(
            f"level was solved on branch {level.branch.value}, coupling is {branch.value}"
        )
    c = coupling.root_product
    if abs(2.0 * level.s * level.t - c) > _CONSISTENCY_TOL * max(1.0, c):
        raise ModelDomainError("level does not satisfy 2 s t = sqrt(YZ) for this coupling")

    s, t = level.s, level.t
    # L2 norm of sin(kappa (x+1)): sinh 2t / 2t - sin 2s / 2s, sin 2s = -sin 2eps
    stretch = math.sinh(2.0 * t) / (2.0 * t) if t else 1.0
    norm = math.sqrt(stretch + math.sin(2.0 * level.eps) / (2.0 * s))
    sk, ck = _sin_cos_kappa(level, sigma)
    if abs(sk) > 0.0:
        # value at the origin real and non-negative
        a = (sk.conjugate() / abs(sk)) / norm
    elif abs(ck) > 0.0:
        # sin kappa = 0 only for odd decoupled states: phi'(0) imaginary, Im > 0
        a = 1j * math.copysign(1.0, ck.real) / norm
    else:
        raise DegenerateMatchError(
            "sin(kappa) and cos(kappa) both vanish; inconsistent level input"
        )

    weight_upper, weight_lower = channel_weights(sigma, coupling.Y, coupling.Z)
    return ChannelState(
        level=level,
        sigma=int(sigma),
        Y=coupling.Y,
        Z=coupling.Z,
        phi_coeff=a,
        kappa=complex(s, -sigma * t),
        A=a * weight_upper,
        B=a * weight_lower,
    )


def evaluate(state: ChannelState, x) -> np.ndarray:
    """Sample the two-channel state; returns shape (2,) + shape(x)."""
    return np.stack([state.upper(x), state.lower(x)])


def matching_residual(state: ChannelState) -> float:
    """Mismatch of value and slope across x = 0, relative to the peak
    channel amplitude.

    For a state built from a converged secular root this is at rounding
    level; the slope defect is proportional to the secular residual, so
    perturbing s at fixed coupling makes it jump by orders of magnitude.
    """
    xs = np.linspace(-1.0, 1.0, _AMPLITUDE_SAMPLES)
    amp = max(np.max(np.abs(state.upper(xs))), np.max(np.abs(state.lower(xs))))
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
    a, kappa = state.phi_coeff, state.kappa
    sin_kappa, cos_kappa = _sin_cos_kappa(state.level, state.sigma)
    return float((a * a * (1.0 - sin_kappa * cos_kappa / kappa)).real)


def quasi_parity(state: ChannelState) -> int:
    """Sign convention q = sigma * sign(parity overlap).

    Chosen so that every diagonal biorthogonal pairing comes out
    positive.  Raises if the parity overlap vanishes, since no sign
    convention can then normalize the left partner.
    """
    p = parity_overlap(state)
    if p == 0.0:
        raise NormalizationSingularError(
            f"parity overlap vanishes for level n={state.level.n}, sigma={state.sigma}"
        )
    return int(state.sigma * math.copysign(1.0, p))


def doublet_family(
    coupling: CouplingPair,
    n_levels: int,
    tol: float = DEFAULT_RESIDUAL_TOL,
) -> list[ChannelState]:
    """Solve levels 0..n_levels-1 and build both doublet members of each.

    Order is (0,+1), (0,-1), (1,+1), ...; the two sigma states of a
    level share the same LevelSolution object, hence identical E.
    """
    n_levels = as_index(n_levels, "n_levels must be an integer >= 1", 1)
    states = []
    for n in range(n_levels):
        level = solve_level(n, coupling, tol)
        states.append(solve_coefficients(level, coupling, +1))
        states.append(solve_coefficients(level, coupling, -1))
    return states


def sine_product_integral(p: complex, q: complex) -> complex:
    """integral_0^1 sin(p u) sin(q u) du for complex wavenumbers."""
    p, q = complex(p), complex(q)
    if abs(p - q) < 1e-14 * max(1.0, abs(p)):
        return 0.5 - cmath.sin(2.0 * p) / (4.0 * p)
    return cmath.sin(p - q) / (2.0 * (p - q)) - cmath.sin(p + q) / (2.0 * (p + q))


def sine_product_integrals(p, q) -> np.ndarray:
    """sine_product_integral over broadcast arrays of complex wavenumbers.

    Same formula and same-wavenumber branch as the scalar; numpy's
    complex arithmetic may differ from CPython's in the last bit.  The
    branch is taken by np.where, so the unused one is evaluated with a
    unit denominator rather than 0/0.
    """
    p, q = np.asarray(p, dtype=complex), np.asarray(q, dtype=complex)
    diff, total = p - q, p + q
    same = np.abs(diff) < 1e-14 * np.maximum(1.0, np.abs(p))
    apart = np.sin(diff) / (2.0 * np.where(same, 1.0, diff)) - np.sin(total) / (2.0 * total)
    return np.where(same, 0.5 - np.sin(2.0 * p) / (4.0 * p), apart)


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


def phi_sesquilinear_product(state_a: ChannelState, state_b: ChannelState) -> float:
    """<phi_a | phi_b> = integral conj(phi_a) phi_b dx, in closed form."""
    term = (
        state_a.phi_coeff.conjugate()
        * state_b.phi_coeff
        * sine_product_integral(state_a.kappa.conjugate(), state_b.kappa)
    )
    return float(2.0 * term.real)


def quadrature_overlap(f, g, panels: int) -> complex:
    """<f | g> over (-1, 1) by composite Simpson, split at the x = 0 kink.

    Parameters
    ----------
    f, g : callables mapping an array of points in [-1, 1] to complex values
    panels : int
        Panel count per half-interval; must be even and >= 2.  The error
        decays as panels^-4 for integrands smooth on each half.
    """
    panels = as_index(panels, "panels must be an even integer >= 2", 2, even=True)
    total = 0.0 + 0.0j
    for lo, hi in ((-1.0, 0.0), (0.0, 1.0)):
        x = np.linspace(lo, hi, panels + 1)
        w = np.ones(panels + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w *= (hi - lo) / (3.0 * panels)
        total += complex(np.sum(w * np.conj(f(x)) * g(x)))
    return total
