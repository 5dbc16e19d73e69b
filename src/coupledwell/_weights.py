"""The weight contract of the metric family, in plain floats: the one
check of the metric builders, which the CLI's `metric` and the `verify`
battery run without numpy.  Python floats are IEEE doubles, so (d S) d,
the kernel entries, 1 / (S d^2) and the spin ratio have the bits of the
same arithmetic in a float64 array.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import chain
from operator import is_, mul
from typing import NamedTuple

from .errors import MetricConstraintError, ModelDomainError, NormalizationSingularError
from .model import BranchClass, CouplingPair, as_index
from .wavefunctions import channel_weights

# Diagonal pairings scale with sqrt(YZ); below this the metric family
# degenerates and the Hermitian-limit identity metric should be used.
MIN_ROOT_PRODUCT = 1e-6

_OVERLAP_FLOOR = 1e-12


def _level_count(n_levels) -> int:
    try:
        return as_index(n_levels, "n_levels must be an integer >= 1", 1)
    except ModelDomainError as exc:
        raise MetricConstraintError(str(exc)) from None


def _floats(name, values) -> tuple[float, ...]:
    # a copy as finite floats, a scalar as one entry (as np.atleast_1d reads it)
    values = values.tolist() if hasattr(values, "tolist") else values
    try:
        floats = tuple(map(float, values if isinstance(values, (list, tuple)) else (values,)))
        if all(map(math.isfinite, floats)):
            return floats
    except (TypeError, ValueError, OverflowError):
        pass
    raise MetricConstraintError(f"{name} must be a 1-d finite array")


@dataclass(frozen=True, eq=False)
class MetricWeights:
    """Positive weight pair (S_plus, S_minus) per retained level.

    These per-state weights are the whole family: a weight matrix R in
    sum R[a, b] |left_a><<left_b| makes H Hermitian only if
    (E_b - E_a) R[a, b] = 0 and the channel observable only if
    (sigma_b - sigma_a) R[a, b] = 0, and two states differ in E or sigma.

    Physical metrics need strict positivity; sign-indefinite choices are
    admitted only through the unsafe flag of build_theta_metric, for exploring
    the wider pseudo-metric menu.  Each is stored as a tuple of floats.
    """

    s_plus: tuple[float, ...]
    s_minus: tuple[float, ...]

    def __post_init__(self):
        for name in ("s_plus", "s_minus"):
            object.__setattr__(self, name, _floats(name, getattr(self, name)))
        if len(self.s_plus) != len(self.s_minus):
            raise MetricConstraintError("s_plus and s_minus must have equal length")

    @property
    def n_levels(self) -> int:
        return len(self.s_plus)

    def select(self, n: int, sigma: int) -> float:
        if not 0 <= n < self.n_levels:
            raise MetricConstraintError(f"no weight stored for level n={n}")
        return self.s_plus[n] if sigma > 0 else self.s_minus[n]

    @classmethod
    def unit(cls, n_levels: int) -> "MetricWeights":
        n_levels = _level_count(n_levels)
        return cls((1.0,) * n_levels, (1.0,) * n_levels)

    @classmethod
    def from_file(cls, path, n_levels: int) -> "MetricWeights":
        """Parse `n S_plus S_minus` lines; missing levels default to 1 1."""
        n_levels = _level_count(n_levels)
        s_plus, s_minus, seen = [1.0] * n_levels, [1.0] * n_levels, set()
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                parts, where = raw.split("#", 1)[0].split(), f"{path}:{lineno}:"
                if not parts:
                    continue
                if len(parts) != 3:
                    raise MetricConstraintError(f"{where} expected 'n S_plus S_minus', got {raw!r}")
                try:
                    n, plus, minus = int(parts[0]), float(parts[1]), float(parts[2])
                except ValueError as exc:
                    raise MetricConstraintError(f"{where} {exc}") from exc
                if not (math.isfinite(plus) and math.isfinite(minus)):
                    raise MetricConstraintError(f"{where} weights must be finite, got {raw!r}")
                if not 0 <= n < n_levels:
                    raise MetricConstraintError(f"{where} level {n} outside 0..{n_levels - 1}")
                if n in seen:
                    raise MetricConstraintError(f"{where} duplicate level {n}")
                seen.add(n)
                s_plus[n], s_minus[n] = plus, minus
        return cls(s_plus, s_minus)


def _shared_coupling(states) -> CouplingPair:
    # the coupling of a non-empty sequence of states, refused if two differ
    Y, Z = states[0].Y, states[0].Z
    if [s.Y for s in states].count(Y) < len(states) or [s.Z for s in states].count(Z) < len(states):
        raise ModelDomainError("states belong to different couplings")
    return CouplingPair(Y, Z)


def _validate_family(states):
    # the coupling and the (n, sigma) labels of a family in doublet_family order
    if not states:
        raise ModelDomainError("need at least one state")
    coupling = _shared_coupling(states)
    levels, spins, half = [s.level.n for s in states], [s.sigma for s in states], len(states) // 2
    if spins != [+1, -1] * half or not levels[0::2] == levels[1::2] == list(range(half)):
        raise ModelDomainError("states must be complete doublets in doublet_family order "
                               "(0, +1), (0, -1), (1, +1), ...")
    return coupling, list(zip(levels, spins))


def _normalizable(d: list[float]) -> list[float]:
    # the diagonal pairings, refused if any is negligible against the largest
    scale = max(map(abs, d), default=0.0)
    if scale == 0.0 or any(map((_OVERLAP_FLOOR * max(1.0, scale)).__ge__, map(abs, d))):
        raise NormalizationSingularError("a diagonal biorthogonal overlap vanishes: the family's "
                                         "pairing, on which the metric's weights rest, is singular")
    return d


def _kernels(coupling: CouplingPair, levels) -> tuple[float, ...]:
    # each level's 2x2 channel kernel, as build_theta_metric's meta holds it,
    # [[Y (S+ + S-), sqrt(YZ) (S+ - S-)], [sqrt(YZ) (S+ - S-), Z (S+ + S-)]],
    # row by row in one flat tuple; equal weights make the off-diagonal an exact 0
    Y, Z = coupling.Y, coupling.Z
    m = math.sqrt(Y) * math.sqrt(Z)
    return tuple(chain.from_iterable((Y * total, off, off, Z * total) for off, total in
                                     ((m * plus - m * minus, plus + minus) for plus, minus in levels)))


def first_not_finite(values):
    # the index of the first entry of a sequence, real or complex, that is not finite, or None
    if cmath.isfinite(sum(values)) or all(map(cmath.isfinite, values)):
        return None
    return next(i for i, v in enumerate(values) if not cmath.isfinite(v))


def out_of_range(what: str, index: list, value) -> MetricConstraintError:
    return MetricConstraintError(f"{what} = {index} is {value}: "
                                 "the coupling or the weights leave the float range")


class WeightedFamily(NamedTuple):
    """A family resolved against its weights, per state in doublet_family order
    but kernels (_kernels, 4 per level): form S d^2, unchecked, and its sign counts."""

    meta: dict
    per_state: tuple[float, ...]
    d: tuple[float, ...]
    kernels: tuple
    form: tuple[float, ...]
    signature: tuple[int, int]

    def mode_form(self) -> tuple[float, ...]:
        bad = first_not_finite(self.form)
        if bad is not None:
            raise out_of_range("metric form [i, k]", [bad, bad], self.form[bad])
        return self.form


# the last resolution that passed: (states, weights, unsafe, family), the states
# and weights held and compared by identity (both are immutable records), one
# tuple read and replaced whole
_resolved = None


def _holds(entry, states) -> bool:
    # whether a resolution entry holds these states, in order and by identity
    return (entry is not None and len(entry[0]) == len(states)
            and all(map(is_, entry[0], states)))


def family_order(states) -> list:
    """The (n, sigma) labels of a family, refused unless it is complete doublets
    of one coupling in doublet_family order (_validate_family), read from the
    last resolution when that holds the same states: the builders that take
    no weights check a family once per request.  Each caller gets its own
    list; a refused family is never held, so it is refused on every call."""
    entry = _resolved
    if _holds(entry, states):
        return list(entry[3].meta["order"])
    return _validate_family(states)[1]


def resolve_weights(states, weights, unsafe: bool) -> WeightedFamily:
    """The family, refused if its states, a weight, a d or a kernel entry is
    inadmissible: the one contract of the form, the inverse and the defect.
    The same states with the same weights and unsafe flag are resolved once
    in a row; each caller gets its own meta and order."""
    global _resolved
    unsafe, entry = bool(unsafe), _resolved
    if _holds(entry, states) and entry[1] is weights and entry[2] is unsafe:
        family = entry[3]
    else:
        family = _resolve(states, weights, unsafe)
        _resolved = (tuple(states), weights, unsafe, family)
    meta = dict(family.meta, order=list(family.meta["order"]))
    return WeightedFamily(meta, *family[1:])


def _resolve(states, weights, unsafe: bool) -> WeightedFamily:
    coupling, order = _validate_family(states)
    n_levels = len(states) // 2
    if coupling.root_product < MIN_ROOT_PRODUCT:
        raise MetricConstraintError(
            f"sqrt(|YZ|) = {coupling.root_product:.3e} is below {MIN_ROOT_PRODUCT}; diagonal "
            "pairings vanish in the decoupled limit, so no metric of this family exists "
            "there. The Hermitian limit uses the identity metric.")
    if weights is None:
        weights = MetricWeights.unit(n_levels)
    if weights.n_levels < n_levels:
        raise MetricConstraintError(f"weights cover {weights.n_levels} levels, need {n_levels}")
    levels = tuple(zip(weights.s_plus[:n_levels], weights.s_minus[:n_levels]))
    per_state = tuple(chain.from_iterable(levels))
    lowest = min(per_state)
    if not unsafe and lowest <= 0.0:
        bad = per_state.index(lowest)
        raise MetricConstraintError(f"weight {lowest} for state (n={states[bad].level.n}, "
                                    f"sigma={states[bad].sigma}) is not positive; indefinite "
                                    "weight choices need unsafe=True")
    meta = {"coupling": coupling, "n_levels": n_levels, "order": order}
    d = _normalizable([s.d for s in states[0::2]])
    d = tuple(chain.from_iterable(zip(d, d)))
    kernels = _kernels(coupling, levels)
    bad = first_not_finite(kernels)
    if bad is not None:
        raise out_of_range("channel kernel [n, i, k]", [bad // 4, bad // 2 % 2, bad % 2], kernels[bad])
    form = tuple(map(mul, map(mul, d, per_state), d))
    signature = len([v for v in form if v > 0.0]), len([v for v in form if v < 0.0])
    return WeightedFamily(meta, per_state, d, kernels, form, signature)


def inverse_coefficients(states, family: WeightedFamily) -> list[float]:
    """1 / (S d^2) per state, S d^2 the form's own d S d, refused naming the
    first state where either leaves the float range: with the kernels' check
    the inverse refuses every weight the form does (S > 0, so 1 / 0.0 is inf)."""
    coeff = [1.0 / v if v else math.inf for v in family.form]
    for what, values in (("S d^2", family.form), ("inverse coefficient 1/(S d^2)", coeff)):
        bad = first_not_finite(values)
        if bad is not None:
            raise MetricConstraintError(
                f"{what} of state (n={states[bad].level.n}, sigma={states[bad].sigma}) is "
                f"{values[bad]}: the weight {family.per_state[bad]} takes it out of the float range")
    return coeff


def mode_defect(values, form) -> float:
    """max |conj(v) f - f v| / (max |f| max |v|), M^dagger F - F M of the map diag(values)
    and form diag(form): metric.quasi_hermiticity_defect there and two `verify` rows.  NaN
    wins the max, as in numpy; a zero operator or metric is refused (ModelDomainError)."""
    denom = max(map(abs, form)) * max(map(abs, values))
    if denom == 0.0:
        raise ModelDomainError("zero operator or metric")
    terms = [abs(v.conjugate() * f - f * v) for v, f in zip(values, form)]
    return (math.nan if math.isnan(sum(terms)) else max(terms)) / denom


def identity_defect(coefficients, form) -> float:
    """max |diag(1/(S d^2)) F - I| for a diagonal mode form F with diagonal `form`:
    metric.inverse_identity_defect and the `verify` row.  A product out of
    the float range is refused (MetricConstraintError)."""
    product = [k * f for k, f in zip(coefficients, form)]
    bad = first_not_finite(product)
    if bad is not None:
        raise out_of_range("identity product [i, k]", [bad, bad], product[bad])
    return max([abs(p - 1.0) for p in product])


def spin_ratio(coupling: CouplingPair) -> float:
    """sqrt(Z/Y), the entry r of the spin block [[0, r], [1/r, 0]] that commutes
    with the Hamiltonian: the block's one body (`verify`, oracle._spin_commutator_max).

    It is the quotient of the channel weights (wavefunctions.channel_weights),
    which also refuses every coupling but Y > 0 and Z > 0; a decoupled
    coupling fixes no spin block and is refused too, and so is a ratio
    whose value or inverse leaves the float range (ModelDomainError).
    """
    if coupling.branch is BranchClass.DECOUPLED:
        raise ModelDomainError("spin block needs Y > 0 and Z > 0, got a decoupled coupling")
    upper, lower = channel_weights(+1, coupling.Y, coupling.Z)
    ratio = upper / lower
    if not (0.0 < ratio < math.inf and 1.0 / ratio < math.inf):
        raise ModelDomainError(f"spin block entry sqrt(Z/Y) = {ratio:.3e} or its inverse overflows")
    return ratio
