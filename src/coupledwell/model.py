"""Two-channel square well on (-1, 1) with purely imaginary,
antisymmetric channel coupling.

Units hbar = 2m = 1, Dirichlet walls at x = +/-1 (half-width fixed to 1;
no length parameter appears anywhere downstream).  Both diagonal channel
potentials vanish.  The off-diagonal coupling is piecewise constant and
purely imaginary: the upper-right entry is +iZ on (-1, 0) and -iZ on
(0, 1); the lower-left entry is +iY and -iY on the same halves.  At
x = 0 exactly the coupling takes the average value 0.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import TYPE_CHECKING

from .errors import InvalidToleranceError, ModelDomainError

if TYPE_CHECKING:
    import numpy as np

HALF_WIDTH = 1.0
SYMMETRY_SAMPLES = 64  # points of check_potential_symmetry


class BranchClass(enum.Enum):
    """Sign class of the coupling product YZ.

    POSITIVE_PRODUCT: complex kappa branch, doubly degenerate real levels.
    NEGATIVE_PRODUCT: real kappa, levels split as E = s^2 +/- sqrt(-YZ).
    DECOUPLED: YZ = 0; with exactly one coupling nonzero the channel
    matrix is a Jordan block (non-diagonalizable warning downstream).
    """

    POSITIVE_PRODUCT = "POSITIVE_PRODUCT"
    NEGATIVE_PRODUCT = "NEGATIVE_PRODUCT"
    DECOUPLED = "DECOUPLED"


def _require_finite(name, value):
    if not math.isfinite(value):
        raise ModelDomainError(f"{name} must be finite, got {value!r}")


def as_index(
    value, message: str, minimum: int = 0, maximum: int | None = None, even: bool = False
) -> int:
    """value as a built-in int, if it is an integer in [minimum, maximum].

    int, bool and numpy integer scalars pass, as an int that cannot wrap
    the way a fixed-width numpy integer does; floats, numpy bools and
    strings raise ModelDomainError("<message>, got <value>").  The plain
    int test comes first: on an int the Integral ABC check costs ~20x more.
    """
    if isinstance(value, int) or isinstance(value, Integral):
        n = int(value)
        if n >= minimum and (maximum is None or n <= maximum) and not (even and n % 2):
            return n
    raise ModelDomainError(f"{message}, got {value!r}")


def validate_tol(tol: float) -> None:
    """Raise InvalidToleranceError unless tol is a finite real number in (0, 1).

    Any numbers.Real passes the type test, numpy float and integer scalars
    included, as as_index admits numpy integers.
    """
    if not isinstance(tol, Real):
        raise InvalidToleranceError(f"tolerance must be a real number, got {tol!r}")
    if not math.isfinite(tol):
        raise InvalidToleranceError(f"tolerance must be finite, got {tol!r}")
    if tol <= 0.0 or tol >= 1.0:
        raise InvalidToleranceError(f"tolerance must lie in (0, 1), got {tol!r}")


def classify_branch(Y: float, Z: float) -> BranchClass:
    """Classify the coupling pair by the sign of the product YZ, read off
    the signs of Y and Z: the float product under- and overflows."""
    _require_finite("Y", Y)
    _require_finite("Z", Z)
    if Y == 0.0 or Z == 0.0:
        return BranchClass.DECOUPLED
    if (Y > 0.0) == (Z > 0.0):
        return BranchClass.POSITIVE_PRODUCT
    return BranchClass.NEGATIVE_PRODUCT


@dataclass(frozen=True)
class CouplingPair:
    """Imaginary coupling amplitudes of the two channels."""

    Y: float
    Z: float

    def __post_init__(self):
        _require_finite("Y", self.Y)
        _require_finite("Z", self.Z)

    @property
    def product(self) -> float:
        return self.Y * self.Z

    @property
    def branch(self) -> BranchClass:
        return classify_branch(self.Y, self.Z)

    @property
    def root_product(self) -> float:
        """sqrt(YZ) for the positive branch, sqrt(-YZ) for the negative,
        0 when decoupled.

        Where |YZ| overflows or falls below the smallest normal float the
        root is taken from the mantissas and exponents of Y and Z, so it
        stays finite and within an ulp for every finite pair.
        """
        product = abs(self.product)
        if product < sys.float_info.min or product == math.inf:
            (my, ey), (mz, ez) = math.frexp(abs(self.Y)), math.frexp(abs(self.Z))
            return math.ldexp(math.sqrt(my * mz * 2.0 ** ((ey + ez) % 2)), (ey + ez) // 2)
        return math.sqrt(product)

    @property
    def non_diagonalizable(self) -> bool:
        """Exactly one of Y, Z nonzero: the channel matrix
        [[0, iZ], [iY, 0]] is then a Jordan block."""
        return (self.Y == 0.0) != (self.Z == 0.0)


@dataclass(frozen=True)
class PotentialSpec:
    """Effective 2x2 potential of the coupled pair of wells."""

    coupling: CouplingPair

    def _check_x(self, x):
        import numpy as np

        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise ModelDomainError("sample points must be finite")
        if np.any(np.abs(x) > HALF_WIDTH):
            raise ModelDomainError("potential is defined on |x| <= 1 only")
        return x

    def step(self, x):
        """sgn(-x): +1 on (-1,0), -1 on (0,1), 0 at x = 0."""
        import numpy as np

        return np.sign(-self._check_x(x))

    def coupling_to_upper(self, x):
        """Upper-right entry: +iZ on (-1,0), -iZ on (0,1), 0 at x = 0."""
        return 1j * self.coupling.Z * self.step(x)

    def coupling_to_lower(self, x):
        """Lower-left entry: +iY on (-1,0), -iY on (0,1), 0 at x = 0."""
        return 1j * self.coupling.Y * self.step(x)

    def matrix(self, x: float) -> np.ndarray:
        """Full 2x2 potential matrix at a single point."""
        import numpy as np

        x = float(self._check_x(x))
        return np.array(
            [[0.0, self.coupling_to_upper(x)], [self.coupling_to_lower(x), 0.0]],
            dtype=complex,
        )


@dataclass(frozen=True)
class GridSpec:
    """Uniform mesh over [-1, 1] with M intervals, M even and >= 8."""

    M: int

    def __post_init__(self):
        M = as_index(self.M, "M must be an even integer >= 8", 8, even=True)
        object.__setattr__(self, "M", M)  # a numpy integer is stored as an int

    @property
    def h(self) -> float:
        return 2.0 / self.M

    @property
    def n_interior(self) -> int:
        return self.M - 1

    @property
    def interior_nodes(self) -> np.ndarray:
        import numpy as np

        # centred offsets keep x = 0 exact and the nodes exactly
        # antisymmetric; -1 + h*j misses 0 by an ulp at M = 98, 196, ...
        return self.h * (np.arange(1, self.M) - self.M // 2)


class RepBasis(enum.Enum):
    """Basis a finite operator representation lives on.

    GRID: interior nodes of a uniform mesh, channel-blocked layout
    (all upper-channel values first, then all lower-channel values).
    MODE: retained exact eigenstates, one entry per (level, sigma).
    CHANNEL: the bare 2x2 channel space (constant-in-x operators).
    """

    GRID = "grid"
    MODE = "mode"
    CHANNEL = "channel"


@dataclass(frozen=True, eq=False)
class OperatorRep:
    """Dense matrix representation of an operator on a chosen basis.

    is_form distinguishes the two ways a matrix can represent an
    operator on a non-orthonormal basis: a map matrix M (A e_k =
    sum_i M[i,k] e_i) or a form matrix F[i,k] = <e_i|A e_k>.  Metrics
    are forms; Hamiltonians and the channel swap observable are maps.
    """

    matrix: np.ndarray
    basis: RepBasis
    is_form: bool = False
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        import numpy as np

        m = np.asarray(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ModelDomainError(f"operator matrix must be square, got shape {m.shape}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def check_potential_symmetry(spec: PotentialSpec) -> dict:
    """Verify conj(W(x)) = W(-x) for both coupling entries.

    Samples are SYMMETRY_SAMPLES interior midpoints of (0, 1), so x = 0
    (where the sign convention is the average) is never hit.  Returns the
    report {"max_defect": ...}; the defect is exactly 0 for this potential.
    """
    import numpy as np

    x = (np.arange(SYMMETRY_SAMPLES) + 0.5) / SYMMETRY_SAMPLES
    defect = 0.0
    for entry in (spec.coupling_to_upper, spec.coupling_to_lower):
        defect = max(defect, float(np.max(np.abs(np.conj(entry(x)) - entry(-x)))))
    return {"max_defect": defect}
