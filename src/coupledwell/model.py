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
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import InvalidToleranceError, ModelDomainError

if TYPE_CHECKING:
    import numpy as np

HALF_WIDTH = 1.0


class BranchClass(enum.Enum):
    """Sign class of the coupling product YZ.

    POSITIVE_PRODUCT: complex kappa branch, doubly degenerate real levels.
    NEGATIVE_PRODUCT: real kappa, levels split as E = s^2 +/- sqrt(-YZ).
    DECOUPLED: YZ = 0; with exactly one coupling nonzero the channel
    matrix is a Jordan block, while each box level keeps two independent
    states, which the closed form does not build (warning downstream).
    """

    POSITIVE_PRODUCT = "POSITIVE_PRODUCT"
    NEGATIVE_PRODUCT = "NEGATIVE_PRODUCT"
    DECOUPLED = "DECOUPLED"


def _is_instance(value, abc: str) -> bool:
    """isinstance(value, numbers.<abc>), with `numbers` imported on the
    first call: a process whose arguments are all built-in ints and floats
    never loads it."""
    import numbers

    return isinstance(value, getattr(numbers, abc))


def as_index(
    value, message: str, minimum: int = 0, maximum: int | None = None, even: bool = False
) -> int:
    """value as a built-in int, if it is an integer in [minimum, maximum].

    int, bool and numpy integer scalars pass, as an int that cannot wrap
    the way a fixed-width numpy integer does; floats, numpy bools and
    strings raise ModelDomainError("<message>, got <value>").  The plain
    int test comes first: on an int the Integral ABC check costs ~20x more,
    and `numbers` is imported only for a value that is not an int.
    """
    if isinstance(value, int) or _is_instance(value, "Integral"):
        n = int(value)
        if n >= minimum and (maximum is None or n <= maximum) and not (even and n % 2):
            return n
    raise ModelDomainError(f"{message}, got {value!r}")


def validate_tol(tol: float) -> None:
    """Raise InvalidToleranceError unless tol is a finite real number in (0, 1).

    Any numbers.Real passes the type test, numpy float and integer scalars
    included, as as_index admits numpy integers.
    """
    if not (isinstance(tol, (float, int)) or _is_instance(tol, "Real")):
        raise InvalidToleranceError(f"tolerance must be a real number, got {tol!r}")
    if not math.isfinite(tol):
        raise InvalidToleranceError(f"tolerance must be finite, got {tol!r}")
    if tol <= 0.0 or tol >= 1.0:
        raise InvalidToleranceError(f"tolerance must lie in (0, 1), got {tol!r}")


@dataclass(frozen=True)
class CouplingPair:
    """Imaginary coupling amplitudes of the two channels."""

    Y: float
    Z: float

    def __post_init__(self):  # the one check of Y and Z: `branch` and the solvers rest on it
        for name, value in (("Y", self.Y), ("Z", self.Z)):
            if not math.isfinite(value):
                raise ModelDomainError(f"{name} must be finite, got {value!r}")

    @property
    def product(self) -> float:
        return self.Y * self.Z

    @property
    def branch(self) -> BranchClass:
        """The sign class of YZ, from the signs of Y and Z: the product under- and overflows."""
        Y, Z = self.Y, self.Z
        if Y == 0.0 or Z == 0.0:
            return BranchClass.DECOUPLED
        if (Y > 0.0) == (Z > 0.0):
            return BranchClass.POSITIVE_PRODUCT
        return BranchClass.NEGATIVE_PRODUCT

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
    """

    GRID = "grid"
    MODE = "mode"
