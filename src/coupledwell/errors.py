"""Exception types shared across the package."""


class ModelDomainError(ValueError):
    """Input outside the domain of an operation (non-finite values,
    wrong branch, out-of-range coordinates, malformed grids)."""


class InvalidToleranceError(ModelDomainError):
    """Tolerance argument outside (0, 1)."""


class RootLostError(RuntimeError):
    """The secular root pair for a level has merged and left the real
    axis: the requested coupling is at or above the critical value.

    Attributes
    ----------
    n : level index whose root was not found
    coupling_root : sqrt(YZ) at which the search ran
    """

    def __init__(self, n, coupling_root):
        self.n = n
        self.coupling_root = coupling_root
        super().__init__(
            f"no real secular root for level n={n} at sqrt(YZ)={coupling_root:.6g}: "
            "coupling at or above the critical value for this pair"
        )


class NormalizationSingularError(RuntimeError):
    """A biorthogonal diagonal overlap vanished (or nearly so); the
    spectral coefficient 1/overlap is singular."""


class MetricConstraintError(ValueError):
    """Metric construction rejected its inputs: non-positive weights
    without the unsafe flag, weights that do not cover the family, or a
    coupling too close to the Hermitian limit."""


class NumericalFailureError(RuntimeError):
    """An underlying numerical routine (eigensolver, bisection) failed to
    converge or returned an inconsistent result."""
