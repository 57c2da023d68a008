"""Exception types shared across the package."""


class NumericalFailure(RuntimeError):
    """A quadrature or numerical routine did not converge.

    Raised instead of letting NaN/Inf propagate silently; the message names
    what failed and where.
    """


class SupportOverflowError(RuntimeError):
    """Too many Monte Carlo paths pushed probability mass into the grid boundary."""


class ConfigError(ValueError):
    """Invalid run configuration. Collects every problem found, not just the first."""

    def __init__(self, errors):
        self.errors = [str(e) for e in errors]
        super().__init__("; ".join(self.errors))
