"""Exception types shared across the package."""


class NumericalFailure(RuntimeError):
    """A numerical routine did not converge or left the float range.

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
