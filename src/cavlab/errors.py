"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A system parameter violates its validity domain."""


class SingularSystemError(RuntimeError):
    """A linear steady-state solve failed its residual check."""


class BudgetError(RuntimeError):
    """A requested Hilbert space exceeds the configured dimension budget."""
