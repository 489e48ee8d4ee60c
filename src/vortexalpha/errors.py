"""Exception types shared across the toolkit.

Validation problems (bad arguments, bad geometry requests) subclass
``ValueError`` and map to CLI exit code 2; numerical failures
(non-convergence, blow-up) subclass ``ArithmeticError`` and map to
exit code 3.
"""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class GridError(ValueError):
    """Invalid discretization grid (size, parity, closedness)."""


class GeometryError(ValueError):
    """Boundary degenerate: conformal derivative vanishes or 1+2r <= 0."""


class ConvergenceError(ArithmeticError):
    """Iterative solver failed to reach tolerance.

    Carries the last iterate so callers can inspect or restart.
    """

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class InstabilityError(ArithmeticError):
    """Time integration left the admissible region mid-step."""
