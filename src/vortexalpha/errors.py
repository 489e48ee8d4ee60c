"""Exception types shared across the toolkit, and the parameter domains.

Validation problems (bad arguments, bad geometry requests) subclass
``ValueError`` and map to CLI exit code 2; numerical failures
(non-convergence, blow-up) subclass ``ArithmeticError`` and map to
exit code 3.

Public entry points state the domains of their numeric arguments with
three helpers, each raising :class:`DomainError` naming the argument:
``_integer`` an integer (integral floats pass) with an optional lower
bound, ``_positive`` a positive finite real, ``_finite`` a finite real.
The last two give a float for a scalar, else a float array, and name
the first bad entry; a Python scalar is checked by plain comparisons,
not NumPy, since the checks sit on per-step paths.
"""

import math

import numpy as np


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


def _integer(value, what, least=None):
    """``value`` as an int; DomainError unless an integer (not 2.5, nan, "3") >= ``least``."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value:
        raise DomainError(f"{what} must be an integer, got {value!r}")
    if least is not None and n < least:
        raise DomainError(f"{what} must be at least {least}, got {value!r}")
    return n


def _positive(value, what):
    """``value`` as a float or float array; DomainError unless every entry is in (0, inf)."""
    if isinstance(value, (int, float)) and 0 < value < math.inf:
        return float(value)
    return _entries(value, what, "positive and finite", lambda a: (a > 0) & (a < math.inf))


def _finite(value, what):
    """``value`` as a float or float array; DomainError unless every entry is finite."""
    if isinstance(value, (int, float)) and -math.inf < value < math.inf:
        return float(value)
    return _entries(value, what, "finite", np.isfinite)


def _entries(value, what, domain, inside):
    """``value`` as a float (0-d) or float array if ``inside`` holds at every entry."""
    arr = np.asarray(value, dtype=float)
    ok = inside(arr).reshape(-1)
    if not ok.all():
        i = int(np.argmin(ok))
        where = f" at entry {i}" if arr.ndim else ""
        raise DomainError(f"{what} must be {domain}, got {float(arr.flat[i])!r}{where}")
    return float(arr) if arr.ndim == 0 else arr
