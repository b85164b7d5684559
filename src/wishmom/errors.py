"""Exception hierarchy shared across the package, and the one overflow rule.

Three branches matter to callers (and to the CLI exit-code mapping):
``ValidationError`` for bad inputs, ``NumericalError`` for conditions
detected during computation, and ``BudgetExceededError`` for enumeration
requests beyond the configured size limits.

Every input is checked finite, so a closed form that yields inf or nan
has overflowed.  Every public route that returns a closed form's number
returns it through `finite`: the number as computed, or NumericalError
naming what overflowed.  Where Python raises OverflowError in place of
giving inf (an int past the float range, such as k! for k >= 171, or a
float power), the computation runs inside `finite_of`, which reads that
error as the overflow it is.  No other code reports an overflow.
"""

import cmath
import math


class WishmomError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(WishmomError):
    """Invalid input: shape, type, or invariant violation."""


class NotHermitianError(ValidationError):
    """Matrix required to be Hermitian is not, within tolerance."""


class DimensionMismatchError(ValidationError):
    """Operands have incompatible dimensions."""


class NonIntegerNError(ValidationError):
    """Sampling requires an integer number of degrees of freedom."""


class DegenerateSampleSizeError(ValidationError):
    """Estimator denominator vanishes for this sample size."""


class InsufficientOrdersError(ValidationError):
    """A moment/cumulant sequence is too short for the requested order."""


class NumericalError(WishmomError):
    """Numerical failure detected while computing."""


class SingularMatrixError(NumericalError):
    """The smallest singular value is below tolerance; the matrix is
    numerically singular."""


class NotPSDError(NumericalError):
    """Matrix required to be positive semidefinite is not."""


class BudgetExceededError(WishmomError):
    """Requested enumeration exceeds the configured budget."""


def finite(value, what: str):
    """`value` itself when it is finite; otherwise NumericalError
    "<what> overflows: <value>"."""
    if cmath.isfinite(value):
        return value
    raise NumericalError(f"{what} overflows: {value}")


def finite_of(compute, what: str):
    """`finite(compute(), what)`, where an OverflowError raised by `compute`
    counts as a value of inf: Python raises it where a float would give
    inf, converting an int past the float range (k! for k >= 171) or
    taking a float power."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    return finite(value, what)
