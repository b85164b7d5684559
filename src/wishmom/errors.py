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
error as the overflow it is.  A computation that takes its numbers as
arguments is first run again on them held exactly, so a count past the
float range times a tiny trace is the finite number it is.  No other code
reports an overflow.
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


def finite_of(compute, what: str, *numbers):
    """`finite(compute(*numbers), what)`, where an OverflowError raised by
    `compute` counts as a value of inf: Python raises it where a float
    would give inf, converting an int past the float range (k! for
    k >= 171) or taking a float power.

    When `numbers` are given, an OverflowError first runs `compute` again
    on them held exactly (`_Exact`), its ints exact as they are, and
    rounds the exact result once.  So a product such as k! * T_k whose
    value is in the float range is that value, and only a result past it,
    or a number that is not finite, counts as inf.  The first run is the
    computation as written: a result it gives has its bits."""
    try:
        value = compute(*numbers)
    except OverflowError:
        value = math.inf
        if numbers:
            try:
                value = complex(compute(*map(_Exact.of, numbers)))
            except (OverflowError, ValueError):  # past the float range, or an inf or nan number
                pass
    return finite(value, what)


class _Exact:
    """A complex number held as two Fractions, for the exact run of
    `finite_of`: an int, a float or a complex number enters exactly, and
    + and * stay exact.  complex() rounds each part once, and raises
    OverflowError past the float range."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re, self.im = re, im

    @classmethod
    def of(cls, value) -> "_Exact":
        # imported here: the exact run is rare, and every CLI request
        # imports this module
        from fractions import Fraction

        if isinstance(value, _Exact):
            return value
        if isinstance(value, int):
            return cls(Fraction(value), Fraction(0))
        value = complex(value)  # Fraction raises ValueError on nan, OverflowError on inf
        return cls(Fraction(value.real), Fraction(value.imag))

    def __add__(self, other):
        other = _Exact.of(other)
        return _Exact(self.re + other.re, self.im + other.im)

    def __mul__(self, other):
        other = _Exact.of(other)
        return _Exact(self.re * other.re - self.im * other.im,
                      self.re * other.im + self.im * other.re)

    __radd__ = __add__
    __rmul__ = __mul__

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))
