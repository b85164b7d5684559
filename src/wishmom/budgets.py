"""Enumeration budgets, one rule per budgeted quantity.

Every combinatorially explosive operation caps one quantity of its request
with a rule below.  A rule reads only integers of the request's shape (an
order, an index weight, a matrix dimension, a permutation size) and needs
no numpy, so the engines and the CLI call the same rule before any numeric
work.  `integer_tuple` is the one reading of those integers, shared by the
engines and the CLI, so a bool or a non-integral number is rejected rather
than counted or truncated.  Setting the environment variable
``WISHMOM_MAX_BUDGET`` (or the legacy spelling ``WISHART_MAX_BUDGET``) to an
integer replaces *all* defaults at once, and a rejection then names that
variable.
"""

import numbers
import os

from .errors import BudgetExceededError, ValidationError

MAX_UNIVARIATE_ORDER = 20   # trace moment/cumulant order i
MAX_JOINT_WEIGHT = 10       # |i| for joint moments/cumulants, necklaces and permanent_master
MAX_PERMUTATION_SIZE = 10   # k for full S_k enumeration
MAX_PERMANENT_DIM = 10      # p for brute-force permanents
MAX_PRODUCT_FACTORS = 8     # m for the group-action product-moment sums
MAX_EXPANSION_CYCLES = 6    # k for the 2^k central/formal assignment expansion

_ENV_VARS = ("WISHMOM_MAX_BUDGET", "WISHART_MAX_BUDGET")


def _limit(default: int) -> tuple[int, str | None]:
    """(effective budget, the environment variable that set it or None)."""
    for var in _ENV_VARS:
        raw = os.environ.get(var)
        if raw is not None:
            try:
                return int(raw), var
            except ValueError as exc:
                raise ValidationError(f"{var} must be an integer: {raw!r}") from exc
    return default, None


def _rule(quantity: str, default: int):
    def check(value: int) -> None:
        limit, var = _limit(default)
        if value > limit:
            source = f" (set by {var})" if var else ""
            raise BudgetExceededError(f"{quantity}={value} exceeds budget {limit}{source}")

    check.__doc__ = (f"Raise BudgetExceededError when the {quantity} exceeds its "
                     f"budget (default {default}).")
    return check


check_moment_order = _rule("moment order", MAX_UNIVARIATE_ORDER)
check_cumulant_order = _rule("cumulant order", MAX_UNIVARIATE_ORDER)
check_joint_weight = _rule("joint weight", MAX_JOINT_WEIGHT)
check_necklace_weight = _rule("necklace weight", MAX_JOINT_WEIGHT)
check_permutation_degree = _rule("permutation degree", MAX_PERMUTATION_SIZE)
check_permanent_dimension = _rule("permanent dimension", MAX_PERMANENT_DIM)
check_product_factors = _rule("product factors", MAX_PRODUCT_FACTORS)
check_expansion_positions = _rule("expansion positions", MAX_EXPANSION_CYCLES)


def integer_tuple(values, name: str) -> tuple[int, ...]:
    """The integers of `values`: ints, integral reals such as 2.0, or
    strings of digits.  A bare string (read digit by digit otherwise), a
    bool, a non-integral number or anything else raises ValidationError."""
    def one(v):
        if type(v) is int:
            return v
        if isinstance(v, bool):
            raise ValueError("a bool")
        if isinstance(v, (numbers.Integral, str)):
            return int(v)
        if isinstance(v, numbers.Real) and float(v).is_integer():
            return int(v)
        raise ValueError("not an integer")

    try:
        if isinstance(values, str):
            raise ValueError("a bare string")
        return tuple(one(v) for v in values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name} must be a list of integers: {values!r}") from exc
