"""Enumeration budgets.

Every combinatorially explosive operation checks its size argument against
one of the defaults below.  Setting the environment variable
``WISHMOM_MAX_BUDGET`` (or the legacy spelling ``WISHART_MAX_BUDGET``)
to an integer replaces *all* defaults at once.
"""

import os

from .errors import BudgetExceededError, ValidationError

MAX_UNIVARIATE_ORDER = 20   # trace moment/cumulant order i
MAX_JOINT_WEIGHT = 10       # |i| for joint moments/cumulants and permanent_master
MAX_PERMUTATION_SIZE = 10   # k for full S_k enumeration
MAX_PERMANENT_DIM = 10      # p for brute-force permanents
MAX_PRODUCT_FACTORS = 8     # m for the group-action product-moment sums
MAX_EXPANSION_CYCLES = 6    # k for the 2^k central/formal assignment expansion

_ENV_VARS = ("WISHMOM_MAX_BUDGET", "WISHART_MAX_BUDGET")


def budget(default: int) -> int:
    """Effective budget: the env override when set, else `default`."""
    for var in _ENV_VARS:
        raw = os.environ.get(var)
        if raw is not None:
            try:
                return int(raw)
            except ValueError as exc:
                raise ValidationError(f"{var} must be an integer: {raw!r}") from exc
    return default


def check_budget(name: str, value: int, default: int) -> None:
    """Raise BudgetExceededError when `value` exceeds the effective budget."""
    limit = budget(default)
    if value > limit:
        raise BudgetExceededError(f"{name}={value} exceeds budget {limit}")
