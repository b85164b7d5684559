"""Exact trace moments and cumulants of complex (non-)central Wishart
matrices, with necklace-indexed joint moments, d-permanents, spectral
polykays, and a Monte Carlo verification layer.

The package loads lazily (PEP 562).  A bare ``import wishmom`` imports no
submodule and not numpy.  Each public name below is imported from its
submodule on first access, e.g. ``wishmom.joint_moment`` loads
``wishmom.multivariate``, and is then kept in the package namespace.  A
submodule is loaded the same way on first access as an attribute, e.g.
``wishmom.mc`` after ``import wishmom``.  ``from wishmom import *`` imports
every exported name.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "applications": (
        "PolykaySample",
        "permanent_alpha",
        "permanent_d",
        "permanent_master",
        "polykay",
        "repeated_matrix",
    ),
    "budgets": (),
    "cli": (),
    "combinatorics": (
        "CyclePermutation",
        "IntegerPartition",
        "MultiIndexPartition",
        "Necklace",
        "complete_bell",
        "complete_homogeneous",
        "cyclic_polynomial",
        "falling_factorial",
        "integer_partitions",
        "multiindex_partitions",
        "necklace_rotations",
        "necklaces_of_kind",
        "partition_coefficients",
        "permutations_by_cycles",
    ),
    "errors": (
        "BudgetExceededError",
        "DegenerateSampleSizeError",
        "DimensionMismatchError",
        "InsufficientOrdersError",
        "NonIntegerNError",
        "NotHermitianError",
        "NotPSDError",
        "NumericalError",
        "SingularMatrixError",
        "ValidationError",
        "WishmomError",
    ),
    "matrix_core": (),
    "mc": (
        "Estimate",
        "RngStream",
        "distribution_identity_check",
        "estimate_generalized_moment",
        "estimate_joint_moment",
        "estimate_trace_cumulants",
        "haar_compression",
        "haar_power_sums",
        "haar_unitary",
        "sample_wishart",
    ),
    "model": ("CONVENTIONS", "TraceCache", "WishartParams", "build", "noncentrality"),
    "multivariate": (
        "GeneralizedMomentExpansion",
        "a_product_moment",
        "central_product_moment",
        "eta_moment",
        "eta_moment_strings",
        "generalized_moment_expansion",
        "joint_cumulant",
        "joint_cumulant_randomized",
        "joint_moment",
        "rho_moment",
        "rho_moment_strings",
    ),
    "univariate": (
        "MomentSequence",
        "binomial_convolution_check",
        "central_cumulant",
        "central_moment",
        "compose_normalized_moments",
        "cumulant_sequence",
        "moment_sequence",
        "noncentral_cumulant",
        "noncentral_cumulant_eigen",
        "noncentral_moment",
        "noncentral_moment_bell",
        "normalized_cumulant_moments",
        "randomized_moment",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _EXPORTS:
        # importing a submodule binds it in the package namespace
        return importlib.import_module(f"{__name__}.{name}")
    if name in _OWNER:
        value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(_OWNER))
