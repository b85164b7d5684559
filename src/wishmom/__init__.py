"""Exact trace moments and cumulants of complex (non-)central Wishart
matrices, with necklace-indexed joint moments, d-permanents, spectral
polykays, and a Monte Carlo verification layer."""

__version__ = "0.1.0"

from .applications import (
    PolykaySample,
    permanent_alpha,
    permanent_d,
    permanent_master,
    polykay,
    repeated_matrix,
)
from .combinatorics import (
    CyclePermutation,
    IntegerPartition,
    MultiIndexPartition,
    Necklace,
    complete_bell,
    complete_homogeneous,
    cyclic_polynomial,
    falling_factorial,
    integer_partitions,
    multiindex_partitions,
    necklace_rotations,
    necklaces_of_kind,
    partition_coefficients,
    permutations_by_cycles,
)
from .errors import (
    BudgetExceededError,
    DegenerateSampleSizeError,
    DimensionMismatchError,
    InsufficientOrdersError,
    NonIntegerNError,
    NotHermitianError,
    NotPSDError,
    NumericalError,
    SingularMatrixError,
    ValidationError,
    WishmomError,
)
from .mc import (
    Estimate,
    RngStream,
    distribution_identity_check,
    estimate_generalized_moment,
    estimate_joint_moment,
    estimate_trace_cumulants,
    haar_compression,
    haar_power_sums,
    haar_unitary,
    sample_wishart,
)
from .model import CONVENTIONS, TraceCache, WishartParams, build, noncentrality
from .multivariate import (
    GeneralizedMomentExpansion,
    a_product_moment,
    central_product_moment,
    eta_moment,
    eta_moment_strings,
    generalized_moment_expansion,
    joint_cumulant,
    joint_cumulant_randomized,
    joint_moment,
    rho_moment,
    rho_moment_strings,
)
from .univariate import (
    MomentSequence,
    binomial_convolution_check,
    central_cumulant,
    central_moment,
    compose_normalized_moments,
    cumulant_sequence,
    moment_sequence,
    noncentral_cumulant,
    noncentral_cumulant_eigen,
    noncentral_moment,
    noncentral_moment_bell,
    normalized_cumulant_moments,
    randomized_moment,
)
