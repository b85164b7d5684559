"""The lazy package surface: every exported name, `dir`, and what a bare
`import wishmom` loads."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wishmom

# every name the package exports, by the submodule that defines it; pinned
# here, independent of the package's own table
EXPORTED = {
    "applications": ("PolykaySample", "permanent_alpha", "permanent_d",
                     "permanent_master", "polykay", "repeated_matrix"),
    "combinatorics": ("CyclePermutation", "IntegerPartition", "MultiIndexPartition",
                      "Necklace", "complete_bell", "complete_homogeneous",
                      "cyclic_polynomial", "falling_factorial", "integer_partitions",
                      "multiindex_partitions", "necklace_rotations", "necklaces_of_kind",
                      "partition_coefficients", "permutations_by_cycles"),
    "errors": ("BudgetExceededError", "DegenerateSampleSizeError", "DimensionMismatchError",
               "InsufficientOrdersError", "NonIntegerNError", "NotHermitianError",
               "NotPSDError", "NumericalError", "SingularMatrixError", "ValidationError",
               "WishmomError"),
    "mc": ("Estimate", "RngStream", "distribution_identity_check",
           "estimate_generalized_moment", "estimate_joint_moment", "estimate_trace_cumulants",
           "haar_compression", "haar_power_sums", "haar_unitary", "sample_wishart"),
    "model": ("CONVENTIONS", "MomentSequence", "TraceCache", "WishartParams", "build",
              "noncentrality"),
    "multivariate": ("GeneralizedMomentExpansion", "a_product_moment",
                     "central_product_moment", "eta_moment", "eta_moment_strings",
                     "generalized_moment_expansion", "joint_cumulant",
                     "joint_cumulant_randomized", "joint_moment", "rho_moment",
                     "rho_moment_strings"),
    "univariate": ("binomial_convolution_check", "central_cumulant", "central_moment",
                   "compose_normalized_moments", "cumulant_sequence", "moment_sequence",
                   "noncentral_cumulant", "noncentral_cumulant_eigen", "noncentral_moment",
                   "noncentral_moment_bell", "normalized_cumulant_moments",
                   "randomized_moment"),
}
NAMES = sorted(name for names in EXPORTED.values() for name in names)


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in EXPORTED.items() for name in names])
def test_exported_name_is_the_submodule_object(module, name):
    assert getattr(wishmom, name) is getattr(importlib.import_module(f"wishmom.{module}"), name)


def test_dir_and_star_import_list_every_exported_name():
    assert set(NAMES) <= set(dir(wishmom))
    assert set(EXPORTED) <= set(dir(wishmom))
    namespace = {}
    exec("from wishmom import *", namespace)
    assert set(NAMES) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        wishmom.no_such_name
    assert not hasattr(wishmom, "noncentral_moments")


def test_engines_share_the_cli_choices():
    assert wishmom.model.CONVENTIONS is wishmom.budgets.CONVENTIONS
    assert wishmom.mc.IDENTITIES is wishmom.budgets.IDENTITIES
    assert wishmom.applications.check_polykay_order is wishmom.budgets.check_polykay_order
    assert not hasattr(wishmom, "choices")


def test_bare_import_loads_nothing_until_asked():
    code = (
        "import sys, wishmom\n"
        "assert 'numpy' not in sys.modules\n"
        "assert not [m for m in sys.modules if m.startswith('wishmom.')]\n"
        "assert wishmom.mc.RngStream is wishmom.RngStream\n"
        "assert 'numpy' in sys.modules\n"
    )
    src = str(Path(wishmom.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr.decode()


@pytest.mark.parametrize("module, unloaded", [
    ("mc", ("applications", "combinatorics", "multivariate", "univariate")),
    ("applications", ("multivariate", "univariate")),
    ("multivariate", ("applications", "mc", "univariate")),
])
def test_engine_import_loads_only_what_it_computes_with(module, unloaded):
    # a module imports the names it needs for one route where that route
    # uses them, so loading it compiles no engine it does not compute with
    code = (
        "import sys\n"
        f"import wishmom.{module}\n"
        f"loaded = [m for m in {unloaded!r} if 'wishmom.' + m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    src = str(Path(wishmom.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr.decode()
