"""Dimensions of secant varieties and Hadamard products of toric varieties.

The package certifies (non-)defectivity of secant varieties sigma_R(X) and
of Hadamard products sigma_{r_1}(X) * ... * sigma_{r_m}(X) for embedded
toric varieties X given by integer exponent matrices, probes generic
Hadamard ranks, re-runs the check tables of the known defective cases,
verifies the secant-to-Hadamard degeneration over exact rationals, and
classifies polynomial supports by the shape of their Newton polytope.

Quick start::

    from toricdim import VarietyDescriptor, hadamard_dimension
    report = hadamard_dimension(VarietyDescriptor.veronese(4, 2), (2, 2, 2, 2))
    assert report.computed_dim == 14
"""

from .config import DEFAULT_CONFIG, RunConfig
from .classify import (
    AH_SPORADIC,
    binary_check_table,
    enumerate_check_rvectors,
    veronese_check_table,
)
from .degeneration import (
    LimitCheckReport,
    demo_points,
    limit_check,
)
from .exponent import (
    ExponentMatrix,
    HadamardSpec,
    HomogeneityError,
    MatrixSizeError,
    VarietyDescriptor,
    normalize,
    read_matrix_csv,
    segre_veronese,
)
from .hadamdim import (
    GenericHrankReport,
    HadamardDimensionReport,
    expected_generic_hrank,
    generic_hrank,
    hadamard_dimension,
)
from .kernels import backend_name
from .modlinalg import (
    ALTERNATE_PRIMES,
    DEFAULT_PRIME,
    is_probable_prime,
    random_torus_points,
)
from .secantdim import (
    SecantDimensionReport,
    expected_secant_dim,
    secant_dimension,
    secant_dimensions,
)
from .tropical import Support, classify_support

__version__ = "0.1.0"

__all__ = [
    "ALTERNATE_PRIMES",
    "AH_SPORADIC",
    "DEFAULT_CONFIG",
    "DEFAULT_PRIME",
    "ExponentMatrix",
    "GenericHrankReport",
    "HadamardDimensionReport",
    "HadamardSpec",
    "HomogeneityError",
    "LimitCheckReport",
    "MatrixSizeError",
    "RunConfig",
    "SecantDimensionReport",
    "Support",
    "VarietyDescriptor",
    "backend_name",
    "binary_check_table",
    "classify_support",
    "demo_points",
    "enumerate_check_rvectors",
    "expected_generic_hrank",
    "expected_secant_dim",
    "generic_hrank",
    "hadamard_dimension",
    "is_probable_prime",
    "limit_check",
    "normalize",
    "random_torus_points",
    "read_matrix_csv",
    "secant_dimension",
    "secant_dimensions",
    "segre_veronese",
    "veronese_check_table",
]
