"""Dimensions of secant varieties and Hadamard products of toric varieties.

The package certifies (non-)defectivity of secant varieties sigma_R(X) and
of Hadamard products sigma_{r_1}(X) * ... * sigma_{r_m}(X) for embedded
toric varieties X given by integer exponent matrices, probes generic
Hadamard ranks, exposes the known defectivity classifications with their
closed-form rank formulas, verifies the secant-to-Hadamard degeneration over
exact rationals, and computes linear-space tropicalizations.

Quick start::

    from toricdim import VarietyDescriptor, hadamard_dimension
    report = hadamard_dimension(VarietyDescriptor.veronese(4, 2), (2, 2, 2, 2))
    assert report.computed_dim == 14
"""

from .config import DEFAULT_CONFIG, RunConfig
from .classify import (
    AH_SPORADIC,
    FormulaNotGuaranteedError,
    ah_defective,
    binary_check_table,
    binary_sv_defective,
    enumerate_check_rvectors,
    generic_hrank_formula,
    veronese_check_table,
)
from .degeneration import (
    DegenerationFamily,
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
    kron,
    normalize,
    rational_normal_curve,
    read_matrix_csv,
    segre_veronese,
    stack,
    write_matrix_csv,
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
from .secantdim import SecantDimensionReport, expected_secant_dim, secant_dimension
from .tropical import (
    HadamardSumReport,
    Support,
    TropicalSpan,
    classify_support,
    infinite_generic_hrank_toric,
    trop_hadamard_sum,
    trop_toric,
)

__version__ = "0.1.0"

__all__ = [
    "ALTERNATE_PRIMES",
    "AH_SPORADIC",
    "DEFAULT_CONFIG",
    "DEFAULT_PRIME",
    "DegenerationFamily",
    "ExponentMatrix",
    "FormulaNotGuaranteedError",
    "GenericHrankReport",
    "HadamardDimensionReport",
    "HadamardSpec",
    "HadamardSumReport",
    "HomogeneityError",
    "LimitCheckReport",
    "MatrixSizeError",
    "RunConfig",
    "SecantDimensionReport",
    "Support",
    "TropicalSpan",
    "VarietyDescriptor",
    "ah_defective",
    "backend_name",
    "binary_check_table",
    "binary_sv_defective",
    "classify_support",
    "demo_points",
    "enumerate_check_rvectors",
    "expected_generic_hrank",
    "expected_secant_dim",
    "generic_hrank",
    "generic_hrank_formula",
    "hadamard_dimension",
    "infinite_generic_hrank_toric",
    "is_probable_prime",
    "kron",
    "limit_check",
    "normalize",
    "random_torus_points",
    "rational_normal_curve",
    "read_matrix_csv",
    "secant_dimension",
    "segre_veronese",
    "stack",
    "trop_hadamard_sum",
    "trop_toric",
    "veronese_check_table",
    "write_matrix_csv",
]
