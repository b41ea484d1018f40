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

import importlib

__version__ = "0.1.0"

# Exported name -> the submodule that defines it.  A name is imported on its
# first use (PEP 562), so `import toricdim` loads no submodule and a command
# loads only the modules it runs.
_EXPORTS = {
    "ALTERNATE_PRIMES": "modlinalg",
    "AH_SPORADIC": "tables",
    "DEFAULT_CONFIG": "config",
    "DEFAULT_PRIME": "modlinalg",
    "ExponentMatrix": "exponent",
    "GenericHrankReport": "hadamdim",
    "HadamardDimensionReport": "hadamdim",
    "HadamardSpec": "exponent",
    "HomogeneityError": "exponent",
    "LimitCheckReport": "degeneration",
    "MatrixSizeError": "exponent",
    "RunConfig": "config",
    "SecantDimensionReport": "secantdim",
    "Support": "tropical",
    "VarietyDescriptor": "exponent",
    "backend_name": "kernels",
    "binary_check_table": "tables",
    "classify_support": "tropical",
    "demo_points": "degeneration",
    "enumerate_check_rvectors": "tables",
    "expected_generic_hrank": "hadamdim",
    "expected_secant_dim": "secantdim",
    "generic_hrank": "hadamdim",
    "hadamard_dimension": "hadamdim",
    "is_probable_prime": "modlinalg",
    "limit_check": "degeneration",
    "normalize": "exponent",
    "random_torus_points": "modlinalg",
    "read_matrix_csv": "exponent",
    "secant_dimension": "secantdim",
    "secant_dimensions": "secantdim",
    "segre_veronese": "exponent",
    "veronese_check_table": "tables",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
