"""Dimension of secant varieties of embedded toric varieties.

The affine cone of the R-th secant variety is parametrized by a torus
monomial map whose Jacobian at a parameter matrix Y, after row scaling by Y,
factors as the Khatri-Rao product of an R x (N+1) coefficient matrix
(`eta_secant`) with the exponent matrix.  sigma_R(X) is the one-factor
Hadamard product, so `eta_secant` is the one-factor case of the one eta
construction, `probing.eta`.  The projective dimension is the
generic rank of that product minus one; ranks are probed over a large prime
field, which certifies lower bounds, while the parameter count gives the
upper bound

    expected_dim = min(N, R * (dim X + 1) - 1).

Equality of the two certifies non-defectivity; a shortfall that persists
through the draw schedule of `probing` is reported as "defective
(probabilistic)", with the error bound behind it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .config import CACHE_SIZE, DEFAULT_CONFIG, RunConfig
from .exponent import VarietyDescriptor
from .probing import eta, probe_max_rank

STATUS_NONDEFECTIVE = "nondefective"
STATUS_DEFECTIVE = "defective (probabilistic)"


def expected_secant_dim(ambient_dim: int, variety_dim: int, R: int) -> int:
    """Parameter-count upper bound min(N, R*(dim X + 1) - 1)."""
    if R < 1:
        raise ValueError("R must be >= 1")
    return min(ambient_dim, R * (variety_dim + 1) - 1)


def eta_secant(rows, points, prime: int) -> list[list[int]]:
    """Coefficient matrix of the secant Jacobian factorization, R rows.

    The one-factor case of `probing.eta`: row 1 is phi(y_1) * (1 + sum_{j >= 2}
    phi(y_j)), row j (j >= 2) is phi(y_1 * y_j), with phi the affine monomial
    map of `rows` and * the coordinatewise product.
    """
    return eta(rows, (len(points) - 1,), points, prime)


@dataclass(frozen=True)
class SecantDimensionReport:
    descriptor: str
    R: int
    computed_dim: int
    expected_dim: int
    defect_flag: bool
    status: str
    ambient_dim: int
    variety_dim: int
    trials: int
    prime: int
    seed: int
    attempts: int
    primes_tried: tuple[int, ...]
    error_bound: float


def secant_dimension(
    descriptor: VarietyDescriptor, R: int, config: RunConfig = DEFAULT_CONFIG
) -> SecantDimensionReport:
    """Probe the projective dimension of the R-th secant variety."""
    if R < 1:
        raise ValueError("R must be >= 1")
    return _secant_dimension_cached(descriptor, R, config)


@lru_cache(maxsize=CACHE_SIZE)
def _secant_dimension_cached(
    descriptor: VarietyDescriptor, R: int, config: RunConfig
) -> SecantDimensionReport:
    mat = descriptor.matrix()
    ambient = mat.ambient_dim
    dim_x = mat.rank() - 1
    expected = expected_secant_dim(ambient, dim_x, R)
    # sigma_R(X) is the linear span of X from R = N + 1 on: probe at most that.
    probe = probe_max_rank(
        eta_secant, mat, min(R, ambient + 1), config, expected + 1, factors=1
    )
    computed = probe.rank - 1
    defect = computed < expected
    return SecantDimensionReport(
        descriptor=str(descriptor),
        R=R,
        computed_dim=computed,
        expected_dim=expected,
        defect_flag=defect,
        status=STATUS_DEFECTIVE if defect else STATUS_NONDEFECTIVE,
        ambient_dim=ambient,
        variety_dim=dim_x,
        trials=probe.trials,
        prime=probe.prime,
        seed=config.seed,
        attempts=probe.attempts,
        primes_tried=probe.primes_tried,
        error_bound=probe.error_bound,
    )
