"""Dimension of Hadamard products of secant varieties, and generic ranks.

For factors r = (r_1, ..., r_m) the product sigma_{r_1}(X) * ... *
sigma_{r_m}(X) is parametrized by one shared torus point y_0 plus r_k - 1
points per factor, R = sum(r_k - 1) + 1 points in total.  The Jacobian again
factors as eta (x) A (Khatri-Rao).  The one eta formula is
`_kernels_py.eta_of_columns`; `eta_hadamard` takes it over F_p with the
factors of the spec, and a secant variety is its one-factor case, so the
probe is the same certified rank computation as for secants.  The probe
itself builds eta only for a draw where some S_k has a coordinate that is
0 mod p: otherwise it eliminates the normalised blocks of
`probing.probe_hadamard_ranks`, which have the same rank.

Dimension chain used throughout:

    dim sigma_R(X)  <=  dim sigma_r(X)  <=  expected_dim_hadamard
                    <=  expected_dim of sigma_R(X),

where expected_dim_hadamard = min(sum_i dim sigma_{r_i}(X) - (m-1) dim X, N)
is evaluated with computed per-factor dimensions.

One settle rule decides a product before any probe of its own.  Its bound
is a certified lower bound on the product's dimension, with the prime it
rests on: dim sigma_R(X) (the degeneration of the paper), or, when larger,
the dimension of a product it contains.  Products nest: sigma_{r-1}(X) lies
in sigma_r(X), so a product contains the product with one r_k lowered by 1,
and the rank probe of any product is a certified lower bound on the
dimension of every product that contains it (the Hadamard form of the
Terracini argument of Friedenberg, Oneto and Williams, 2017).  A caller
that has answered such a product passes its (computed_dim, prime) as
`contained`; the table runners of `tables` do, and sigma_R wins a tie.
The product probe's target is expected_dim_hadamard + 1, so when the bound
reaches expected_dim_hadamard, `hadamard_dimension` reports it as
computed_dim and draws nothing: attempts and trials 0, no primes tried,
error bound 0.0, and the prime of the bound.  lower_bound_dim_R stays the
sigma_R dimension.  The verdict rests on the probed factor dimensions as
upper bounds, as the product probe's target does.  Power m = 1 is sigma_r
itself and is always settled.

`hadamard_dimensions` applies the rule to each vector of a batch on one
descriptor and probes the unsettled ones together, so that their draws
share the normalised blocks of their common leading factors and the
elimination after them; `hadamard_dimension` is its batch of one.
"""

from typing import NamedTuple

from . import kernels
from .config import DEFAULT_CONFIG, RunConfig
from .exponent import HadamardSpec, VarietyDescriptor
from .probing import ProbeResult, probe_hadamard_ranks
from .secantdim import prefetch_secant_dimensions, secant_dimensions

STATUS_EXPECTED = "expected dimension"
STATUS_HDEFECTIVE = "Hadamard-defective (probabilistic)"
STATUS_FOUND = "found"
STATUS_INFINITE = "infinite (toric idempotent)"
STATUS_NOT_FILLED = "not filled (probabilistic)"

# Powers `generic_hrank` tries past the expected m before it gives up.
HRANK_MARGIN = 3


def eta_hadamard(rows, spec: HadamardSpec, points, prime: int) -> list[list[int]]:
    """Coefficient matrix of the Hadamard-product Jacobian factorization over
    F_prime: `_kernels_py.eta_of_columns` for the factors of `spec`, points
    ordered (y_0 | y_{1,1} ... y_{1,r_1-1} | y_{2,1} ...)."""
    spec = spec if isinstance(spec, HadamardSpec) else HadamardSpec(tuple(spec))
    return kernels.eta_mod(rows, spec.r_prime, points, prime)


class HadamardDimensionReport(NamedTuple):
    descriptor: str
    r: tuple[int, ...]
    R: int
    computed_dim: int
    expected_dim_hadamard: int
    expected_dim_R: int
    lower_bound_dim_R: int
    hadamard_defect_flag: bool
    fills_ambient: bool
    status: str
    ambient_dim: int
    variety_dim: int
    factor_dims: tuple[int, ...]
    parameter_count: int
    exceeds_ambient: bool
    trials: int
    prime: int
    seed: int
    attempts: int
    primes_tried: tuple[int, ...]
    error_bound: float


def hadamard_dimension(
    descriptor: VarietyDescriptor, r, config: RunConfig = DEFAULT_CONFIG, *,
    contained: tuple[int, int] | None = None,
) -> HadamardDimensionReport:
    """Probe the projective dimension of sigma_{r_1}(X) * ... * sigma_{r_m}(X):
    `hadamard_dimensions` of one factor vector.

    `contained` is the (computed_dim, prime) of a product that this one
    contains, a certified lower bound that the settle rule weighs against
    sigma_R's.
    """
    return hadamard_dimensions(descriptor, (r,), config, contained=(contained,))[0]


def hadamard_dimensions(
    descriptor: VarietyDescriptor, rs, config: RunConfig = DEFAULT_CONFIG, *,
    contained=None,
) -> tuple[HadamardDimensionReport, ...]:
    """`hadamard_dimension` of each factor vector of `rs`, in order, with the
    bound contained[k] (or None) for rs[k]; every report equals the lone one.

    Not memoised: no caller asks for the same report twice.  The factor
    dimensions and the sigma_R lower bound come from the memoised
    `secant_dimensions`, whose reports a sweep does reuse.  The settle rule
    decides each vector; the unsettled ones are probed together, by one
    `probe_hadamard_ranks`.
    """
    specs = [r if isinstance(r, HadamardSpec) else HadamardSpec(tuple(r)) for r in rs]
    parts, probes = [], []
    for spec, inner in zip(specs, contained or (None,) * len(specs)):
        *factors, lower_rep = secant_dimensions(descriptor, (*spec.r, spec.total_points), config)
        ambient, dim_x = lower_rep.ambient_dim, lower_rep.variety_dim
        factor_dims = tuple(rep.computed_dim for rep in factors)
        parameter_count = sum(factor_dims) - (spec.m - 1) * dim_x
        expected_h = min(parameter_count, ambient)
        # The certified lower bound and the prime it rests on: sigma_R's, or
        # the larger contained product's; sigma_R wins a tie.
        bound = (lower_rep.computed_dim, lower_rep.prime)
        if inner is not None and inner[0] > bound[0]:
            bound = inner
        if bound[0] >= expected_h:
            # Settled: the bound already meets the ceiling the product probe
            # would stop at.
            probe = ProbeResult(bound[0] + 1, bound[1], 0, False, 0, (), 0.0)
        else:
            # sigma_r(X) is the linear span of X from r = N + 1 on, so each
            # factor is probed with at most N + 1 points; the product is the
            # same variety.
            probe = None
            probed = HadamardSpec(tuple(min(rk, ambient + 1) for rk in spec.r))
            probes.append((probed, expected_h + 1))
        parts.append((spec, lower_rep, factor_dims, parameter_count, expected_h, probe))
    results = iter(
        probe_hadamard_ranks(eta_hadamard, descriptor.matrix(), probes, config) if probes else ()
    )
    return tuple(
        _report(descriptor, *part[:-1], part[-1] or next(results), config) for part in parts
    )


def _report(
    descriptor: VarietyDescriptor, spec: HadamardSpec, lower_rep, factor_dims: tuple[int, ...],
    parameter_count: int, expected_h: int, probe: ProbeResult, config: RunConfig,
) -> HadamardDimensionReport:
    ambient = lower_rep.ambient_dim
    computed = probe.rank - 1
    defect = computed < expected_h
    return HadamardDimensionReport(
        descriptor=str(descriptor),
        r=spec.r,
        R=spec.total_points,
        computed_dim=computed,
        expected_dim_hadamard=expected_h,
        expected_dim_R=lower_rep.expected_dim,
        lower_bound_dim_R=lower_rep.computed_dim,
        hadamard_defect_flag=defect,
        fills_ambient=computed == ambient,
        status=STATUS_HDEFECTIVE if defect else STATUS_EXPECTED,
        ambient_dim=ambient,
        variety_dim=lower_rep.variety_dim,
        factor_dims=factor_dims,
        parameter_count=parameter_count,
        exceeds_ambient=parameter_count > ambient,
        trials=probe.trials,
        prime=probe.prime,
        seed=config.seed,
        attempts=probe.attempts,
        primes_tried=probe.primes_tried,
        error_bound=probe.error_bound,
    )


# --- generic Hadamard rank ----------------------------------------------------


def expected_generic_hrank(ambient_dim: int, variety_dim: int, r: int) -> int:
    """ceil((N - dim X) / ((r-1)(dim X + 1))); 0 when X already fills P^N."""
    if r < 2:
        raise ValueError("generic Hadamard rank formula needs r >= 2")
    if not 0 <= variety_dim <= ambient_dim:
        raise ValueError("need 0 <= variety_dim <= ambient_dim")
    if ambient_dim == variety_dim:
        return 0
    q = (r - 1) * (variety_dim + 1)
    return -((variety_dim - ambient_dim) // q)


class GenericHrankReport(NamedTuple):
    descriptor: str
    r: int
    found_m: int | None
    status: str
    expected_m: int | None
    trace: tuple[tuple[int, int], ...]  # (m, computed_dim) per tried power
    ambient_dim: int
    variety_dim: int


def generic_hrank(
    descriptor: VarietyDescriptor, r: int, config: RunConfig = DEFAULT_CONFIG
) -> GenericHrankReport:
    """Smallest m such that sigma_r(X)^(*m) fills P^N, probed dimension-wise.

    For r = 1 Hadamard powers never grow (X * X = X for toric X), so unless
    X is already dense the rank is reported as infinite: a matrix of rank
    below its column count has a nonzero integer kernel vector, a two-term
    multiplicative relation among the coordinates that every Hadamard
    product of points of X satisfies and a generic point of P^N does not.
    The search reuses one seed family across m and stops HRANK_MARGIN steps
    past the expected m.  The secant reports of every m it may try are
    probed together before it starts (`prefetch_secant_dimensions`).
    """
    mat = descriptor.matrix()
    ambient = mat.ambient_dim
    dim_x = mat.rank() - 1
    if r < 1:
        raise ValueError("r must be >= 1")
    if r == 1:
        if dim_x == ambient:
            return GenericHrankReport(
                str(descriptor), r, 1, STATUS_FOUND, None, ((1, ambient),),
                ambient, dim_x,
            )
        return GenericHrankReport(
            str(descriptor), r, None, STATUS_INFINITE, None, (), ambient, dim_x
        )
    expected_m = expected_generic_hrank(ambient, dim_x, r)
    powers = range(1, max(expected_m, 1) + HRANK_MARGIN + 1)
    prefetch_secant_dimensions(descriptor, (r, *(m * (r - 1) + 1 for m in powers)), config)
    trace = []
    for m in powers:
        rep = hadamard_dimension(descriptor, (r,) * m, config)
        trace.append((m, rep.computed_dim))
        if rep.fills_ambient:
            return GenericHrankReport(
                str(descriptor), r, m, STATUS_FOUND, expected_m, tuple(trace),
                ambient, dim_x,
            )
    return GenericHrankReport(
        str(descriptor), r, None, STATUS_NOT_FILLED, expected_m, tuple(trace),
        ambient, dim_x,
    )
