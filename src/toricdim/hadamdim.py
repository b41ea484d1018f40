"""Dimension of Hadamard products of secant varieties, and generic ranks.

For factors r = (r_1, ..., r_m) the product sigma_{r_1}(X) * ... *
sigma_{r_m}(X) is parametrized by one shared torus point y_0 plus r_k - 1
points per factor, R = sum(r_k - 1) + 1 points in total.  The Jacobian again
factors as eta (x) A (Khatri-Rao).  The one eta formula is
`_kernels_py.eta_of_columns`; `eta_hadamard` takes it over F_p with the
factors of the spec, and a secant variety is its one-factor case, so the
probe is the same certified rank computation as for secants.  The probe
itself builds eta only for a draw where some S_k, k >= 2, has a coordinate
that is 0 mod p: otherwise it eliminates the normalised blocks of
`probing.probe_hadamard_ranks`, which have the same rank.  A product
probe, like its factors' secant probes, first draws at the word-size prime
`modlinalg.WORD_PRIME` when the configured prime is larger, since both
backends eliminate faster there.  A rank at any prime is a certified lower
bound, so a report, and a settled product's sigma_R bound, may carry that
prime; the probe goes on to the configured prime only when that draw falls
short.

Dimension chain used throughout:

    dim sigma_R(X)  <=  dim sigma_r(X)  <=  expected_dim_hadamard
                    <=  expected_dim of sigma_R(X),

where expected_dim_hadamard = min(sum_i dim sigma_{r_i}(X) - (m-1) dim X, N)
is evaluated with computed per-factor dimensions.

One settle rule decides a product before any probe of its own.  Its bound
is a certified lower bound on the product's dimension, with the prime it
rests on: dim sigma_R(X) (the degeneration of the paper), or, when larger,
the dimension of a product it contains.  Products nest: sigma_{r-1}(X) lies
in sigma_r(X), so a product contains the product with one r_k >= 3 lowered
by 1, and the rank probe of any product is a certified lower bound on the
dimension of every product that contains it (the Hadamard form of the
Terracini argument of Friedenberg, Oneto and Williams, 2017).
`hadamard_dimensions` bounds each vector of a batch by the vectors before
it in the batch that it contains, compared re-sorted, and sigma_R wins a
tie.  The product probe's target is expected_dim_hadamard + 1, so when the
bound reaches expected_dim_hadamard, the report takes it as computed_dim
and draws nothing: attempts and trials 0, no primes tried, error bound
0.0, and the prime of the bound.  lower_bound_dim_R stays the sigma_R
dimension.  The verdict rests on the probed factor dimensions as upper
bounds, as the product probe's target does.  Power m = 1 is sigma_r
itself and is always settled.

A batch is decided in rounds.  The first predicts that every probed
product reaches its target, settles on that prediction, and probes the
products it leaves open together, by one `probe_hadamard_ranks`.  Each
round then replays the rule in batch order with the ranks found: a
product the replay must probe and that no round has probed goes into the
next round's probe, and a probed product that the replay settles takes
its settled report.  A probe's rank does not depend on which probes share
its walks, so every report equals the one the rule gives vector by
vector; a batch whose prediction holds takes one walk per draw and prime.
A product is probed with its factors in non-increasing order, so that
(2, 3) and (3, 2) share one probe and the walk, which shares blocks with
the list before it through their common first factor, shares the most.
Every draw is uniform on the torus whichever factor takes which points, so
the error bound and the certified lower bound stand; the report keeps the
caller's r.  `hadamard_dimension` is the batch of one.
"""

from typing import NamedTuple

from . import kernels
from .config import DEFAULT_CONFIG, RunConfig
from .exponent import HadamardSpec, VarietyDescriptor
from .probing import ProbeResult, probe_hadamard_ranks
from .secantdim import secant_dimensions

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
    descriptor: VarietyDescriptor, r, config: RunConfig = DEFAULT_CONFIG
) -> HadamardDimensionReport:
    """Probe the projective dimension of sigma_{r_1}(X) * ... * sigma_{r_m}(X):
    `hadamard_dimensions` of one factor vector."""
    return hadamard_dimensions(descriptor, (r,), config)[0]


def hadamard_dimensions(
    descriptor: VarietyDescriptor, rs, config: RunConfig = DEFAULT_CONFIG
) -> tuple[HadamardDimensionReport, ...]:
    """`hadamard_dimension` of each factor vector of `rs`, in order, each
    also bounded below by the vectors before it in `rs` that it contains.

    The factor dimensions and the sigma_R lower bound of every vector come
    from one `secant_dimensions` call, asked in first-use order (each vector's
    factors, then its R), so an R without an error budget is named as when
    each vector asks for its own.  The settle rule decides each vector
    (`_settle`); the probes it needs are probed together, in rounds, as the
    module docstring says.
    """
    specs = [r if isinstance(r, HadamardSpec) else HadamardSpec(tuple(r)) for r in rs]
    Rs = dict.fromkeys(R for spec in specs for R in (*spec.r, spec.total_points))
    secants = dict(zip(Rs, secant_dimensions(descriptor, Rs, config)))
    parts = []
    for spec in specs:
        lower_rep = secants[spec.total_points]
        ambient, dim_x = lower_rep.ambient_dim, lower_rep.variety_dim
        factor_dims = tuple(secants[rk].computed_dim for rk in spec.r)
        parameter_count = sum(factor_dims) - (spec.m - 1) * dim_x
        # sigma_r(X) is the linear span of X from r = N + 1 on, so each
        # factor is probed with at most N + 1 points; the product is the
        # same variety.
        probed = HadamardSpec(sorted((min(rk, ambient + 1) for rk in spec.r), reverse=True))
        parts.append((spec, lower_rep, factor_dims, parameter_count, min(parameter_count, ambient),
                      probed))
    results = {}
    while True:
        probes, missing = _settle(parts, results)
        if not missing:
            break
        results.update(zip(missing, probe_hadamard_ranks(
            eta_hadamard, descriptor.matrix(), list(missing.items()), config)))
    return tuple(
        _report(descriptor, *part[:-1], probe, config) for part, probe in zip(parts, probes)
    )


def _settle(parts, results: dict) -> tuple[list[ProbeResult], dict]:
    """The settle rule over the batch, in order, with the ProbeResult of each
    probed spec in `results`: the ProbeResult of each vector, and the probes
    (spec -> target rank) it needs that `results` lacks, each predicted to
    reach its target."""
    answered, probes, missing = {}, [], {}
    for spec, lower_rep, _, _, expected_h, probed in parts:
        # The certified lower bound and the prime it rests on: sigma_R's, or
        # the larger one of a contained product answered before; sigma_R
        # wins a tie.
        bound = (lower_rep.computed_dim, lower_rep.prime)
        lower = (
            tuple(sorted((*spec.r[:k], rk - 1, *spec.r[k + 1:])))
            for k, rk in enumerate(spec.r) if rk >= 3
        )
        inner = max((answered[v] for v in lower if v in answered), default=None)
        if inner is not None and inner[0] > bound[0]:
            bound = inner
        if bound[0] >= expected_h:
            # Settled: the bound already meets the ceiling the product probe
            # would stop at.
            probe = ProbeResult(bound[0] + 1, bound[1], 0, False, 0, (), 0.0)
        elif probed in results:
            probe = results[probed]
        else:
            # Predicted to reach its target; no report is built from this.
            missing[probed] = expected_h + 1
            probe = ProbeResult(expected_h + 1, 0, 0, False, 0, (), 0.0)
        probes.append(probe)
        answered[tuple(sorted(spec.r))] = (probe.rank - 1, probe.prime)
    return probes, missing


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
    The search asks for every power it may try, up to HRANK_MARGIN steps
    past the expected m, as one `hadamard_dimensions` batch, and traces
    them up to the first that fills.  No power bounds another in the batch
    (the settle rule relates vectors of equal length only), so each report
    equals the one a lone probe of its power gives.  When the batch has no
    error budget at the configured prime, for a secant or a product of
    some power, the powers are answered one at a time, so that a power the
    search never reaches raises nothing.  A `TheoremBoundError` propagates.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    mat = descriptor.matrix()
    ambient = mat.ambient_dim
    dim_x = mat.rank() - 1
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
    powers = [(r,) * m for m in range(1, max(expected_m, 1) + HRANK_MARGIN + 1)]
    try:
        reports = hadamard_dimensions(descriptor, powers, config)
    except ValueError:
        reports = (hadamard_dimension(descriptor, power, config) for power in powers)
    trace = []
    for m, rep in enumerate(reports, 1):
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
