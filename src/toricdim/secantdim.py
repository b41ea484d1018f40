"""Dimension of secant varieties of embedded toric varieties.

The affine cone of the R-th secant variety is parametrized by a torus
monomial map whose Jacobian at a parameter matrix Y, after row scaling by Y,
factors as the Khatri-Rao product of an R x (N+1) coefficient matrix
(`eta_secant`) with the exponent matrix.  sigma_R(X) is the one-factor
Hadamard product, so `eta_secant` is the one-factor case of the one eta
formula, `_kernels_py.eta_of_columns`.  The projective dimension is the
generic rank of that product minus one; ranks are probed over a large prime
field, which certifies lower bounds, while the parameter count gives the
upper bound

    expected_dim = min(N, R * (dim X + 1) - 1).

Equality of the two, or of the rank and a lower theorem bound (status
"defective", `secant_dim_bound`), certifies the dimension; a shortfall that
persists through the draw schedule of `probing` is reported as "defective
(probabilistic)", with the error bound behind it.

The probe builds no eta: `secant_dimensions` answers a list of R as
one-factor Hadamard probes (`probing.probe_hadamard_ranks`), one walk over
the Terracini blocks phi(y_1 y_j) (x) A per seed and prime.  `eta_secant`
is the `eta_at` of that probe, which it never calls.
"""

from typing import NamedTuple

from . import kernels
from .config import DEFAULT_CONFIG, RunConfig
from .exponent import HadamardSpec, VarietyDescriptor
from .probing import ProbeResult, probe_hadamard_ranks

STATUS_NONDEFECTIVE = "nondefective"
STATUS_DEFECTIVE = "defective (probabilistic)"
STATUS_CERTIFIED_DEFECTIVE = "defective"


class TheoremBoundError(RuntimeError):
    """A probed rank above `secant_dim_bound`: a misapplied theorem or a wrong kernel."""


def expected_secant_dim(ambient_dim: int, variety_dim: int, R: int) -> int:
    """Parameter-count upper bound min(N, R*(dim X + 1) - 1)."""
    if R < 1:
        raise ValueError("R must be >= 1")
    return min(ambient_dim, R * (variety_dim + 1) - 1)


def secant_dim_bound(descriptor: VarietyDescriptor, R: int) -> int:
    """Upper bound on dim sigma_R(X): the parameter count, less the defect a
    theorem states for the `degrees` and `dims` of a non-`custom` descriptor.
    * sigma_R(v_2(P^n)) is the variety of symmetric (n+1) x (n+1) matrices
      of rank <= R, of dimension R(n+1) - R(R-1)/2 - 1 for R <= n+1.
    * Alexander-Hirschowitz (J. Algebraic Geom. 1995): "sigma_R(v_d(P^n)) has
      the expected dimension except for d = 2, 2 <= R <= n, and (d, n, R) in
      `tables.AH_SPORADIC`", each sporadic case a hypersurface: defect 1.
    * Laface-Postinghel (Math. Ann. 2013): "the Segre-Veronese (P^1)^k of
      degrees (d_1, ..., d_k) is non-defective except for (2, 2a) and
      (1, 1, 2a) with R = 2a + 1, (2, 2, 2) with R = 7 and (1, 1, 1, 1) with
      R = 3", in any order of the degrees, each a hypersurface: defect 1.
    * sigma_R(P^a x P^b), degrees (1, 1), is the variety of (a+1) x (b+1)
      matrices of rank <= R, of dimension R(a + b + 2 - R) - 1 for
      R <= min(a, b) + 1.
    No term exceeds the parameter count.  The quadratic Veronese term is
    at most R(n + 1) - 1 and increases up to R = n + 1, where it equals N;
    the determinantal term is at most R(a + b + 1) - 1, and at most N, as
    (a + 1 - R)(b + 1 - R) >= 0; every other case is the count or the count
    less 1."""
    from .tables import AH_SPORADIC  # tables imports this module
    mat = descriptor.matrix()
    count = expected_secant_dim(mat.ambient_dim, mat.rank() - 1, R)
    if descriptor.kind == "custom":
        return count
    if descriptor.degrees == (1, 1) and R <= min(descriptor.dims) + 1:
        return R * (sum(descriptor.dims) + 2 - R) - 1
    if len(descriptor.dims) == 1:
        (d,), (n,) = descriptor.degrees, descriptor.dims
        if d == 2 and R <= n + 1:
            return R * (n + 1) - R * (R - 1) // 2 - 1
        return count - ((d, n, R) in AH_SPORADIC)
    *low, top = sorted(descriptor.degrees)
    family = low in ([2], [1, 1]) and top % 2 == 0 and R == top + 1
    binary = family or (*low, top, R) in ((2, 2, 2, 7), (1, 1, 1, 1, 3))
    return count - (set(descriptor.dims) == {1} and binary)


def eta_secant(rows, points, prime: int) -> list[list[int]]:
    """Coefficient matrix of the secant Jacobian factorization, R rows.

    The one-factor case of `_kernels_py.eta_of_columns`: row 1 is
    phi(y_1) * (1 + sum_{j >= 2} phi(y_j)), row j (j >= 2) is
    phi(y_1 * y_j), with phi the affine monomial map of `rows` and * the
    coordinatewise product.
    """
    return kernels.eta_mod(rows, (len(points) - 1,), points, prime)


class SecantDimensionReport(NamedTuple):
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
    return secant_dimensions(descriptor, (R,), config)[0]


def secant_dimensions(
    descriptor: VarietyDescriptor, Rs, config: RunConfig = DEFAULT_CONFIG
) -> tuple[SecantDimensionReport, ...]:
    """`secant_dimension` for each R of `Rs`, in order, probed together.

    One `probing.probe_hadamard_ranks` of one-factor specs answers them
    all: each draw of it is one walk per prime, in which each R resumes
    from the Terracini blocks of the next smaller one, so a caller that
    will ask for several R gains by asking for them at once, as
    `hadamard_dimensions` does for a whole batch.  Every report equals the
    one a lone probe of its R gives.  A probe's target is
    `secant_dim_bound` + 1, which is never above the parameter count's.
    Its fallback eta, `eta_secant`, is never asked for: a one-factor spec
    always has its normalised blocks.
    """
    Rs = tuple(Rs)
    if any(R < 1 for R in Rs):
        raise ValueError("R must be >= 1")
    mat = descriptor.matrix()
    ambient = mat.ambient_dim
    dim_x = mat.rank() - 1
    # sigma_R(X) is the linear span of X from R = N + 1 on: probe at most
    # that, with the target of N + 1 points, which is also sigma_R's.
    points = {R: min(R, ambient + 1) for R in Rs}
    counts = {n: expected_secant_dim(ambient, dim_x, n) for n in points.values()}
    bounds = {n: secant_dim_bound(descriptor, n) for n in counts}
    specs = [(HadamardSpec((n,)), bound + 1) for n, bound in bounds.items()]

    def eta_at(rows, spec, pts, p):
        return eta_secant(rows, pts, p)

    probes = dict(zip(bounds, probe_hadamard_ranks(eta_at, mat, specs, config)))
    reports = {
        R: _report(descriptor, R, ambient, dim_x, counts[n], bounds[n], probes[n], config)
        for R, n in points.items()
    }
    return tuple(reports[R] for R in Rs)


def _report(
    descriptor: VarietyDescriptor, R: int, ambient: int, dim_x: int, expected: int,
    bound: int, probe: ProbeResult, config: RunConfig,
) -> SecantDimensionReport:
    computed = probe.rank - 1
    if computed > bound:
        raise TheoremBoundError(f"sigma_{R} of {descriptor}: dimension {computed} (mod "
                                f"{probe.prime}) is above the theorem bound {bound}")
    defect = computed < expected
    certified = STATUS_CERTIFIED_DEFECTIVE if computed == bound else STATUS_DEFECTIVE
    return SecantDimensionReport(
        descriptor=str(descriptor),
        R=R,
        computed_dim=computed,
        expected_dim=expected,
        defect_flag=defect,
        status=certified if defect else STATUS_NONDEFECTIVE,
        ambient_dim=ambient,
        variety_dim=dim_x,
        trials=probe.trials,
        prime=probe.prime,
        seed=config.seed,
        attempts=probe.attempts,
        primes_tried=probe.primes_tried,
        error_bound=probe.error_bound,
    )
