"""Closed-form oracles of the paper's classifications, which the tests
compare the probes against: the defective Veronese secants
(Alexander-Hirschowitz), the defective binary Segre-Veronese secants, the
secants of P^a x P^b (determinantal varieties), and the generic Hadamard
rank formulas with their hypotheses.  Also three references:
`grouped_secant_ranks`, the secant probes walked draw by draw with the due
probes grouped per prime, each rank that of eta; `sequential_sweep` and
`sequential_cases`, the table runners one index at a time, each product
bounded by the products of lower index it contains; and, for the exact
degeneration verifier, `fraction_limit_check`, the same checks on
`fractions.Fraction` matrices."""

import itertools
import math
from fractions import Fraction

from toricdim import AH_SPORADIC, HadamardSpec, kernels, secant_dimensions
from toricdim._rational import rational_rank
from toricdim.degeneration import (
    RATIO_BAND,
    LimitCheckReport,
    _check_chart_form,
    _check_guard,
    _check_nus,
    _check_points,
)
from toricdim.hadamdim import _report, eta_hadamard
from toricdim.modlinalg import ALTERNATE_PRIMES, random_torus_points
from toricdim.probing import ProbeResult, _schedule, probe_hadamard_ranks
from toricdim.secantdim import eta_secant
from toricdim.tables import _tuples_with_index


class FormulaNotGuaranteedError(ValueError):
    """Inputs fall outside the hypotheses of the closed-form rank formula."""


def _ceil_div(a: int, b: int) -> int:
    # exact: binomial products overflow float64
    return -(-a // b)


def ah_defective(d: int, n: int, r: int) -> bool:
    """Is the r-th secant of the degree-d Veronese of P^n defective?"""
    if d < 1 or n < 1 or r < 1:
        raise ValueError("need d >= 1, n >= 1, r >= 1")
    if d == 2:
        return 2 <= r <= n
    return (d, n, r) in AH_SPORADIC


def binary_sv_defective(degrees, s: int) -> bool:
    """Is the s-th secant of the binary Segre-Veronese of multidegree
    `degrees` (one P^1 factor per entry) defective?

    Defective exactly for ((2,2t), 2t+1), ((1,1,2t), 2t+1) with t >= 1,
    ((2,2,2), 7) and ((1,1,1,1), 3); order of the degrees is irrelevant.
    """
    ds = tuple(sorted(int(x) for x in degrees))
    if not ds or any(x < 1 for x in ds) or s < 1:
        raise ValueError("degrees must be >= 1 and s >= 1")
    if len(ds) == 2 and ds[0] == 2 and ds[1] % 2 == 0 and s == ds[1] + 1:
        return True
    if (
        len(ds) == 3
        and ds[0] == 1
        and ds[1] == 1
        and ds[2] % 2 == 0
        and s == ds[2] + 1
    ):
        return True
    if ds == (2, 2, 2) and s == 7:
        return True
    if ds == (1, 1, 1, 1) and s == 3:
        return True
    return False


def segre_matrix_secant_dim(a: int, b: int, R: int) -> int:
    """dim sigma_R(P^a x P^b): the (a+1) x (b+1) matrices of rank <= R, of
    codimension (a+1-R)(b+1-R) in the space of all of them while R is below
    both sides, projectivised."""
    return (a + 1) * (b + 1) - max(a + 1 - R, 0) * max(b + 1 - R, 0) - 1


def generic_hrank_formula(family: str, params, r: int) -> int:
    """Closed-form generic r-th Hadamard rank for the covered families.

    family "veronese":     params = (d, n), requires d >= 3;
                           ceil((C(n+d,d) - n) / ((r-1)(n+1))).
    family "binary":       params = degrees of a binary Segre-Veronese,
                           requires degrees not of shape (2,2t) or (1,1,2t);
                           ceil((prod(d_i+1) - n) / ((r-1)(n+1))), n factors.
    family "high_degree":  params = (degrees, dims), requires the two largest
                           degrees >= 3 and the rest >= 2;
                           ceil((prod C(n_i+d_i,d_i) - sum n) / ((r-1)(sum n + 1))).

    Raises FormulaNotGuaranteedError outside these hypotheses.
    """
    if r < 2:
        raise FormulaNotGuaranteedError("formula not guaranteed: needs r >= 2")
    if family == "veronese":
        d, n = params
        if d < 3:
            raise FormulaNotGuaranteedError(
                "formula not guaranteed: Veronese closed form needs d >= 3"
            )
        return _ceil_div(math.comb(n + d, d) - n, (r - 1) * (n + 1))
    if family == "binary":
        ds = tuple(sorted(int(x) for x in params))
        if not ds or any(x < 1 for x in ds):
            raise ValueError("degrees must be >= 1")
        two_family = len(ds) == 2 and ds[0] == 2 and ds[1] % 2 == 0
        one_one_family = (
            len(ds) == 3 and ds[0] == 1 and ds[1] == 1 and ds[2] % 2 == 0
        )
        if two_family or one_one_family:
            raise FormulaNotGuaranteedError(
                "formula not guaranteed: degrees lie in a defective family"
            )
        n = len(ds)
        numer = math.prod(x + 1 for x in ds) - n
        return _ceil_div(numer, (r - 1) * (n + 1))
    if family == "high_degree":
        degrees, dims = params
        degrees = tuple(int(x) for x in degrees)
        dims = tuple(int(x) for x in dims)
        if len(degrees) != len(dims) or not degrees:
            raise ValueError("degrees and dims must be equal-length, non-empty")
        top = sorted(degrees, reverse=True)
        if len(top) < 2 or top[1] < 3 or top[-1] < 2:
            raise FormulaNotGuaranteedError(
                "formula not guaranteed: needs two degrees >= 3 and the rest >= 2"
            )
        s = sum(dims)
        numer = math.prod(math.comb(n + d, d) for d, n in zip(degrees, dims)) - s
        return _ceil_div(numer, (r - 1) * (s + 1))
    raise ValueError(f"unknown family {family!r}")


# --- the secant probes, grouped draw by draw -----------------------------------


def grouped_secant_ranks(mat, targets: dict, config) -> dict:
    """The one-factor `probing.probe_hadamard_ranks` of n points for every
    n -> target of `targets`, as a loop over draw indices: at draw i, the
    probes still short of their targets whose schedules put draw i at the
    same prime share one draw of points at seed + i, as many as the most any
    of them takes, and each takes the rank of `kr_rank_mod` of `eta_secant`
    at its first n."""
    schedules = {n: _schedule(mat, 1, n, config) for n in targets}
    draws = {n: [] for n in targets}
    rows = mat.entries
    for i in itertools.count():
        due = {
            n: moduli[i]
            for n, (_, _, moduli) in schedules.items()
            if i < len(moduli) and not (draws[n] and draws[n][-1][1] >= targets[n])
        }
        if not due:
            break
        for prime in dict.fromkeys(due.values()):
            count = max(n for n, q in due.items() if q == prime)
            pts = random_torus_points(count, len(rows), config.seed + i, prime)
            for n, q in due.items():
                if q == prime:
                    rank = kernels.kr_rank_mod(eta_secant(rows, pts[:n], prime), rows, prime)
                    draws[n].append((prime, rank))
    results = {}
    for n, (degree, trials, moduli) in schedules.items():
        # the rank's prime: the first to reach it, the configured one if any
        # draw there did, as the error bound counts those draws
        best, best_prime = -1, config.prime
        for prime, r in draws[n]:
            if r > best or r == best and prime == config.prime:
                best, best_prime = r, prime
        error_bound = 0.0
        if best < targets[n]:
            at_prime = sum(prime == config.prime for prime, _ in draws[n])
            error_bound = float(Fraction(degree, config.prime - 1) ** at_prime)
        primes_tried = tuple(dict.fromkeys(prime for prime, _ in draws[n]))
        attempts = len(draws[n])
        results[n] = ProbeResult(
            best, best_prime, attempts, attempts > len(moduli) - len(ALTERNATE_PRIMES), trials,
            primes_tried, error_bound,
        )
    return results


# --- the table runners, one index at a time -------------------------------------


def contained_hadamard_dimensions(descriptor, rs, config, contained) -> list:
    """The Hadamard reports of the vectors of `rs`, each bounded below by
    sigma_R and by its own entry of `contained`, a (computed_dim, prime) of
    a product it contains or None, and by nothing else; the unsettled ones
    probed together, each largest factor first."""
    parts, probes = [], []
    for r, inner in zip(rs, contained, strict=True):
        spec = HadamardSpec(r)
        *factors, lower_rep = secant_dimensions(descriptor, (*spec.r, spec.total_points), config)
        ambient, dim_x = lower_rep.ambient_dim, lower_rep.variety_dim
        factor_dims = tuple(rep.computed_dim for rep in factors)
        parameter_count = sum(factor_dims) - (spec.m - 1) * dim_x
        expected_h = min(parameter_count, ambient)
        bound = (lower_rep.computed_dim, lower_rep.prime)
        if inner is not None and inner[0] > bound[0]:
            bound = inner
        probe = None
        if bound[0] >= expected_h:
            probe = ProbeResult(bound[0] + 1, bound[1], 0, False, 0, (), 0.0)
        else:
            probed = sorted((min(rk, ambient + 1) for rk in spec.r), reverse=True)
            probes.append((HadamardSpec(probed), expected_h + 1))
        parts.append((spec, lower_rep, factor_dims, parameter_count, expected_h, probe))
    results = iter(
        probe_hadamard_ranks(eta_hadamard, descriptor.matrix(), probes, config) if probes else ()
    )
    return [_report(descriptor, *part[:-1], part[-1] or next(results), config) for part in parts]


def _answer(descriptor, rvecs: list, answered: dict, config) -> list:
    """`contained_hadamard_dimensions` of a run of r-vectors of one index,
    each bounded below by the products it contains that this run has
    answered, and recorded in `answered` (sorted r-vector -> (computed_dim,
    prime)) for the vectors after them.

    sigma_{r-1}(X) lies in sigma_r(X), and so the product with one r_k >= 3
    lowered by 1 lies in this one (the factors commute, so it is looked up
    re-sorted); the largest dimension among those answered is a certified
    lower bound on this product's.  Those products have a lower index, so
    none of them is in the run itself."""
    contained = []
    for rvec in rvecs:
        lower = (
            tuple(sorted((*rvec[:k], rk - 1, *rvec[k + 1:])))
            for k, rk in enumerate(rvec) if rk >= 3
        )
        contained.append(max((answered[v] for v in lower if v in answered), default=None))
    reps = contained_hadamard_dimensions(descriptor, rvecs, config, contained)
    for rvec, rep in zip(rvecs, reps):
        answered[tuple(sorted(rvec))] = (rep.computed_dim, rep.prime)
    return reps


def sequential_cases(cases, config) -> list:
    """The Hadamard report of each (descriptor, r-vector) case, in order: each
    run of cases on one descriptor, and in it each run of one index, asked
    for together."""
    reports = []
    for desc, run in itertools.groupby(cases, key=lambda case: case[0]):
        answered = {}
        rvecs = [rvec for _, rvec in run]
        for _, same in itertools.groupby(rvecs, key=lambda rvec: sum(rvec) - len(rvec) + 1):
            reports += _answer(desc, list(same), answered, config)
    return reports


def sequential_sweep(descriptor, m: int, config) -> list:
    """The Hadamard reports of the m-factor extended sweep of `descriptor`,
    one index at a time, stopping one index step after every report at an
    index has a parameter count that reaches the ambient dimension."""
    reports, answered = [], {}
    seen_saturated = False
    for big_r in range(m + 1, 31):
        same = _answer(descriptor, list(_tuples_with_index(m, big_r)), answered, config)
        reports += same
        if all(rep.parameter_count >= rep.ambient_dim for rep in same):
            if seen_saturated:
                break
            seen_saturated = True
    return reports


# --- the degeneration verifier over Fraction ------------------------------------


def fraction_monomials(rows, point) -> list[Fraction]:
    """Every column monomial of `rows` at `point`, in exact rationals."""
    return [
        math.prod((Fraction(x) ** row[h] for x, row in zip(point, rows)), start=Fraction(1))
        for h in range(len(rows[0]))
    ]


def fraction_eta(rows, r_prime, points) -> list[list[Fraction]]:
    """eta over Q by its definition rather than its closed form: row 0 is the
    sum of phi(y_0 * y_{1,j_1} * ... * y_{m,j_m}) over every index tuple,
    where j_k = 0 leaves factor k out, and the row of point i >= 1 sums the
    tuples that pick point i.  Points are ordered as for
    `_kernels_py.eta_of_columns`."""
    blocks, offset = [], 1
    for rp in r_prime:
        blocks.append(range(offset, offset + rp))
        offset += rp
    out = [[Fraction(0)] * len(rows[0]) for _ in points]
    for pick in itertools.product(*[(None, *block) for block in blocks]):
        chosen = [i for i in pick if i is not None]
        point = [math.prod(c) for c in zip(points[0], *(points[i] for i in chosen))]
        term = fraction_monomials(rows, point)
        for i in [0, *chosen]:
            out[i] = [a + b for a, b in zip(out[i], term)]
    return out


def fraction_scaled_family(abar, spec, points, nu):
    """(eta_nu, M_nu) over Q: eta at the points with their first coordinates
    scaled by nu, and eta_nu with its rows scaled by diag(1, 1/nu, ...,
    1/nu) and its columns by the inverse of its first row."""
    scaled = tuple((nu * pt[0],) + pt[1:] for pt in points)
    eta_nu = fraction_eta(abar.entries, spec.r_prime, scaled)
    if any(x == 0 for x in eta_nu[0]):
        raise ZeroDivisionError("degenerate points: first eta row has a zero")
    right = [1 / x for x in eta_nu[0]]
    left = (Fraction(1),) + (1 / nu,) * (len(points) - 1)
    m_nu = [[l * x * c for x, c in zip(row, right)] for l, row in zip(left, eta_nu)]
    return eta_nu, m_nu


def fraction_limit_matrix(abar, points) -> list[list[Fraction]]:
    """The nu -> 0 limit: all-ones first row, then the plain monomial rows."""
    out = [[Fraction(1)] * abar.n_cols]
    for pt in points[1:]:
        out.append(fraction_monomials(abar.entries, pt))
    return out


def fraction_khatri_rao(top, bottom) -> list[list[Fraction]]:
    return [
        [Fraction(a) * Fraction(b) for a, b in zip(trow, brow)]
        for trow in top
        for brow in bottom
    ]


def fraction_limit_check(abar, spec, points, nus, *, label: str = "") -> LimitCheckReport:
    """`degeneration.limit_check` computed on Fraction matrices, with the
    input checks of the verifier itself, as a test-only reference."""
    spec = spec if isinstance(spec, HadamardSpec) else HadamardSpec(tuple(spec))
    nus = _check_nus(nus)
    _check_chart_form(abar)
    _check_guard(abar, spec)
    pts = _check_points(abar, spec, points)
    failures: list[str] = []

    target = fraction_limit_matrix(abar, pts)
    max_errors = []
    row0_ok = True
    kr_ranks = []
    for nu in nus:
        eta_nu, m_nu = fraction_scaled_family(abar, spec, pts, nu)
        if any(x != 1 for x in m_nu[0]):
            row0_ok = False
            failures.append(f"nu={nu}: first row of M(nu) differs from all-ones")
        err = max(
            abs(a - b) for mrow, trow in zip(m_nu, target) for a, b in zip(mrow, trow)
        )
        max_errors.append(err)
        kr_ranks.append(rational_rank(fraction_khatri_rao(eta_nu, abar.entries)))

    ratios = []
    first_order_ok = True
    for bigger, smaller in zip(max_errors, max_errors[1:]):
        if smaller == 0:
            failures.append("error vanished exactly; ratio test degenerate")
            first_order_ok = False
            ratios.append(Fraction(0))
            continue
        q = bigger / smaller
        ratios.append(q)
        if not RATIO_BAND[0] <= q <= RATIO_BAND[1]:
            first_order_ok = False
            failures.append(
                f"error ratio {q} outside band [{RATIO_BAND[0]}, {RATIO_BAND[1]}]"
            )

    secant_eta = fraction_eta(abar.entries, (len(pts) - 1,), pts)
    secant_rank = rational_rank(secant_eta)
    limit_rank = rational_rank(target)
    stacked_rank = rational_rank(target + secant_eta)
    rowspan_ok = (
        secant_rank == spec.total_points
        and limit_rank == secant_rank
        and stacked_rank == secant_rank
    )
    if not rowspan_ok:
        failures.append(
            "row span mismatch: "
            f"secant rank {secant_rank}, limit rank {limit_rank}, "
            f"stacked rank {stacked_rank}, R = {spec.total_points}"
        )

    limit_kr_rank = rational_rank(fraction_khatri_rao(target, abar.entries))
    semicontinuity_ok = kr_ranks[-1] >= limit_kr_rank
    if not semicontinuity_ok:
        failures.append(
            f"semicontinuity violated: rank {kr_ranks[-1]} at nu={nus[-1]} "
            f"below limit rank {limit_kr_rank}"
        )

    return LimitCheckReport(
        descriptor=label,
        r=spec.r,
        nus=nus,
        max_errors=tuple(max_errors),
        error_ratios=tuple(ratios),
        ratio_band=RATIO_BAND,
        first_order_ok=first_order_ok,
        row0_exact_ok=row0_ok,
        rowspan_ok=rowspan_ok,
        secant_rank=secant_rank,
        limit_rank=limit_rank,
        limit_kr_rank=limit_kr_rank,
        kr_ranks=tuple(kr_ranks),
        semicontinuity_ok=semicontinuity_ok,
        dim_lower_bound=limit_kr_rank - 1,
        all_pass=not failures,
        failures=tuple(failures),
    )
