"""Exact verification of the secant-to-Hadamard degeneration.

The dimension chain rests on one construction: scaling the first coordinate
of every parameter point by nu and rescaling the Jacobian coefficient matrix
back (rows by diag(1, 1/nu, ..., 1/nu), columns by the inverse of its first
row) produces a family whose limit at nu -> 0 has the row span of the secant
coefficient matrix.  This module rebuilds that family exactly, one scale at
a time (`scaled_family`), and verifies, at finitely many nu,

  (a) first-order convergence to the limit matrix (error ratio test),
  (b) the first row is identically all-ones, exactly, for every nu: it is
      m_num[0] / m_den[0] with both eta_nu[0], so it holds by construction
      once `scaled_family` returns, which raises on a zero in that row,
  (c) the limit matrix spans the same rows as the secant coefficient matrix,
  (d) rank semicontinuity: the scaled product matrix keeps at least the rank
      of the limit product matrix, which lower-bounds the Hadamard dimension.

Every check is exact, on integer matrices: the matrices over Q at known
positive row and column scales, which change no rank.  Their ranks are
exact (`_rational.rational_rank`): a full rank modulo the first prime is
certified at once, and a short one by a multi-modular elimination that
Hadamard's bound on the rows or the columns certifies; only the reported
errors and their ratios are fractions.Fraction.  There is no tolerance
anywhere except the explicit ratio band of check (a).  `demo_points` also
works over F_p directly, to reject draws that are degenerate or not generic
before the exact checks run.  The coefficient matrices come from the eta
formula over the integers (`_kernels_py.eta_of_columns`), the one the F_p
engines probe; a secant variety is its one-factor case.

Conventions: the input is one flat point tuple Y = (y_1 | ... | y_R) with
y_1 = all-ones; the scaled points feed the Hadamard construction with y_1
playing the shared point and the rest the (k, j) blocks in factor-major
order.  The exponent matrix must be in chart form (all-ones first row,
first column (1, 0, ..., 0)), which makes every monomial linear in the
first coordinate.
"""

from fractions import Fraction
from math import lcm, prod
import random
from typing import NamedTuple

from . import kernels
from ._kernels_py import eta_of_columns
from ._rational import rational_rank
from .exponent import ExponentMatrix, HadamardSpec
from .modlinalg import DEFAULT_PRIME, random_torus_points

# Exact rational arithmetic stays fast only at small scale.
MAX_TOTAL_ROWS = 64  # R * (rows of the chart matrix)
MAX_AMBIENT = 128

DEFAULT_NUS = (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000))
# Check (a) passes when each ratio of successive errors lies in this band.
RATIO_BAND = (Fraction(5), Fraction(20))
# `demo_points` draws coordinates 1 + a/D with a from [LOW, HIGH] (widened
# upwards for many points) and resamples at most MAX_RESAMPLE times.
LOW, HIGH = 2, 17
MAX_RESAMPLE = 8


def eta_secant_exact(cols, scale) -> list[list[int]]:
    """Integer twin of `secantdim.eta_secant`: the one-factor eta of the
    columns cols[i] = scale * phi(points[i]), times diag(scale^2)."""
    return eta_of_columns(cols, (len(cols) - 1,), one=scale)


def eta_hadamard_exact(cols, spec: HadamardSpec, scale) -> list[list[int]]:
    """Integer twin of `hadamdim.eta_hadamard`: the eta of the columns
    cols[i] = scale * phi(points[i]), times a positive column scale."""
    return eta_of_columns(cols, spec.r_prime, one=scale)


def khatri_rao_exact(top, bottom) -> list[list[int]]:
    return [[a * b for a, b in zip(trow, brow)] for trow in top for brow in bottom]


def _check_chart_form(abar: ExponentMatrix) -> None:
    if any(x != 1 for x in abar.entries[0]):
        raise ValueError("matrix not in chart form: first row must be all ones")
    if abar.column(0) != (1,) + (0,) * (abar.n_rows - 1):
        raise ValueError("matrix not in chart form: first column must be (1,0,...,0)")


def _check_points(abar: ExponentMatrix, spec: HadamardSpec, points) -> tuple:
    pts = tuple(tuple(Fraction(x) for x in pt) for pt in points)
    if len(pts) != spec.total_points:
        raise ValueError(f"need {spec.total_points} points, got {len(pts)}")
    if any(len(pt) != abar.n_rows for pt in pts):
        raise ValueError("point width must equal the matrix row count")
    if any(x == 0 for pt in pts for x in pt):
        raise ValueError("torus points must have nonzero coordinates")
    if pts[0] != (Fraction(1),) * abar.n_rows:
        raise ValueError("first point must be the all-ones vector")
    return pts


def _check_guard(abar: ExponentMatrix, spec: HadamardSpec) -> None:
    if spec.total_points < 2:
        raise ValueError(
            f"R = {spec.total_points} point makes M(nu) equal to its limit, so "
            "the error ratio test has no error to compare (limit: R >= 2)"
        )
    if spec.total_points * abar.n_rows > MAX_TOTAL_ROWS or abar.ambient_dim > MAX_AMBIENT:
        raise ValueError(
            "instance too large for exact rational verification "
            f"(limits: R*rows <= {MAX_TOTAL_ROWS}, N <= {MAX_AMBIENT})"
        )


def _check_nus(nus) -> tuple[Fraction, ...]:
    """The ratio test of check (a) needs at least two scales."""
    nus = tuple(Fraction(nu) for nu in nus)
    if len(nus) < 2 or any(nu <= 0 for nu in nus) or any(
        later >= earlier for later, earlier in zip(nus[1:], nus)
    ):
        raise ValueError(
            "need a strictly decreasing, positive nu sequence of at least two values"
        )
    return nus


def scaled_family(spec: HadamardSpec, cols, scale, nu):
    """The family at nu = a/b > 0 from the (cols, scale) of `limit_matrix`,
    in integers: (eta_nu, m_num, m_den).  phi at the nu-scaled points is
    nu * phi, so eta_nu is the eta of a * cols at the column scale
    b * scale.  M(nu), eta_nu with its rows scaled by diag(1, 1/nu, ...)
    and its columns by the inverse of its first row, is m_num / m_den."""
    a, b = nu.numerator, nu.denominator
    cols_nu, scale_nu = [[a * x for x in col] for col in cols], [b * c for c in scale]
    eta_nu = eta_hadamard_exact(cols_nu, spec, scale_nu)
    if any(x == 0 for x in eta_nu[0]):
        raise ZeroDivisionError("degenerate points: first eta row has a zero")
    m_num = [eta_nu[0]] + [[b * x for x in row] for row in eta_nu[1:]]
    m_den = [eta_nu[0]] + [[a * x for x in eta_nu[0]]] * (len(eta_nu) - 1)
    return eta_nu, m_num, m_den


def limit_matrix(abar: ExponentMatrix, points) -> tuple[list[list[int]], list[int]]:
    """The nu -> 0 limit (all-ones, then phi at each later point) as (rows,
    scale): the limit times diag(scale), in integers, with scale[h] > 0 the lcm
    of the denominators of column h.  Row i is scale * phi(points[i])."""
    fracs = []
    for pt in points:
        nd = [(x.numerator, x.denominator) for x in pt]
        row = []
        for exps in zip(*abar.entries):
            num = prod(n**e if e > 0 else d**-e for (n, d), e in zip(nd, exps))
            den = prod(d**e if e > 0 else n**-e for (n, d), e in zip(nd, exps))
            row.append((num, den) if den > 0 else (-num, -den))
        fracs.append(row)
    scale = [lcm(*(row[h][1] for row in fracs)) for h in range(abar.n_cols)]
    return [[n * (c // d) for (n, d), c in zip(row, scale)] for row in fracs], scale


class LimitCheckReport(NamedTuple):
    descriptor: str
    r: tuple[int, ...]
    nus: tuple[Fraction, ...]
    max_errors: tuple[Fraction, ...]
    error_ratios: tuple[Fraction, ...]
    ratio_band: tuple[Fraction, Fraction]
    first_order_ok: bool
    row0_exact_ok: bool
    rowspan_ok: bool
    secant_rank: int
    limit_rank: int
    limit_kr_rank: int
    kr_ranks: tuple[int, ...]
    semicontinuity_ok: bool
    dim_lower_bound: int
    all_pass: bool
    failures: tuple[str, ...]


def limit_check(
    abar: ExponentMatrix, spec, points, nus=DEFAULT_NUS, *, label: str = ""
) -> LimitCheckReport:
    """Run all degeneration checks on R >= 2 points, at each nu in a strictly
    decreasing list of at least two values."""
    spec = spec if isinstance(spec, HadamardSpec) else HadamardSpec(tuple(spec))
    nus = _check_nus(nus)
    _check_chart_form(abar)
    _check_guard(abar, spec)
    pts = _check_points(abar, spec, points)
    failures: list[str] = []

    target, scale = limit_matrix(abar, pts)
    max_errors, kr_ranks = [], []
    for nu in nus:
        eta_nu, m_num, m_den = scaled_family(spec, target, scale, nu)
        # |M(nu) - limit| is |n * c - d * t| / |d * c|, compared crosswise.
        err_num, err_den = 0, 1
        for nrow, drow, trow in zip(m_num, m_den, target):
            for n, d, t, c in zip(nrow, drow, trow, scale):
                num, den = abs(n * c - d * t), abs(d * c)
                if num * err_den > err_num * den:
                    err_num, err_den = num, den
        max_errors.append(Fraction(err_num, err_den))
        kr_ranks.append(rational_rank(khatri_rao_exact(eta_nu, abar.entries)))

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

    # The secant rows are at the column scale scale^2: stack the limit there.
    secant_eta = eta_secant_exact(target, scale)
    secant_rank = rational_rank(secant_eta)
    limit_rank = rational_rank(target)
    stacked = [[x * c for x, c in zip(row, scale)] for row in target] + secant_eta
    stacked_rank = rational_rank(stacked)
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

    limit_kr_rank = rational_rank(khatri_rao_exact(target, abar.entries))
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
        row0_exact_ok=True,  # check (b), by construction
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


def demo_points(
    abar: ExponentMatrix, spec, seed: int = 0, *, nus=DEFAULT_NUS
) -> tuple[tuple[Fraction, ...], ...]:
    """Sample points for the convergence demo: the all-ones vector plus
    near-identity rational points 1 + a/D with integers a in [LOW, HIGH]
    and D = 128 * (largest absolute column degree).  Each coordinate takes
    distinct values across the points; [LOW, HIGH] is widened upwards only
    when there are more points than values.

    Points this close to all-ones keep every monomial value within a small
    constant of 1, so the first error term of the scaled family dominates
    already at the default scale values and the ratio test is meaningful.
    Farther points converge too, but only at far smaller scales: the error
    saturates while nu * (sum of monomial values) stays large.

    ValueError, before any draw, when `nus` is not a strictly decreasing,
    positive sequence of at least two values, R < 2, the instance is beyond
    the exact verifier's limits or R exceeds the column count.

    Draw `attempt` seeds its candidate points with (seed + attempt) mod
    2^64, as the F_p draws take their seeds, so a negative seed draws points
    of its own.  Resamples (bounded) when a draw is degenerate or not
    generic.  Reduced mod DEFAULT_PRIME, the draw's secant coefficient
    matrix must have full row rank R (so it has over Q too), and its
    Khatri-Rao product with the matrix must reach the rank that product has
    at random F_p torus points.  Neither rank builds that matrix: its rows
    v (1 + sum_j w_j) and v w_j, v = phi(y_1), w_j = phi(y_j), span the rows
    v and v w_j, so its product has the rank of the one-factor walk
    `kernels.hadamard_ranks_mod`, and, as the candidate's y_1 is all ones,
    it has the rank of the monomial rows phi(y_1), ..., phi(y_R).
    Once check (c) of `limit_check` holds, the limit product has the rank of
    that product over Q, which is at least its rank over F_p, so the
    certified bound is the generic one.  No column scaling entry can vanish
    at a positive scale: every coordinate is positive, so the first row of
    the scaled eta is a product of positive rationals.
    """
    _check_nus(nus)
    spec = spec if isinstance(spec, HadamardSpec) else HadamardSpec(tuple(spec))
    _check_guard(abar, spec)
    R = spec.total_points
    if R > abar.n_cols:
        raise ValueError(
            f"R = {R} points exceed the {abar.n_cols} columns, so the secant "
            f"coefficient matrix never has rank R (limit: R <= {abar.n_cols})"
        )
    rows = abar.entries
    denom = 128 * max(sum(abs(e) for e in col) for col in zip(*rows))
    p = DEFAULT_PRIME
    secant = [(R - 1,)]  # sigma_R, the one-factor walk
    generic_rank = kernels.hadamard_ranks_mod(
        rows, secant, random_torus_points(R, abar.n_rows, seed, p), p
    )[0]
    values = range(LOW, max(HIGH, LOW + R - 2) + 1)
    for attempt in range(MAX_RESAMPLE):
        rng = random.Random((seed + attempt) % 2**64)
        columns = [rng.sample(values, R - 1) for _ in range(abar.n_rows)]
        candidate = ((Fraction(1),) * abar.n_rows,) + tuple(
            tuple(Fraction(denom + a, denom) for a in pt) for pt in zip(*columns)
        )
        pts = [[x.numerator * pow(x.denominator, -1, p) % p for x in pt] for pt in candidate]
        if (
            kernels.rank_mod([kernels.eval_columns_mod(rows, pt, p) for pt in pts], p) >= R
            and kernels.hadamard_ranks_mod(rows, secant, pts, p)[0] >= generic_rank
        ):
            return candidate
    raise ValueError("could not sample nondegenerate demo points")
