"""Exact-rational verification of the secant-to-Hadamard degeneration.

The dimension chain rests on one construction: scaling the first coordinate
of every parameter point by nu and rescaling the Jacobian coefficient matrix
back (rows by diag(1, 1/nu, ..., 1/nu), columns by the inverse of its first
row) produces a family whose limit at nu -> 0 has the row span of the secant
coefficient matrix.  This module rebuilds that family over exact rationals
and verifies, at finitely many nu,

  (a) first-order convergence to the limit matrix (error ratio test),
  (b) the first row is identically all-ones, exactly, for every nu,
  (c) the limit matrix spans the same rows as the secant coefficient matrix,
  (d) rank semicontinuity: the scaled product matrix keeps at least the rank
      of the limit product matrix, which lower-bounds the Hadamard dimension.

Every check is exact: the matrices are fractions.Fraction, and their ranks
are exact ranks over Q, by a multi-modular elimination certified by
Hadamard's bound (`_rational.rational_rank`).  There is no tolerance
anywhere except the explicit ratio band of check (a).  `demo_points` also
works over F_p directly, to reject draws that are degenerate or not generic
before the exact checks run.  The coefficient matrices come from the one
eta construction, `probing.eta`, with no prime: the same formula the F_p
engines probe, and a secant variety is its one-factor case.

Conventions: the input is one flat point tuple Y = (y_1 | ... | y_R) with
y_1 = all-ones; the scaled points feed the Hadamard construction with y_1
playing the shared point and the rest the (k, j) blocks in factor-major
order.  The exponent matrix must be in chart form (all-ones first row,
first column (1, 0, ..., 0)), which makes every monomial linear in the
first coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
import random

from . import kernels
from ._rational import rational_rank
from .exponent import ExponentMatrix, HadamardSpec
from .modlinalg import DEFAULT_PRIME, random_torus_points
from .probing import eta, eval_columns_exact
from .secantdim import eta_secant

# Exact rational arithmetic stays fast only at small scale.
MAX_TOTAL_ROWS = 64  # R * (rows of the chart matrix)
MAX_AMBIENT = 128

DEFAULT_NUS = (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000))
DEFAULT_RATIO_BAND = (Fraction(5), Fraction(20))


def eta_secant_exact(rows, points) -> list[list[Fraction]]:
    """Rational twin of `secantdim.eta_secant`: `probing.eta`, one factor."""
    return eta(rows, (len(points) - 1,), points)


def eta_hadamard_exact(rows, spec: HadamardSpec, points) -> list[list[Fraction]]:
    """Rational twin of `hadamdim.eta_hadamard`: `probing.eta` over Fraction."""
    return eta(rows, spec.r_prime, points)


def khatri_rao_exact(top, bottom) -> list[list[Fraction]]:
    out = []
    for trow in top:
        for brow in bottom:
            out.append([Fraction(a) * Fraction(b) for a, b in zip(trow, brow)])
    return out


def _check_chart_form(abar: ExponentMatrix) -> None:
    if any(x != 1 for x in abar.entries[0]):
        raise ValueError("matrix not in chart form: first row must be all ones")
    first_col = abar.column(0)
    if first_col != (1,) + (0,) * (abar.n_rows - 1):
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
    if spec.total_points * abar.n_rows > MAX_TOTAL_ROWS or abar.ambient_dim > MAX_AMBIENT:
        raise ValueError(
            "instance too large for exact rational verification "
            f"(limits: R*rows <= {MAX_TOTAL_ROWS}, N <= {MAX_AMBIENT})"
        )


@dataclass(frozen=True)
class DegenerationFamily:
    """One member of the scaling family at a fixed nonzero nu."""

    abar: ExponentMatrix
    spec: HadamardSpec
    points: tuple[tuple[Fraction, ...], ...]
    nu: Fraction

    @cached_property
    def scaled_points(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple((self.nu * pt[0],) + pt[1:] for pt in self.points)

    @cached_property
    def eta_scaled(self) -> list[list[Fraction]]:
        return eta_hadamard_exact(self.abar.entries, self.spec, self.scaled_points)

    @property
    def left_diag(self) -> tuple[Fraction, ...]:
        """Diagonal of the row scaling diag(1, 1/nu, ..., 1/nu)."""
        return (Fraction(1),) + (1 / self.nu,) * (self.spec.total_points - 1)

    @cached_property
    def right_diag(self) -> tuple[Fraction, ...]:
        """Diagonal of the column scaling: inverse of the first eta row."""
        row0 = self.eta_scaled[0]
        if any(x == 0 for x in row0):
            raise ZeroDivisionError("degenerate points: first eta row has a zero")
        return tuple(1 / x for x in row0)

    @cached_property
    def scaled_matrix(self) -> list[list[Fraction]]:
        """M(nu): rows scaled by left_diag, columns by right_diag."""
        left = self.left_diag
        right = self.right_diag
        return [
            [l * x * c for x, c in zip(row, right)]
            for l, row in zip(left, self.eta_scaled)
        ]


def build_family(abar: ExponentMatrix, spec, points, nu) -> DegenerationFamily:
    """Validate inputs and assemble one scaled family member."""
    spec = spec if isinstance(spec, HadamardSpec) else HadamardSpec(tuple(spec))
    nu = Fraction(nu)
    if nu == 0:
        raise ValueError("nu must be nonzero")
    _check_chart_form(abar)
    _check_guard(abar, spec)
    pts = _check_points(abar, spec, points)
    return DegenerationFamily(abar, spec, pts, nu)


def limit_matrix(abar: ExponentMatrix, points) -> list[list[Fraction]]:
    """The nu -> 0 limit: all-ones first row, then the plain monomial rows."""
    out = [[Fraction(1)] * abar.n_cols]
    for pt in points[1:]:
        out.append(eval_columns_exact(abar.entries, pt))
    return out


@dataclass(frozen=True)
class LimitCheckReport:
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

    def to_dict(self) -> dict:
        return {
            "descriptor": self.descriptor,
            "r": list(self.r),
            "nus": [str(nu) for nu in self.nus],
            "max_errors": [str(e) for e in self.max_errors],
            "error_ratios": [str(q) for q in self.error_ratios],
            "ratio_band": [str(self.ratio_band[0]), str(self.ratio_band[1])],
            "first_order_ok": self.first_order_ok,
            "row0_exact_ok": self.row0_exact_ok,
            "rowspan_ok": self.rowspan_ok,
            "secant_rank": self.secant_rank,
            "limit_rank": self.limit_rank,
            "limit_kr_rank": self.limit_kr_rank,
            "kr_ranks": list(self.kr_ranks),
            "semicontinuity_ok": self.semicontinuity_ok,
            "dim_lower_bound": self.dim_lower_bound,
            "all_pass": self.all_pass,
            "failures": list(self.failures),
        }


def limit_check(
    abar: ExponentMatrix,
    spec,
    points,
    nus=DEFAULT_NUS,
    *,
    ratio_band=DEFAULT_RATIO_BAND,
    label: str = "",
) -> LimitCheckReport:
    """Run all degeneration checks at each nu in a strictly decreasing list."""
    spec = spec if isinstance(spec, HadamardSpec) else HadamardSpec(tuple(spec))
    nus = tuple(Fraction(nu) for nu in nus)
    if not nus or any(nu <= 0 for nu in nus) or any(
        later >= earlier for later, earlier in zip(nus[1:], nus)
    ):
        raise ValueError("need a strictly decreasing, positive nu sequence")
    _check_chart_form(abar)
    _check_guard(abar, spec)
    pts = _check_points(abar, spec, points)
    failures: list[str] = []

    target = limit_matrix(abar, pts)
    max_errors = []
    row0_ok = True
    kr_ranks = []
    for nu in nus:
        fam = DegenerationFamily(abar, spec, pts, nu)
        m_matrix = fam.scaled_matrix
        if any(x != 1 for x in m_matrix[0]):
            row0_ok = False
            failures.append(f"nu={nu}: first row of M(nu) differs from all-ones")
        err = max(
            abs(a - b) for mrow, trow in zip(m_matrix, target) for a, b in zip(mrow, trow)
        )
        max_errors.append(err)
        kr_ranks.append(rational_rank(khatri_rao_exact(fam.eta_scaled, abar.entries)))

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
        if not ratio_band[0] <= q <= ratio_band[1]:
            first_order_ok = False
            failures.append(
                f"error ratio {q} outside band [{ratio_band[0]}, {ratio_band[1]}]"
            )

    secant_eta = eta_secant_exact(abar.entries, pts)
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
        ratio_band=(Fraction(ratio_band[0]), Fraction(ratio_band[1])),
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


def _max_column_degree(abar: ExponentMatrix) -> int:
    return max(
        sum(abs(row[h]) for row in abar.entries) for h in range(abar.n_cols)
    )


def demo_points(
    abar: ExponentMatrix,
    spec,
    seed: int = 0,
    *,
    nus=DEFAULT_NUS,
    low: int = 2,
    high: int = 17,
    max_resample: int = 8,
) -> tuple[tuple[Fraction, ...], ...]:
    """Sample points for the convergence demo: the all-ones vector plus
    near-identity rational points 1 + a/D with integers a in [low, high]
    and D = 128 * (largest absolute column degree).  Each coordinate takes
    distinct values across the points; [low, high] is widened upwards only
    when there are more points than values.

    Points this close to all-ones keep every monomial value within a small
    constant of 1, so the first error term of the scaled family dominates
    already at the default scale values and the ratio test is meaningful.
    Farther points converge too, but only at far smaller scales: the error
    saturates while nu * (sum of monomial values) stays large.

    ValueError, before any draw, when the instance is beyond the exact
    verifier's limits or R exceeds the column count.

    Resamples (bounded) when a draw is degenerate or not generic.  Reduced
    mod DEFAULT_PRIME, the draw's secant coefficient matrix must have full
    row rank R (so it has over Q too), and its Khatri-Rao product with the
    matrix must reach the rank that product has at random F_p torus points.
    Once check (c) of `limit_check` holds, the limit product has the rank of
    that product over Q, which is at least its rank over F_p, so the
    certified bound is the generic one.  Last, no column scaling entry may
    vanish at one of the probe scales.
    """
    spec = spec if isinstance(spec, HadamardSpec) else HadamardSpec(tuple(spec))
    _check_guard(abar, spec)
    R = spec.total_points
    if R > abar.n_cols:
        raise ValueError(
            f"R = {R} points exceed the {abar.n_cols} columns, so the secant "
            f"coefficient matrix never has rank R (limit: R <= {abar.n_cols})"
        )
    rows = abar.row_lists()
    p = DEFAULT_PRIME
    generic_rank = kernels.kr_rank_mod(
        eta_secant(rows, random_torus_points(R, abar.n_rows, seed, p), p), rows, p
    )
    denom = 128 * _max_column_degree(abar)
    values = range(low, max(high, low + R - 2) + 1)
    for attempt in range(max_resample):
        rng = random.Random(seed + attempt)
        columns = [rng.sample(values, R - 1) for _ in range(abar.n_rows)]
        candidate = ((Fraction(1),) * abar.n_rows,) + tuple(
            tuple(Fraction(denom + a, denom) for a in pt) for pt in zip(*columns)
        )
        secant_mod_p = eta_secant(
            rows,
            [[x.numerator * pow(x.denominator, -1, p) for x in pt] for pt in candidate],
            p,
        )
        if (
            kernels.rank_mod(secant_mod_p, p) < R
            or kernels.kr_rank_mod(secant_mod_p, rows, p) < generic_rank
        ):
            continue
        try:
            for nu in nus:
                build_family(abar, spec, candidate, nu).right_diag
        except ZeroDivisionError:
            continue
        return candidate
    raise ValueError("could not sample nondegenerate demo points")
