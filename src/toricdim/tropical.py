"""Tropical side of the toolkit: binomial-support detection, linear-space
tropicalizations of toric varieties, and the infinite-rank criterion.

For a monomial-parametrized variety the tropicalization is the row span of
the exponent matrix, so every statement here reduces to exact rational rank
computations.  Fans, weights and balancing never enter.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._rational import rational_rank, row_echelon
from .exponent import ExponentMatrix

VERDICT_POINT = "point"
VERDICT_BINOMIAL = "binomial-segment"
VERDICT_SEGMENT_INTERIOR = "segment-with-interior-points"
VERDICT_NOT_SEGMENT = "not-a-segment"


@dataclass(frozen=True)
class Support:
    """Exponent vectors of the monomials appearing in a polynomial.

    Coefficients are not stored; callers are responsible for passing the
    support of a concise, irreducible polynomial where the binomial
    conclusions require it.
    """

    vectors: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.vectors:
            raise ValueError("support must be non-empty")
        width = len(self.vectors[0])
        if any(len(v) != width for v in self.vectors):
            raise ValueError("support vectors must share one length")
        if len(set(self.vectors)) != len(self.vectors):
            raise ValueError("support vectors must be pairwise distinct")
        if any(x < 0 for v in self.vectors for x in v):
            raise ValueError("support vectors must be nonnegative")

    @staticmethod
    def of(vectors) -> "Support":
        return Support(tuple(tuple(int(x) for x in v) for v in vectors))

    @property
    def size(self) -> int:
        return len(self.vectors)

    def is_collinear(self) -> bool:
        """True when all points lie on one line (includes sizes 1 and 2)."""
        base = self.vectors[0]
        diffs = [[x - b for x, b in zip(v, base)] for v in self.vectors[1:]]
        if not diffs:
            return True
        return rational_rank(diffs) <= 1


def classify_support(support: Support) -> str:
    """Shape of the Newton polytope of a support.  A binomial segment (a
    segment with no interior support points) is exactly a two-term support;
    collinear supports with three or more points indicate a reducible
    polynomial (a univariate factorization after a monomial change of
    coordinates), which we surface separately."""
    if support.size == 1:
        return VERDICT_POINT
    if support.size == 2:
        return VERDICT_BINOMIAL
    if support.is_collinear():
        return VERDICT_SEGMENT_INTERIOR
    return VERDICT_NOT_SEGMENT


def _rows(mat) -> list[list[Fraction]]:
    entries = mat.entries if isinstance(mat, ExponentMatrix) else mat
    return [[Fraction(x) for x in row] for row in entries]


@dataclass(frozen=True)
class TropicalSpan:
    """Row-span tropicalization: basis rows in echelon form."""

    basis: tuple[tuple[Fraction, ...], ...]
    n_cols: int

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def projective_dim(self) -> int:
        return len(self.basis) - 1


def trop_toric(mat) -> TropicalSpan:
    """Tropicalization of the affine cone of a monomial-parametrized variety
    as a linear space: the row span of the exponent matrix.  Its dimension is
    the matrix rank; subtract one for the projective variety."""
    rows = _rows(mat)
    echelon, _ = row_echelon(rows)
    return TropicalSpan(tuple(tuple(r) for r in echelon), len(rows[0]))


@dataclass(frozen=True)
class HadamardSumReport:
    """Ranks of the Minkowski sum of two tropicalized toric varieties."""

    n_cols: int
    rank_a: int
    rank_b: int
    sum_rank: int

    @property
    def projective_sum_dim(self) -> int:
        return self.sum_rank - 1

    def to_dict(self) -> dict:
        return {
            "n_cols": self.n_cols,
            "rank_a": self.rank_a,
            "rank_b": self.rank_b,
            "sum_rank": self.sum_rank,
            "projective_sum_dim": self.projective_sum_dim,
        }


def trop_hadamard_sum(a, b) -> HadamardSumReport:
    """Compute the tropicalization of a Hadamard product of two toric
    varieties as the Minkowski (= linear-space) sum of their spans.

    The sum is realized as the row span of the stacked matrices, so its
    rank sits between max(rank_a, rank_b) and rank_a + rank_b.
    """
    rows_a = _rows(a)
    rows_b = _rows(b)
    if len(rows_a[0]) != len(rows_b[0]):
        raise ValueError("column counts differ")
    return HadamardSumReport(
        n_cols=len(rows_a[0]),
        rank_a=rational_rank(rows_a),
        rank_b=rational_rank(rows_b),
        sum_rank=rational_rank(rows_a + rows_b),
    )


def infinite_generic_hrank_toric(mat) -> bool:
    """True when generic Hadamard ranks with respect to the variety are
    infinite: the exponent matrix has a nonzero integer kernel vector, i.e.
    its rank is below the number of columns.  Such a kernel vector is a
    two-term multiplicative relation among the coordinates, preserved under
    coordinatewise products, so every Hadamard combination of points of the
    variety satisfies it while a generic ambient point does not.  Full
    column rank means the variety fills the ambient space, where rank one
    already suffices."""
    rows = _rows(mat)
    return rational_rank(rows) < len(rows[0])
