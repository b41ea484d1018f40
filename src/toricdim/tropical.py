"""Newton-polytope side of the toolkit: binomial-support detection.

`classify_support` names the shape of the Newton polytope of a support: a
point, a binomial segment, a segment with interior support points, or not a
segment.  Collinearity is one exact rational rank (`_rational.rational_rank`).
"""

from typing import NamedTuple

from ._rational import rational_rank

VERDICT_POINT = "point"
VERDICT_BINOMIAL = "binomial-segment"
VERDICT_SEGMENT_INTERIOR = "segment-with-interior-points"
VERDICT_NOT_SEGMENT = "not-a-segment"


class _Support(NamedTuple):
    vectors: tuple[tuple[int, ...], ...]


class Support(_Support):
    """Exponent vectors of the monomials appearing in a polynomial.

    Coefficients are not stored; callers are responsible for passing the
    support of a concise, irreducible polynomial where the binomial
    conclusions require it.
    """

    __slots__ = ()

    def __new__(cls, vectors):
        if not vectors:
            raise ValueError("support must be non-empty")
        width = len(vectors[0])
        if any(len(v) != width for v in vectors):
            raise ValueError("support vectors must share one length")
        if len(set(vectors)) != len(vectors):
            raise ValueError("support vectors must be pairwise distinct")
        if any(x < 0 for v in vectors for x in v):
            raise ValueError("support vectors must be nonnegative")
        return super().__new__(cls, vectors)

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
