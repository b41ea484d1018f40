"""Exact linear algebra over the rationals.

`rational_rank` is exact, by a multi-modular elimination certified by
Hadamard's bound (Cabay 1971; von zur Gathen & Gerhard, *Modern Computer
Algebra*, ch. 5): it clears each row's denominators and takes the maximum
of the ranks modulo a fixed sequence of primes until a bound on the minors
proves that no larger rank is left.  `row_echelon` works over
fractions.Fraction, for the callers that need a rational basis and not only
a rank.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import lcm, prod

from . import kernels
from .modlinalg import ALTERNATE_PRIMES, DEFAULT_PRIME, is_probable_prime

# The primes `rational_rank` tries, in order: DEFAULT_PRIME, ALTERNATE_PRIMES,
# then the primes below all of them, downwards.  The list only grows, on
# demand, and is the same in every run; none is searched for at import.
_PRIMES = [DEFAULT_PRIME, *ALTERNATE_PRIMES]


def _prime(i: int) -> int:
    """The i-th prime of the sequence, found with `is_probable_prime`
    (deterministic at this size) the first time it is asked for."""
    while len(_PRIMES) <= i:
        n = min(_PRIMES) - 2
        while not is_probable_prime(n):
            n -= 2
        _PRIMES.append(n)
    return _PRIMES[i]


def row_echelon(rows):
    """Reduce a copy of `rows` to reduced row echelon form over the rationals.

    Returns (echelon_rows, pivot_columns); zero rows are dropped, so the rank
    is len(pivot_columns).
    """
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def _integer_row(row) -> list[int]:
    """`row` (ints or Fractions) times the lcm of its denominators."""
    den = lcm(*[x.denominator for x in row])
    return [x.numerator * (den // x.denominator) for x in row]


def rational_rank(rows) -> int:
    """Rank over Q of a matrix of ints or Fractions, exact.

    After clearing denominators the rank over Q is at least the rank b
    modulo any prime.  It is more than b only if some (b+1)-minor is a
    nonzero integer; by Hadamard's inequality its absolute value is at most
    H, the product of the b+1 largest row norms, and every prime that gave
    rank at most b divides it.  So once the product of the primes tried
    exceeds H (compared squared, in integers), b is the rank.  ValueError
    when the rows have different lengths.
    """
    mat = [_integer_row(row) for row in rows]
    if any(len(row) != len(mat[0]) for row in mat):
        raise ValueError("rows have different lengths")
    full = min(len(mat), len(mat[0])) if mat else 0
    norms2 = sorted((sum(x * x for x in row) for row in mat), reverse=True)
    best, modulus = -1, 1
    for i in count():
        p = _prime(i)
        rank = kernels.rank_mod(mat, p)
        if rank > best:
            best = rank
            bound2 = prod(norms2[:best + 1])
        modulus *= p
        if best == full or modulus * modulus > bound2:
            return best
