"""Exact linear algebra over the rationals.

`rational_rank` is exact: it clears each row's denominators and takes the
rank modulo a first prime, which certifies a full rank at once, and a short
one with the left kernel modulo that prime, lifted to integers and checked
exactly (a rank certificate: Kaltofen, Nehring & Saunders, ISSAC 2011).
Only when that check fails does it take the maximum of the ranks modulo a
fixed sequence of primes, until Hadamard's bound on the minors proves that
no larger rank is left (Cabay 1971; von zur Gathen & Gerhard, *Modern
Computer Algebra*, ch. 5).  No floating point anywhere.
"""

from itertools import count
from math import gcd, lcm, prod

from . import kernels
from .modlinalg import ALTERNATE_PRIMES, DEFAULT_PRIME, is_probable_prime

# The first 61 primes below ALTERNATE_PRIMES, downwards, as offsets below
# DEFAULT_PRIME: the consecutive primes `_prime` would search for, stored so
# that a run does not search (a short rank the kernel misses may use 100+).
_STORED_OFFSETS = (
    44, 228, 258, 282, 338, 390, 402, 464, 530, 578, 674, 758, 798, 818,
    828, 842, 858, 938, 984, 1014, 1152, 1194, 1214, 1280, 1298, 1350, 1370,
    1424, 1488, 1524, 1532, 1542, 1608, 1620, 1668, 1740, 1752, 1812, 1844,
    1848, 1854, 1862, 1868, 1908, 1920, 1922, 1944, 1958, 2022, 2082, 2114,
    2132, 2184, 2370, 2372, 2382, 2384, 2400, 2538, 2550, 2594,
)
# The primes `rational_rank` tries, in order: DEFAULT_PRIME, ALTERNATE_PRIMES,
# then the primes below all of them, downwards.  The list only grows, on
# demand past the stored ones, and is the same in every run.
_PRIMES = [DEFAULT_PRIME, *ALTERNATE_PRIMES, *(DEFAULT_PRIME - d for d in _STORED_OFFSETS)]


def _prime(i: int) -> int:
    """The i-th prime of the sequence; past the stored ones, found with
    `is_probable_prime` (deterministic at this size) the first time it is
    asked for."""
    while len(_PRIMES) <= i:
        n = min(_PRIMES) - 2
        while not is_probable_prime(n):
            n -= 2
        _PRIMES.append(n)
    return _PRIMES[i]


def _cleared(row) -> list[int]:
    """`row` (ints or Fractions) times the lcm of its denominators."""
    if all(type(x) is int for x in row):
        return list(row)
    den = lcm(*[x.denominator for x in row])
    return [x.numerator * (den // x.denominator) for x in row]


def _primitive(mat: list[list[int]]) -> list[list[int]]:
    """The integer matrix `mat` with every row's and then every column's
    content divided out: the same rank, and smaller entries to bound."""
    mat = [[x // g for x in row] if (g := gcd(*row)) > 1 else row for row in mat]
    contents = [gcd(*col) for col in zip(*mat)]
    if any(g > 1 for g in contents):
        mat = [[x // g if g else x for x, g in zip(row, contents)] for row in mat]
    return mat


def _left_kernel_certifies(mat: list[list[int]], rank: int, p: int) -> bool:
    """Whether at least len(mat) - rank independent integer vectors y have
    y.mat = 0, which proves that `mat` has rank at most `rank` over Q.  The
    vectors are the left kernel basis modulo p that the reduced echelon
    form of mat^T gives, up to `rank` pivots: an identity block on the free
    coordinates, which keeps them independent, and every other entry lifted
    to its symmetric residue.  y.mat = 0 is checked in integers."""
    pivots: dict[int, list[int]] = {}  # pivot coordinate -> its row, reduced
    for col in zip(*mat):
        # No more than `rank` pivots, so no fewer than len(mat) - rank vectors.
        if len(pivots) == rank:
            break
        v = [x % p for x in col]
        for c, row in pivots.items():
            if f := v[c]:
                v = [(a - f * b) % p for a, b in zip(v, row)]
        c = next((i for i, x in enumerate(v) if x), None)
        if c is None:
            continue
        inv = pow(v[c], -1, p)
        v = [x * inv % p for x in v]
        for d, row in pivots.items():
            if f := row[c]:
                pivots[d] = [(a - f * b) % p for a, b in zip(row, v)]
        pivots[c] = v
    lifted = [(c, [-x if 2 * x < p else p - x for x in row]) for c, row in pivots.items()]
    for free in set(range(len(mat))) - pivots.keys():
        combination = mat[free]  # y.mat, as a sum of rows of mat
        for c, row in lifted:
            if a := row[free]:
                combination = [x + a * z for x, z in zip(combination, mat[c])]
        if any(combination):
            return False
    return True


def rational_rank(rows) -> int:
    """Rank over Q of a matrix of ints or Fractions, exact.

    After clearing denominators the rank over Q is at least the rank b
    modulo any prime, so a full rank b = min(rows, columns) at the first
    prime is the rank, and most calls stop there.  A short b is the rank
    when that prime's left kernel, lifted to integers, vanishes on the
    cleared rows or else on the primitive ones (`_left_kernel_certifies`;
    see below).  Otherwise the rank is more than b only if some (b+1)-minor
    is a nonzero integer; by Hadamard's inequality, for the matrix or its
    transpose, its absolute value is at most H, the smaller of the products
    of the b+1 largest row norms and of the b+1 largest column norms, and
    every prime that gave rank at most b divides it.  So once the product of
    the primes tried exceeds H (compared squared, in integers), b is the
    rank.  Dividing a row or a column by its content changes no rank and
    shrinks H, so the loop runs on the primitive rows (`_primitive`) and
    takes the primes again from the first: a prime that divides a content
    may lower the first rank without dividing any minor of the primitive
    rows.
    ValueError when the rows have different lengths.
    """
    mat = [_cleared(row) for row in rows]
    if any(len(row) != len(mat[0]) for row in mat):
        raise ValueError("rows have different lengths")
    full = min(len(mat), len(mat[0])) if mat else 0
    first = kernels.rank_mod(mat, _prime(0))
    if first == full or _left_kernel_certifies(mat, first, _prime(0)):
        return first
    mat = _primitive(mat)
    if _left_kernel_certifies(mat, first, _prime(0)):
        return first
    row_norms2 = sorted((sum(x * x for x in row) for row in mat), reverse=True)
    col_norms2 = sorted((sum(x * x for x in col) for col in zip(*mat)), reverse=True)
    best, modulus = -1, 1
    for i in count():
        p = _prime(i)
        rank = kernels.rank_mod(mat, p)
        if rank > best:
            best = rank
            bound2 = min(prod(row_norms2[:best + 1]), prod(col_norms2[:best + 1]))
        modulus *= p
        if best == full or modulus * modulus > bound2:
            return best
