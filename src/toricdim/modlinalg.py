"""Linear algebra over large prime fields and exact rationals.

All dimension probes run over F_p at uniformly random torus points; ranks
computed there are certified lower bounds for the characteristic-zero
generic rank, since every nonvanishing minor is an integer polynomial
identity.  The default prime is the Mersenne prime 2^61 - 1.
"""

from __future__ import annotations

import random

from . import kernels
from ._rational import rational_rank

DEFAULT_PRIME = 2305843009213693951  # 2^61 - 1
# Every prime must lie below this: the compiled kernels hold residues in
# 64-bit words.
PRIME_LIMIT = 2**64
# Fresh moduli for the tail of the retry ladder (both verified prime below).
ALTERNATE_PRIMES = (2305843009213693967, 2305843009213693921)

_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with fixed bases; deterministic for n < 3.3e24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in small:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


assert all(is_probable_prime(p) for p in (DEFAULT_PRIME, *ALTERNATE_PRIMES))


def eval_monomial(mat, point, prime: int = DEFAULT_PRIME) -> list[int]:
    """Evaluate all column monomials of an exponent matrix at a torus point.

    Accepts an ExponentMatrix or plain rows; negative exponents require the
    point coordinates to be nonzero mod the prime (they always are for
    points drawn by random_torus_points).
    """
    if prime >= PRIME_LIMIT:
        raise ValueError(f"{prime} is not below 2^64")
    rows = mat.row_lists() if hasattr(mat, "row_lists") else [list(r) for r in mat]
    return kernels.eval_columns_mod(rows, list(point), prime)


def matrix_rank(rows, prime: int | None = None) -> int:
    """Rank over F_prime, or over the exact rationals when prime is None."""
    r = rows.row_lists() if hasattr(rows, "row_lists") else [list(x) for x in rows]
    if prime is None:
        return rational_rank(r)
    if not (prime < PRIME_LIMIT and is_probable_prime(prime)):
        raise ValueError(f"{prime} is not a (probable) prime below 2^64")
    return kernels.rank_mod(r, prime)


def random_torus_points(
    count: int, width: int, seed: int, prime: int
) -> tuple[tuple[int, ...], ...]:
    """Draw `count` points with coordinates uniform in {1, ..., prime-1}.

    Deterministic for fixed (count, width, seed, prime); callers derive
    per-trial streams as seed + trial index.
    """
    if count < 0 or width < 1:
        raise ValueError("need count >= 0 and width >= 1")
    rng = random.Random(seed)
    return tuple(
        tuple(rng.randrange(1, prime) for _ in range(width)) for _ in range(count)
    )
