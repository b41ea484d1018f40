"""The primes and the random torus points of the F_p probes.

All dimension probes run over F_p at uniformly random torus points; ranks
computed there are certified lower bounds for the characteristic-zero
generic rank, since every nonvanishing minor is an integer polynomial
identity.  The points come from the kernels' counter-based SplitMix64
stream (`kernels.torus_points_mod`), exactly uniform on (F_p^*)^n.  The
default prime is the Mersenne prime 2^61 - 1; every probe first draws
once at the word-size prime WORD_PRIME (`probing`).  Exact ranks over Q
(`_rational.rational_rank`) come from the same F_p elimination at
DEFAULT_PRIME; a short one is certified by its left kernel, or else by
Hadamard's bound over a sequence of primes that starts with these ones.
"""

from . import kernels

DEFAULT_PRIME = 2305843009213693951  # 2^61 - 1
# Every prime must lie below this: the compiled kernels hold residues in
# 64-bit words.
PRIME_LIMIT = 2**64
# Fresh moduli for the last two draws of a probe's schedule (both verified
# prime below).
ALTERNATE_PRIMES = (2305843009213693967, 2305843009213693921)
# The modulus of every probe's first draw, the largest prime below 2^26:
# below rank 2^12 the pure elimination's slots (`_kernels_py._Echelon`) are
# then 8 bytes wide, under half their width at DEFAULT_PRIME, and the
# compiled one adds 32-bit pivot rows four a pass (`probing` times both).
WORD_PRIME = 67108859

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Sinclair's bases: with every base that is 0 mod n skipped, Miller-Rabin on
# them is deterministic for n < 2^64.
_BASES_BELOW_2_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with Sinclair's seven bases, after trial division by the
    primes up to 37: deterministic for n < 2^64.  ValueError for n >= 2^64,
    which no modulus of the package reaches."""
    if n >= PRIME_LIMIT:
        raise ValueError(f"{n} is not below 2^64")
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES_BELOW_2_64:
        a %= n
        if a == 0:
            continue
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


assert all(is_probable_prime(p) for p in (DEFAULT_PRIME, *ALTERNATE_PRIMES, WORD_PRIME))


def random_torus_points(
    count: int, width: int, seed: int, prime: int
) -> tuple[tuple[int, ...], ...]:
    """Draw `count` points with coordinates uniform in {1, ..., prime-1}.

    Deterministic for fixed (count, width, seed mod 2^64, prime), and
    coordinate l of point i depends on (seed mod 2^64, i, l) alone, so a
    draw of fewer points or coordinates is a prefix of a larger one; callers
    derive per-trial streams as seed + trial index.  ValueError unless
    count >= 0 and width >= 1 (`kernels.torus_points_mod`).
    """
    return kernels.torus_points_mod(count, width, seed, prime)
