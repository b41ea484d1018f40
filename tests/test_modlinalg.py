import random
from collections import Counter

import pytest

from conftest import rational_normal_curve

from toricdim import (
    ALTERNATE_PRIMES,
    DEFAULT_PRIME,
    RunConfig,
    is_probable_prime,
    kernels,
    normalize,
    random_torus_points,
)
from toricdim._kernels_py import _GAMMA, _mix64
from toricdim._rational import rational_rank

P = 101


def test_primes_are_prime():
    assert is_probable_prime(DEFAULT_PRIME)
    assert DEFAULT_PRIME == 2**61 - 1
    for p in ALTERNATE_PRIMES:
        assert is_probable_prime(p)
        assert p != DEFAULT_PRIME


def test_miller_rabin_rejects_composites():
    # Carmichael numbers and strong pseudoprimes to single bases
    for n in (561, 1105, 1729, 2047, 3215031751, 2305843009213693953):
        assert not is_probable_prime(n)
    for n in (0, 1, 2, 3, 97, 7919):
        assert is_probable_prime(n) == (n in (2, 3, 97, 7919))


def test_miller_rabin_is_exact_below_10_to_the_5():
    # 73 and 193 divide the base 28178, which is skipped for them.
    n_max = 10**5
    sieve = [False, False] + [True] * (n_max - 2)
    for q in range(2, int(n_max**0.5) + 1):
        if sieve[q]:
            sieve[q * q::q] = [False] * len(range(q * q, n_max, q))
    assert [n for n in range(n_max) if is_probable_prime(n)] == [
        n for n in range(n_max) if sieve[n]
    ]


def test_miller_rabin_rejects_the_strong_pseudoprimes_to_the_first_prime_bases():
    # psi_1 .. psi_8: the least strong pseudoprimes to all of 2, 3, ..., p_k.
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747,
              3474749660383, 341550071728321, 3825123056546413051):
        assert not is_probable_prime(n)


def _miller_rabin_twelve_bases(n):
    """The reference test: Miller-Rabin to the twelve prime bases up to 37."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n in bases:
        return True
    if n < 2 or any(n % q == 0 for q in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_miller_rabin_below_2_64_agrees_with_the_twelve_prime_bases():
    rng = random.Random(9)
    odd = [rng.randrange(1, 2**64, 2) for _ in range(20_000)]
    # Random odd numbers are rarely prime; add primes and near misses.
    odd += [q + 2 * k for q in (DEFAULT_PRIME, *ALTERNATE_PRIMES, 2**64 - 59)
            for k in range(-40, 1)]
    assert [is_probable_prime(n) for n in odd] == [
        _miller_rabin_twelve_bases(n) for n in odd
    ]
    assert is_probable_prime(2**64 - 59)  # the largest prime below 2^64


def test_primality_is_decided_below_2_64_only():
    # No modulus of the package reaches 2^64: RunConfig refuses such a
    # prime first, and the exact ranks use primes below 2^61.
    for n in (2**64, 2**64 + 13, 2**89 - 1):
        with pytest.raises(ValueError, match="not below 2\\^64"):
            is_probable_prime(n)


def test_eval_monomial_at_ones():
    rows = rational_normal_curve(6).entries
    assert kernels.eval_columns_mod(rows, [1, 1], P) == [1] * 7
    with pytest.raises(ValueError):
        RunConfig(prime=18446744073709551629)  # prime, but above 2^64


def test_eval_monomial_rnc_powers():
    rows = normalize(rational_normal_curve(8)).entries
    # chart monomials are y0 * y1^h
    assert kernels.eval_columns_mod(rows, [1, 2], P) == [pow(2, h, P) for h in range(9)]
    assert kernels.eval_columns_mod(rows, [3, 2], P) == [
        (3 * pow(2, h, P)) % P for h in range(9)
    ]


def test_khatri_rao_hand_case():
    top = [[1, 2], [3, 4]]
    bottom = [[5, 6], [7, 8]]
    # the rows t * b, top-index-major: [5, 12], [7, 16], [15, 24], [21, 32]
    assert kernels.kr_rank_mod(top, bottom, P) == kernels.rank_mod(
        [[5, 12], [7, 16], [15, 24], [21, 32]], P
    ) == 2
    with pytest.raises(ValueError, match="different column counts"):
        kernels.kr_rank_mod([[1, 2]], [[1]], P)


def test_matrix_rank_goldens():
    rnc = rational_normal_curve(8).entries
    for rows, rank in (
        ([[1, 0], [0, 1]], 2),
        ([[1, 2], [2, 4]], 1),
        ([[0, 0], [0, 0]], 0),
        (rnc, 2),
    ):
        assert kernels.rank_mod(rows, P) == rank
        assert rational_rank(rows) == rank
    with pytest.raises(ValueError):
        RunConfig(prime=2305843009213693953)  # composite
    with pytest.raises(ValueError):
        RunConfig(prime=18446744073709551629)  # prime, but above 2^64
    with pytest.raises(TypeError):
        RunConfig(trials=3)  # the error budget alone sets the draws


def test_matrix_rank_rational_matches_modular_small_entries():
    rng = random.Random(7)
    for _ in range(20):
        rows = [
            [rng.randint(-3, 3) for _ in range(5)] for _ in range(4)
        ]
        assert rational_rank(rows) == kernels.rank_mod(rows, DEFAULT_PRIME)
        assert rational_rank(rows) == rational_rank(list(zip(*rows)))


def test_random_torus_points_deterministic_and_nonzero():
    a = random_torus_points(3, 4, seed=5, prime=DEFAULT_PRIME)
    b = random_torus_points(3, 4, seed=5, prime=DEFAULT_PRIME)
    c = random_torus_points(3, 4, seed=6, prime=DEFAULT_PRIME)
    assert a == b
    assert a != c
    assert len(a) == 3 and all(len(pt) == 4 for pt in a)
    assert all(1 <= x < DEFAULT_PRIME for pt in a for x in pt)
    with pytest.raises(ValueError):
        random_torus_points(2, 0, seed=0, prime=DEFAULT_PRIME)


@pytest.mark.parametrize("prime", [2, 7, 65537, DEFAULT_PRIME, 2**64 - 59])
def test_torus_points_are_prefixes_in_count_and_width(prime):
    # Coordinate l of point i depends on (seed, i, l) alone, so fewer points
    # or fewer coordinates are a prefix of the larger draw.
    for seed in (0, 3, -8, 10**30):
        full = random_torus_points(6, 9, seed, prime)
        for count in range(7):
            assert random_torus_points(count, 9, seed, prime) == full[:count]
        for width in range(1, 10):
            assert random_torus_points(6, width, seed, prime) == tuple(
                pt[:width] for pt in full
            )


def test_torus_points_at_p_2_are_all_ones():
    for seed in (0, 1, -1, 2**64 + 5):
        assert random_torus_points(20, 30, seed, 2) == ((1,) * 30,) * 20


def test_torus_points_at_p_7_cover_every_unit_evenly():
    # 6000 coordinates from one fixed seed: no 0, and each of 1..6 within
    # 1000 +- 150, more than five standard deviations (28.9) of a uniform
    # draw.  Deterministic, so it cannot flake.
    counts = Counter(x for pt in random_torus_points(600, 10, 7, 7) for x in pt)
    assert set(counts) == {1, 2, 3, 4, 5, 6}
    assert all(850 <= n <= 1150 for n in counts.values()), counts


def test_torus_point_stream_is_pinned():
    # A change to any value here changes what every `--seed` draws.  The
    # finalizer is SplitMix64's: from state 0 its first three outputs are
    # mix(G), mix(2G) and mix(3G).
    assert [_mix64(k * _GAMMA % 2**64) for k in (1, 2, 3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
    ]
    assert random_torus_points(2, 3, 0, DEFAULT_PRIME) == (
        (298942442631659597, 1363789690725485060, 1552549522523125764),
        (942814116989221697, 193849678990778109, 1204660289087302322),
    )
    assert random_torus_points(1, 4, 7, 65537) == ((22509, 35383, 45520, 39932),)
    assert random_torus_points(3, 3, 2024, 7) == ((1, 3, 4), (6, 6, 6), (1, 6, 5))


def test_torus_point_seeds_are_taken_mod_2_64():
    p = 2**64 - 59
    assert random_torus_points(1, 2, -5, p) == ((15822894932597671876, 3316030652901877112),)
    assert random_torus_points(1, 2, 5, p) == ((16363363981095120648, 14476900367427998618),)
    for seed in (-5, 0, 5, 10**30):
        assert random_torus_points(2, 3, seed, p) == random_torus_points(2, 3, seed + 2**64, p)
