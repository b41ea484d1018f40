import random

import pytest

from toricdim import (
    ALTERNATE_PRIMES,
    DEFAULT_PRIME,
    RunConfig,
    is_probable_prime,
    kernels,
    normalize,
    random_torus_points,
    rational_normal_curve,
)
from toricdim._kernels_py import khatri_rao_mod
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


def test_eval_monomial_at_ones():
    rows = rational_normal_curve(6).row_lists()
    assert kernels.eval_columns_mod(rows, [1, 1], P) == [1] * 7
    with pytest.raises(ValueError):
        RunConfig(prime=18446744073709551629)  # prime, but above 2^64


def test_eval_monomial_rnc_powers():
    rows = normalize(rational_normal_curve(8)).row_lists()
    # chart monomials are y0 * y1^h
    assert kernels.eval_columns_mod(rows, [1, 2], P) == [pow(2, h, P) for h in range(9)]
    assert kernels.eval_columns_mod(rows, [3, 2], P) == [
        (3 * pow(2, h, P)) % P for h in range(9)
    ]


def test_khatri_rao_hand_case():
    top = [[1, 2], [3, 4]]
    bottom = [[5, 6], [7, 8]]
    assert khatri_rao_mod(top, bottom, P) == [
        [5, 12],
        [7, 16],
        [15, 24],
        [21, 32],
    ]
    with pytest.raises(ValueError):
        khatri_rao_mod([[1, 2]], [[1]], P)


def test_matrix_rank_goldens():
    rnc = rational_normal_curve(8).row_lists()
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
