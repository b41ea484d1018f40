import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricdim import (
    ALTERNATE_PRIMES,
    DEFAULT_PRIME,
    eval_monomial,
    is_probable_prime,
    matrix_rank,
    normalize,
    random_torus_points,
    rational_normal_curve,
)
from toricdim._kernels_py import khatri_rao_mod

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
    mat = rational_normal_curve(6)
    assert eval_monomial(mat, (1, 1), P) == [1] * 7
    with pytest.raises(ValueError):
        eval_monomial(mat, (1, 1), 18446744073709551629)  # above 2^64


def test_eval_monomial_rnc_powers():
    abar = normalize(rational_normal_curve(8))
    # chart monomials are y0 * y1^h
    assert eval_monomial(abar, (1, 2), P) == [pow(2, h, P) for h in range(9)]
    assert eval_monomial(abar, (3, 2), P) == [(3 * pow(2, h, P)) % P for h in range(9)]


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        min_size=1,
        max_size=4,
    ),
    st.lists(st.integers(1, 100), min_size=4, max_size=4),
)
@settings(max_examples=50, deadline=None)
def test_eval_monomial_multiplicative(columns, coords):
    rows = [list(r) for r in zip(*columns)]
    x = coords[:2]
    y = coords[2:]
    xy = [(a * b) % P for a, b in zip(x, y)]
    ex = eval_monomial(rows, x, P)
    ey = eval_monomial(rows, y, P)
    assert eval_monomial(rows, xy, P) == [(a * b) % P for a, b in zip(ex, ey)]


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
    assert matrix_rank([[1, 0], [0, 1]], P) == 2
    assert matrix_rank([[1, 2], [2, 4]], P) == 1
    assert matrix_rank([[0, 0], [0, 0]], P) == 0
    assert matrix_rank(rational_normal_curve(8), P) == 2
    with pytest.raises(ValueError):
        matrix_rank([[1, 0]], 100)
    with pytest.raises(ValueError):
        matrix_rank([[1, 0]], 18446744073709551629)  # prime, but above 2^64


def test_matrix_rank_rational_matches_modular_small_entries():
    rng = random.Random(7)
    for _ in range(20):
        rows = [
            [rng.randint(-3, 3) for _ in range(5)] for _ in range(4)
        ]
        assert matrix_rank(rows) == matrix_rank(rows, DEFAULT_PRIME)
        assert matrix_rank(rows) == matrix_rank(list(zip(*rows)))


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
