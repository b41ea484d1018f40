"""`rational_rank` against the Fraction elimination `row_echelon`, on both
kernel backends: the rank modulo each prime comes from `kernels.rank_mod`,
so every case runs with the pure kernel and with the compiled `fast` one."""

import random
from fractions import Fraction
from math import prod

import pytest

from toricdim import _kernels_py, kernels, rational_normal_curve
from toricdim._rational import _prime, rational_rank, row_echelon


@pytest.fixture(params=["python", "c"], autouse=True)
def backend(request, monkeypatch):
    impl = _kernels_py if request.param == "python" else request.getfixturevalue("fast")
    monkeypatch.setattr(kernels, "rank_mod", impl.rank_mod)


def reference_rank(rows) -> int:
    return len(row_echelon(rows)[1])


def planted(rng, n_rows, n_cols, rank, entry):
    """An n_rows x n_cols product of random n_rows x rank and rank x n_cols
    factors, so its rank is at most `rank`."""
    left = [[entry() for _ in range(rank)] for _ in range(n_rows)]
    right = [[entry() for _ in range(n_cols)] for _ in range(rank)]
    return [
        [sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*right)]
        for row in left
    ]


def test_small_entry_goldens():
    assert rational_rank([[1, 0], [0, 1]]) == 2
    assert rational_rank([[1, 2], [2, 4]]) == 1
    assert rational_rank([[0, 0], [0, 0]]) == 0
    assert rational_rank(rational_normal_curve(8).entries) == 2
    rng = random.Random(7)
    for _ in range(20):
        rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(4)]
        assert rational_rank(rows) == reference_rank(rows)
        assert rational_rank(rows) == rational_rank(list(zip(*rows)))


def test_planted_rank_deficiencies():
    rng = random.Random(11)
    for _ in range(40):
        n_rows, n_cols = rng.randint(1, 7), rng.randint(1, 7)
        rank = rng.randint(0, min(n_rows, n_cols))
        rows = planted(rng, n_rows, n_cols, rank, lambda: rng.randint(-9, 9))
        assert rational_rank(rows) == reference_rank(rows) <= rank


def test_several_hundred_bit_fractions():
    rng = random.Random(12)

    def entry():
        bits = rng.randint(200, 400)
        return Fraction(rng.randrange(-(2**bits), 2**bits), rng.randrange(1, 2**bits))

    for _ in range(8):
        n_rows, n_cols = rng.randint(2, 5), rng.randint(2, 5)
        rank = rng.randint(1, min(n_rows, n_cols) - 1)
        rows = planted(rng, n_rows, n_cols, rank, entry)
        assert rational_rank(rows) == reference_rank(rows) == rank
        full = [[entry() for _ in range(n_cols)] for _ in range(n_rows)]
        assert rational_rank(full) == reference_rank(full) == min(n_rows, n_cols)


def test_minor_divisible_by_the_first_primes():
    # The only nonzero 2-minor is the product of the first k primes of the
    # sequence, so the rank modulo each of them is 1 and stopping at any
    # prefix of the sequence would return 1.
    for k in range(1, 7):
        product = prod(_prime(i) for i in range(k))
        rows = [[1, 0, 0], [1, product, 0]]
        assert all(kernels.rank_mod(rows, _prime(i)) == 1 for i in range(k))
        assert rational_rank(rows) == reference_rank(rows) == 2


def test_empty_and_degenerate_shapes():
    assert rational_rank([]) == 0
    assert rational_rank([[]]) == 0
    assert rational_rank([[], [], []]) == 0
    assert rational_rank([[0, Fraction(0), 0]] * 3) == 0
    assert rational_rank([[Fraction(-5, 3)]]) == 1


@pytest.mark.parametrize("rows", [[[1, 2], [3]], [[], [1]], [[1], []]])
def test_ragged_rows_raise_value_error(rows):
    with pytest.raises(ValueError, match="different lengths"):
        rational_rank(rows)
