"""`rational_rank` against the Fraction elimination `row_echelon`, on both
kernel backends: the rank modulo each prime comes from `kernels.rank_mod`,
so every case runs with the pure kernel and with the compiled `fast` one."""

import random
from fractions import Fraction
from math import gcd, prod

import pytest

from conftest import rational_normal_curve

from toricdim import _kernels_py, _rational, kernels
from toricdim._rational import _STORED_OFFSETS, _prime, rational_rank
from toricdim.modlinalg import ALTERNATE_PRIMES, DEFAULT_PRIME, is_probable_prime


@pytest.fixture(params=["python", "c"], autouse=True)
def backend(request, monkeypatch):
    impl = _kernels_py if request.param == "python" else request.getfixturevalue("fast")
    monkeypatch.setattr(kernels, "rank_mod", impl.rank_mod)


def row_echelon(rows):
    """Reduce a copy of `rows` to reduced row echelon form over the rationals,
    the Fraction reference `rational_rank` is checked against.

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


def test_stored_primes_are_the_consecutive_primes_below_the_fixed_three():
    # The stored primes and the two the search adds past them are every
    # integer below the fixed three that `is_probable_prime` accepts,
    # downwards, none skipped.
    below = []
    n = min(ALTERNATE_PRIMES)
    while len(below) < len(_STORED_OFFSETS) + 2:
        n -= 1
        if is_probable_prime(n):
            below.append(n)
    assert [DEFAULT_PRIME - d for d in _STORED_OFFSETS] == below[:-2]
    assert [_prime(i) for i in range(3 + len(below))] == [
        DEFAULT_PRIME, *ALTERNATE_PRIMES, *below
    ]


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


def coprime_factors(rng, count: int, bits: int = 200) -> list[int]:
    """`count` pairwise coprime integers below 2^bits with no prime factor
    below 500, so none shares a prime with a planted entry of at most 486."""
    small = prod(p for p in range(2, 500) if all(p % q for q in range(2, p)))
    out: list[int] = []
    while len(out) < count:
        x = rng.getrandbits(bits) | 1
        if gcd(x, small) == 1 and all(gcd(x, y) == 1 for y in out):
            out.append(x)
    return out


def scale_rows_and_columns(rows, row_factors, col_factors):
    return [[x * a * b for x, b in zip(row, col_factors)] for row, a in zip(rows, row_factors)]


def rank_mod_primes(monkeypatch, rows) -> list[int]:
    """The primes `rational_rank(rows)` reduces modulo, in order."""
    primes = []
    inner = kernels.rank_mod

    def spy(mat, p):
        primes.append(p)
        return inner(mat, p)

    monkeypatch.setattr(kernels, "rank_mod", spy)
    try:
        rational_rank(rows)
    finally:
        monkeypatch.setattr(kernels, "rank_mod", inner)
    return primes


def test_planted_row_and_column_factors_keep_the_rank():
    rng = random.Random(13)
    for _ in range(16):
        n_rows, n_cols = rng.randint(1, 6), rng.randint(1, 6)
        rank = rng.randint(0, min(n_rows, n_cols))
        rows = planted(rng, n_rows, n_cols, rank, lambda: rng.randint(-9, 9))
        row_factors = [rng.choice((1, -1)) * rng.randint(1, 2**200) for _ in range(n_rows)]
        col_factors = [rng.choice((1, -1)) * rng.randint(1, 2**200) for _ in range(n_cols)]
        scaled = scale_rows_and_columns(rows, row_factors, col_factors)
        assert rational_rank(scaled) == reference_rank(scaled) == reference_rank(rows)


def test_planted_factors_take_no_more_primes(monkeypatch):
    # Dividing out each row's and then each column's content removes the
    # factors, so the Hadamard bound, and with it the number of primes the
    # certificate needs, is that of the matrix without them.
    rng = random.Random(14)
    for _ in range(12):
        n_rows, n_cols = rng.randint(1, 6), rng.randint(1, 6)
        rank = rng.randint(1, min(n_rows, n_cols))
        rows = planted(rng, n_rows, n_cols, rank, lambda: rng.randint(1, 9))
        row_factors = coprime_factors(rng, n_rows)
        col_factors = coprime_factors(rng, n_cols)
        scaled = scale_rows_and_columns(rows, row_factors, col_factors)
        assert rational_rank(scaled) == reference_rank(rows)
        base = rank_mod_primes(monkeypatch, rows)
        assert len(rank_mod_primes(monkeypatch, scaled)) <= len(base)


def test_full_rank_takes_one_prime_and_no_contents(monkeypatch):
    # A full rank modulo the first prime is the rank over Q, so the call
    # reduces once, divides out no content and bounds no minor.
    def primitive(mat):
        raise AssertionError("_primitive called on a full-rank input")

    monkeypatch.setattr(_rational, "_primitive", primitive)
    rng = random.Random(15)

    def big():
        return rng.randrange(-(2**400), 2**400)

    entries = {
        "ints": lambda: rng.randint(-9, 9),
        "fractions": lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        "several hundred bits": lambda: Fraction(big(), rng.randrange(1, 2**300)),
    }
    for entry in entries.values():
        for n_rows, n_cols in ((4, 4), (3, 7), (7, 3)):
            rows = [[entry() for _ in range(n_cols)] for _ in range(n_rows)]
            assert reference_rank(rows) == min(n_rows, n_cols)
            assert rank_mod_primes(monkeypatch, rows) == [_prime(0)]
            assert rational_rank(rows) == min(n_rows, n_cols)
    rows = [[big() for _ in range(5)] for _ in range(5)]
    assert rank_mod_primes(monkeypatch, rows) == [_prime(0)]


def test_wide_matrix_takes_the_column_bound(monkeypatch):
    # Rank 2 of 4 x 12 with one column of 400-bit entries: every row norm
    # carries that entry, the column norms only once, so the bound on a
    # 3-minor from the columns is about 800 bits below the one from the
    # rows.  After the first prime's short rank, the certificate takes the
    # primes again from the first, just as many as the column bound needs.
    rng = random.Random(16)
    left = [[rng.randint(1, 9) for _ in range(2)] for _ in range(4)]
    right = [[rng.randint(1, 9) for _ in range(12)] for _ in range(2)]
    for row in right:
        row[0] += 2**400 + rng.randrange(2**64)
    rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
    assert rational_rank(rows) == reference_rank(rows) == 2
    primitive = _rational._primitive(rows)

    def primes_needed(norms2):
        bound2 = prod(sorted(norms2, reverse=True)[:3])
        k, modulus = 0, 1
        while modulus * modulus <= bound2:
            modulus *= _prime(k)
            k += 1
        return k

    by_rows = primes_needed(sum(x * x for x in row) for row in primitive)
    by_cols = primes_needed(sum(x * x for x in col) for col in zip(*primitive))
    assert by_cols < by_rows
    primes = rank_mod_primes(monkeypatch, rows)
    assert primes == [_prime(0), *(_prime(i) for i in range(by_cols))]
