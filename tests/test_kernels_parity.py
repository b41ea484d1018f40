"""Backend parity: the compiled kernels must match the pure-Python ones.

`fast` (see conftest.py) is compiled from `_fastkernels.c` for this session,
so these tests run whichever backend `toricdim.kernels` picked.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rational_normal_curve

from toricdim import DEFAULT_PRIME, backend_name, normalize
from toricdim import _kernels_py as py

P64 = 17293822569102704683  # a prime above 2^63
P64_MAX = 18446744073709551557  # the largest prime below 2^64
# The compiled row update reduces f y mod p in 64-bit words below 2^63 and
# in 128 bits from 2^63 on: the nearest primes on either side of 2^63.
P63_BELOW = 9223372036854775783  # 2^63 - 25
P63_ABOVE = 9223372036854775837  # 2^63 + 29
LARGE_PRIMES = [DEFAULT_PRIME, P64, P64_MAX, P63_BELOW, P63_ABOVE]
# Moduli whose pivots may have no inverse, and the smallest ones.
SMALL_AND_COMPOSITE = [2, 3, 2**64 - 1, 2**63 - 2]


def _instances(seed, n=12):
    rng = random.Random(seed)
    for _ in range(n):
        n_rows = rng.randint(1, 6)
        n_cols = rng.randint(1, 8)
        top = [
            [rng.randrange(DEFAULT_PRIME) for _ in range(n_cols)]
            for _ in range(n_rows)
        ]
        bottom = [
            [rng.randrange(DEFAULT_PRIME) for _ in range(n_cols)]
            for _ in range(rng.randint(1, 5))
        ]
        yield top, bottom


def _columns(impl):
    """`eval_columns_mod` of `impl`: the column monomials phi(point) of `mat`
    over Z/p.  The compiled module evaluates them only inside eta_mod, and
    eta at one point with r' = (0,) is the single row phi(point)."""
    if impl is py:
        return py.eval_columns_mod
    return lambda mat, point, p: impl.eta_mod(mat, (0,), [point], p)[0]


def _kernel(impl, name):
    return _columns(impl) if name == "eval_columns_mod" else getattr(impl, name)


def test_backend_name_valid():
    assert backend_name() in ("c", "python")


def test_rank_mod_parity(fast):
    for top, bottom in _instances(1):
        assert fast.rank_mod(top, DEFAULT_PRIME) == py.rank_mod(top, DEFAULT_PRIME)
        assert fast.rank_mod(bottom, 101) == py.rank_mod(bottom, 101)


def test_kr_rank_mod_parity(fast):
    for top, bottom in _instances(3):
        assert fast.kr_rank_mod(top, bottom, DEFAULT_PRIME) == py.kr_rank_mod(
            top, bottom, DEFAULT_PRIME
        )


def test_rank_parity_at_a_64_bit_prime_with_negative_and_large_entries(fast):
    # Residues near p > 2^63 make `a + p - x` overflow 64 bits.  A wrong row
    # update still leaves random rows independent, so the last row of `top`
    # is a dependent one that only exact arithmetic eliminates.
    rng = random.Random(5)
    for _ in range(40):
        n_rows = rng.randint(2, 5)
        n_cols = rng.randint(n_rows + 1, 8)
        top = [[rng.randrange(-(2**65), 2**65) for _ in range(n_cols)]
               for _ in range(n_rows)]
        top.append([a - 3 * b for a, b in zip(top[0], top[-1])])
        bottom = [[rng.randrange(-(2**65), 2**65) for _ in range(n_cols)]]
        assert fast.rank_mod(top, P64) == py.rank_mod(top, P64) == n_rows
        assert fast.kr_rank_mod(top, bottom, P64) == py.kr_rank_mod(top, bottom, P64)


def _planted(rng, n_rows, n_cols, rank, p, zero_cols=0):
    """An n_rows x n_cols matrix of rank exactly `rank` mod p, with
    `zero_cols` zero columns: `rank` rows that are the identity on a set of
    pivot columns, random combinations of them, shuffled, every entry
    shifted by a random multiple of p (some negative)."""
    cols = rng.sample(range(n_cols), n_cols - zero_cols)
    pivots = cols[:rank]
    basis = []
    for k in range(rank):
        row = [0] * n_cols
        for j in cols:
            row[j] = rng.randrange(p)
        for i, j in enumerate(pivots):
            row[j] = int(i == k)
        basis.append(row)
    mat = list(basis)
    for _ in range(n_rows - rank):
        coeffs = [rng.randrange(p) for _ in basis]
        mat.append([sum(a * b[j] for a, b in zip(coeffs, basis)) % p
                    for j in range(n_cols)])
    rng.shuffle(mat)
    return [[x + p * rng.randrange(-3, 3) for x in row] for row in mat]


@pytest.mark.parametrize("p", LARGE_PRIMES)
def test_rank_parity_on_large_planted_instances(fast, p):
    # Full rank, dependent rows, zero columns, tall and wide: 60-150 rows.
    rng = random.Random(p % 1000)
    for n_rows, n_cols, rank, zero_cols in (
        (60, 60, 60, 0), (80, 80, 71, 0), (100, 100, 83, 5),
        (150, 40, 40, 0), (150, 70, 61, 9), (60, 150, 60, 0), (70, 130, 52, 12),
    ):
        mat = _planted(rng, n_rows, n_cols, rank, p, zero_cols)
        assert py.rank_mod(mat, p) == fast.rank_mod(mat, p) == rank


@pytest.mark.parametrize("p", LARGE_PRIMES)
def test_kr_rank_parity_on_large_instances(fast, p):
    # 60-150 Khatri-Rao rows: a factor with dependent rows or zero columns
    # makes the product rank deficient.  With a random second factor the
    # rank is the generic min(rank(top) * rows(bottom), nonzero columns).
    rng = random.Random(p % 1000 + 1)
    for n_top, n_bot, n_cols, top_rank, zero_cols in (
        (12, 5, 70, 12, 0), (10, 6, 70, 7, 0), (15, 10, 60, 15, 4), (25, 6, 50, 20, 10),
    ):
        top = _planted(rng, n_top, n_cols, top_rank, p, zero_cols)
        bot = [[rng.randrange(-p, p) for _ in range(n_cols)] for _ in range(n_bot)]
        rank = py.kr_rank_mod(top, bot, p)
        assert rank == fast.kr_rank_mod(top, bot, p)
        assert rank == py.rank_mod(py.khatri_rao_mod(top, bot, p), p)
        assert rank == min(top_rank * n_bot, n_cols - zero_cols)


@pytest.mark.parametrize("p", LARGE_PRIMES + SMALL_AND_COMPOSITE)
def test_rank_parity_when_every_update_has_maximal_growth(fast, p):
    # Rows 0..n-2 have 1 on the diagonal and p - 1 right of it, and the last
    # row is their sum.  The last row meets f = 1 at every pivot and a pivot
    # row of p - 1, so each update adds (p - 1)^2 to every slot it has left,
    # and it must end as a multiple of p in every slot.  At p = 2^61 - 1 and
    # n = 100 its last slot reaches 99 (p - 1)^2 > 2^128, past 16 bytes.
    # Every pivot is 1 or p - 1, a unit modulo any p, so the ranks hold for
    # composite moduli too.
    for n in (60, 100, 150):
        upper = [[p - 1 if j > k else int(j == k) for j in range(n)] for k in range(n - 1)]
        mat = upper + [[sum(col) % p for col in zip(*upper)]]
        ones = [[1] * n]
        assert py.rank_mod(mat, p) == fast.rank_mod(mat, p) == n - 1
        assert py.kr_rank_mod(mat, ones, p) == fast.kr_rank_mod(mat, ones, p) == n - 1
        full = [[p - 1] * n for _ in range(n)]
        assert py.rank_mod(full, p) == fast.rank_mod(full, p) == 1
        assert py.kr_rank_mod(full, full[:1], p) == fast.kr_rank_mod(full, full[:1], p) == 1


@pytest.mark.parametrize("p", LARGE_PRIMES + SMALL_AND_COMPOSITE)
def test_rank_parity_on_rows_of_p_minus_1(fast, p):
    # (p - 1)^2 = 1 mod p is where the compiled row update's quotient
    # estimate falls one short for most p, leaving t = f y - q p in [p, 2p)
    # for the final subtraction.  Below a = (1, p-1, p-1, ...), the row
    # b = (p-1, 0, 2, 0, 2, ...) is updated with f = p - 1 against pivot
    # entries p - 1: the 0 slots take 0 - 1 and the 2 slots 2 - 1, so b
    # becomes (0, -1, 1, -1, 1, ...) = -c exactly when each product was
    # reduced below p.  Rank 2 modulo any number, in every row order.
    for n in (3, 8, 41):
        a = [1] + [p - 1] * (n - 1)
        b = [p - 1] + [2 * (j % 2) for j in range(n - 1)]
        c = [0] + [1 if j % 2 == 0 else p - 1 for j in range(n - 1)]
        for mat in itertools.permutations([a, b, c]):
            mat = list(mat)
            assert py.rank_mod(mat, p) == fast.rank_mod(mat, p) == 2
            assert py.kr_rank_mod(mat, [[1] * n], p) == 2
            assert fast.kr_rank_mod(mat, [[1] * n], p) == 2


def test_rank_parity_over_log_uniform_moduli(fast):
    # Every width of modulus from 2 bits to 64, most of them composite:
    # ranks, Khatri-Rao ranks and the errors of missing inverses agree.
    rng = random.Random(9)
    for _ in range(400):
        p = max(2, min(int(2 ** rng.uniform(1, 64)), 2**64 - 1))
        n_cols = rng.randint(1, 10)
        rows = [[rng.randrange(-p, 2 * p) for _ in range(n_cols)]
                for _ in range(rng.randint(1, 10))]
        if len(rows) > 2 and rng.random() < 0.5:  # a dependent row
            rows[-1] = [a - 5 * b for a, b in zip(rows[0], rows[1])]
        top, bottom = rows[:rng.randint(1, 4)], rows[-rng.randint(1, 3):]
        assert _outcome(fast.rank_mod, rows, p) == _outcome(py.rank_mod, rows, p), p
        assert _outcome(fast.kr_rank_mod, top, bottom, p) == _outcome(
            py.kr_rank_mod, top, bottom, p
        ), p


def test_eval_columns_mod_parity_with_negative_exponents(fast):
    rng = random.Random(4)
    for _ in range(12):
        n_vars = rng.randint(1, 4)
        n_cols = rng.randint(1, 8)
        mat = [
            [rng.randint(-5, 8) for _ in range(n_cols)] for _ in range(n_vars)
        ]
        for p in (DEFAULT_PRIME, P64):
            point = [rng.randrange(1, p) for _ in range(n_vars)]
            assert _columns(fast)(mat, point, p) == py.eval_columns_mod(mat, point, p)
    # Negative coordinates and coordinates wider than 64 bits, reduced first.
    for _ in range(12):
        n_vars = rng.randint(1, 4)
        n_cols = rng.randint(1, 8)
        mat = [[rng.randint(-5, 8) for _ in range(n_cols)] for _ in range(n_vars)]
        for p in (DEFAULT_PRIME, P64):
            point = [rng.choice((1, -1)) * rng.randrange(1, 2**70) for _ in range(n_vars)]
            point = [x + 1 if x % p == 0 else x for x in point]
            assert _columns(fast)(mat, point, p) == py.eval_columns_mod(mat, point, p)


def test_eval_columns_mod_rnc_powers(fast):
    rows = normalize(rational_normal_curve(8)).row_lists()
    # chart monomials are y0 * y1^h
    for kernel in (py.eval_columns_mod, _columns(fast)):
        assert kernel(rows, [1, 1], 101) == [1] * 9
        assert kernel(rows, [1, 2], 101) == [pow(2, h, 101) for h in range(9)]
        assert kernel(rows, [3, 2], 101) == [3 * pow(2, h, 101) % 101 for h in range(9)]


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        min_size=1,
        max_size=4,
    ),
    st.lists(st.integers(1, 100), min_size=4, max_size=4),
)
@settings(max_examples=50, deadline=None)
def test_eval_columns_mod_multiplicative(fast, columns, coords):
    rows = [list(r) for r in zip(*columns)]
    x = coords[:2]
    y = coords[2:]
    xy = [(a * b) % 101 for a, b in zip(x, y)]
    for kernel in (py.eval_columns_mod, _columns(fast)):
        ex = kernel(rows, x, 101)
        ey = kernel(rows, y, 101)
        assert kernel(rows, xy, 101) == [(a * b) % 101 for a, b in zip(ex, ey)]


def _outcome(fn, *args):
    """The kernel's value, or the message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def test_eta_mod_parity(fast):
    # Negative exponents, factors with r_k = 1 (r' = 0), no factor at all,
    # small, full-range, negative and wider-than-64-bit coordinates; then the
    # probe's rank of eta (x) rows.
    rng = random.Random(6)
    factor_lists = [(0,), (2,), (0, 2), (1, 0, 1), (1, 1), (3, 1), ()]
    for p in (DEFAULT_PRIME, P64):
        for _ in range(10):
            n_vars = rng.randint(1, 4)
            n_cols = rng.randint(1, 9)
            rows = [[rng.randint(-3, 5) for _ in range(n_cols)] for _ in range(n_vars)]
            for r_prime in factor_lists:
                top = rng.choice((7, p, 2**70))
                points = [[rng.choice((1, -1)) * rng.randrange(1, top) for _ in range(n_vars)]
                          for _ in range(sum(r_prime) + 1)]
                points = [[x + 1 if x % p == 0 else x for x in pt] for pt in points]
                eta = py.eta_mod(rows, r_prime, points, p)
                assert fast.eta_mod(rows, r_prime, points, p) == eta
                assert fast.kr_rank_mod(eta, rows, p) == py.kr_rank_mod(eta, rows, p)
            # The same ValueError on both backends for a point count that does
            # not fit r', a point of the wrong width and a coordinate = 0 mod p.
            points = [[rng.randrange(1, p) for _ in range(n_vars)] for _ in range(3)]
            wide = [pt + [1] for pt in points]
            zero = [points[0], points[1][:-1] + [p], points[2]]
            for args in ((rows, (1,), points, p), (rows, (3,), points, p),
                         (rows, (2,), wide, p), (rows, (1, 1), zero, p)):
                message = _outcome(py.eta_mod, *args)
                assert isinstance(message, str) and _outcome(fast.eta_mod, *args) == message


def test_eval_columns_mod_rejects_zero_coordinate(fast):
    mat = [[1, 2], [0, 1]]
    for impl in (fast, py):
        with pytest.raises(ValueError, match="divisible by the prime"):
            _columns(impl)(mat, [3, 101], 101)


@pytest.mark.parametrize(
    "kernel, args",
    [
        ("rank_mod", ([[1, 2, 3], [1]], 101)),  # ragged rows
        ("rank_mod", ([[1], [1, 2, 3]], 101)),  # a row longer than the first
        ("kr_rank_mod", ([[1, 2], [3]], [[1, 2]], 101)),
        ("kr_rank_mod", ([[1, 2]], [[1, 2], [3, 4, 5]], 101)),
        ("kr_rank_mod", ([[1, 2]], [[1]], 101)),  # different column counts
        ("eval_columns_mod", ([[1, 2], [3]], [5, 6], 101)),
        ("eval_columns_mod", ([[1, 2], [3, 4]], [5], 101)),  # point too short
        ("eval_columns_mod", ([[1, 2], [3, 4]], [5, 6, 7], 101)),  # too long
        ("eta_mod", ([[1, 2], [3]], (1,), [[1, 2], [3, 4]], 101)),
        ("eta_mod", ([[1, 2], [3, 4]], (1,), [[1, 2], [3]], 101)),  # point width
        ("eta_mod", ([[1, 2], [3, 4]], (1,), [[1, 2], [3, 202]], 101)),  # 0 mod p
        ("eta_mod", ([[1, 2], [3, 4]], (2,), [[1, 2], [3, 4]], 101)),  # too few points
        ("eta_mod", ([[1, 2], [3, 4]], (0,), [[1, 2], [3, 4]], 101)),  # too many
        ("eta_mod", ([[1, 2], [3, 4]], (2, -1), [[1, 2], [3, 4]], 101)),
    ],
)
def test_malformed_shapes_raise_value_error(fast, kernel, args):
    for impl in (fast, py):
        with pytest.raises(ValueError):
            _kernel(impl, kernel)(*args)


def test_factor_count_error_names_the_points_needed(fast):
    for r_prime in ((5,), (2**62, 2**62, 2**62)):
        need = sum(r_prime) + 1
        for impl in (fast, py):
            with pytest.raises(ValueError, match=f"need {need} points, got 2"):
                impl.eta_mod([[1, 2], [3, 4]], r_prime, [[1, 2], [3, 4]], 101)


@pytest.mark.parametrize(
    "kernel, args",
    [
        ("rank_mod", ([[2]], 4)),
        ("rank_mod", ([[2, 1], [1, 1]], 6)),
        ("kr_rank_mod", ([[2, 1]], [[1, 3]], 6)),
        ("eval_columns_mod", ([[-1, 2]], [3], 6)),
        ("eval_columns_mod", ([[-1]], [2], 4)),
        ("eta_mod", ([[1, 1], [0, -1]], (0,), [[1, 2]], 4)),
        ("eta_mod", ([[-1, 1]], (1,), [[3], [2]], 4)),
    ],
)
def test_composite_modulus_without_inverse_raises_on_both_backends(fast, kernel, args):
    for impl in (fast, py):
        with pytest.raises(ValueError, match="not invertible"):
            _kernel(impl, kernel)(*args)


def test_composite_moduli_agree_with_the_pure_kernels(fast):
    # Inverses modulo a composite number, where they exist, from the
    # extended Euclidean algorithm; the same error where they do not.
    # Shapes up to 12 x 12, Khatri-Rao products up to 12 rows.
    rng = random.Random(8)
    for _ in range(300):
        n = rng.choice((4, 6, 9, 15, 91, 2**32 + 1, 2**64 - 1))
        n_cols = rng.randint(1, 12)
        rows = [[rng.randrange(-n, n) for _ in range(n_cols)]
                for _ in range(rng.randint(1, 12))]
        if len(rows) > 2 and rng.random() < 0.5:  # a dependent row
            rows[-1] = [3 * a - b for a, b in zip(rows[0], rows[1])]
        top, bottom = rows[:rng.randint(1, 4)], rows[-rng.randint(1, 3):]
        exps = [[rng.randint(-3, 5) for _ in range(n_cols)] for _ in rows]
        point = [rng.randrange(1, n) for _ in rows]
        for kernel, args in (
            ("rank_mod", (rows, n)),
            ("kr_rank_mod", (top, bottom, n)),
            ("eval_columns_mod", (exps, point, n)),
            ("eta_mod", (exps, (1,), [point, point[::-1]], n)),
        ):
            assert _outcome(_kernel(fast, kernel), *args) == _outcome(
                _kernel(py, kernel), *args
            ), (kernel, args)


def test_empty_and_degenerate_shapes(fast):
    for impl in (fast, py):
        assert impl.rank_mod([], 101) == 0
        assert impl.rank_mod([[], []], 101) == 0
        assert impl.kr_rank_mod([[1, 2]], [], 101) == 0
        assert _columns(impl)([], [1], 101) == []
        assert impl.eta_mod([], (1,), [[1], [2]], 101) == [[], []]
