"""Backend parity: the compiled kernels must match the pure-Python ones.

`fast` (see conftest.py) is compiled from `_fastkernels.c` for this session,
so these tests run whichever backend `toricdim.kernels` picked.
"""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import KERNEL_NAMES, rational_normal_curve

from toricdim import (
    ALTERNATE_PRIMES, DEFAULT_PRIME, VarietyDescriptor, backend_name, is_probable_prime, kernels,
    normalize,
)
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
# The compiled elimination defers the updates of up to
# K(p) = min(16, (2^128 - 1) // (p - 1)^2) pivots into one 128-bit sum: the
# nearest primes on either side of the switch from 16 to 15 (2^62) and of
# the one from 2 to 1 (1 + 2^63.5), the largest prime below 2^64 (K = 1)
# and two composites (K = 4 and 1).
PANEL_MODULI = [
    2**62 - 57, 2**62 + 135, 13043817825332782193, 13043817825332782231,
    P64_MAX, 2**63 - 2, 2**64 - 1,
]


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


def test_kernel_names_are_the_compiled_entry_points(fast):
    # `use_kernels` swaps exactly these names, so no backend swap misses one,
    # and `kernels` serves each of them from the backend it picked.
    assert sorted(KERNEL_NAMES) == sorted(n for n in dir(fast) if not n.startswith("_"))
    assert "hadamard_ranks_mod" in KERNEL_NAMES
    for name in KERNEL_NAMES:
        assert getattr(kernels, name) is getattr(kernels._impl, name)


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


@functools.cache
def _planted_cases(p):
    """Full rank, dependent rows, zero columns, tall and wide: 60-150 rows,
    as (kernel, args, rank) cases."""
    rng = random.Random(p % 1000)
    return [
        ("rank_mod", (_planted(rng, n_rows, n_cols, rank, p, zero_cols), p), rank)
        for n_rows, n_cols, rank, zero_cols in (
            (60, 60, 60, 0), (80, 80, 71, 0), (100, 100, 83, 5),
            (150, 40, 40, 0), (150, 70, 61, 9), (60, 150, 60, 0), (70, 130, 52, 12),
        )
    ]


def _check(impls, cases):
    """Each case (kernel name, args, expected value or ValueError message)
    on each backend."""
    for kernel, args, want in cases:
        for impl in impls:
            assert _outcome(_kernel(impl, kernel), *args) == want, (impl.__name__, kernel, args[-1])


@pytest.mark.parametrize("p", LARGE_PRIMES)
def test_rank_parity_on_large_planted_instances(fast, p):
    _check((py, fast), _planted_cases(p))


@pytest.mark.parametrize("p", LARGE_PRIMES)
def test_sanitized_rank_on_large_planted_instances(fast_ubsan, p):
    _check((fast_ubsan,), _planted_cases(p))


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


@functools.cache
def _growth_cases(p):
    # Rows 0..n-2 have 1 on the diagonal and p - 1 right of it, and the last
    # row is their sum.  The last row meets f = 1 at every pivot and a pivot
    # row of p - 1, so each update adds (p - 1)^2 to every slot it has left,
    # and it must end as a multiple of p in every slot.  At p = 2^61 - 1 and
    # n = 100 its last slot reaches 99 (p - 1)^2 > 2^128, past 16 bytes.
    # Every pivot is 1 or p - 1, a unit modulo any p, so the ranks hold for
    # composite moduli too.
    cases = []
    for n in (60, 100, 150):
        upper = [[p - 1 if j > k else int(j == k) for j in range(n)] for k in range(n - 1)]
        mat = upper + [[sum(col) % p for col in zip(*upper)]]
        full = [[p - 1] * n for _ in range(n)]
        cases += [
            ("rank_mod", (mat, p), n - 1),
            ("kr_rank_mod", (mat, [[1] * n], p), n - 1),
            ("rank_mod", (full, p), 1),
            ("kr_rank_mod", (full, full[:1], p), 1),
        ]
    # Rows that find their pivots out of column order, at columns 2, 0, 3,
    # 1, 6 and 4, then two dependent rows.  After the first two pivots the
    # all-pivot leading columns are 0 alone, after four 0..3, after six
    # 0..4: the pure echelon must reduce a row by column 0's pivot before
    # column 2's, which was found first, and may cut it only after a pivot
    # inside that run.
    mat = _echelon(8, [2, 0, 3, 1, 6, 4], p, p - 1, random.Random(p % 1000))
    cases += [("rank_mod", (mat, p), 6), ("kr_rank_mod", (mat, [[1] * 8], p), 6)]
    return cases


@pytest.mark.parametrize("p", LARGE_PRIMES + SMALL_AND_COMPOSITE + [6])
def test_rank_parity_when_every_update_has_maximal_growth(fast, p):
    _check((py, fast), _growth_cases(p))


@pytest.mark.parametrize("p", LARGE_PRIMES + SMALL_AND_COMPOSITE)
def test_sanitized_rank_when_every_update_has_maximal_growth(fast_ubsan, p):
    _check((fast_ubsan,), _growth_cases(p))


@functools.cache
def _p_minus_1_cases(p):
    # (p - 1)^2 = 1 mod p is where the compiled row update's quotient
    # estimate falls one short for most p, leaving t = f y - q p in [p, 2p)
    # for the final subtraction.  Below a = (1, p-1, p-1, ...), the row
    # b = (p-1, 0, 2, 0, 2, ...) is updated with f = p - 1 against pivot
    # entries p - 1: the 0 slots take 0 - 1 and the 2 slots 2 - 1, so b
    # becomes (0, -1, 1, -1, 1, ...) = -c exactly when each product was
    # reduced below p.  Rank 2 modulo any number, in every row order.
    cases = []
    for n in (3, 8, 41):
        a = [1] + [p - 1] * (n - 1)
        b = [p - 1] + [2 * (j % 2) for j in range(n - 1)]
        c = [0] + [1 if j % 2 == 0 else p - 1 for j in range(n - 1)]
        for mat in itertools.permutations([a, b, c]):
            cases += [("rank_mod", (list(mat), p), 2), ("kr_rank_mod", (list(mat), [[1] * n], p), 2)]
    return cases


@pytest.mark.parametrize("p", LARGE_PRIMES + SMALL_AND_COMPOSITE)
def test_rank_parity_on_rows_of_p_minus_1(fast, p):
    _check((py, fast), _p_minus_1_cases(p))


@pytest.mark.parametrize("p", LARGE_PRIMES + SMALL_AND_COMPOSITE)
def test_sanitized_rank_on_rows_of_p_minus_1(fast_ubsan, p):
    _check((fast_ubsan,), _p_minus_1_cases(p))


@functools.cache
def _log_uniform_cases():
    # Every width of modulus from 2 bits to 64, most of them composite:
    # ranks, Khatri-Rao ranks and the errors of missing inverses, as the
    # pure kernels give them.
    rng = random.Random(9)
    cases = []
    for _ in range(400):
        p = max(2, min(int(2 ** rng.uniform(1, 64)), 2**64 - 1))
        n_cols = rng.randint(1, 10)
        rows = [[rng.randrange(-p, 2 * p) for _ in range(n_cols)]
                for _ in range(rng.randint(1, 10))]
        if len(rows) > 2 and rng.random() < 0.5:  # a dependent row
            rows[-1] = [a - 5 * b for a, b in zip(rows[0], rows[1])]
        top, bottom = rows[:rng.randint(1, 4)], rows[-rng.randint(1, 3):]
        cases.append(("rank_mod", (rows, p), _outcome(py.rank_mod, rows, p)))
        cases.append(("kr_rank_mod", (top, bottom, p), _outcome(py.kr_rank_mod, top, bottom, p)))
    return cases


def test_rank_parity_over_log_uniform_moduli(fast):
    _check((fast,), _log_uniform_cases())


def test_sanitized_rank_over_log_uniform_moduli(fast_ubsan):
    _check((fast_ubsan,), _log_uniform_cases())


def _panel_width(p):
    return min(16, (2**128 - 1) // (p - 1) ** 2)


def test_panel_moduli_straddle_each_switch_of_the_panel_width():
    assert [_panel_width(p) for p in PANEL_MODULI] == [16, 15, 2, 1, 1, 4, 1]


def _echelon(n_cols, pivots, p, fill, rng, dependent=2, unit=None):
    """L U plus `dependent` rows that are random combinations of its rows.

    U has a 1 in row t at column pivots[t], zeros left of it and `fill`
    right of it, or random residues when fill is None.  L is unit lower
    triangular with L[i][s] = r_i g_s below the diagonal, where r_i = 1 and
    g_s = fill, or both are random.  Without swaps, the elimination's factors
    are the entries of L and its scaled pivot rows are those of U, so with
    fill = p - 1 every deferred sum of k updates reaches k (p - 1)^2.
    `unit` = (t, u) puts u in place of the 1 of pivot t.  Rank len(pivots)
    unless a pivot has no inverse mod p.
    """
    def draw(x):
        return rng.randrange(1, p) if fill is None else x

    mat = []
    below = [0] * n_cols  # sum of g_s U[s] over the rows s so far
    for t, c in enumerate(pivots):
        row = [0] * c + [unit[1] if unit and unit[0] == t else 1]
        row += [draw(fill) for _ in range(c + 1, n_cols)]
        r, g = draw(1), draw(fill)
        mat.append([(a + r * b) % p for a, b in zip(row, below)])
        below = [(b + g * a) % p for a, b in zip(row, below)]
    for _ in range(dependent):
        coeffs = [rng.randrange(p) for _ in mat]
        mat.append([sum(a * row[j] for a, row in zip(coeffs, mat)) % p for j in range(n_cols)])
    return mat


# (columns, pivotless columns): the rows find their pivots in column
# order, 16 to a panel, so a pivotless column comes before the columns of a
# panel (0 in (17, (0,))), falls between them (15 in (17, (15,)), which a
# row must update together with the panel's own columns), or comes after
# them all (the last column).
PANEL_SHAPES = [
    (15, ()), (16, ()), (17, ()), (33, ()), (17, (0,)), (17, (15,)), (20, (16, 19)),
    (33, (5, 15, 16)), (40, (0, 15, 31, 32, 39)), (33, (32,)),
]


@pytest.mark.parametrize("p", PANEL_MODULI + [DEFAULT_PRIME])
def test_rank_parity_inside_and_across_panels(fast, p):
    # Square and wide, with dependent rows below, pivotless columns at the
    # edges of panels, and every deferred sum at its largest (fill = p - 1)
    # or random.
    rng = random.Random(p % 997)
    cases = []
    for n_cols, pivotless in PANEL_SHAPES:
        pivots = [c for c in range(n_cols) if c not in pivotless]
        for fill in (p - 1, None):
            for rows in (pivots, pivots[:len(pivots) // 2 + 1]):
                cases.append(("rank_mod", (_echelon(n_cols, rows, p, fill, rng), p), len(rows)))
    _check((py, fast), cases)


@pytest.mark.parametrize("p", [2**62 - 1, 2**63 - 2, 2**64 - 1])
def test_non_invertible_pivot_inside_a_panel_raises_on_both_backends(fast, p):
    # 3 divides all three moduli, whose panels are 16, 4 and 1 pivots wide.
    # As pivot 6 or 21 it falls inside a panel of 16 or of 4, after the
    # deferred updates of the pivots before it, and both backends raise
    # pow(3, -1, p)'s error.
    rng = random.Random(5)
    message = _outcome(pow, 3, -1, p)
    for n_cols, t in ((24, 6), (40, 21)):
        for fill in (p - 1, None):
            mat = _echelon(n_cols, list(range(n_cols)), p, fill, rng, unit=(t, 3))
            _check((py, fast), [("rank_mod", (mat, p), message),
                                ("kr_rank_mod", (mat, [[1] * n_cols], p), message)])


@pytest.mark.parametrize("p", [p for p in PANEL_MODULI if is_probable_prime(p)] + [DEFAULT_PRIME])
def test_kr_rank_parity_with_sparse_exponent_rows(fast, p):
    # Khatri-Rao rows eta_i * a_k with exponent rows a_k of 0, 1 and 2, as
    # in a probe: in the first panels most rows below the pivots have some
    # zero factors, and later ones have all of them nonzero.  A dependent
    # top row makes the product rank deficient, so every deferred sum must
    # be exact.
    rng = random.Random(p % 991)
    for n_top, n_bot, n_cols in ((8, 5, 60), (12, 4, 70)):
        top = [[rng.randrange(1, p) for _ in range(n_cols)] for _ in range(n_top)]
        top.append([(a - 3 * b) % p for a, b in zip(top[0], top[1])])
        bottom = [[rng.choice((0, 0, 0, 1, 2)) for _ in range(n_cols)] for _ in range(n_bot)]
        rank = py.kr_rank_mod(top, bottom, p)
        assert fast.kr_rank_mod(top, bottom, p) == rank
        assert rank == py.rank_mod(py.khatri_rao_mod(top[:-1], bottom, p), p)


@pytest.mark.parametrize("p", [-5, 0, 1, 2**64, 2**64 + 1])
def test_moduli_outside_a_64_bit_word_raise_the_same_error(fast, p):
    for kernel, args in (
        ("rank_mod", ([[1, 2]], p)),
        ("kr_rank_mod", ([[1, 2]], [[3, 4]], p)),
        ("eta_mod", ([[1, 0], [0, 1]], (0,), [[2, 3]], p)),
        ("torus_points_mod", (2, 3, 0, p)),
        ("secant_ranks_mod", ([[1, 0], [0, 1]], [[2, 3]], p)),
        ("hadamard_ranks_mod", ([[1, 0], [0, 1]], [(0,)], [[2, 3]], p)),
    ):
        message = _outcome(getattr(py, kernel), *args)
        assert message.startswith("modulus must be")
        assert _outcome(getattr(fast, kernel), *args) == message


# The smallest moduli (p = 2 accepts half of all words, p = 3 and 5 as
# few), the probes' primes, and primes on either side of 2^63 (the top word
# bit) up to 2^64 - 59, where a coordinate is a whole 64-bit word.  Powers
# of two, where p and p - 1 differ in bit length, and 2^64 - 1: the kernels
# draw modulo any number they accept.
TORUS_MODULI = [
    2, 3, 5, 65537, DEFAULT_PRIME, *ALTERNATE_PRIMES, P63_ABOVE, P64_MAX,
    4, 2**32, 2**63, 2**64 - 1,
]
TORUS_SEEDS = [0, 1, -1, 2**64 - 1, 2**64, 10**30]


@functools.cache
def _torus_cases():
    """The pure points at every modulus and seed, and the ValueErrors of a
    negative count and of a width below 1, before or after a bad modulus."""
    cases = [
        ("torus_points_mod", args, py.torus_points_mod(*args))
        for p in TORUS_MODULI for seed in TORUS_SEEDS
        for args in ((7, 11, seed, p), (0, 3, seed, p))
    ]
    shape = "need count >= 0 and width >= 1"
    for args, message in (
        ((-1, 3, 0, 101), shape), ((2, 0, 0, 101), shape), ((-3, -4, 5, 101), shape),
        ((-1, 0, 0, 1), "modulus must be at least 2"),
        ((-1, 0, 0, 2**64), "modulus must be below 2^64"),
    ):
        cases.append(("torus_points_mod", args, message))
    return cases


def test_torus_points_parity(fast):
    _check((py, fast), _torus_cases())


def test_sanitized_torus_points(fast_ubsan):
    _check((fast_ubsan,), _torus_cases())


@functools.cache
def _stream_cases():
    """The pure ranks after each block of the secant stream, or its
    ValueError, at every modulus of the point draws: the chart of the
    rational normal curve of degree 8, a quadratic Veronese of P^5 (21
    columns, so the stream crosses panels at every width), and random
    exponent matrices with negative entries, at 0, 1 and 7 points; then
    a point list that reaches the column count at the first block, so that
    a later point whose coordinate has no inverse is never evaluated."""
    rng = random.Random(9)
    mats = [
        normalize(rational_normal_curve(8)).entries,
        [list(row) for row in VarietyDescriptor.veronese(2, 5).matrix().entries],
    ]
    for _ in range(3):
        n_vars = rng.randint(1, 4)
        n_cols = rng.randint(2, 9)
        mats.append([[rng.randint(-3, 4) for _ in range(n_cols)] for _ in range(n_vars)])
    cases = []
    for p in TORUS_MODULI:
        for i, rows in enumerate(mats):
            for count in (0, 1, 7):
                args = (rows, py.torus_points_mod(count, len(rows), i + count, p), p)
                cases.append(("secant_ranks_mod", args, _outcome(py.secant_ranks_mod, *args)))
    args = ([[1, -1], [0, 1]], [[1, 1], [3, 3], [2, 2]], 4)
    cases.append(("secant_ranks_mod", args, [2, 2, 2]))
    return cases


def test_secant_ranks_parity(fast):
    _check((py, fast), _stream_cases())


def test_sanitized_secant_ranks(fast_ubsan):
    _check((fast_ubsan,), _stream_cases())


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
    rows = normalize(rational_normal_curve(8)).entries
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
        ("secant_ranks_mod", ([[1, 2], [3]], [[1, 2]], 101)),
        ("secant_ranks_mod", ([[1, 2], [3, 4]], [[1, 2], [3]], 101)),
        ("secant_ranks_mod", ([[1, 2], [3, 4]], [[1, 2, 3]], 101)),  # point width
        ("secant_ranks_mod", ([[1, 2], [3, 4]], [[1, 2], [3, 202]], 101)),  # 0 mod p
        ("hadamard_ranks_mod", ([[1, 2], [3]], [(1,)], [[1, 2], [3, 4]], 101)),
        ("hadamard_ranks_mod", ([[1, 2], [3, 4]], [(1,)], [[1, 2], [3, 202]], 101)),
        ("hadamard_ranks_mod", ([[1, 2], [3, 4]], [(0,), (1, 1)], [[1, 2], [3, 4]], 101)),
        ("hadamard_ranks_mod", ([[1, 2], [3, 4]], [(1,), (2, -1)], [[1, 2], [3, 4]], 101)),
        ("hadamard_ranks_mod", ([[1, 2], [3, 4]], [(1, -1), (3,)], [[1, 2], [3, 4]], 101)),
    ],
)
def test_malformed_shapes_raise_value_error(fast, kernel, args):
    message = _outcome(_kernel(py, kernel), *args)
    assert isinstance(message, str)
    if kernel in ("secant_ranks_mod", "hadamard_ranks_mod"):
        assert _outcome(getattr(fast, kernel), *args) == message
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
        ("secant_ranks_mod", ([[1, 1], [0, -1]], [[1, 2]], 4)),  # a coordinate
        ("secant_ranks_mod", ([[1, 2, 3]], [[1], [2]], 6)),  # the pivot of block 2
    ],
)
def test_composite_modulus_without_inverse_raises_on_both_backends(fast, kernel, args):
    for impl in (fast, py):
        with pytest.raises(ValueError, match="not invertible"):
            _kernel(impl, kernel)(*args)
    assert _outcome(_kernel(fast, kernel), *args) == _outcome(_kernel(py, kernel), *args)


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
            ("secant_ranks_mod", (exps, [point, point[::-1]], n)),
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
        assert impl.secant_ranks_mod([[1, 2]], [], 101) == []
        assert impl.secant_ranks_mod([], [[1], [2]], 101) == [0, 0]
        assert impl.hadamard_ranks_mod([[1, 2]], [], [], 101) == []
        assert impl.hadamard_ranks_mod([], [(1,), ()], [[1], [2]], 101) == [0, 0]


def _ragged(rng, n_rows, n_cols, low):
    """n_rows rows of n_cols entries in low..8; 15% of the time one row is
    an entry shorter or longer."""
    rows = [[rng.randint(low, 8) for _ in range(n_cols)] for _ in range(n_rows)]
    if rows and rng.random() < 0.15:
        row = rng.choice(rows)
        if row and rng.random() < 0.5:
            row.pop()
        else:
            row.append(1)
    return rows


@functools.cache
def _fuzz_cases(n=20000):
    """Seeded malformed inputs for the four kernels that read matrices, with
    the pure outcome: 0-3 exponent rows of 0-3 entries in -1..8, 0-3 points
    of one width from n_vars - 1 to n_vars + 1 with coordinates 0..8 (each
    matrix ragged 15% of the time), a prime or a composite modulus, and r'
    of 0-2 entries in -1..2; for `hadamard_ranks_mod`, 0-3 such r' of
    different lengths, from a generator of their own."""
    rng, lists = random.Random(1), random.Random(2)
    cases = []
    for _ in range(n):
        rows = _ragged(rng, rng.randint(0, 3), rng.randint(0, 3), -1)
        width = max(0, len(rows) + rng.randint(-1, 1))
        points = _ragged(rng, rng.randint(0, 3), width, 0)
        p = rng.choice((4, 6, 7, 101))
        r_prime = tuple(rng.randint(-1, 2) for _ in range(rng.randint(0, 2)))
        for kernel, args in (
            ("rank_mod", (rows, p)),
            ("kr_rank_mod", (points, rows, p)),
            ("eta_mod", (rows, r_prime, points, p)),
            ("secant_ranks_mod", (rows, points, p)),
            ("hadamard_ranks_mod", (rows, [
                tuple(lists.randint(-1, 2) for _ in range(lists.randint(0, 2)))
                for _ in range(lists.randint(0, 3))
            ], points, p)),
        ):
            cases.append((kernel, args, _outcome(getattr(py, kernel), *args)))
    return cases


def test_malformed_input_parity(fast):
    _check((fast,), _fuzz_cases())


def test_sanitized_malformed_input(fast_ubsan):
    _check((fast_ubsan,), _fuzz_cases())


@pytest.mark.parametrize(
    "kernel, args, want",
    [
        # The width of the points is checked before their count against r'.
        ("eta_mod", ([[1, 2], [3, 4]], (5,), [[1, 2, 3], [4, 5, 6]], 101),
         "point length differs from the number of rows"),
        # Points of different lengths, even where there are no rows.
        ("eta_mod", ([], (2, 0), [[], [5], []], 7), "rows have different lengths"),
        # A point without an inverse at modulus 4, reached while the rank
        # (at most 2 after the first block) is below the 3 columns.
        ("secant_ranks_mod", ([[1, -1, 2], [0, 1, 1]], [[1, 1], [2, 2], [3, 3]], 4),
         "base is not invertible for the given modulus"),
    ],
)
def test_malformed_input_raises_the_same_error(fast, fast_ubsan, kernel, args, want):
    _check((py, fast, fast_ubsan), [(kernel, args, want)])


def _current_form(impl, rows, r_prime, points, p):
    """The rank of eta (x) rows at the first sum(r') + 1 points, as the
    probes took it before the normalised blocks, or its ValueError."""
    n = sum(r_prime) + 1
    return _outcome(lambda: impl.kr_rank_mod(impl.eta_mod(rows, r_prime, points[:n], p), rows, p))


# Where S_k(c) = 0 is common (5 to 13), the probes' prime, a prime above
# 2^63, and composite moduli, where a pivot or a coordinate may have no
# inverse.
HADAMARD_MODULI = [5, 7, 11, 13, DEFAULT_PRIME, P64, 4, 6, 9, 15, 2**63 - 2, 2**64 - 1]


@functools.cache
def _hadamard_cases():
    """Random exponent matrices, some with negative exponents, and batches
    of factor lists r' in lexicographic order (repeats, shared prefixes and
    empty lists among them), at the points of the probes' stream for the
    most points any list takes, at every modulus of HADAMARD_MODULI; then
    the batches one list at a time, at that list's own points."""
    rng = random.Random(11)
    cases = []
    for p in HADAMARD_MODULI:
        for _ in range(12):
            n_vars, n_cols = rng.randint(1, 4), rng.randint(1, 24)
            low = rng.choice((0, 0, -2))
            rows = [[rng.randint(low, 4) for _ in range(n_cols)] for _ in range(n_vars)]
            batch = sorted(
                tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 4)))
                for _ in range(rng.randint(1, 10))
            )
            need = max(sum(r_prime) + 1 for r_prime in batch)
            points = py.torus_points_mod(need, n_vars, rng.randrange(2**64), p)
            cases.append((rows, batch, points, p))
            cases += [(rows, [r_prime], points[:sum(r_prime) + 1], p) for r_prime in batch]
    return cases


def _check_hadamard(impls, cases):
    """Each list's rank is None or the current form's, on each backend.  A
    batch of one with a ValueError has the current form's, and a batch with
    one has that of one of its lists.  Returns the count of None."""
    fallbacks = 0
    for rows, batch, points, p in cases:
        want = [_current_form(py, rows, r_prime, points, p) for r_prime in batch]
        for impl in impls:
            got = _outcome(impl.hadamard_ranks_mod, rows, batch, points, p)
            if isinstance(got, str):
                assert got in want and (len(batch) > 1 or [got] == want), (p, rows, batch)
                continue
            assert len(got) == len(batch)
            for rank, current in zip(got, want):
                assert rank is None or rank == current, (p, rows, batch)
            fallbacks += got.count(None)
    return fallbacks


def test_hadamard_ranks_equal_the_current_form(fast):
    cases = _hadamard_cases()
    for rows, batch, points, p in cases:
        assert _outcome(fast.hadamard_ranks_mod, rows, batch, points, p) == _outcome(
            py.hadamard_ranks_mod, rows, batch, points, p
        )
    assert _check_hadamard((py,), cases) > 0
    # At the large primes no S_k(c) is 0, so every list has its rank.
    large = [case for case in cases if case[3] in (DEFAULT_PRIME, P64)]
    assert _check_hadamard((py,), large) == 0


def test_sanitized_hadamard_ranks(fast_ubsan):
    _check_hadamard((fast_ubsan,), _hadamard_cases())


def _planted_zero(p):
    """The chart of the rational normal quartic, whose column h is
    y_0 y_1^h, at points whose second is (-1, 2): S_1(0) = 1 + (p - 1) is
    0 for the factor lists (1,) and (1, 1), which need the fallback.  The
    third point (1, 2) makes S_1 = 1 + (p - 1) 2^h + 2^h = 1 for (2,)."""
    rows = [[1] * 5, [0, 1, 2, 3, 4]]
    return rows, [(1,), (1, 1), (2,)], [[3, 5], [p - 1, 2], [1, 2]], p


@pytest.mark.parametrize("p", [7, DEFAULT_PRIME])
def test_planted_non_unit_takes_the_fallback(fast, p):
    rows, batch, points, p = _planted_zero(p)
    for impl in (py, fast):
        ranks = impl.hadamard_ranks_mod(rows, batch, points, p)
        assert ranks[:2] == [None, None]
        assert ranks[2] == _current_form(impl, rows, batch[2], points, p)
