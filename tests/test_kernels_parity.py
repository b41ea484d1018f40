"""Backend parity: the compiled kernels must match the pure-Python ones.

`fast` (see conftest.py) is compiled from `_fastkernels.c` for this session,
so these tests run whichever backend `toricdim.kernels` picked.
"""

import random

import pytest

from toricdim import DEFAULT_PRIME, backend_name
from toricdim import _kernels_py as py

P64 = 17293822569102704683  # a prime above 2^63


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
            assert fast.eval_columns_mod(mat, point, p) == py.eval_columns_mod(
                mat, point, p
            )


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
            impl.eval_columns_mod(mat, [3, 101], 101)


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
            getattr(impl, kernel)(*args)


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
            getattr(impl, kernel)(*args)


def test_composite_moduli_agree_with_the_pure_kernels(fast):
    # Inverses modulo a composite number, where they exist, from the
    # extended Euclidean algorithm; the same error where they do not.
    rng = random.Random(8)
    for _ in range(200):
        n = rng.choice((4, 6, 9, 15, 91, 2**32 + 1, 2**64 - 1))
        rows = [[rng.randrange(-n, n) for _ in range(3)] for _ in range(rng.randint(1, 3))]
        exps = [[rng.randint(-3, 5) for _ in range(3)] for _ in rows]
        point = [rng.randrange(1, n) for _ in rows]
        for kernel, args in (
            ("rank_mod", (rows, n)),
            ("kr_rank_mod", (rows, rows, n)),
            ("eval_columns_mod", (exps, point, n)),
            ("eta_mod", (exps, (1,), [point, point[::-1]], n)),
        ):
            assert _outcome(getattr(fast, kernel), *args) == _outcome(
                getattr(py, kernel), *args
            ), (kernel, args)


def test_empty_and_degenerate_shapes(fast):
    for impl in (fast, py):
        assert impl.rank_mod([], 101) == 0
        assert impl.rank_mod([[], []], 101) == 0
        assert impl.kr_rank_mod([[1, 2]], [], 101) == 0
        assert impl.eval_columns_mod([], [1], 101) == []
        assert impl.eta_mod([], (1,), [[1], [2]], 101) == [[], []]
