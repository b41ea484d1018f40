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
    ],
)
def test_malformed_shapes_raise_value_error(fast, kernel, args):
    for impl in (fast, py):
        with pytest.raises(ValueError):
            getattr(impl, kernel)(*args)


def test_empty_and_degenerate_shapes(fast):
    for impl in (fast, py):
        assert impl.rank_mod([], 101) == 0
        assert impl.rank_mod([[], []], 101) == 0
        assert impl.kr_rank_mod([[1, 2]], [], 101) == 0
        assert impl.eval_columns_mod([], [1], 101) == []
