"""The validated value types are named tuples: each still rejects bad input
with its message, normalises what it stores, refuses field assignment and
hashes by value.  Like any tuple, an instance equals a plain tuple of the
same values."""

import re

import pytest

from toricdim import DEFAULT_PRIME, ExponentMatrix, HadamardSpec, RunConfig, Support

BAD_INPUT = [
    (lambda: RunConfig(prime=65536), "prime must be a probable prime between 2^16 and 2^64"),
    (lambda: ExponentMatrix(((1, 2), (3,))), "ragged rows: all rows must have equal length"),
    (lambda: ExponentMatrix(()), "matrix must have at least one row and one column"),
    (lambda: ExponentMatrix(((),)), "matrix must have at least one row and one column"),
    (lambda: HadamardSpec((2, 0)), "every factor index r_k must be >= 1"),
    (lambda: HadamardSpec(()), "every factor index r_k must be >= 1"),
    (lambda: Support(((1, 0), (1, 0))), "support vectors must be pairwise distinct"),
]


@pytest.mark.parametrize("build, message", BAD_INPUT)
def test_bad_input_raises_the_same_message(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_constructors_normalise():
    assert HadamardSpec([2, 3]).r == (2, 3)
    assert type(HadamardSpec([2, 3]).r) is tuple
    entries = ExponentMatrix([[1, 0], [0, 1]]).entries
    assert entries == ((1, 0), (0, 1))
    assert type(entries) is tuple and all(type(row) is tuple for row in entries)


VALUES = [
    (lambda: RunConfig(seed=3), "seed", 4),
    (lambda: ExponentMatrix(((1, 1), (0, 1))), "entries", ((1, 1),)),
    (lambda: HadamardSpec((2, 3)), "r", (2,)),
    (lambda: Support(((1, 0), (0, 1))), "vectors", ((1, 0),)),
]


@pytest.mark.parametrize("build, field, other", VALUES)
def test_fields_are_read_only_and_equal_values_hash_equal(build, field, other):
    a, b = build(), build()
    assert a is not b and a == b and hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, field, other)
    assert a == b


def test_run_config_repr_and_tuple_equality():
    assert repr(RunConfig()) == "RunConfig(prime=2305843009213693951, seed=0)"
    assert RunConfig() == (DEFAULT_PRIME, 0)
