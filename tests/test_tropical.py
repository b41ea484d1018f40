import random

import pytest

from conftest import rational_normal_curve

from toricdim import (
    ExponentMatrix,
    Support,
    VarietyDescriptor,
    classify_support,
    generic_hrank,
    segre_veronese,
)
from toricdim._rational import rational_rank
from toricdim.hadamdim import STATUS_FOUND, STATUS_INFINITE
from toricdim.tropical import (
    VERDICT_BINOMIAL,
    VERDICT_NOT_SEGMENT,
    VERDICT_POINT,
    VERDICT_SEGMENT_INTERIOR,
)


def test_support_validation():
    with pytest.raises(ValueError, match="non-empty"):
        Support.of([])
    with pytest.raises(ValueError, match="one length"):
        Support.of([(1, 0), (1,)])
    with pytest.raises(ValueError, match="distinct"):
        Support.of([(1, 0), (1, 0)])
    with pytest.raises(ValueError, match="nonnegative"):
        Support.of([(1, -1)])
    assert Support.of([(0, 3), (2, 1)]).size == 2


def test_classify_support_all_verdicts():
    assert classify_support(Support.of([(4, 4)])) == VERDICT_POINT
    assert classify_support(Support.of([(1, 0)])) == VERDICT_POINT
    assert classify_support(Support.of([(3, 0), (0, 3)])) == VERDICT_BINOMIAL
    assert classify_support(Support.of([(2, 0), (0, 2)])) == VERDICT_BINOMIAL
    assert classify_support(Support.of([(5,), (0,)])) == VERDICT_BINOMIAL
    # x^2, xy, y^2: collinear exponents, so it factors after a monomial
    # substitution even though it has three terms
    assert (
        classify_support(Support.of([(2, 0), (1, 1), (0, 2)]))
        == VERDICT_SEGMENT_INTERIOR
    )
    assert (
        classify_support(Support.of([(2, 0), (0, 1), (0, 0)])) == VERDICT_NOT_SEGMENT
    )


def test_classification_invariant_under_affine_lattice_maps():
    rng = random.Random(3)
    base = [(2, 0), (1, 1), (0, 2)]
    for _ in range(10):
        # unimodular shear plus a translation keeps collinearity
        k = rng.randint(0, 3)
        t = (rng.randint(0, 4), rng.randint(0, 4))
        moved = [(x + k * y + t[0], y + t[1]) for x, y in base]
        assert classify_support(Support.of(moved)) == VERDICT_SEGMENT_INTERIOR
        assert (
            classify_support(Support.of(moved[:2])) == VERDICT_BINOMIAL
        )


def test_infinite_generic_hrank_criterion():
    # For r = 1 the generic Hadamard rank is infinite exactly when the
    # exponent matrix has rank below its column count: a kernel vector is a
    # binomial relation that every Hadamard power keeps.
    def hrank(rows):
        return generic_hrank(VarietyDescriptor.custom(ExponentMatrix(rows)), 1)

    assert hrank(rational_normal_curve(8).entries).status == STATUS_INFINITE
    dense = hrank(((1, 0), (0, 1)))
    assert dense.status == STATUS_FOUND and dense.found_m == 1
    for rows in (
        rational_normal_curve(3).entries,
        segre_veronese((2,), (2,)).entries,
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ):
        assert (hrank(rows).status == STATUS_INFINITE) == (
            rational_rank(rows) < len(rows[0])
        )
