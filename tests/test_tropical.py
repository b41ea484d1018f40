import random

import pytest

from toricdim import (
    Support,
    classify_support,
    infinite_generic_hrank_toric,
    rational_normal_curve,
    segre_veronese,
    trop_hadamard_sum,
    trop_toric,
)
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


def test_trop_toric_dimensions():
    span = trop_toric(rational_normal_curve(8))
    assert span.dim == 2
    assert span.projective_dim == 1
    assert span.n_cols == 9

    eye = trop_toric([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert eye.dim == 3

    for degrees, dims in (((2,), (2,)), ((1, 1), (1, 2)), ((3,), (1,))):
        mat = segre_veronese(degrees, dims)
        assert trop_toric(mat).projective_dim == mat.rank() - 1


def test_trop_toric_basis_spans_the_rows():
    from toricdim._rational import rational_rank

    mat = segre_veronese((1, 1), (1, 1))
    span = trop_toric(mat)
    stacked = [list(r) for r in span.basis] + [list(r) for r in mat.entries]
    assert rational_rank(stacked) == span.dim


def test_trop_hadamard_sum_idempotent_and_disjoint():
    rnc = rational_normal_curve(5)
    same = trop_hadamard_sum(rnc, rnc)
    assert same.sum_rank == 2
    assert same.projective_sum_dim == 1

    a = [[1, 0, 0, 0], [0, 1, 0, 0]]
    b = [[0, 0, 1, 0], [0, 0, 0, 1]]
    rep = trop_hadamard_sum(a, b)
    assert rep.rank_a == 2 and rep.rank_b == 2
    assert rep.sum_rank == 4  # complementary spans add up
    d = rep.to_dict()
    assert d["sum_rank"] == 4

    partial = trop_hadamard_sum([[1, 1, 1, 1], [0, 1, 2, 3]], [[0, 0, 1, 1], [1, 1, 1, 1]])
    assert partial.sum_rank == 3  # shared all-ones direction collapses once

    with pytest.raises(ValueError, match="column counts"):
        trop_hadamard_sum([[1, 0]], [[1, 0, 0]])


def test_infinite_generic_hrank_criterion():
    assert infinite_generic_hrank_toric(rational_normal_curve(8))
    assert not infinite_generic_hrank_toric([[1, 0], [0, 1]])
    # criterion is exactly rank < column count
    for mat in (
        rational_normal_curve(3),
        segre_veronese((2,), (2,)),
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    ):
        rows = mat.row_lists() if hasattr(mat, "row_lists") else mat
        from toricdim._rational import rational_rank

        assert infinite_generic_hrank_toric(mat) == (
            rational_rank([list(r) for r in rows]) < len(rows[0])
        )
