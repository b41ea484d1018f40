from functools import lru_cache

import pytest

from oracles import (
    FormulaNotGuaranteedError,
    ah_defective,
    binary_sv_defective,
    generic_hrank_formula,
)

from toricdim import (
    AH_SPORADIC,
    RunConfig,
    VarietyDescriptor,
    binary_check_table,
    enumerate_check_rvectors,
    generic_hrank,
    veronese_check_table,
)


@lru_cache(maxsize=None)
def partition_count(n, max_part):
    """Independent partition counter (textbook recursion)."""
    if n == 0:
        return 1
    if n < 0 or max_part == 0:
        return 0
    return partition_count(n - max_part, max_part) + partition_count(n, max_part - 1)


def test_ah_defective_quadrics():
    for n in range(1, 7):
        for r in range(1, 9):
            assert ah_defective(2, n, r) == (2 <= r <= n)


def test_ah_defective_sporadics():
    assert AH_SPORADIC == {(3, 4, 7), (4, 2, 5), (4, 3, 9), (4, 4, 14)}
    for d, n, r in AH_SPORADIC:
        assert ah_defective(d, n, r)
        assert not ah_defective(d, n, r + 1)
        assert not ah_defective(d, n, r - 1)
    assert not ah_defective(3, 2, 4)
    assert not ah_defective(5, 4, 7)
    with pytest.raises(ValueError):
        ah_defective(0, 1, 1)


def test_binary_sv_defective_families():
    for t in range(1, 7):
        assert binary_sv_defective((2, 2 * t), 2 * t + 1)
        assert binary_sv_defective((2 * t, 2), 2 * t + 1)  # order irrelevant
        assert not binary_sv_defective((2, 2 * t), 2 * t)
        assert binary_sv_defective((1, 1, 2 * t), 2 * t + 1)
        assert not binary_sv_defective((1, 1, 2 * t + 1), 2 * t + 2)
    assert binary_sv_defective((2, 2, 2), 7)
    assert binary_sv_defective((1, 1, 1, 1), 3)
    assert not binary_sv_defective((1, 1, 1, 1), 4)
    assert not binary_sv_defective((3, 3), 5)
    with pytest.raises(ValueError):
        binary_sv_defective((), 2)
    with pytest.raises(ValueError):
        binary_sv_defective((2, 2), 0)


def test_rvector_counts_match_partition_oracle():
    # number of multi-factor vectors is p(R-1) - 1 (drop the one-part split)
    for big_r, want in ((3, 1), (5, 4), (7, 10), (9, 21), (14, 100)):
        vecs = enumerate_check_rvectors(big_r)
        assert len(vecs) == want
        assert len(vecs) == partition_count(big_r - 1, big_r - 1) - 1


def test_rvector_structure():
    assert enumerate_check_rvectors(5) == [
        (2, 2, 2, 2),
        (3, 2, 2),
        (3, 3),
        (4, 2),
    ]
    for vec in enumerate_check_rvectors(9):
        assert len(vec) >= 2
        assert all(r >= 2 for r in vec)
        assert tuple(sorted(vec, reverse=True)) == vec
        assert sum(r - 1 for r in vec) + 1 == 9
    with pytest.raises(ValueError):
        enumerate_check_rvectors(2)


def test_check_tables_have_expected_shape():
    vrows = veronese_check_table()
    assert len(vrows) == 135
    by_case = {}
    for d, n, rvec in vrows:
        by_case.setdefault((d, n), []).append(rvec)
    assert {k: len(v) for k, v in by_case.items()} == {
        (3, 4): 10,
        (4, 2): 4,
        (4, 3): 21,
        (4, 4): 100,
    }

    brows = binary_check_table()
    assert len(brows) == 11
    assert brows[-1] == ((1, 1, 1, 1), (2, 2))
    assert all(degs == (2, 2, 2) for degs, _ in brows[:-1])


def test_generic_hrank_formula_veronese():
    # C(5,2) = 10: ceil((10 - 2) / 3) = 3
    assert generic_hrank_formula("veronese", (3, 2), 2) == 3
    assert generic_hrank_formula("veronese", (3, 1), 2) == 2
    with pytest.raises(FormulaNotGuaranteedError):
        generic_hrank_formula("veronese", (2, 3), 2)
    with pytest.raises(FormulaNotGuaranteedError):
        generic_hrank_formula("veronese", (3, 2), 1)


def test_generic_hrank_formula_binary():
    # Segre of four P^1: ceil((16 - 4) / 5) = 3
    assert generic_hrank_formula("binary", (1, 1, 1, 1), 2) == 3
    with pytest.raises(FormulaNotGuaranteedError):
        generic_hrank_formula("binary", (2, 4), 2)
    with pytest.raises(FormulaNotGuaranteedError):
        generic_hrank_formula("binary", (1, 1, 6), 2)
    assert generic_hrank_formula("binary", (1, 1, 5), 2) == 6
    with pytest.raises(ValueError):
        generic_hrank_formula("binary", (), 2)


def test_generic_hrank_formula_high_degree():
    # C(4,3)^2 = 16 on two P^1 factors: ceil((16 - 2) / 3) = 5
    assert generic_hrank_formula("high_degree", ((3, 3), (1, 1)), 2) == 5
    with pytest.raises(FormulaNotGuaranteedError):
        generic_hrank_formula("high_degree", ((3, 2), (1, 1)), 2)
    with pytest.raises(FormulaNotGuaranteedError):
        generic_hrank_formula("high_degree", ((3, 3, 1), (1, 1, 1)), 2)
    with pytest.raises(ValueError):
        generic_hrank_formula("nonsense", (3, 2), 2)


def test_formula_matches_probe_off_boundary():
    cfg = RunConfig(seed=0)
    cases = [
        (("veronese", (3, 2), 2), VarietyDescriptor.veronese(3, 2)),
        (("veronese", (3, 1), 3), VarietyDescriptor.veronese(3, 1)),
        (("binary", (1, 1, 1, 1), 2), VarietyDescriptor.segre((1, 1, 1, 1))),
    ]
    for (family, params, r), desc in cases:
        assert generic_hrank_formula(family, params, r) == generic_hrank(
            desc, r, cfg
        ).found_m


def test_formula_boundary_divergence_documented():
    """When (r-1)(n+1) divides C(n+d,d) - 1 - n the counting argument and the
    formula numerator C(n+d,d) - n land on opposite sides of an integer; the
    probe then fills one power earlier than the closed form predicts."""
    formula = generic_hrank_formula("veronese", (4, 2), 2)
    probe = generic_hrank(VarietyDescriptor.veronese(4, 2), 2, RunConfig(seed=0))
    assert formula == 5
    assert probe.found_m == 4
    assert probe.status == "found"
