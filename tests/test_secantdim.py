import math

import pytest

from conftest import rational_normal_curve

from toricdim import (
    RunConfig,
    VarietyDescriptor,
    expected_secant_dim,
    hadamard_dimension,
    probing,
    secant_dimension,
)
from toricdim.cli import report_dict
from toricdim.secantdim import (
    STATUS_DEFECTIVE,
    STATUS_NONDEFECTIVE,
    eta_secant,
)

CFG = RunConfig(trials=3, seed=0)


def classical_veronese_secant_dim(n, d, r):
    """min(N, rn + r - 1) corrected by the full quadric defect table.

    For d = 2 the r-th secant of the quadratic Veronese of P^n consists of
    symmetric matrices of rank <= r, whose projective dimension is
    (n+1)r - r(r-1)/2 - 1; rank saturates at n+1, after which the variety
    is the whole of P^N.  Used as an oracle only for d = 2.
    """
    N = math.comb(n + d, d) - 1
    assert d == 2
    r = min(r, n + 1)
    return min(N, (n + 1) * r - r * (r - 1) // 2 - 1)


def test_eta_secant_hand_case():
    mat = [[2, 1, 0], [0, 1, 2]]
    # phi(1,1) = (1,1,1); phi(2,3) = (4,6,9); products term by term
    assert eta_secant(mat, [(1, 1), (2, 3)], 101) == [
        [5, 7, 10],
        [4, 6, 9],
    ]
    assert eta_secant(mat, [(2, 3)], 101) == [[4, 6, 9]]
    with pytest.raises(ValueError):
        eta_secant(mat, [], 101)


def test_quadric_veronese_matches_rank_variety_oracle():
    for n in range(2, 6):
        desc = VarietyDescriptor.veronese(2, n)
        for r in range(1, 8):
            rep = secant_dimension(desc, r, CFG)
            assert rep.computed_dim == classical_veronese_secant_dim(n, 2, r), (
                n,
                r,
            )


def test_known_defective_quintic_point():
    rep = secant_dimension(VarietyDescriptor.veronese(4, 2), 5, CFG)
    assert rep.computed_dim == 13
    assert rep.expected_dim == 14
    assert rep.defect_flag
    assert rep.status == STATUS_DEFECTIVE


def test_rational_normal_curve_never_defective():
    desc = VarietyDescriptor.rnc(8)
    for r in (1, 2, 3, 4, 5):
        rep = secant_dimension(desc, r, CFG)
        assert rep.computed_dim == min(8, 2 * r - 1)
        assert not rep.defect_flag
        assert rep.status == STATUS_NONDEFECTIVE
    assert secant_dimension(desc, 4, CFG).computed_dim == 7


def test_first_secant_is_the_variety():
    for desc in (
        VarietyDescriptor.veronese(3, 2),
        VarietyDescriptor.segre((2, 2)),
        VarietyDescriptor.rnc(5),
    ):
        rep = secant_dimension(desc, 1, CFG)
        assert rep.computed_dim == rep.variety_dim
        assert rep.expected_dim == rep.variety_dim


def test_dimension_monotone_in_r():
    desc = VarietyDescriptor.segre_veronese((2, 1), (2, 1))
    dims = [secant_dimension(desc, r, CFG).computed_dim for r in range(1, 7)]
    assert dims == sorted(dims)
    assert dims[-1] == desc.matrix().ambient_dim  # eventually fills the ambient space


def test_row_operations_on_exponents_do_not_change_dimension():
    # same projective toric variety, different lattice coordinates
    from toricdim import normalize

    raw = VarietyDescriptor.custom(rational_normal_curve(8), "rnc8-raw")
    chart = VarietyDescriptor.custom(normalize(rational_normal_curve(8)), "rnc8-chart")
    for r in (2, 3, 4):
        a = secant_dimension(raw, r, CFG)
        b = secant_dimension(chart, r, CFG)
        assert a.computed_dim == b.computed_dim


def test_expected_secant_dim_values():
    assert expected_secant_dim(14, 2, 5) == 14
    assert expected_secant_dim(14, 2, 4) == 11
    assert expected_secant_dim(8, 1, 4) == 7
    with pytest.raises(ValueError):
        expected_secant_dim(8, 1, 0)
    with pytest.raises(ValueError):
        secant_dimension(VarietyDescriptor.rnc(3), 0, CFG)


def test_report_metadata_round_trip():
    rep = secant_dimension(VarietyDescriptor.rnc(4), 2, CFG)
    d = report_dict(rep)
    assert d["descriptor"] == "rnc:4"
    assert d["R"] == 2
    assert d["computed_dim"] == 3
    assert d["trials"] == 3 and d["seed"] == 0


def test_probes_draw_at_most_n_plus_1_points_per_factor(monkeypatch):
    # sigma_r(X) is the linear span of X from r = N + 1 on, so a larger
    # index must not draw (and hold) more points.  The reports keep the
    # indices as given.
    desc = VarietyDescriptor.rnc(4)  # N = 4
    draw = probing.random_torus_points
    limit = 5

    def spy(count, width, seed, prime):
        assert count <= limit, f"asked for {count} points"
        return draw(count, width, seed, prime)

    monkeypatch.setattr(probing, "random_torus_points", spy)
    rep = secant_dimension(desc, 10**12, CFG)
    assert (rep.R, rep.computed_dim, rep.expected_dim) == (10**12, 4, 4)
    limit = 9  # two factors of N + 1 points sharing one
    rep = hadamard_dimension(desc, (10**12, 10**12), CFG)
    assert (rep.r, rep.R, rep.parameter_count) == ((10**12, 10**12), 2 * 10**12 - 1, 7)
    assert (rep.computed_dim, rep.factor_dims, rep.lower_bound_dim_R) == (4, (4, 4), 4)
