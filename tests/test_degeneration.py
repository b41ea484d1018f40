import random
from fractions import Fraction

import pytest

from conftest import rational_normal_curve

from toricdim import (
    DEFAULT_PRIME,
    HadamardSpec,
    RunConfig,
    VarietyDescriptor,
    demo_points,
    limit_check,
    normalize,
    secant_dimension,
    segre_veronese,
)
from toricdim import degeneration
from toricdim.cli import report_dict
from toricdim.degeneration import (
    DEFAULT_NUS,
    eta_hadamard_exact,
    eta_secant_exact,
    khatri_rao_exact,
    limit_matrix,
    scaled_family,
)
from toricdim.hadamdim import eta_hadamard
from toricdim._kernels_py import khatri_rao_mod
from toricdim._rational import rational_rank

ABAR = normalize(rational_normal_curve(8))
SPEC = (2, 3)


def demo_instance():
    pts = demo_points(ABAR, SPEC, seed=0)
    return limit_check(ABAR, SPEC, pts, label="rnc:8")


def test_default_demo_instance_passes_every_check():
    rep = demo_instance()
    assert rep.all_pass, rep.failures
    assert rep.row0_exact_ok
    assert rep.first_order_ok
    assert rep.rowspan_ok
    assert rep.semicontinuity_ok
    assert rep.failures == ()
    for q in rep.error_ratios:
        assert Fraction(5) <= q <= Fraction(20)
    assert rep.secant_rank == 4 and rep.limit_rank == 4
    d = report_dict(rep)
    assert d["r"] == [2, 3]
    assert d["nus"] == ["1/10", "1/100", "1/1000"]


def test_lower_bound_matches_secant_probe():
    rep = demo_instance()
    assert rep.dim_lower_bound == 7
    probe = secant_dimension(
        VarietyDescriptor.rnc(8), 4, RunConfig(seed=0)
    )
    assert rep.dim_lower_bound == probe.computed_dim


def test_family_at_nu_one_is_the_identity_scaling():
    # at nu = 1 the points are unscaled and only the columns are rescaled
    pts = demo_points(ABAR, SPEC, seed=0)
    eta_nu, m_nu = scaled_family(ABAR, HadamardSpec(SPEC), pts, Fraction(1))
    assert eta_nu == eta_hadamard_exact(ABAR.entries, HadamardSpec(SPEC), pts)
    assert m_nu == [[x / c for x, c in zip(row, eta_nu[0])] for row in eta_nu]


def test_single_factor_exact_eta_reduces_to_secant():
    pts = demo_points(ABAR, (4,), seed=3)
    assert eta_hadamard_exact(
        ABAR.entries, HadamardSpec((4,)), pts
    ) == eta_secant_exact(ABAR.entries, pts)


def test_exact_eta_reduced_mod_p_matches_modular_eta():
    # The same formula over Q and over F_p: at integer points the exact
    # entries, reduced mod p, are the prime-field entries.
    rng = random.Random(5)
    p = DEFAULT_PRIME
    for mat in (ABAR, normalize(segre_veronese((2,), (2,)))):
        rows = mat.entries
        for r in ((2, 3), (4,), (1,), (1, 3), (2, 1, 2)):
            spec = HadamardSpec(r)
            pts = [
                tuple(rng.randint(1, 9) for _ in rows) for _ in range(spec.total_points)
            ]
            exact = eta_hadamard_exact(rows, spec, pts)
            reduced = [
                [x.numerator * pow(x.denominator, -1, p) % p for x in row]
                for row in exact
            ]
            assert reduced == eta_hadamard(rows, spec, pts, p), (r, pts)


def test_row0_exact_at_coarse_nu():
    # exactness of the first row is algebraic, not asymptotic
    pts = demo_points(ABAR, (2, 2), seed=5)
    _, m_nu = scaled_family(ABAR, HadamardSpec((2, 2)), pts, Fraction(3, 7))
    assert m_nu[0] == [Fraction(1)] * ABAR.n_cols


def test_limit_matrix_structure():
    pts = demo_points(ABAR, SPEC, seed=0)
    lim = limit_matrix(ABAR, pts)
    assert lim[0] == [Fraction(1)] * 9
    assert len(lim) == 4
    # rows 2.. are plain monomial evaluations of the tail points
    assert lim[1][0] == pts[1][0]
    assert lim[1][2] == pts[1][0] * pts[1][1] ** 2


def test_khatri_rao_exact_matches_modular_kernel():
    top = [[Fraction(1, 2), Fraction(3)], [Fraction(-2), Fraction(5, 7)]]
    bottom = [[Fraction(2), Fraction(7)]]
    exact = khatri_rao_exact(top, bottom)
    assert exact == [[Fraction(1), Fraction(21)], [Fraction(-4), Fraction(5)]]
    p = DEFAULT_PRIME
    ints = [[3, 4], [5, 6]]
    as_mod = khatri_rao_mod(ints, [[7, 8]], p)
    as_exact = khatri_rao_exact(ints, [[7, 8]])
    assert [[x % p for x in row] for row in as_exact] == as_mod


def test_limit_check_input_validation():
    pts = demo_points(ABAR, SPEC, seed=0)
    with pytest.raises(ValueError, match="chart form"):
        limit_check(rational_normal_curve(8), SPEC, pts)
    with pytest.raises(ValueError, match="first point"):
        limit_check(ABAR, SPEC, (pts[1],) + pts[1:])
    with pytest.raises(ValueError, match="nonzero"):
        bad = (pts[0], (Fraction(0), Fraction(2))) + pts[2:]
        limit_check(ABAR, SPEC, bad)
    with pytest.raises(ValueError, match="need 4 points"):
        limit_check(ABAR, SPEC, pts[:3])


def test_guard_rejects_large_instances():
    wide = normalize(rational_normal_curve(8))
    with pytest.raises(ValueError, match="too large"):
        limit_check(wide, (17, 17), [(Fraction(1), Fraction(1))] * 33)


def test_limit_check_rejects_bad_nu_sequences():
    pts = demo_points(ABAR, SPEC, seed=0)
    with pytest.raises(ValueError, match="strictly decreasing"):
        limit_check(ABAR, SPEC, pts, nus=(Fraction(1, 100), Fraction(1, 10)))
    with pytest.raises(ValueError, match="strictly decreasing"):
        limit_check(ABAR, SPEC, pts, nus=())
    with pytest.raises(ValueError, match="strictly decreasing"):
        limit_check(ABAR, SPEC, pts, nus=(Fraction(1, 10), Fraction(-1, 100)))
    with pytest.raises(ValueError, match="strictly decreasing"):
        limit_check(ABAR, SPEC, pts, nus=(0,))
    # one scale gives no error ratio, so check (a) would pass unrun
    with pytest.raises(ValueError, match="strictly decreasing, positive"):
        limit_check(ABAR, SPEC, pts, nus=(Fraction(1, 10),))


@pytest.mark.parametrize(
    "nus", [(0,), (Fraction(1, 10), Fraction(1, 10)), (Fraction(1, 10),)]
)
def test_demo_points_rejects_bad_nu_sequences_before_sampling(nus, monkeypatch):
    def no_draws(*args):
        raise AssertionError("demo_points drew points before checking nus")

    monkeypatch.setattr(degeneration, "random_torus_points", no_draws)
    monkeypatch.setattr(degeneration.random, "Random", no_draws)
    with pytest.raises(ValueError, match="strictly decreasing, positive"):
        demo_points(ABAR, SPEC, seed=0, nus=nus)


@pytest.mark.parametrize("r", [(1,), (1, 1)])
def test_one_point_is_rejected_before_sampling(r, monkeypatch):
    # With R = 1, M(nu) is its limit at every nu: every error is 0 and the
    # ratio test has nothing to measure.
    def no_draws(*args):
        raise AssertionError("demo_points drew points before checking R")

    monkeypatch.setattr(degeneration, "random_torus_points", no_draws)
    monkeypatch.setattr(degeneration.random, "Random", no_draws)
    with pytest.raises(ValueError, match="limit: R >= 2"):
        demo_points(ABAR, r, seed=0)
    with pytest.raises(ValueError, match="limit: R >= 2"):
        limit_check(ABAR, r, [(Fraction(1), Fraction(1))])


def test_demo_points_are_positive():
    pts = demo_points(ABAR, SPEC, seed=0)
    assert all(x > 0 for pt in pts for x in pt)


def test_demo_points_deterministic_and_near_identity():
    a = demo_points(ABAR, SPEC, seed=0)
    b = demo_points(ABAR, SPEC, seed=0)
    c = demo_points(ABAR, SPEC, seed=1)
    assert a == b and a != c
    assert a[0] == (Fraction(1), Fraction(1))
    # largest column degree of the chart matrix is 1 + 8 = 9
    for pt in a[1:]:
        for x in pt:
            assert Fraction(1) < x <= Fraction(1) + Fraction(17, 128 * 9)
    # exact secant coefficient matrix has full rank at the sample
    assert rational_rank(eta_secant_exact(ABAR.entries, a)) == 4


def test_demo_points_take_the_seed_mod_2_64():
    # As the F_p draws do: a negative seed draws points of its own, and
    # seeds 2^64 apart draw the same points.
    assert demo_points(ABAR, SPEC, seed=-5) != demo_points(ABAR, SPEC, seed=5)
    assert demo_points(ABAR, SPEC, seed=5) == demo_points(ABAR, SPEC, seed=5 + 2**64)


def test_semicontinuity_rank_never_below_limit():
    for seed in (0, 1, 2):
        pts = demo_points(ABAR, (2, 2), seed=seed)
        rep = limit_check(ABAR, (2, 2), pts)
        assert rep.kr_ranks[-1] >= rep.limit_kr_rank
        assert rep.dim_lower_bound == rep.limit_kr_rank - 1


def test_demo_points_never_gives_up_on_a_long_curve():
    # R = 8 points on rnc:30: with 16 values per coordinate drawn with
    # replacement, two points often shared a coordinate and all 8 draws of
    # some seeds were degenerate (seeds 12 and 13 here).
    abar = normalize(rational_normal_curve(30))
    for seed in range(40):
        pts = demo_points(abar, (4, 5), seed=seed)
        for coords in zip(*pts[1:]):
            assert len(set(coords)) == len(coords), seed


def test_demo_points_are_generic():
    # On veronese:d=4,n=2 some draws passed every check but certified
    # dimension >= 10 instead of min(14, 4 * 3 - 1) = 11 (seeds 65, 91, 99).
    abar = normalize(segre_veronese((4,), (2,)))
    for seed in range(60, 100):
        pts = demo_points(abar, (2, 3), seed=seed)
        limit_kr = khatri_rao_exact(limit_matrix(abar, pts), abar.entries)
        assert rational_rank(limit_kr) - 1 == 11, seed
        assert rational_rank(eta_secant_exact(abar.entries, pts)) == 4, seed


def test_demo_points_widen_the_value_range_for_many_points():
    # R = 18 points need 17 distinct values per coordinate, one more than
    # a in [2, 17] gives, so the range widens to [2, 18].  The largest
    # column degree of the chart matrix of rnc:30 is 1 + 30 = 31.
    abar = normalize(rational_normal_curve(30))
    pts = demo_points(abar, (18,), seed=0)
    for coords in zip(*pts[1:]):
        assert sorted(coords) == [1 + Fraction(a, 128 * 31) for a in range(2, 19)]
