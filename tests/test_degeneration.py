import random
from fractions import Fraction

import pytest

from conftest import rational_normal_curve, use_kernels
from oracles import fraction_eta, fraction_limit_check

from toricdim import (
    DEFAULT_PRIME,
    ExponentMatrix,
    HadamardSpec,
    RunConfig,
    VarietyDescriptor,
    demo_points,
    limit_check,
    normalize,
    secant_dimension,
    segre_veronese,
)
from toricdim import _kernels_py, degeneration, kernels
from toricdim.cli import parse_descriptor, report_dict
from toricdim.degeneration import (
    DEFAULT_NUS,
    LimitCheckReport,
    eta_hadamard_exact,
    eta_secant_exact,
    khatri_rao_exact,
    limit_matrix,
    scaled_family,
)
from toricdim.hadamdim import eta_hadamard
from toricdim._rational import rational_rank
from toricdim.modlinalg import random_torus_points
from toricdim.secantdim import eta_secant

ABAR = normalize(rational_normal_curve(8))
SPEC = (2, 3)
# A chart (all-ones first row, first column e_1) with negative exponents.
NEGATIVE_CHART = ExponentMatrix(((1, 1, 1, 1, 1), (0, 1, -1, 2, -2), (0, 0, 1, -1, 3)))


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


def as_fractions(num, den):
    """The matrix num / den, entrywise."""
    return [[Fraction(n, d) for n, d in zip(nrow, drow)] for nrow, drow in zip(num, den)]


def test_family_at_nu_one_is_the_identity_scaling():
    # at nu = 1 the points are unscaled and only the columns are rescaled
    pts = demo_points(ABAR, SPEC, seed=0)
    cols, scale = limit_matrix(ABAR, pts)
    eta_nu, m_num, m_den = scaled_family(HadamardSpec(SPEC), cols, scale, Fraction(1))
    assert eta_nu == eta_hadamard_exact(cols, HadamardSpec(SPEC), scale)
    assert as_fractions(m_num, m_den) == [
        [Fraction(x, c) for x, c in zip(row, eta_nu[0])] for row in eta_nu
    ]


def test_single_factor_exact_eta_reduces_to_secant():
    pts = demo_points(ABAR, (4,), seed=3)
    cols, scale = limit_matrix(ABAR, pts)
    assert eta_hadamard_exact(cols, HadamardSpec((4,)), scale) == eta_secant_exact(
        cols, scale
    )


def column_power(spec: HadamardSpec) -> int:
    """The power of the column scale in the exact eta: one for the first
    point and one for each factor with r_k > 1."""
    return 1 + sum(1 for rp in spec.r_prime if rp)


def test_exact_eta_reduced_mod_p_matches_modular_eta():
    # The same formula over Z and over F_p: at integer points the exact
    # entries, divided by their column scale and reduced mod p, are the
    # prime-field entries.  Negative exponents make the scale more than 1.
    rng = random.Random(5)
    p = DEFAULT_PRIME
    for mat in (ABAR, normalize(segre_veronese((2,), (2,))), NEGATIVE_CHART):
        rows = mat.entries
        for r in ((2, 3), (4,), (1,), (1, 3), (2, 1, 2)):
            spec = HadamardSpec(r)
            pts = [
                tuple(rng.randint(1, 9) for _ in rows) for _ in range(spec.total_points)
            ]
            cols, scale = limit_matrix(mat, pts)
            exact = eta_hadamard_exact(cols, spec, scale)
            power = column_power(spec)
            reduced = [
                [x * pow(c, -power, p) % p for x, c in zip(row, scale)] for row in exact
            ]
            assert reduced == eta_hadamard(rows, spec, pts, p), (r, pts)


def test_row0_exact_at_coarse_nu():
    # exactness of the first row is algebraic, not asymptotic
    pts = demo_points(ABAR, (2, 2), seed=5)
    cols, scale = limit_matrix(ABAR, pts)
    _, m_num, m_den = scaled_family(HadamardSpec((2, 2)), cols, scale, Fraction(3, 7))
    assert as_fractions(m_num, m_den)[0] == [Fraction(1)] * ABAR.n_cols


def test_limit_matrix_structure():
    pts = demo_points(ABAR, SPEC, seed=0)
    lim, scale = limit_matrix(ABAR, pts)
    assert all(c > 0 for c in scale)
    assert [Fraction(x, c) for x, c in zip(lim[0], scale)] == [Fraction(1)] * 9
    assert len(lim) == 4
    # rows 2.. are plain monomial evaluations of the tail points
    assert Fraction(lim[1][0], scale[0]) == pts[1][0]
    assert Fraction(lim[1][2], scale[2]) == pts[1][0] * pts[1][1] ** 2


def test_khatri_rao_exact_matches_modular_kernel():
    top = [[1, 3], [-2, 5]]
    bottom = [[2, 7]]
    exact = khatri_rao_exact(top, bottom)
    assert exact == [[2, 21], [-4, 35]]
    p = DEFAULT_PRIME
    ints = [[3, 4], [5, 6]]
    as_exact = khatri_rao_exact(ints, [[7, 8]])
    assert as_exact == [[21, 32], [35, 48]]
    assert kernels.rank_mod(as_exact, p) == kernels.kr_rank_mod(ints, [[7, 8]], p) == 2


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
    assert rational_rank(eta_secant_exact(*limit_matrix(ABAR, a))) == 4


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
        cols, scale = limit_matrix(abar, pts)
        limit_kr = khatri_rao_exact(cols, abar.entries)
        assert rational_rank(limit_kr) - 1 == 11, seed
        assert rational_rank(eta_secant_exact(cols, scale)) == 4, seed


def test_demo_points_widen_the_value_range_for_many_points():
    # R = 18 points need 17 distinct values per coordinate, one more than
    # a in [2, 17] gives, so the range widens to [2, 18].  The largest
    # column degree of the chart matrix of rnc:30 is 1 + 30 = 31.
    abar = normalize(rational_normal_curve(30))
    pts = demo_points(abar, (18,), seed=0)
    for coords in zip(*pts[1:]):
        assert sorted(coords) == [1 + Fraction(a, 128 * 31) for a in range(2, 19)]



# `demo_points` takes both of its F_p ranks without building the secant eta.
# Small primes make rank deficient draws common, so that the identities are
# tested where the ranks move.
IDENTITY_CHARTS = (
    ABAR,
    NEGATIVE_CHART,
    normalize(segre_veronese((4,), (2,))),
    normalize(segre_veronese((1, 1), (1, 1))),
)


def _identity_draws():
    """(rows, R, seed, p) at small primes and DEFAULT_PRIME, for R up to the
    column count."""
    for rows in (chart.entries for chart in IDENTITY_CHARTS):
        for p in (5, 7, 11, DEFAULT_PRIME):
            for R in range(1, min(len(rows[0]), 7) + 1):
                for seed in range(4):
                    yield rows, R, seed, p


def _monomial_rank(rows, points, p):
    return kernels.rank_mod([kernels.eval_columns_mod(rows, pt, p) for pt in points], p)


@pytest.mark.parametrize("backend", ["python", "c"])
def test_the_one_factor_walk_has_the_rank_of_the_secant_eta(backend, request, monkeypatch):
    # Both the walk's blocks and eta_secant (x) rows span the rows v * rows
    # and v w_j * rows, v = phi(y_1), w_j = phi(y_j).
    impl = _kernels_py if backend == "python" else request.getfixturevalue("fast")
    use_kernels(impl, monkeypatch)
    for rows, R, seed, p in _identity_draws():
        pts = random_torus_points(R, len(rows), seed, p)
        walk = kernels.hadamard_ranks_mod(rows, [(R - 1,)], pts, p)
        assert walk == [kernels.kr_rank_mod(eta_secant(rows, pts, p), rows, p)], (rows, R, p)


@pytest.mark.parametrize("backend", ["python", "c"])
def test_the_monomial_rows_have_the_rank_of_the_secant_eta_from_an_all_ones_point(
    backend, request, monkeypatch
):
    # With y_1 all ones, eta_secant's rows 1 + sum_j w_j and w_j span the
    # rows phi(y_1) = 1 and w_j.  From any other y_1 they need not: the
    # ranks then differ at some draw here.
    impl = _kernels_py if backend == "python" else request.getfixturevalue("fast")
    use_kernels(impl, monkeypatch)
    moved = 0
    for rows, R, seed, p in _identity_draws():
        pts = ((1,) * len(rows),) + random_torus_points(R - 1, len(rows), seed, p)
        assert _monomial_rank(rows, pts, p) == kernels.rank_mod(eta_secant(rows, pts, p), p)
        pts = random_torus_points(R, len(rows), seed, p)
        moved += _monomial_rank(rows, pts, p) != kernels.rank_mod(eta_secant(rows, pts, p), p)
    assert moved > 0


# --- the integer verifier against the Fraction reference ---------------------


def assert_matches_reference(abar, r, points, nus=DEFAULT_NUS) -> LimitCheckReport:
    """`limit_check` equals `oracles.fraction_limit_check` field by field."""
    got = limit_check(abar, r, points, nus, label="case")
    want = fraction_limit_check(abar, r, points, nus, label="case")
    for name in LimitCheckReport._fields:
        assert getattr(got, name) == getattr(want, name), name
    return got


@pytest.mark.parametrize(
    "desc, r",
    [
        ("rnc:8", (2, 3)),
        ("rnc:20", (3, 4)),
        ("rnc:30", (4, 5)),
        ("veronese:d=4,n=2", (2, 3)),
    ],
)
def test_limit_check_matches_the_fraction_reference_on_demo_points(desc, r):
    # the queries of the benchmark's degeneration workload
    abar = normalize(parse_descriptor(desc).matrix())
    for seed in range(10):
        assert assert_matches_reference(abar, r, demo_points(abar, r, seed=seed)).all_pass


def test_three_factors_stack_limit_and_secant_rows_at_one_column_scale():
    # rnc:6 --r 2,2,2, m = 3.  Stacking the limit rows at the column scale c
    # and the secant rows at c^2 reads a false row span mismatch here.
    abar = normalize(rational_normal_curve(6))
    for seed in range(5):
        pts = demo_points(abar, (2, 2, 2), seed=seed)
        rep = assert_matches_reference(abar, (2, 2, 2), pts)
        assert rep.rowspan_ok and rep.all_pass, rep.failures


@pytest.mark.parametrize(
    "nus",
    [
        (Fraction(3, 7), Fraction(2, 49)),
        (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000), Fraction(1, 10000)),
        (Fraction(5, 3), Fraction(4, 3), Fraction(1, 9)),
    ],
)
def test_limit_check_matches_the_fraction_reference_at_other_nus(nus):
    for seed in range(3):
        pts = demo_points(ABAR, SPEC, seed=seed)
        assert_matches_reference(ABAR, SPEC, pts, nus)


def test_limit_check_matches_the_fraction_reference_at_negative_coordinates():
    one = Fraction(1)
    pts = [
        (one, one),
        (Fraction(-3, 5), Fraction(7, 4)),
        (Fraction(11, 6), Fraction(-2, 9)),
        (Fraction(-5, 8), Fraction(-13, 3)),
    ]
    assert_matches_reference(ABAR, SPEC, pts)
    pts = [
        (one, one, one),
        (Fraction(-3, 5), Fraction(7, 4), Fraction(-2, 9)),
        (Fraction(11, 6), Fraction(-5, 7), 3),
    ]
    for r in ((2, 2), (3,), (1, 3)):
        assert_matches_reference(NEGATIVE_CHART, r, pts)


def test_exact_eta_is_the_fraction_eta_at_a_positive_column_scale():
    one = Fraction(1)
    pts = [
        (one, one, one),
        (Fraction(-3, 5), Fraction(7, 4), Fraction(-2, 9)),
        (Fraction(11, 6), Fraction(-5, 7), Fraction(3)),
        (Fraction(2, 3), Fraction(9, 5), Fraction(-4, 11)),
    ]
    for r in ((2, 3), (4,), (1, 4), (2, 2, 1)):
        spec = HadamardSpec(r)
        head = pts[: spec.total_points]
        cols, scale = limit_matrix(NEGATIVE_CHART, head)
        assert all(c > 0 for c in scale)
        power = column_power(spec)
        assert eta_hadamard_exact(cols, spec, scale) == [
            [x * c**power for x, c in zip(row, scale)]
            for row in fraction_eta(NEGATIVE_CHART.entries, spec.r_prime, head)
        ], r


def test_repeated_point_fails_the_row_span_check_as_the_reference_does():
    pts = demo_points(ABAR, SPEC, seed=0)
    rep = assert_matches_reference(ABAR, SPEC, pts[:2] + (pts[1],) + pts[3:])
    assert not rep.rowspan_ok and not rep.all_pass
    assert any(f.startswith("row span mismatch") for f in rep.failures)


@pytest.mark.parametrize("first", [-10, -100])
def test_zero_in_the_first_eta_row_raises_as_the_reference_does(first):
    # phi_0(y) = y_1, so S_1 = 1 + nu * y_1 vanishes in column 0 at
    # nu = -1/first: the first scale for -10, the second for -100.
    pts = demo_points(ABAR, SPEC, seed=0)
    pts = (pts[0], (Fraction(first),) + pts[1][1:]) + pts[2:]
    with pytest.raises(ZeroDivisionError) as got:
        limit_check(ABAR, SPEC, pts)
    with pytest.raises(ZeroDivisionError) as want:
        fraction_limit_check(ABAR, SPEC, pts, DEFAULT_NUS)
    assert str(got.value) == str(want.value) == "degenerate points: first eta row has a zero"
