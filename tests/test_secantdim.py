import math
from fractions import Fraction

import pytest

from conftest import rational_normal_curve
from oracles import grouped_secant_ranks

from toricdim import (
    ALTERNATE_PRIMES,
    DEFAULT_PRIME,
    ExponentMatrix,
    HadamardSpec,
    RunConfig,
    VarietyDescriptor,
    expected_secant_dim,
    hadamard_dimension,
    kernels,
    probing,
    random_torus_points,
    secant_dimension,
    secant_dimensions,
    secantdim,
)
from toricdim.cli import parse_descriptor, report_dict
from toricdim.hadamdim import eta_hadamard
from toricdim.secantdim import (
    STATUS_DEFECTIVE,
    STATUS_NONDEFECTIVE,
    eta_secant,
)

CFG = RunConfig(seed=0)
# Varieties of the Terracini stream tests, one of them a chart with
# negative exponents.
STREAM_VARIETIES = [
    parse_descriptor(text)
    for text in ("rnc:8", "veronese:d=2,n=4", "veronese:d=4,n=2", "sv:d=1,1,2;n=1,1,1")
] + [
    VarietyDescriptor.custom(
        ExponentMatrix(((1,) * 6, (-2, -1, 0, 1, 0, 2), (0, 1, -1, 1, 2, -2))),
        "negative-chart",
    )
]


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
    # The error budget's count, set by the probe: two draws at p.
    assert d["trials"] == 2 and d["seed"] == 0


def test_reports_state_how_they_were_reached():
    p = RunConfig().prime
    certified = secant_dimension(VarietyDescriptor.rnc(4), 2)
    assert certified.status == STATUS_NONDEFECTIVE
    assert (certified.error_bound, certified.attempts, certified.primes_tried) == (
        0.0, 1, (p,)
    )
    # sigma_5 of v_4(P^2): g = min(5 * 3, 15) = 15, deg = 15 * 2 * 4 = 120,
    # and 120 / (p - 1) > 2^-100 >= its square: two draws at p, then the
    # alternate primes.
    rep = secant_dimension(VarietyDescriptor.veronese(4, 2), 5)
    assert rep.status == STATUS_DEFECTIVE
    assert (rep.trials, rep.attempts, rep.primes_tried) == (2, 4, (p, *ALTERNATE_PRIMES))
    assert rep.error_bound == float(Fraction(120, p - 1) ** 2)
    assert 0 < rep.error_bound <= 2.0**-100


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


@pytest.mark.parametrize("p", [DEFAULT_PRIME, 13, 7])
def test_rank_after_block_R_is_the_eta_rank_at_R_points(p):
    # Row j >= 2 of eta_secant is phi(y_1 y_j), row 1 the sum of them all,
    # so the stream's rank after block R is exactly the rank of eta (x) A at
    # the first R points, at every prime: at 7 and 13 many draws fall short
    # of the generic rank, and they must fall short alike.
    for desc in STREAM_VARIETIES:
        rows = desc.matrix().entries
        for seed in range(12):
            pts = random_torus_points(8, len(rows), seed, p)
            assert kernels.secant_ranks_mod(rows, pts, p) == [
                kernels.kr_rank_mod(eta_secant(rows, pts[:R], p), rows, p)
                for R in range(1, 9)
            ], (str(desc), seed)


@pytest.mark.parametrize("prime", [DEFAULT_PRIME, 65537])
def test_batched_reports_equal_the_lone_reports(prime):
    # Every field, with the memo cleared before each side, and the probe
    # fields equal to those of the one-factor Hadamard probe,
    # `probe_max_rank(eta_hadamard, ...)`.  At 65537 the error budget draws
    # 9 to 12 times, and for v_2(P^6) the defective sigma_2 (t = 10) and
    # sigma_3 (t = 11) put draw 10 at different primes.
    for desc in [*STREAM_VARIETIES, VarietyDescriptor.veronese(2, 6)]:
        config = RunConfig(prime=prime, seed=3)
        mat = desc.matrix()
        Rs = (4, 1, 2, 7, 3, 4, mat.ambient_dim + 2, 5)
        secantdim._secant_dimension_cached.cache_clear()
        batched = secant_dimensions(desc, Rs, config)
        for R, rep in zip(Rs, batched):
            secantdim._secant_dimension_cached.cache_clear()
            assert report_dict(rep) == report_dict(secant_dimension(desc, R, config))
            spec = HadamardSpec((min(R, mat.ambient_dim + 1),))
            probe = probing.probe_max_rank(eta_hadamard, mat, spec, config, rep.expected_dim + 1)
            assert (probe.rank - 1, probe.prime, probe.attempts, probe.trials) == (
                rep.computed_dim, rep.prime, rep.attempts, rep.trials
            )
            assert (probe.primes_tried, probe.error_bound) == (rep.primes_tried, rep.error_bound)
    with pytest.raises(ValueError, match="R must be >= 1"):
        secant_dimensions(VarietyDescriptor.rnc(3), (2, 0), CFG)


@pytest.mark.parametrize("prime", [DEFAULT_PRIME, 65537])
def test_walked_secant_probes_equal_the_grouped_reference(prime, monkeypatch):
    # Largest n first, each probe walking its own schedule, against the
    # draw-by-draw grouping: equal results and the same multiset of streams
    # (length, prime, first point), on nondefective varieties (rnc:8, the
    # binary Segre-Veronese) and defective ones (v_2(P^4), v_4(P^2) at 5,
    # v_2(P^6) whose budgets at 65537 split its draws across primes).
    calls = []
    stream = kernels.secant_ranks_mod

    def spy(rows, points, p):
        calls.append((len(points), p, tuple(points[0])))
        return stream(rows, points, p)

    monkeypatch.setattr(kernels, "secant_ranks_mod", spy)
    for desc in [*STREAM_VARIETIES, VarietyDescriptor.veronese(2, 6)]:
        mat = desc.matrix()
        dim_x = mat.rank() - 1
        for seed in (0, 5):
            config = RunConfig(prime=prime, seed=seed)
            targets = {
                n: expected_secant_dim(mat.ambient_dim, dim_x, n) + 1
                for n in (3, 1, 5, 2, 4, 6)
            }
            calls.clear()
            walked = probing.probe_secant_ranks(mat, targets, config)
            walked_calls = sorted(calls)
            calls.clear()
            assert walked == grouped_secant_ranks(mat, targets, config), (str(desc), seed)
            assert list(walked) == list(targets)
            assert walked_calls == sorted(calls), (str(desc), seed)


def test_batched_draws_share_one_stream_per_seed_and_prime(monkeypatch):
    calls = []
    stream = kernels.secant_ranks_mod

    def spy(rows, points, p):
        calls.append((len(points), p))
        return stream(rows, points, p)

    monkeypatch.setattr(kernels, "secant_ranks_mod", spy)
    secantdim._secant_dimension_cached.cache_clear()
    # The rational normal curve is never defective: sigma_2, sigma_3 and
    # sigma_7 of rnc:8 reach their targets at draw 0, from one stream.
    reports = secant_dimensions(VarietyDescriptor.rnc(8), (2, 3, 7), CFG)
    assert [rep.computed_dim for rep in reports] == [3, 5, 8]
    assert calls == [(7, CFG.prime)]
    # sigma_2 and sigma_3 of v_2(P^4) are defective and draw on, two draws at
    # p and one at each alternate, from streams of 3 points; sigma_5 fills
    # P^14 at draw 0, and is memoised for the next call.
    calls.clear()
    reports = secant_dimensions(VarietyDescriptor.veronese(2, 4), (5, 2, 3), CFG)
    assert [rep.attempts for rep in reports] == [1, 4, 4]
    assert calls == [(5, CFG.prime), (3, CFG.prime), (3, ALTERNATE_PRIMES[0]),
                     (3, ALTERNATE_PRIMES[1])]
    calls.clear()
    assert secant_dimension(VarietyDescriptor.veronese(2, 4), 5, CFG) == reports[0]
    assert calls == []
    # At 65537 the budget of sigma_2 of v_2(P^6) is 10 draws and that of
    # sigma_3 is 11: from draw 10 on they draw at different primes, each
    # from a stream of its own.  sigma_3 walks first and draws all 13 of its
    # streams; sigma_2 reads its first 10 and draws its two alternates.
    small = RunConfig(prime=65537)
    reports = secant_dimensions(VarietyDescriptor.veronese(2, 6), (2, 3), small)
    assert [rep.trials for rep in reports] == [10, 11]
    assert calls == [(3, 65537)] * 11 + [
        (3, ALTERNATE_PRIMES[0]), (3, ALTERNATE_PRIMES[1]),
        (2, ALTERNATE_PRIMES[0]), (2, ALTERNATE_PRIMES[1]),
    ]
