import itertools
import json
import math
from fractions import Fraction

import pytest

import oracles
from conftest import matrix_copy, rational_normal_curve
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
from toricdim.cli import main, parse_descriptor, report_dict
from toricdim.hadamdim import eta_hadamard
from toricdim.modlinalg import WORD_PRIME
from toricdim.secantdim import (
    STATUS_CERTIFIED_DEFECTIVE,
    STATUS_DEFECTIVE,
    STATUS_NONDEFECTIVE,
    eta_secant,
    secant_dim_bound,
)

CFG = RunConfig(seed=0)
# Varieties of the Terracini walk tests, one of them a chart with
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


def test_known_defective_quintic_point(tmp_path):
    # A `matrix:` copy of v_4(P^2) falls short of its parameter count; v_4(P^2)
    # meets the Alexander-Hirschowitz bound, which certifies the defect.
    rep = secant_dimension(parse_descriptor(matrix_copy("veronese:d=4,n=2", tmp_path)), 5, CFG)
    assert rep.computed_dim == 13
    assert rep.expected_dim == 14
    assert rep.defect_flag
    assert rep.status == STATUS_DEFECTIVE
    rep = secant_dimension(VarietyDescriptor.veronese(4, 2), 5, CFG)
    assert (rep.computed_dim, rep.expected_dim, rep.defect_flag) == (13, 14, True)
    assert rep.status == STATUS_CERTIFIED_DEFECTIVE


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


def test_reports_state_how_they_were_reached(tmp_path):
    p = RunConfig().prime
    certified = secant_dimension(VarietyDescriptor.rnc(4), 2)
    assert certified.status == STATUS_NONDEFECTIVE
    assert (certified.error_bound, certified.attempts, certified.primes_tried) == (
        0.0, 1, (WORD_PRIME,)
    )
    # sigma_5 of a `matrix:` copy of v_4(P^2): g = min(5 * 3, 15) = 15,
    # deg = 15 * 2 * 4 = 120, and 120 / (p - 1) > 2^-100 >= its square: a
    # draw at WORD_PRIME, two draws at p, then the alternate primes.  Its
    # rank is named at p, the prime its bound counts.
    rep = secant_dimension(parse_descriptor(matrix_copy("veronese:d=4,n=2", tmp_path)), 5)
    assert rep.status == STATUS_DEFECTIVE
    assert (rep.trials, rep.attempts, rep.primes_tried) == (
        2, 5, (WORD_PRIME, p, *ALTERNATE_PRIMES)
    )
    assert rep.prime == p
    assert rep.error_bound == float(Fraction(120, p - 1) ** 2)
    assert 0 < rep.error_bound <= 2.0**-100
    # On v_4(P^2) itself the first draw, at WORD_PRIME, meets the theorem
    # bound.
    rep = secant_dimension(VarietyDescriptor.veronese(4, 2), 5)
    assert rep.status == STATUS_CERTIFIED_DEFECTIVE
    assert (rep.trials, rep.attempts, rep.primes_tried, rep.error_bound) == (
        2, 1, (WORD_PRIME,), 0.0
    )


def test_probes_draw_at_most_n_plus_1_points_per_factor(monkeypatch, tmp_path):
    # sigma_r(X) is the linear span of X from r = N + 1 on, so a larger
    # index must not draw (and hold) more points.  The reports keep the
    # indices as given.  The same on a `matrix:` copy of the curve.
    draw = probing.random_torus_points
    limit = 5

    def spy(count, width, seed, prime):
        assert count <= limit, f"asked for {count} points"
        return draw(count, width, seed, prime)

    monkeypatch.setattr(probing, "random_torus_points", spy)
    for text in (matrix_copy("rnc:4", tmp_path), "rnc:4"):
        desc = parse_descriptor(text)  # N = 4
        limit = 5
        rep = secant_dimension(desc, 10**12, CFG)
        assert (rep.R, rep.computed_dim, rep.expected_dim) == (10**12, 4, 4)
        limit = 9  # two factors of N + 1 points sharing one
        rep = hadamard_dimension(desc, (10**12, 10**12), CFG)
        assert (rep.r, rep.R, rep.parameter_count) == ((10**12, 10**12), 2 * 10**12 - 1, 7)
        assert (rep.computed_dim, rep.factor_dims, rep.lower_bound_dim_R) == (4, (4, 4), 4)


@pytest.mark.parametrize("p", [DEFAULT_PRIME, 13, 7])
def test_rank_after_block_R_is_the_eta_rank_at_R_points(p):
    # Row j >= 2 of eta_secant is phi(y_1 y_j), row 1 the sum of them all,
    # so the walk's rank of the one-factor list (R - 1,), after its block R,
    # is exactly the rank of eta (x) A at the first R points, at every
    # prime: at 7 and 13 many draws fall short of the generic rank, and
    # they must fall short alike.
    for desc in STREAM_VARIETIES:
        rows = desc.matrix().entries
        for seed in range(12):
            pts = random_torus_points(8, len(rows), seed, p)
            assert kernels.hadamard_ranks_mod(rows, [(R - 1,) for R in range(1, 9)], pts, p) == [
                kernels.kr_rank_mod(eta_secant(rows, pts[:R], p), rows, p)
                for R in range(1, 9)
            ], (str(desc), seed)


@pytest.mark.parametrize("prime", [DEFAULT_PRIME, 65537])
def test_batched_reports_equal_the_lone_reports(prime, tmp_path):
    # Every field, with the memo cleared before each side, and the probe
    # fields equal to those of the one-factor Hadamard probe,
    # `probe_max_rank(eta_hadamard, ...)` to the lower of the parameter count
    # and `secant_dim_bound`.  At 65537 the error budget draws 9 to 12 times,
    # and for a `matrix:` copy of v_2(P^6) the defective sigma_2 (t = 10) and
    # sigma_3 (t = 11) put draw 10 at different primes.
    copies = [parse_descriptor(matrix_copy(text, tmp_path))
              for text in ("veronese:d=2,n=4", "veronese:d=2,n=6")]
    for desc in [*STREAM_VARIETIES, VarietyDescriptor.veronese(2, 6), *copies]:
        config = RunConfig(prime=prime, seed=3)
        mat = desc.matrix()
        Rs = (4, 1, 2, 7, 3, 4, mat.ambient_dim + 2, 5)
        secantdim._secant_dimension_cached.cache_clear()
        batched = secant_dimensions(desc, Rs, config)
        for R, rep in zip(Rs, batched):
            secantdim._secant_dimension_cached.cache_clear()
            assert report_dict(rep) == report_dict(secant_dimension(desc, R, config))
            spec = HadamardSpec((min(R, mat.ambient_dim + 1),))
            target = min(rep.expected_dim, secant_dim_bound(desc, spec.r[0])) + 1
            probe = probing.probe_max_rank(eta_hadamard, mat, spec, config, target)
            assert (probe.rank - 1, probe.prime, probe.attempts, probe.trials) == (
                rep.computed_dim, rep.prime, rep.attempts, rep.trials
            )
            assert (probe.primes_tried, probe.error_bound) == (rep.primes_tried, rep.error_bound)
    with pytest.raises(ValueError, match="R must be >= 1"):
        secant_dimensions(VarietyDescriptor.rnc(3), (2, 0), CFG)


@pytest.mark.parametrize("prime", [DEFAULT_PRIME, 65537])
def test_walked_secant_probes_equal_the_grouped_reference(prime, monkeypatch):
    # The one-factor probes of `probe_hadamard_ranks`, each walking its own
    # schedule, against the draw-by-draw grouping, whose ranks come from
    # eta: equal results, and the walks (length, prime, first point) are
    # the multiset of the grouping's draws, on nondefective varieties
    # (rnc:8, the binary Segre-Veronese) and defective ones (v_2(P^4),
    # v_4(P^2) at 5, v_2(P^6) whose budgets at 65537 split its draws across
    # primes).
    calls = []
    walk, draw = kernels.hadamard_ranks_mod, random_torus_points

    def spy(rows, r_primes, points, p):
        calls.append((len(points), p, tuple(points[0])))
        return walk(rows, r_primes, points, p)

    def drawn(count, width, seed, p):
        points = draw(count, width, seed, p)
        calls.append((len(points), p, tuple(points[0])))
        return points

    monkeypatch.setattr(kernels, "hadamard_ranks_mod", spy)
    monkeypatch.setattr(oracles, "random_torus_points", drawn)
    for desc in [*STREAM_VARIETIES, VarietyDescriptor.veronese(2, 6)]:
        mat = desc.matrix()
        dim_x = mat.rank() - 1
        for seed in (0, 5):
            config = RunConfig(prime=prime, seed=seed)
            targets = {
                n: expected_secant_dim(mat.ambient_dim, dim_x, n) + 1
                for n in (3, 1, 5, 2, 4, 6)
            }
            specs = [(HadamardSpec((n,)), target) for n, target in targets.items()]
            calls.clear()
            walked = probing.probe_hadamard_ranks(eta_hadamard, mat, specs, config)
            walked = dict(zip(targets, walked))
            walked_calls = sorted(calls)
            calls.clear()
            assert walked == grouped_secant_ranks(mat, targets, config), (str(desc), seed)
            assert walked_calls == sorted(calls), (str(desc), seed)


def test_batched_draws_share_one_stream_per_seed_and_prime(monkeypatch, tmp_path):
    calls = []
    walk = kernels.hadamard_ranks_mod

    def spy(rows, r_primes, points, p):
        calls.append((len(points), p))
        return walk(rows, r_primes, points, p)

    monkeypatch.setattr(kernels, "hadamard_ranks_mod", spy)
    secantdim._secant_dimension_cached.cache_clear()
    # The rational normal curve is never defective: sigma_2, sigma_3 and
    # sigma_7 of rnc:8 reach their targets at draw 0, at WORD_PRIME, from
    # one walk.
    reports = secant_dimensions(VarietyDescriptor.rnc(8), (2, 3, 7), CFG)
    assert [rep.computed_dim for rep in reports] == [3, 5, 8]
    assert calls == [(7, WORD_PRIME)]
    # sigma_2 and sigma_3 of a `matrix:` copy of v_2(P^4) are defective and
    # draw on, two draws at p and one at each alternate, from walks of 3
    # points; sigma_5 fills P^14 at draw 0, in its walk at WORD_PRIME, and
    # is memoised for the next call.
    calls.clear()
    v2p4 = parse_descriptor(matrix_copy("veronese:d=2,n=4", tmp_path))
    reports = secant_dimensions(v2p4, (5, 2, 3), CFG)
    assert [rep.attempts for rep in reports] == [1, 5, 5]
    assert calls == [(5, WORD_PRIME), (3, CFG.prime), (3, CFG.prime),
                     (3, ALTERNATE_PRIMES[0]), (3, ALTERNATE_PRIMES[1])]
    calls.clear()
    assert secant_dimension(v2p4, 5, CFG) == reports[0]
    assert calls == []
    # At 65537 the budget of sigma_2 of a copy of v_2(P^6) is 10 draws and
    # that of sigma_3 is 11: from draw 10 on they draw at different primes,
    # each from a walk of its own.  Draw by draw, sigma_2 first at each draw:
    # draws 0-9 are one walk of 3 points each, draw 10 is sigma_2 at the
    # first alternate and sigma_3 at 65537, draw 11 each at the next prime,
    # and draw 12 sigma_3 alone.
    small = RunConfig(prime=65537)
    v2p6 = parse_descriptor(matrix_copy("veronese:d=2,n=6", tmp_path))
    reports = secant_dimensions(v2p6, (2, 3), small)
    assert [rep.trials for rep in reports] == [10, 11]
    assert calls == [(3, 65537)] * 10 + [
        (2, ALTERNATE_PRIMES[0]), (3, 65537),
        (2, ALTERNATE_PRIMES[1]), (3, ALTERNATE_PRIMES[0]),
        (3, ALTERNATE_PRIMES[1]),
    ]
    # On v_2(P^4) and v_2(P^6) themselves the quadratic Veronese bound stops
    # every probe at draw 0, at WORD_PRIME when the configured prime is
    # larger: one walk each.
    calls.clear()
    reports = secant_dimensions(VarietyDescriptor.veronese(2, 4), (5, 2, 3), CFG)
    assert [rep.attempts for rep in reports] == [1, 1, 1]
    reports = secant_dimensions(VarietyDescriptor.veronese(2, 6), (2, 3), small)
    assert [(rep.trials, rep.attempts) for rep in reports] == [(10, 1), (11, 1)]
    assert calls == [(5, WORD_PRIME), (3, 65537)]


# --- the theorem bound ----------------------------------------------------------


@pytest.fixture
def fresh_memo():
    """An empty secant memo before and after the test, so that a report
    probed under a patched bound reaches no other test."""
    secantdim._secant_dimension_cached.cache_clear()
    yield
    secantdim._secant_dimension_cached.cache_clear()


def _parameter_count(desc, R):
    mat = desc.matrix()
    return expected_secant_dim(mat.ambient_dim, mat.rank() - 1, R)


def test_theorem_bound_matches_the_classification_oracles(tmp_path):
    # Below the parameter count exactly where the oracles name a defective
    # secant, by the quadratic Veronese formula for d = 2 and by 1 elsewhere;
    # the bound reads only the degrees and dimensions, so a `matrix:` copy
    # and a Segre-Veronese spelling of a Veronese get the same treatment as
    # the variety they name, or none.
    for d in range(1, 6):
        for n in range(1, 6):
            desc = VarietyDescriptor.veronese(d, n)
            for R in range(1, desc.matrix().ambient_dim + 3):
                bound, count = secant_dim_bound(desc, R), _parameter_count(desc, R)
                assert (bound < count) == oracles.ah_defective(d, n, R), (d, n, R)
                if d == 2:
                    assert bound == classical_veronese_secant_dim(n, 2, R), (n, R)
                else:
                    assert bound >= count - 1, (d, n, R)
                assert bound == secant_dim_bound(VarietyDescriptor.segre_veronese((d,), (n,)), R)
    for k, top in ((2, 6), (3, 6), (4, 3)):
        for degrees in itertools.product(range(1, top + 1), repeat=k):
            desc = VarietyDescriptor.segre_veronese(degrees, (1,) * k)
            for R in range(1, desc.matrix().n_cols // (k + 1) + 3):
                bound, count = secant_dim_bound(desc, R), _parameter_count(desc, R)
                assert (bound < count) == oracles.binary_sv_defective(degrees, R), (degrees, R)
                assert bound >= count - 1, (degrees, R)
    assert secant_dim_bound(VarietyDescriptor.segre((1, 1, 1, 1)), 3) == 13
    assert secant_dim_bound(VarietyDescriptor.segre((1, 2)), 2) == 5  # P^1 x P^2: none
    copy = parse_descriptor(matrix_copy("veronese:d=2,n=4", tmp_path))
    assert [secant_dim_bound(copy, R) for R in range(1, 7)] == [4, 9, 14, 14, 14, 14]


def test_theorem_bound_meets_the_probe_on_the_c4_grid(tmp_path):
    # The grid of the Alexander-Hirschowitz acceptance check: each probe
    # meets the bound, and so does the probe of a `matrix:` copy, whose
    # target is the parameter count.
    for d in range(1, 5):
        for n in range(1, 5):
            text = f"veronese:d={d},n={n}"
            desc = parse_descriptor(text)
            Rs = range(1, min(15, desc.matrix().ambient_dim // (n + 1) + 3))
            reports = secant_dimensions(desc, Rs, CFG)
            copies = secant_dimensions(parse_descriptor(matrix_copy(text, tmp_path)), Rs, CFG)
            bounds = [secant_dim_bound(desc, R) for R in Rs]
            assert [rep.computed_dim for rep in reports] == bounds, text
            assert [rep.computed_dim for rep in copies] == bounds, text
            for R, rep in zip(Rs, reports):
                certified = STATUS_CERTIFIED_DEFECTIVE if rep.defect_flag else STATUS_NONDEFECTIVE
                assert (rep.status, rep.attempts, rep.error_bound) == (certified, 1, 0.0), (text, R)
                assert rep.defect_flag == oracles.ah_defective(d, n, R), (text, R)


def test_theorem_bound_meets_the_probe_on_quadratic_veroneses():
    for n in range(1, 16):
        desc = VarietyDescriptor.veronese(2, n)
        Rs = range(1, n + 2)
        for R, rep in zip(Rs, secant_dimensions(desc, Rs, CFG)):
            assert rep.computed_dim == secant_dim_bound(desc, R) == (
                R * (n + 1) - R * (R - 1) // 2 - 1
            ), (n, R)
            status = STATUS_CERTIFIED_DEFECTIVE if 2 <= R <= n else STATUS_NONDEFECTIVE
            assert (rep.status, rep.attempts, rep.error_bound) == (status, 1, 0.0), (n, R)


def test_a_bound_one_too_low_exits_2_and_is_not_memoised(monkeypatch, capsys, fresh_memo):
    bound = secantdim.secant_dim_bound
    monkeypatch.setattr(secantdim, "secant_dim_bound", lambda desc, R: bound(desc, R) - 1)
    assert main(["dim-secant", "veronese:d=4,n=2", "--r", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("error: sigma_5 of veronese:d=4,n=2: dimension 13 (mod ")
    assert err.endswith(") is above the theorem bound 12\n")
    desc = VarietyDescriptor.veronese(4, 2)
    assert secantdim._secant_dimension_cached(desc, 5, RunConfig()) == []
    # The prefetch of a search passes it on, and so does the search.
    with pytest.raises(secantdim.TheoremBoundError):
        secantdim.prefetch_secant_dimensions(desc, (2, 5), CFG)
    assert main(["generic-hrank", "veronese:d=2,n=6", "--r", "2"]) == 2
    assert "above the theorem bound" in capsys.readouterr().err
    monkeypatch.undo()
    rep = secant_dimension(desc, 5)
    assert (rep.computed_dim, rep.status, rep.attempts) == (13, STATUS_CERTIFIED_DEFECTIVE, 1)


def test_two_factor_segre_bound_is_the_determinantal_dimension():
    # sigma_R(P^a x P^b) is the variety of (a+1) x (b+1) matrices of rank
    # <= R: defective exactly for 2 <= R <= min(a, b), under either
    # spelling of the descriptor.
    for a in range(1, 6):
        for b in range(1, 6):
            desc = VarietyDescriptor.segre((a, b))
            for R in range(1, desc.matrix().ambient_dim + 3):
                bound = secant_dim_bound(desc, R)
                assert bound == oracles.segre_matrix_secant_dim(a, b, R), (a, b, R)
                assert (bound < _parameter_count(desc, R)) == (2 <= R <= min(a, b)), (a, b, R)
                assert bound == secant_dim_bound(
                    VarietyDescriptor.segre_veronese((1, 1), (a, b)), R
                )


def test_two_factor_segre_bound_meets_the_probe():
    for a in range(1, 6):
        for b in range(a, 6):
            desc = VarietyDescriptor.segre((a, b))
            Rs = range(1, min(a, b) + 3)
            for R, rep in zip(Rs, secant_dimensions(desc, Rs, CFG)):
                assert rep.computed_dim == oracles.segre_matrix_secant_dim(a, b, R), (a, b, R)
                status = STATUS_CERTIFIED_DEFECTIVE if 2 <= R <= min(a, b) else STATUS_NONDEFECTIVE
                assert (rep.status, rep.attempts, rep.error_bound) == (status, 1, 0.0), (a, b, R)


def test_a_two_factor_segre_secant_is_certified(monkeypatch, capsys, fresh_memo):
    assert main(["dim-secant", "segre:n=2,3", "--r", "2"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["computed_dim"], rep["expected_dim"], rep["status"]) == (
        9, 11, STATUS_CERTIFIED_DEFECTIVE
    )
    assert (rep["attempts"], rep["error_bound"]) == (1, 0.0)
    secantdim._secant_dimension_cached.cache_clear()
    # The determinantal term one too low: the probe's 9 is above it.
    bound = secantdim.secant_dim_bound
    monkeypatch.setattr(secantdim, "secant_dim_bound", lambda desc, R: bound(desc, R) - 1)
    assert main(["dim-secant", "segre:n=2,3", "--r", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("error: sigma_2 of segre:n=2,3: dimension 9 (mod ")
    assert err.endswith(") is above the theorem bound 8\n")


def test_a_bound_one_too_high_stays_probabilistic(monkeypatch, fresh_memo):
    bound = secantdim.secant_dim_bound
    monkeypatch.setattr(secantdim, "secant_dim_bound", lambda desc, R: bound(desc, R) + 1)
    p = RunConfig().prime
    rep = secant_dimension(VarietyDescriptor.veronese(4, 2), 5)
    assert (rep.computed_dim, rep.status, rep.prime) == (13, STATUS_DEFECTIVE, p)
    assert (rep.attempts, rep.primes_tried) == (5, (WORD_PRIME, p, *ALTERNATE_PRIMES))
    assert rep.error_bound == float(Fraction(120, p - 1) ** 2)


def test_a_matrix_copy_of_a_quadratic_veronese_stays_probabilistic(tmp_path):
    copy = parse_descriptor(matrix_copy("veronese:d=2,n=4", tmp_path))
    rep = secant_dimension(copy, 2, CFG)
    assert (rep.computed_dim, rep.expected_dim, rep.status) == (8, 9, STATUS_DEFECTIVE)
    assert rep.attempts == 5 and 0 < rep.error_bound <= 2.0**-100
    assert rep.prime == CFG.prime
    rep = secant_dimension(VarietyDescriptor.veronese(2, 4), 2, CFG)
    assert (rep.computed_dim, rep.status, rep.attempts) == (8, STATUS_CERTIFIED_DEFECTIVE, 1)
