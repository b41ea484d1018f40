import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import matrix_copy, rational_normal_curve

from toricdim import (
    ALTERNATE_PRIMES,
    DEFAULT_PRIME,
    HadamardSpec,
    RunConfig,
    VarietyDescriptor,
    expected_generic_hrank,
    generic_hrank,
    hadamard_dimension,
    hadamard_dimensions,
    hadamdim,
    kernels,
    normalize,
    secant_dimension,
    segre_veronese,
    tables,
)
from toricdim.cli import main, parse_descriptor, report_dict
from toricdim.exponent import ExponentMatrix
from toricdim.hadamdim import (
    STATUS_EXPECTED,
    STATUS_FOUND,
    STATUS_INFINITE,
    eta_hadamard,
)
from toricdim.modlinalg import WORD_PRIME
from toricdim.probing import probe_max_rank
from toricdim.secantdim import eta_secant
from toricdim.tables import run_table

CFG = RunConfig(seed=0)
P = 101
# A chart of the rational normal quartic with exponents up to 1000.
WIDE_QUARTIC = VarietyDescriptor.custom(
    ExponentMatrix(((1,) * 5, (-1000, -500, 0, 500, 1000))), "wide-quartic"
)


# --- independent oracle -------------------------------------------------------
#
# eta_hadamard collapses lattice sums via multiplicativity; the oracle below
# evaluates those sums literally, one monomial evaluation per index tuple,
# with no shared code (plain pow() per column).


def _phi(rows, pt, p):
    n_cols = len(rows[0])
    out = []
    for c in range(n_cols):
        v = 1
        for l, row in enumerate(rows):
            v = (v * pow(pt[l], row[c], p)) % p
        out.append(v)
    return out


def brute_eta_hadamard(rows, r, pts, p):
    width = len(rows)
    factor_pts = []
    off = 1
    for rk in r:
        factor_pts.append([(1,) * width] + [tuple(pts[off + j]) for j in range(rk - 1)])
        off += rk - 1

    def term(combo):
        pt = tuple(pts[0])
        for k, j in enumerate(combo):
            pt = tuple((a * b) % p for a, b in zip(pt, factor_pts[k][j]))
        return _phi(rows, pt, p)

    def accumulate(keep):
        acc = [0] * len(rows[0])
        for combo in itertools.product(*[range(rk) for rk in r]):
            if keep(combo):
                acc = [(a + b) % p for a, b in zip(acc, term(combo))]
        return acc

    out = [accumulate(lambda combo: True)]
    for k in range(len(r)):
        for j in range(1, r[k]):
            out.append(accumulate(lambda combo, k=k, j=j: combo[k] == j))
    return out


SMALL_MATS = (
    rational_normal_curve(3),
    normalize(segre_veronese((2,), (2,))),
    segre_veronese((1, 1), (1, 1)),
)


def test_eta_hadamard_matches_lattice_sum_oracle():
    rng = random.Random(11)
    for mat in SMALL_MATS:
        rows = mat.entries
        for r in (
            (2,), (3,), (2, 2), (3, 2), (2, 2, 2), (3, 3), (1,), (1, 3), (2, 1, 2),
        ):
            total = sum(rk - 1 for rk in r) + 1
            pts = [
                tuple(rng.randrange(1, P) for _ in range(len(rows)))
                for _ in range(total)
            ]
            assert eta_hadamard(rows, r, pts, P) == brute_eta_hadamard(
                rows, r, pts, P
            ), (r, pts)


def test_single_factor_reduces_to_secant_eta():
    rng = random.Random(23)
    rows = rational_normal_curve(4).entries
    for big_r in (1, 2, 3, 4):
        pts = [(rng.randrange(1, P), rng.randrange(1, P)) for _ in range(big_r)]
        assert eta_hadamard(rows, (big_r,), pts, P) == eta_secant(rows, pts, P)


def test_all_ones_points_count_tuples():
    rows = rational_normal_curve(2).entries
    r = (2, 3, 4)
    pts = [(1, 1)] * 7
    eta = eta_hadamard(rows, r, pts, P)
    assert eta[0] == [24, 24, 24]  # 2*3*4 tuples in total
    per_factor = [12, 8, 8, 6, 6, 6]  # prod of the other factor sizes
    for row, count in zip(eta[1:], per_factor):
        assert row == [count] * 3


def test_two_factor_hand_expansion():
    rows = [[1, 0], [0, 1]]
    pts = [(1, 2), (3, 5), (7, 11)]
    # row 0 sums phi over the 4 products y0, y0*y11, y0*y21, y0*y11*y21
    assert eta_hadamard(rows, (2, 2), pts, P) == [
        [32, 43],
        [24, 19],
        [28, 31],
    ]


def test_eta_hadamard_point_count_checked():
    rows = rational_normal_curve(2).entries
    with pytest.raises(ValueError, match="need 4 points"):
        eta_hadamard(rows, (2, 3), [(1, 1)] * 3, P)


# --- dimension reports ----------------------------------------------------


def test_quartic_surface_hypersurface_case():
    rep = hadamard_dimension(VarietyDescriptor.veronese(4, 2), (2, 2, 2, 2), CFG)
    assert rep.computed_dim == 14
    assert rep.expected_dim_hadamard == 14
    assert rep.ambient_dim == 14
    assert rep.fills_ambient
    assert rep.status == STATUS_EXPECTED
    assert rep.R == 5
    # sigma_5 is the defective Alexander-Hirschowitz case (13 < 14), so the
    # lower bound settles nothing and the product still probes; its report
    # bytes are pinned in test_golden_reports.
    assert rep.lower_bound_dim_R == 13
    assert rep.attempts >= 1
    # each factor is sigma_2 of the quartic surface, dimension 2*3 - 1 = 5
    assert rep.factor_dims == (5, 5, 5, 5)
    assert rep.parameter_count == 4 * 5 - 3 * 2


def test_segre_four_factors_hypersurface_case():
    rep = hadamard_dimension(
        VarietyDescriptor.segre((1, 1, 1, 1)), (2, 2), CFG
    )
    assert rep.computed_dim == 14
    assert rep.ambient_dim == 15
    assert not rep.fills_ambient
    # sigma_2 of the four-factor Segre has the expected dimension 2*5 - 1 = 9
    assert rep.factor_dims == (9, 9)
    assert rep.parameter_count == 9 + 9 - 4


def test_sextic_curve_hypersurface_case():
    rep = hadamard_dimension(VarietyDescriptor.veronese(6, 1), (2, 2), CFG)
    assert rep.computed_dim == 5
    assert rep.ambient_dim == 6
    assert rep.factor_dims == (3, 3)
    assert rep.parameter_count == 3 + 3 - 1


def test_dimension_chain_and_factor_order_invariance():
    for desc, r in (
        (VarietyDescriptor.veronese(3, 2), (2, 3)),
        (VarietyDescriptor.segre((1, 1, 1)), (2, 2)),
        (VarietyDescriptor.rnc(7), (3, 2)),
    ):
        rep = hadamard_dimension(desc, r, CFG)
        assert rep.lower_bound_dim_R <= rep.computed_dim
        assert rep.computed_dim <= rep.expected_dim_hadamard
        assert rep.expected_dim_hadamard <= rep.expected_dim_R
        flipped = hadamard_dimension(desc, tuple(reversed(r)), CFG)
        assert flipped.computed_dim == rep.computed_dim


# --- products the sigma_R lower bound settles -------------------------------


def _no_probe(*args, **kwargs):
    raise AssertionError("a settled product made a probe of its own")


@pytest.mark.parametrize("desc, r", [
    (VarietyDescriptor.rnc(8), (2, 3)),
    (VarietyDescriptor.rnc(8), (3,)),  # m = 1 is sigma_3 itself
    (VarietyDescriptor.segre((1, 1, 1)), (2, 2)),
])
def test_settled_product_makes_no_probe(desc, r, monkeypatch):
    monkeypatch.setattr(hadamdim, "probe_hadamard_ranks", _no_probe)
    rep = hadamard_dimension(desc, r, CFG)
    assert rep.lower_bound_dim_R >= rep.expected_dim_hadamard
    assert rep.computed_dim == rep.lower_bound_dim_R
    assert (rep.attempts, rep.trials, rep.primes_tried, rep.error_bound) == (0, 0, (), 0.0)
    assert rep.prime == secant_dimension(desc, rep.R, CFG).prime
    assert rep.status == STATUS_EXPECTED and not rep.hadamard_defect_flag


def test_sigma_R_wins_a_tie_with_a_contained_product(monkeypatch):
    # A contained product's bound equal to sigma_R's, or below it, changes
    # nothing: the report keeps sigma_R's prime, and equals the report
    # without the bound, field for field.  On v2(P^6), (2, 5) is settled by
    # (2, 4), which fills P^27; (3, 5) contains (2, 5), and sigma_7 fills
    # P^27 too.  Both reach it at WORD_PRIME, so the product probes name a
    # prime of their own here, which tells the two bounds apart.
    mark = ALTERNATE_PRIMES[1]
    probe = hadamdim.probe_hadamard_ranks

    def marked(*args):
        return [result._replace(prime=mark) for result in probe(*args)]

    monkeypatch.setattr(hadamdim, "probe_hadamard_ranks", marked)
    desc = VarietyDescriptor.veronese(2, 6)
    tied = hadamard_dimensions(desc, [(2, 4), (2, 5), (3, 5)], CFG)
    assert [rep.computed_dim for rep in tied] == [27] * 3
    assert tied[1].prime == mark != tied[2].prime
    assert tied[2].prime == secant_dimension(desc, 7, CFG).prime == WORD_PRIME
    assert report_dict(tied[2]) == report_dict(hadamard_dimension(desc, (3, 5), CFG))
    # rnc(8): (2, 2) settles at dim 5, below sigma_4's 7, which settles (2, 3).
    desc = VarietyDescriptor.rnc(8)
    below = hadamard_dimensions(desc, [(2, 2), (2, 3)], CFG)
    assert below[0].computed_dim < below[1].lower_bound_dim_R
    assert report_dict(below[1]) == report_dict(hadamard_dimension(desc, (2, 3), CFG))


def test_settled_product_needs_no_error_budget_of_its_own(tmp_path, capsys):
    # A chart of the rational normal quartic with exponents up to 1200: at
    # p = 65537 the product probe of sigma_2 * sigma_2 would have minors of
    # degree up to 36015 > (p - 1)/2, and no error budget; sigma_3 already
    # fills P^4, which settles the product.
    wide = VarietyDescriptor.custom(
        ExponentMatrix(((1,) * 5, (-1200, -600, 0, 600, 1200))), "wide-quartic"
    )
    rep = hadamard_dimension(wide, (2, 2), RunConfig(prime=65537))
    assert (rep.computed_dim, rep.fills_ambient, rep.attempts) == (4, True, 0)
    path = tmp_path / "wide.csv"
    path.write_text("1,1,1,1,1\n-1200,-600,0,600,1200\n")
    argv = ["dim-hadamard", f"matrix:{path}", "--r", "2,2", "--prime", "65537"]
    assert main(argv) == 0
    assert '"computed_dim": 4' in capsys.readouterr().out


def _probes_of(monkeypatch) -> list:
    """The r of every spec that `hadamdim` probes, one list per call."""
    calls = []
    original = hadamdim.probe_hadamard_ranks

    def counted(eta_at, mat, batch, config):
        calls.append([spec.r for spec, _ in batch])
        return original(eta_at, mat, batch, config)

    monkeypatch.setattr(hadamdim, "probe_hadamard_ranks", counted)
    return calls


def test_contained_product_makes_no_probe(monkeypatch):
    # v2(P^6): sigma_2 * sigma_4 fills P^27, and sigma_6 (dim 26) falls
    # short of it, so the product sigma_2 * sigma_5 that contains it, after
    # it in the batch, is settled by containment and not by sigma_R.
    desc = VarietyDescriptor.veronese(2, 6)
    calls = _probes_of(monkeypatch)
    inner, rep = hadamard_dimensions(desc, [(2, 4), (2, 5)], CFG)
    assert inner.computed_dim == inner.ambient_dim == 27 and inner.attempts > 0
    assert calls == [[(4, 2)]]  # largest factor first
    assert rep.lower_bound_dim_R == secant_dimension(desc, 6, CFG).computed_dim == 26
    assert rep.computed_dim == rep.expected_dim_hadamard == 27
    assert (rep.attempts, rep.trials, rep.primes_tried, rep.error_bound) == (0, 0, (), 0.0)
    assert rep.prime == inner.prime  # the report carries the bound's prime
    assert rep.status == STATUS_EXPECTED and rep.fills_ambient
    # a bound below the product's ceiling settles nothing: sigma_2 * sigma_3
    # has dim 23
    calls.clear()
    low, rep = hadamard_dimensions(desc, [(2, 3), (2, 4)], CFG)
    assert low.computed_dim == 23 and rep.attempts > 0
    assert calls == [[(3, 2), (4, 2)]]
    # nor does a product after it in the batch
    calls.clear()
    rep, inner = hadamard_dimensions(desc, [(2, 5), (2, 4)], CFG)
    assert rep.attempts > 0 and calls == [[(5, 2), (4, 2)]]


def test_a_batch_reports_every_vector_in_order():
    # One report per vector, in order, with the caller's r: none is dropped
    # or merged, even when two vectors share one probe.
    desc = parse_descriptor("rnc:6")
    for rs in ([], [(2, 2)], [(2, 2), (3, 2)], [(2, 3), (3, 2), (2, 3)]):
        reps = hadamard_dimensions(desc, rs, CFG)
        assert [rep.r for rep in reps] == rs
    assert reps[0] == reps[2]
    assert reps[0]._replace(r=(3, 2), factor_dims=reps[0].factor_dims[::-1]) == reps[1]


def _direct_product_dim(desc, r, config, expected_h) -> int:
    """dim of sigma_{r_1} * ... * sigma_{r_m} from its own rank probe."""
    spec = HadamardSpec(tuple(min(rk, desc.matrix().ambient_dim + 1) for rk in r))
    probe = probe_max_rank(eta_hadamard, desc.matrix(), spec, config, expected_h + 1)
    return probe.rank - 1


@pytest.mark.parametrize("seed", (0, 3))
def test_contained_sweep_rows_match_a_direct_product_probe(seed, monkeypatch):
    config = RunConfig(seed=seed)
    reports = []

    def kept(descriptor, rs, config):
        batch = hadamard_dimensions(descriptor, rs, config)
        reports.extend((descriptor, rep) for rep in batch)
        return batch

    monkeypatch.setattr(tables, "hadamard_dimensions", kept)
    rows = run_table("experiments", config, extended=True)
    assert sorted((rep.descriptor, rep.r) for _, rep in reports) == sorted(
        (row.descriptor, row.r) for row in rows
    )
    # settled, and not by sigma_R
    settled = [
        (desc, rep) for desc, rep in reports
        if rep.attempts == 0 and rep.lower_bound_dim_R < rep.expected_dim_hadamard
    ]
    for desc, rep in settled:
        direct = _direct_product_dim(desc, rep.r, config, rep.expected_dim_hadamard)
        assert direct == rep.computed_dim, (rep.descriptor, rep.r)
    assert len(settled) >= 100


@pytest.mark.parametrize("seed", (0, 3))
def test_settled_experiments_rows_match_a_direct_product_probe(seed):
    config = RunConfig(seed=seed)
    settled = 0
    for row in run_table("experiments", config):
        desc = parse_descriptor(row.descriptor)
        rep = hadamard_dimension(desc, row.r, config)
        if rep.lower_bound_dim_R < rep.expected_dim_hadamard:
            continue
        settled += 1
        direct = _direct_product_dim(desc, row.r, config, rep.expected_dim_hadamard)
        assert direct == rep.computed_dim == row.computed_dim, row
    assert settled >= 100


@pytest.mark.parametrize("prime", [DEFAULT_PRIME, 65537])
def test_batched_reports_equal_the_lone_reports(prime, monkeypatch):
    # v_2(P^4) at indices 3 and 4, where sigma_R falls short and every
    # product is probed.  Each product is probed largest factor first, so
    # (2, 3) and (3, 2) share the probe of r' (2, 1).  A kernel that
    # withholds one rank makes that probe short at every draw, so it walks
    # its whole schedule, and (2, 2, 2) short at WORD_PRIME and the
    # configured prime, so it reaches its target at the first alternate;
    # (2, 2) stops at draw 0, at WORD_PRIME when the configured prime is
    # larger.  The batch draws once per (draw, prime), with its factor
    # lists in lexicographic order.
    config = RunConfig(prime=prime, seed=4)
    first = (WORD_PRIME,) if prime > WORD_PRIME else ()
    walk = kernels.hadamard_ranks_mod
    short = {(2, 1): (*first, prime, *ALTERNATE_PRIMES), (1, 1, 1): (*first, prime)}
    walks = []

    def withheld(rows, r_primes, points, p):
        walks.append(list(r_primes))
        ranks = walk(rows, r_primes, points, p)
        return [rank if rank is None else rank - (p in short.get(tuple(rp), ()))
                for rp, rank in zip(r_primes, ranks)]

    desc = VarietyDescriptor.veronese(2, 4)
    monkeypatch.setattr(kernels, "hadamard_ranks_mod", withheld)
    rs = [(2, 2), (2, 2, 2), (2, 3), (3, 2)]
    batched = hadamard_dimensions(desc, rs, config)
    # The secant reports the products rest on are walks of one-factor lists
    # on the same kernel: leave them out.
    products = [batch for batch in walks if len(batch[0]) > 1]
    assert all(sorted(batch) == batch for batch in products)
    assert len(products) == batched[2].attempts
    assert all((2, 1) in batch for batch in products) and (1, 2) not in products[0]
    for r, rep in zip(rs, batched):
        assert report_dict(rep) == report_dict(hadamard_dimension(desc, r, config))
    assert (batched[0].attempts, batched[0].prime) == (1, (*first, prime)[0])
    assert batched[3] == batched[2]._replace(r=(3, 2), factor_dims=batched[2].factor_dims[::-1])
    trials = batched[2].trials
    assert trials > 1 and batched[2].hadamard_defect_flag and batched[2].error_bound > 0
    assert batched[2].attempts == len(first) + trials + 2
    assert batched[2].primes_tried == (*first, prime, *ALTERNATE_PRIMES)
    assert (batched[1].attempts, batched[1].prime) == (
        len(first) + batched[1].trials + 1, ALTERNATE_PRIMES[0]
    )
    assert batched[1].error_bound == 0.0 and not batched[1].hadamard_defect_flag


def test_hadamard_spec_validation():
    with pytest.raises(ValueError):
        hadamard_dimension(VarietyDescriptor.rnc(3), (2, 0), CFG)
    with pytest.raises(ValueError):
        HadamardSpec(())


# --- generic Hadamard rank ------------------------------------------------


def test_generic_hrank_quadratic_veronese_surface():
    rep = generic_hrank(VarietyDescriptor.veronese(3, 2), 2, CFG)
    assert rep.found_m == 3
    assert rep.status == STATUS_FOUND
    assert rep.expected_m == 3
    assert rep.trace[-1] == (3, 9)


def test_generic_hrank_segre_four_factors():
    rep = generic_hrank(VarietyDescriptor.segre((1, 1, 1, 1)), 2, CFG)
    assert rep.found_m == 3
    assert rep.expected_m == 3
    assert (2, 14) in rep.trace
    assert rep.trace[-1] == (3, 15)


def test_generic_hrank_raises_nothing_for_powers_it_never_reaches():
    # A chart of the rational normal quartic with exponents up to 1000: at
    # p = 65537, sigma_5 has minors of degree 5 * (2 * 1001 + 5 * 1000) =
    # 35010 > (p - 1)/2, so it has no error budget, and the batch of every
    # power, which needs it from sigma_2^(*4) on, raises.  sigma_2 * sigma_2
    # already fills P^4: one power at a time, the search stops before it
    # asks for sigma_5.
    config = RunConfig(prime=65537)
    rep = generic_hrank(WIDE_QUARTIC, 2, config)
    assert (rep.found_m, rep.trace) == (2, ((1, 3), (2, 4)))
    with pytest.raises(ValueError, match="degree up to 35010"):
        secant_dimension(WIDE_QUARTIC, 5, config)


def _per_power_hrank(desc, r, config):
    """`generic_hrank` by its definition: `hadamard_dimension` of each power
    (r,)^m, m = 1 up to HRANK_MARGIN past the expected m, one at a time,
    up to the first that fills; (found m, trace)."""
    mat = desc.matrix()
    expected_m = expected_generic_hrank(mat.ambient_dim, mat.rank() - 1, r)
    trace = []
    for m in range(1, max(expected_m, 1) + hadamdim.HRANK_MARGIN + 1):
        rep = hadamard_dimension(desc, (r,) * m, config)
        trace.append((m, rep.computed_dim))
        if rep.fills_ambient:
            return m, tuple(trace)
    return None, tuple(trace)


@pytest.mark.parametrize("prime", [DEFAULT_PRIME, 65537])
def test_generic_hrank_equals_its_per_power_definition(prime, tmp_path):
    # The one batch of every power against the per-power loop, on varieties
    # that fill at the expected m, one whose secants are certified defective
    # (v_2(P^6)), and a `matrix:` copy of v_2(P^4), whose defective factors
    # fall short of their parameter count.
    config = RunConfig(prime=prime, seed=2)
    descs = [*map(parse_descriptor, ("veronese:d=2,n=6", "veronese:d=3,n=2",
                                     "segre:n=1,1,1,1")),
             parse_descriptor(matrix_copy("veronese:d=2,n=4", tmp_path))]
    for desc in descs:
        for r in (2, 3):
            rep = generic_hrank(desc, r, config)
            assert (rep.found_m, rep.trace) == _per_power_hrank(desc, r, config), (str(desc), r)
    # The wide quartic's batch raises, so the search falls back to one
    # power at a time, which is the definition itself.
    if prime == 65537:
        with pytest.raises(ValueError, match="degree up to 35010"):
            hadamard_dimensions(WIDE_QUARTIC, [(2,) * m for m in range(1, 6)], config)
        rep = generic_hrank(WIDE_QUARTIC, 2, config)
        assert (rep.found_m, rep.trace) == _per_power_hrank(WIDE_QUARTIC, 2, config)


def test_generic_hrank_walks_once_per_kind(monkeypatch, capsys):
    # v_2(P^6), r = 2, powers 1 to 6: one secant walk for sigma_2 to
    # sigma_7, then one product walk for powers 2 to 5, whose sigma_R falls
    # short; power 6 is settled, as sigma_7 fills P^27.  Each probe reaches
    # its target at draw 0, at WORD_PRIME.
    walk = kernels.hadamard_ranks_mod
    walks = []

    def counted(rows, r_primes, points, p):
        walks.append((tuple(map(tuple, r_primes)), p))
        return walk(rows, r_primes, points, p)

    monkeypatch.setattr(kernels, "hadamard_ranks_mod", counted)
    assert main(["generic-hrank", "veronese:d=2,n=6", "--r", "2", "--seed", "0"]) == 0
    capsys.readouterr()
    assert walks == [(tuple((n,) for n in range(1, 7)), WORD_PRIME),
                     (tuple((1,) * m for m in range(2, 6)), WORD_PRIME)]


def test_generic_hrank_r1_idempotent():
    rep = generic_hrank(VarietyDescriptor.rnc(8), 1, CFG)
    assert rep.found_m is None
    assert rep.status == STATUS_INFINITE

    full = VarietyDescriptor.custom(
        ExponentMatrix(((1, 0), (0, 1))), "coordinate-line"
    )
    rep2 = generic_hrank(full, 1, CFG)
    assert rep2.found_m == 1
    assert rep2.status == STATUS_FOUND



@pytest.mark.parametrize("r", [0, -3])
def test_generic_hrank_rejects_r_before_it_builds_the_matrix(monkeypatch, r):
    def no_build(self):
        raise AssertionError("generic_hrank built the matrix before checking r")

    monkeypatch.setattr(VarietyDescriptor, "matrix", no_build)
    with pytest.raises(ValueError, match="r must be >= 1"):
        generic_hrank(VarietyDescriptor.rnc(8), r, CFG)


def test_expected_generic_hrank_values():
    assert expected_generic_hrank(9, 2, 2) == 3
    assert expected_generic_hrank(15, 4, 2) == 3
    assert expected_generic_hrank(6, 1, 2) == 3
    assert expected_generic_hrank(5, 5, 2) == 0
    with pytest.raises(ValueError):
        expected_generic_hrank(9, 2, 1)
    with pytest.raises(ValueError):
        expected_generic_hrank(2, 5, 2)


def sv_generic_bound(degrees, dims) -> tuple[int, int]:
    """Non-defectivity / filling thresholds for secant Hadamard products of
    Segre-Veronese varieties.

    Returns (nondefective_below, fills_above): the product is not
    Hadamard-defective whenever R <= prod C(n_i+d_i, d_i)/sum(n) - sum(n)
    (floor of the right side), and fills the ambient space whenever
    R >= prod C(n_i+d_i, d_i)/sum(n) + sum(n) (ceiling).  Both thresholds
    are independent of the individual factor indices.
    """
    degrees = tuple(int(d) for d in degrees)
    dims = tuple(int(n) for n in dims)
    if len(degrees) != len(dims) or not degrees:
        raise ValueError("degrees and dims must be equal-length, non-empty")
    if any(d < 1 for d in degrees) or any(n < 1 for n in dims):
        raise ValueError("degrees and dims must all be >= 1")
    prod_c = math.prod(math.comb(n + d, d) for d, n in zip(degrees, dims))
    s = sum(dims)
    lower = Fraction(prod_c, s) - s
    upper = Fraction(prod_c, s) + s
    return (math.floor(lower), math.ceil(upper))


def test_sv_generic_bound_values():
    assert sv_generic_bound((3,), (4,)) == (4, 13)
    assert sv_generic_bound((1, 1), (1, 1)) == (0, 4)
    assert sv_generic_bound((2, 1), (2, 3)) == sv_generic_bound((1, 2), (3, 2))
    with pytest.raises(ValueError):
        sv_generic_bound((), ())
    with pytest.raises(ValueError):
        sv_generic_bound((1,), (1, 2))
    with pytest.raises(ValueError):
        sv_generic_bound((0,), (1,))
