import itertools
import json
from fractions import Fraction

import pytest
from conftest import rational_normal_curve, use_kernels

from toricdim import (
    ALTERNATE_PRIMES, ExponentMatrix, HadamardSpec, RunConfig, hadamard_dimension, kernels,
    probing,
)
from toricdim import _kernels_py as py
from toricdim.cli import main, parse_descriptor
from toricdim.hadamdim import eta_hadamard

MAT = rational_normal_curve(8)
# The smallest prime RunConfig accepts: p - 1 = 2^16.
SMALL_PRIME = 65537


def draw_schedule(monkeypatch, config, target_rank, n_points=3):
    draws = []
    original = probing.random_torus_points

    def recorded(count, width, seed, prime):
        draws.append((seed, prime))
        return original(count, width, seed, prime)

    monkeypatch.setattr(probing, "random_torus_points", recorded)
    result = probing.probe_max_rank(
        eta_hadamard, MAT, HadamardSpec((n_points,)), config, target_rank
    )
    return result, draws


def least_trials(degree, prime):
    """The least t with (degree / (prime - 1))^t <= 2^-100, by search."""
    return next(t for t in itertools.count(1) if degree**t * 2**100 <= (prime - 1) ** t)


def test_probe_stops_at_the_target(monkeypatch):
    cfg = RunConfig(seed=10)
    result, draws = draw_schedule(monkeypatch, cfg, 6)
    assert (result.rank, result.prime, result.attempts, result.retried) == (
        6, cfg.prime, 1, False
    )
    assert draws == [(10, cfg.prime)]


def test_probe_short_of_its_target_runs_the_whole_ladder(monkeypatch):
    # sigma_2 of the rational normal curve in P^8 has rank 4 < 5: every draw
    # of the budget runs, then one draw at each alternate prime.  Two points:
    # g = min(2 * 2, 9) = 4, so deg = 4 * 2 * 8 = 64.
    cfg = RunConfig(seed=20)
    result, draws = draw_schedule(monkeypatch, cfg, 5, n_points=2)
    t = least_trials(64, cfg.prime)
    assert t == result.trials == 2
    assert (result.rank, result.prime, result.attempts, result.retried) == (
        4, cfg.prime, t + 2, True
    )
    assert draws == [(20 + i, cfg.prime) for i in range(t)] + [
        (20 + t, ALTERNATE_PRIMES[0]), (21 + t, ALTERNATE_PRIMES[1])
    ]


def test_every_short_probe_ends_at_both_alternate_primes(capsys):
    # Even with --prime at an alternate prime, a short probe ends with one
    # draw at each: the draw there counts towards the bound too, and the
    # prime is listed once: (120 / (p - 1))^3 of 4 draws.
    code = main(["dim-secant", "veronese:d=4,n=2", "--r", "5",
                 "--prime", str(ALTERNATE_PRIMES[0])])
    doc = json.loads(capsys.readouterr().out)
    assert (code, doc["attempts"], doc["trials"]) == (1, 4, 2)
    assert doc["primes_tried"] == list(ALTERNATE_PRIMES)
    assert doc["error_bound"] == 1.4094657650876813e-49


def test_default_schedule_draws_the_budget_then_the_alternate_primes(monkeypatch):
    # sigma_3 of the rational normal curve in P^8 has rank 6 < 7, so every
    # draw of the schedule runs.  Three points of rnc:8 (2 x 9):
    # g = min(3 * 2, 9) = 6, m = 1, D+ = 8, so deg = 6 * 2 * 8 = 96, and
    # 96 / (2^61 - 2) > 2^-100 >= its square.
    cfg = RunConfig(seed=10)
    result, draws = draw_schedule(monkeypatch, cfg, 7)
    assert draws == [
        (10, cfg.prime), (11, cfg.prime), (12, ALTERNATE_PRIMES[0]), (13, ALTERNATE_PRIMES[1])
    ]
    assert (result.rank, result.prime, result.attempts, result.retried, result.trials) == (
        6, cfg.prime, 4, True, 2
    )
    assert result.primes_tried == (cfg.prime, *ALTERNATE_PRIMES)
    assert result.error_bound == float(Fraction(96, cfg.prime - 1) ** 2)
    assert 0 < result.error_bound <= 2.0**-100


def test_a_certified_probe_has_no_error_bound(monkeypatch):
    result, draws = draw_schedule(monkeypatch, RunConfig(seed=10), 6)
    assert draws == [(10, RunConfig().prime)]
    assert (result.attempts, result.trials, result.error_bound) == (1, 2, 0.0)
    assert result.primes_tried == (RunConfig().prime,)


@pytest.mark.parametrize("n_points, degree", [(2, 64), (3, 96)])
def test_budget_at_a_prime_just_above_2_16(monkeypatch, n_points, degree):
    # g = min(2 * R, 9) and deg = g * 2 * 8.  At R = 2, (2^6 / 2^16)^10 is
    # 2^-100 exactly, so t = 10 holds only with "<=".  The target is one
    # above the shape ceiling 2R, so every draw of the schedule runs.
    assert probing.minor_degree(MAT, 1, n_points) == degree
    t = least_trials(degree, SMALL_PRIME)
    assert t == {64: 10, 96: 11}[degree]
    cfg = RunConfig(prime=SMALL_PRIME)
    result, draws = draw_schedule(monkeypatch, cfg, 2 * n_points + 1, n_points=n_points)
    assert draws == [(i, SMALL_PRIME) for i in range(t)] + [
        (t, ALTERNATE_PRIMES[0]), (t + 1, ALTERNATE_PRIMES[1])
    ]
    assert result.trials == t
    assert result.error_bound == float(Fraction(degree, SMALL_PRIME - 1) ** t)
    assert result.error_bound <= 2.0**-100


def test_no_error_budget_raises_before_any_draw(monkeypatch):
    # rnc:2000 at 20 points: deg = min(40, 2001) * 2 * 2000 = 160000 >= p - 1.
    mat = rational_normal_curve(2000)
    draws = []
    monkeypatch.setattr(probing, "random_torus_points", lambda *a: draws.append(a))
    with pytest.raises(ValueError, match="prime 65537: .* degree up to 160000"):
        probing.probe_max_rank(
            eta_hadamard, mat, HadamardSpec((20,)), RunConfig(prime=SMALL_PRIME), 41
        )
    assert draws == []


def test_the_budget_allows_at_most_100_draws():
    # A draw that misses with probability up to 1/2 needs t = 100; beyond
    # that no schedule is drawn.
    assert probing.budget_trials(2**15, SMALL_PRIME) == 100
    assert probing.budget_trials(2**15 - 1, SMALL_PRIME) == least_trials(2**15 - 1, SMALL_PRIME)
    assert probing.budget_trials(0, SMALL_PRIME) == 1
    with pytest.raises(ValueError, match="32769"):
        probing.budget_trials(2**15 + 1, SMALL_PRIME)


def test_the_hadamard_probe_bounds_its_degree_with_its_factors(monkeypatch):
    calls = []
    original = probing.minor_degree

    def recorded(mat, factors, n_points):
        calls.append((mat.n_rows, factors, n_points))
        return original(mat, factors, n_points)

    monkeypatch.setattr(probing, "minor_degree", recorded)
    rep = hadamard_dimension(parse_descriptor("veronese:d=2,n=4"), (2, 2, 2))
    # The product's own probe: 5 rows, 3 factors, 4 points, and
    # deg = min(4 * 5, 15) * 4 * 2 = 120.
    assert calls[-1] == (5, 3, 4)
    assert rep.trials == least_trials(120, RunConfig().prime) == 2
    assert (rep.error_bound, rep.attempts) == (0.0, 1)


@pytest.mark.parametrize("backend", ["python", "c"])
def test_a_draw_without_normalised_blocks_takes_the_current_form(backend, fast, monkeypatch):
    # Column 0 of the rational normal quartic's chart is y_0, and the factor
    # point (-1, 2) puts S_1(0) = 1 + (p - 1) = 0: no normalised blocks, so
    # the draw's rank is kr_rank_mod of eta_at's eta, on either backend.
    use_kernels(py if backend == "python" else fast, monkeypatch)
    config = RunConfig(seed=0)
    points = ((3, 5), (config.prime - 1, 2))
    monkeypatch.setattr(probing, "random_torus_points", lambda *args: points)
    mat = ExponentMatrix(((1,) * 5, (0, 1, 2, 3, 4)))
    etas = []

    def eta_at(rows, spec, pts, p):
        etas.append(eta_hadamard(rows, spec, pts, p))
        return etas[-1]

    spec = HadamardSpec((2,))
    assert kernels.hadamard_ranks_mod(mat.entries, [spec.r_prime], points, config.prime) == [None]
    result = probing.probe_max_rank(eta_at, mat, spec, config, 4)
    assert len(etas) == result.attempts == 1
    assert result.rank == kernels.kr_rank_mod(etas[0], mat.entries, config.prime) == 4
