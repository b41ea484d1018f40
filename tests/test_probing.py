from conftest import rational_normal_curve

from toricdim import ALTERNATE_PRIMES, RunConfig, probing
from toricdim.secantdim import eta_secant

ROWS = rational_normal_curve(8).entries


def draw_schedule(monkeypatch, config, target_rank):
    draws = []
    original = probing.random_torus_points

    def recorded(count, width, seed, prime):
        draws.append((seed, prime))
        return original(count, width, seed, prime)

    monkeypatch.setattr(probing, "random_torus_points", recorded)
    result = probing.probe_max_rank(eta_secant, ROWS, 3, config, target_rank)
    return result, draws


def test_probe_stops_at_the_target(monkeypatch):
    cfg = RunConfig(trials=3, seed=10, max_retries=5)
    result, draws = draw_schedule(monkeypatch, cfg, 6)
    assert (result.rank, result.prime, result.attempts, result.retried) == (
        6, cfg.prime, 1, False
    )
    assert draws == [(10, cfg.prime)]


def test_probe_short_of_its_target_runs_the_whole_ladder(monkeypatch):
    # sigma_3 of the rational normal curve in P^8 has rank 6 < 7: every trial
    # and every retry runs, the last two on the alternate primes.
    cfg = RunConfig(trials=3, seed=10, max_retries=5)
    result, draws = draw_schedule(monkeypatch, cfg, 7)
    assert (result.rank, result.attempts, result.retried) == (6, 8, True)
    assert result.prime == cfg.prime
    assert draws == [(10 + i, cfg.prime) for i in range(6)] + [
        (16, ALTERNATE_PRIMES[0]), (17, ALTERNATE_PRIMES[1])
    ]


def test_probe_without_retries_stops_after_the_trials(monkeypatch):
    for retries in (0, 1):
        cfg = RunConfig(trials=2, seed=0, max_retries=retries)
        result, draws = draw_schedule(monkeypatch, cfg, 7)
        assert result.attempts == 2 + retries
        assert result.retried == (retries > 0)
        assert draws == [(i, cfg.prime) for i in range(2 + retries)]
