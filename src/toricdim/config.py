"""Run configuration shared by the dimension engines and the CLI."""

from __future__ import annotations

from dataclasses import dataclass

from .modlinalg import DEFAULT_PRIME, PRIME_LIMIT, is_probable_prime

# Entries kept by each memoised matrix, rank, column-degree and secant-report
# function, so memory stays bounded in long sweeps.  The extended experiments
# sweep asks for 201 distinct secant reports 1700 times (the factor
# dimensions and the sigma_R lower bound of its 536 Hadamard reports) and for
# 26 matrices and ranks 737 times each, so every cache keeps all of its keys
# there.
CACHE_SIZE = 1024


@dataclass(frozen=True)
class RunConfig:
    """Reproducibility knobs: all randomness flows from `seed`.

    A probe's draw i takes its torus points from stream seed + i.  The first
    `trials` draws are at `prime`; when `trials` is None, the error budget of
    `probing` sets it from the probe's degree bound.  When a probe falls
    short of its target, up to `max_retries` further draws follow, the last
    two of them on alternate primes.
    """

    prime: int = DEFAULT_PRIME
    trials: int | None = None
    seed: int = 0
    max_retries: int = 2

    def __post_init__(self):
        if self.trials is not None and self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not (2**16 < self.prime < PRIME_LIMIT and is_probable_prime(self.prime)):
            raise ValueError("prime must be a probable prime between 2^16 and 2^64")


DEFAULT_CONFIG = RunConfig()
