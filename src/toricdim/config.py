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
    `probing` sets it from the probe's degree bound.  A probe that falls
    short of its target then draws once at each alternate prime.
    """

    prime: int = DEFAULT_PRIME
    trials: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.trials is not None and self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not (2**16 < self.prime < PRIME_LIMIT and is_probable_prime(self.prime)):
            raise ValueError("prime must be a probable prime between 2^16 and 2^64")


DEFAULT_CONFIG = RunConfig()
