"""Run configuration shared by the dimension engines and the CLI."""

from typing import NamedTuple

from .modlinalg import DEFAULT_PRIME, PRIME_LIMIT, is_probable_prime


class _RunConfig(NamedTuple):
    prime: int = DEFAULT_PRIME
    seed: int = 0


class RunConfig(_RunConfig):
    """The modulus of the rank probes and the seed of their point draws.

    A probe's draw i takes its torus points from stream seed + i, taken
    mod 2^64 (`modlinalg.random_torus_points`).  Every probe, secant or
    Hadamard, draws first at `modlinalg.WORD_PRIME` when `prime` is larger.
    Then a probe short of its target draws at `prime`, as many times as the
    error budget of `probing` sets from its degree bound, and then once at
    each alternate prime.  The error bound counts the draws at `prime`
    only, and the report of a short probe names `prime` when a draw there
    reached its rank.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        config = super().__new__(cls, *args, **kwargs)
        if not (2**16 < config.prime < PRIME_LIMIT and is_probable_prime(config.prime)):
            raise ValueError("prime must be a probable prime between 2^16 and 2^64")
        return config


DEFAULT_CONFIG = RunConfig()
