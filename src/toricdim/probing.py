"""The one eta construction and the seeded rank-probing loop.

`eta` builds the coefficient matrix of the Jacobian factorization
eta (x) A (Khatri-Rao) for a Hadamard product of secant varieties, over F_p
or over the exact rationals.  A secant variety sigma_R(X) is its one-factor
case (r' = (R - 1,)): `secantdim.eta_secant`, `hadamdim.eta_hadamard` and the
two exact twins in `degeneration` are each one call into it.

`probe_max_rank` draws torus points and keeps the maximum rank of
eta (x) A seen.  Each attempt is two kernel calls: the engine's eta at the
points, which is `kernels.eta_mod` (monomials evaluated and eta assembled in
C on the compiled backend, `_kernels_py.eta_of_columns` on the pure one),
then `kernels.kr_rank_mod`, which forms the Khatri-Rao product and computes
its rank.  The target rank is a mathematical ceiling (parameter count or
ambient bound), so the loop may stop as soon as the target is reached: the
reported maximum is identical to running every trial.  Falling short
triggers the retry ladder: fresh seeds at seed + trials + j, with the final
two retries switching to alternate primes to rule out characteristic-p
accidents.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import kernels
from ._kernels_py import eta_of_columns
from .config import RunConfig
from .modlinalg import ALTERNATE_PRIMES, random_torus_points


def eval_columns_exact(rows, point) -> list[Fraction]:
    """Every column monomial of `rows` at `point`, in exact rationals."""
    out = []
    for h in range(len(rows[0])):
        acc = Fraction(1)
        for ell, row in enumerate(rows):
            e = row[h]
            if e:
                acc *= Fraction(point[ell]) ** e
        out.append(acc)
    return out


def eta(rows, r_prime, points, prime: int | None = None) -> list:
    """Coefficient matrix of the Hadamard-product Jacobian factorization.

    `r_prime` = (r_1 - 1, ..., r_m - 1); the points are ordered
    (y_0 | y_{1,1} ... y_{1,r'_1} | y_{2,1} ...).  With v = phi(y_0),
    w_{k,j} = phi(y_{k,j}) and S_k = 1 + sum_j w_{k,j}, multiplicativity of
    the monomial map phi collapses the lattice sums to

        row 0      = v * S_1 * ... * S_m
        row (k,j)  = v * w_{k,j} * prod_{h != k} S_h

    which equals the sum of phi(y_0 * y_{1,j_1} * ... * y_{m,j_m}) over all
    index tuples (resp. over tuples with j_k = j), term by term.  Rows are
    ordered row 0 first, then (k, j) factor-major.  Entries are residues
    mod `prime`, or `Fraction`s when `prime` is None.
    """
    if prime is None:
        return eta_of_columns([eval_columns_exact(rows, pt) for pt in points], r_prime)
    return kernels.eta_mod(rows, r_prime, points, prime)


@dataclass(frozen=True)
class ProbeResult:
    rank: int
    prime: int  # modulus that achieved the reported rank
    attempts: int
    retried: bool


def probe_max_rank(
    eta_at: Callable[[list, tuple, int], list],
    rows: list[list[int]],
    n_points: int,
    config: RunConfig,
    target_rank: int,
) -> ProbeResult:
    """Maximum rank of eta_at(rows, points, p) (x) rows over the seeded draws.

    Draw i uses stream seed + i at `config.prime`, except that the last two
    of the `max_retries` draws after the `trials` ones use the alternate
    primes.  The loop stops as soon as the target rank is reached.
    """
    best = -1
    best_prime = config.prime
    draws = config.trials + config.max_retries
    attempts = 0
    while attempts < draws and best < target_rank:
        prime = config.prime
        if config.max_retries >= 2 and attempts >= draws - 2:
            prime = ALTERNATE_PRIMES[attempts - (draws - 2)]
        pts = random_torus_points(n_points, len(rows), config.seed + attempts, prime)
        r = kernels.kr_rank_mod(eta_at(rows, pts, prime), rows, prime)
        attempts += 1
        if r > best:
            best = r
            best_prime = prime
    return ProbeResult(best, best_prime, attempts, attempts > config.trials)
