"""The one eta construction and the seeded rank-probing loops.

`eta` builds the coefficient matrix of the Jacobian factorization
eta (x) A (Khatri-Rao) for a Hadamard product of secant varieties, over F_p;
the exact twins in `degeneration` run the same formula over the integers.
A secant variety sigma_R(X) is its one-factor case (r' = (R - 1,)):
`secantdim.eta_secant` and `hadamdim.eta_hadamard` are each one call into
it.

`probe_max_rank` draws torus points and keeps the maximum rank of
eta (x) A seen.  Each attempt is three kernel calls: the draw
(`modlinalg.random_torus_points`, which is `kernels.torus_points_mod`, a
counter-based SplitMix64 stream exactly uniform on (F_p^*)^n), the
engine's eta at the points, which is `kernels.eta_mod` (monomials evaluated
and eta assembled in C on the compiled backend,
`_kernels_py.eta_of_columns` on the pure one), then `kernels.kr_rank_mod`,
which forms the Khatri-Rao product and computes its rank.  The Hadamard
probe runs it.  The target rank is a mathematical ceiling (parameter count
or ambient bound), so the loop may stop as soon as the target is reached:
the reported maximum is identical to running every draw.

`probe_secant_ranks` runs the secant probes of one variety together.  With
z_1 = y_1 and z_j = y_1 y_j, row j >= 2 of the secant eta is phi(z_j) and
row 1 is the sum of them all, so eta (x) A at R points has, by a
unitriangular row operation, exactly the rank of the stacked blocks
phi(z_j) (x) A, j <= R (Terracini's lemma; Friedenberg, Oneto and Williams,
"Minkowski sums and Hadamard products of algebraic varieties", 2017).  The
draw for R points is a prefix of the draw for more at the same seed, so a
secant attempt is two kernel calls, the draw and
`kernels.secant_ranks_mod`, whose one streamed elimination gives the rank
after every block: one stream answers every R drawn at that seed and
prime, and no eta is built.

Every probe runs one draw schedule, cut short once the target is reached:
t draws at the configured prime, then one draw at each of the two alternate
primes, where the error budget sets t.  A g x g minor of eta (x) A, times
the monomial that clears negative exponents, is a polynomial of degree at
most `minor_degree` in the point coordinates, so by Schwartz-Zippel
(Schwartz, JACM 1980; Zippel 1979) one uniform draw from (F_p^*)^n misses a
rank that is there with probability at most deg / (p - 1), and t is the
least with (deg / (p - 1))^t <= 2^-100.  The bound assumes that p divides
no coefficient of the minor; the draws at the alternate primes cover that
case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import kernels
from .config import RunConfig
from .exponent import ExponentMatrix
from .modlinalg import ALTERNATE_PRIMES, random_torus_points

# The error budget of the draw schedule: 2^-ERROR_BUDGET_BITS.
ERROR_BUDGET_BITS = 100


def eta(rows, r_prime, points, prime: int) -> list[list[int]]:
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
    mod `prime`, from `kernels.eta_mod`.  The exact degeneration verifier
    takes the same formula over the integers from
    `_kernels_py.eta_of_columns`, the pure kernel's eta.
    """
    return kernels.eta_mod(rows, r_prime, points, prime)


@dataclass(frozen=True)
class ProbeResult:
    rank: int
    prime: int  # modulus that achieved the reported rank
    attempts: int
    retried: bool  # drew past the first `trials` draws
    trials: int  # draws scheduled at the configured prime before the alternates
    primes_tried: tuple[int, ...]  # distinct moduli, in the order first drawn
    error_bound: float  # (deg / (p - 1))^(draws at p); 0.0 at the target


def minor_degree(mat: ExponentMatrix, factors: int, n_points: int) -> int:
    """Degree g(m+1)D+ + gRM, in the point coordinates, of a g x g minor of
    eta (x) A times the monomial that clears negative exponents: m factors,
    R points, g = min(R * rows, columns), (D+, M) = `mat.column_degrees`."""
    d_plus, clearing = mat.column_degrees
    g = min(n_points * mat.n_rows, mat.n_cols)
    return g * ((factors + 1) * d_plus + n_points * clearing)


def budget_trials(degree: int, prime: int) -> int:
    """Least t with (degree / (prime - 1))^t <= 2^-ERROR_BUDGET_BITS, in exact
    integers.  ValueError when degree > (prime - 1)/2, where t would exceed
    ERROR_BUDGET_BITS and grow without bound as degree nears prime - 1."""
    if 2 * degree > prime - 1:
        raise ValueError(
            f"no error budget at prime {prime}: the minors have degree up to "
            f"{degree}, above (p - 1)/2; use a larger prime"
        )
    t = 1
    while degree**t << ERROR_BUDGET_BITS > (prime - 1) ** t:
        t += 1
    return t


def _schedule(mat: ExponentMatrix, factors: int, n_points: int, config: RunConfig):
    """(degree, trials, moduli) of a probe's draw schedule: draw i is at
    moduli[i], `budget_trials` draws at `config.prime`, then one at each
    alternate prime."""
    degree = minor_degree(mat, factors, n_points)
    trials = budget_trials(degree, config.prime)
    return degree, trials, (config.prime,) * trials + ALTERNATE_PRIMES


def _result(draws, degree: int, trials: int, config: RunConfig, target_rank: int):
    """The ProbeResult of the (prime, rank) of each draw made, in order."""
    best, best_prime = -1, config.prime
    for prime, r in draws:
        if r > best:
            best, best_prime = r, prime
    error_bound = 0.0
    if best < target_rank:
        at_prime = sum(prime == config.prime for prime, _ in draws)
        error_bound = float(Fraction(degree, config.prime - 1) ** at_prime)
    primes_tried = tuple(dict.fromkeys(prime for prime, _ in draws))
    return ProbeResult(
        best, best_prime, len(draws), len(draws) > trials, trials, primes_tried, error_bound
    )


def probe_max_rank(
    eta_at: Callable[[list, tuple, int], list],
    mat: ExponentMatrix,
    n_points: int,
    config: RunConfig,
    target_rank: int,
    factors: int = 1,
) -> ProbeResult:
    """Maximum rank of eta_at(rows, points, p) (x) rows over the seeded draws,
    where rows = `mat.entries`.

    `factors` is the number of Hadamard factors of `eta_at` (1 for a
    secant).  Draw i uses stream seed + i: the first `budget_trials` draws
    are at `config.prime`, the last two at the alternate primes.  The loop
    stops as soon as the target rank is reached.
    """
    degree, trials, moduli = _schedule(mat, factors, n_points, config)
    rows = mat.entries
    draws = []
    for i, prime in enumerate(moduli):
        pts = random_torus_points(n_points, len(rows), config.seed + i, prime)
        draws.append((prime, kernels.kr_rank_mod(eta_at(rows, pts, prime), rows, prime)))
        if draws[-1][1] >= target_rank:
            break
    return _result(draws, degree, trials, config, target_rank)


def probe_secant_ranks(
    mat: ExponentMatrix, targets: dict[int, int], config: RunConfig
) -> dict[int, ProbeResult]:
    """`probe_max_rank(eta_secant, mat, n, config, target)` for every
    n -> target of `targets`, from shared Terracini streams.

    Each probe runs its own schedule.  At draw i, the probes still short of
    their targets whose schedules put draw i at the same prime share one
    `kernels.secant_ranks_mod` stream at seed + i, as long as the longest of
    them: its points for n are those probe n draws, and its rank after
    block n is the rank of eta_secant (x) A at them.  So every result is the
    one `probe_max_rank` returns.  ValueError, before any draw, for the
    first n in order without an error budget.
    """
    schedules = {n: _schedule(mat, 1, n, config) for n in targets}
    draws = {n: [] for n in targets}
    rows = mat.entries
    for i in itertools.count():
        due = {
            n: moduli[i]
            for n, (_, _, moduli) in schedules.items()
            if i < len(moduli) and not (draws[n] and draws[n][-1][1] >= targets[n])
        }
        if not due:
            break
        for prime in dict.fromkeys(due.values()):
            count = max(n for n, q in due.items() if q == prime)
            pts = random_torus_points(count, len(rows), config.seed + i, prime)
            ranks = kernels.secant_ranks_mod(rows, pts, prime)
            for n, q in due.items():
                if q == prime:
                    draws[n].append((prime, ranks[n - 1]))
    return {
        n: _result(draws[n], degree, trials, config, targets[n])
        for n, (degree, trials, _) in schedules.items()
    }
