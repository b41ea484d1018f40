"""The seeded rank probes: one walk of a draw schedule for every probe.

A probe asks for the generic rank of eta (x) A (Khatri-Rao), the Jacobian
factorization of a Hadamard product of secant varieties, whose eta formula
is `_kernels_py.eta_of_columns`; a secant variety sigma_R(X) is its
one-factor case.  Each probe walks its draw schedule in order and stops at
the first draw that reaches the target rank.  The target is a ceiling
(parameter count, ambient bound or theorem bound), so the reported maximum
is identical to running every draw.  For a secant probe the ceiling is
mathematical.  For a Hadamard probe it rests on the probed factor
dimensions, which are exact only when the factor probes reached their own
targets (ROADMAP item 8).

`probe_hadamard_ranks` runs the probes of one variety together, secant and
product probes alike, and `probe_max_rank` is its batch of one.  A draw is
two kernel calls: the points (`modlinalg.random_torus_points`, a
counter-based SplitMix64 stream exactly uniform on (F_p^*)^n and
prefix-stable in the number of points), then `kernels.hadamard_ranks_mod`:
one walk over the normalised Terracini blocks of the probes in
lexicographic order of r', each resuming from the blocks it shares with
the one before it (Friedenberg, Oneto and Williams, 2017).  Those blocks
run through the first factor, which the walk leaves unscaled, so
`hadamdim` probes a product largest factor first, and probes a whole
batch of products together, deciding containment in the batch.
Where a product's blocks do not exist mod p, the draw's rank is
`kernels.kr_rank_mod` of the caller's eta (`hadamdim.eta_hadamard`), both
pure on either backend; a secant probe never gets there.  Either way it is
the rank of eta (x) A at the draw's points, so the error budget below
stands.

Every probe runs one draw schedule, cut short once the target is reached:
one draw at the word-size prime `modlinalg.WORD_PRIME`, when the
configured prime is larger, then t draws at the configured prime, then one
draw at each of the two alternate primes, where the error budget sets t.
A rank at WORD_PRIME is a certified lower bound like any other, and each
backend's elimination is faster there: the walk of sigma_55 of v_4(P^8)
took 232 against 697 ms pure, 6.2 against 49 ms compiled (best of 9, a
2-vCPU Xeon).  So a probe that reaches its target at that draw is done.
A probe short of it, such as a defective sigma_R that no classification
theorem bounds, pays that one more walk, and reports the configured prime
when a draw there reached its best rank, the prime its error bound counts.

A g x g minor of eta (x) A, times the monomial that clears negative
exponents, is a polynomial of degree at most `minor_degree` in the point
coordinates, so by Schwartz-Zippel (Schwartz, JACM 1980; Zippel 1979) one
uniform draw from (F_p^*)^n misses a rank that is there with probability
at most deg / (p - 1), and t is the least with (deg / (p - 1))^t <=
2^-100.  The bound counts the draws at the configured prime only.  It
assumes that p divides no coefficient of the minor; the draws at the
alternate primes cover that case.
"""

from fractions import Fraction
from itertools import count
from typing import Callable, NamedTuple

from . import kernels
from .config import RunConfig
from .exponent import ExponentMatrix, HadamardSpec
from .modlinalg import ALTERNATE_PRIMES, WORD_PRIME, random_torus_points

# The error budget of the draw schedule: 2^-ERROR_BUDGET_BITS.
ERROR_BUDGET_BITS = 100


class ProbeResult(NamedTuple):
    rank: int
    prime: int  # modulus that achieved the reported rank
    attempts: int
    retried: bool  # drew at an alternate prime: past the WORD_PRIME and `trials` draws
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
    moduli[i], one at WORD_PRIME when `config.prime` is larger, then
    `budget_trials` draws at `config.prime`, then one at each alternate
    prime."""
    degree = minor_degree(mat, factors, n_points)
    trials = budget_trials(degree, config.prime)
    first = (WORD_PRIME,) if config.prime > WORD_PRIME else ()
    return degree, trials, first + (config.prime,) * trials + ALTERNATE_PRIMES


def _result(schedule, draws, target_rank: int, config: RunConfig) -> ProbeResult:
    """The ProbeResult of the (rank, prime) draws of a walked `_schedule`.
    Its prime is the first that reached the best rank, `config.prime` when
    one of its draws did, the prime the error bound counts."""
    degree, trials, moduli = schedule
    best = max(rank for rank, _ in draws)
    reached = [prime for rank, prime in draws if rank == best]
    best_prime = config.prime if config.prime in reached else reached[0]
    error_bound = 0.0
    if best < target_rank:
        at_prime = sum(prime == config.prime for _, prime in draws)
        error_bound = float(Fraction(degree, config.prime - 1) ** at_prime)
    primes_tried = tuple(dict.fromkeys(prime for _, prime in draws))
    retried = len(draws) > len(moduli) - len(ALTERNATE_PRIMES)
    return ProbeResult(best, best_prime, len(draws), retried, trials, primes_tried, error_bound)


def probe_max_rank(
    eta_at: Callable[[list, HadamardSpec, tuple, int], list],
    mat: ExponentMatrix,
    spec: HadamardSpec,
    config: RunConfig,
    target_rank: int,
) -> ProbeResult:
    """Maximum rank of eta (x) rows over the seeded draws, for the factors
    of `spec` and rows = `mat.entries`: `probe_hadamard_ranks` of one probe.
    eta_at(rows, spec, points, p) is eta at a draw whose normalised blocks
    do not exist."""
    return probe_hadamard_ranks(eta_at, mat, [(spec, target_rank)], config)[0]


def probe_hadamard_ranks(
    eta_at: Callable[[list, HadamardSpec, tuple, int], list],
    mat: ExponentMatrix,
    probes: list[tuple[HadamardSpec, int]],
    config: RunConfig,
) -> list[ProbeResult]:
    """The ProbeResult of each (spec, target) of `probes`, in order, from
    shared `kernels.hadamard_ranks_mod` walks.

    Each probe walks its own schedule.  Draw i at prime p is one walk over
    the probes that draw it, those still short of their targets, in
    lexicographic order of r', at the points of stream seed + i and p for
    the most points any of them takes; each takes its first ones.  A probe
    whose normalised blocks do not exist at a draw takes
    `kernels.kr_rank_mod(eta_at(rows, spec, points, p), rows, p)` instead.
    ValueError, before any draw, for the first probe in order without an
    error budget.
    """
    rows = mat.entries
    schedules = [_schedule(mat, spec.m, spec.total_points, config) for spec, _ in probes]
    draws = [[] for _ in probes]
    for i in count():
        walks = {}
        for k, ((_, target), (_, _, moduli)) in enumerate(zip(probes, schedules)):
            walked = draws[k]
            if len(walked) == i < len(moduli) and not (walked and walked[-1][0] >= target):
                walks.setdefault(moduli[i], []).append(k)
        if not walks:
            break
        for prime, ks in walks.items():
            specs = sorted({probes[k][0] for k in ks})  # as their r', lexicographically
            pts = random_torus_points(
                max(spec.total_points for spec in specs), len(rows), config.seed + i, prime
            )
            ranks = kernels.hadamard_ranks_mod(rows, [spec.r_prime for spec in specs], pts, prime)
            rank_of = {}
            for spec, rank in zip(specs, ranks):
                if rank is None:
                    eta = eta_at(rows, spec, pts[:spec.total_points], prime)
                    rank = kernels.kr_rank_mod(eta, rows, prime)
                rank_of[spec] = rank
            for k in ks:
                draws[k].append((rank_of[probes[k][0]], prime))
    return [
        _result(schedule, walked, target, config)
        for schedule, walked, (_, target) in zip(schedules, draws, probes)
    ]
