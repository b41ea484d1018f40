"""The seeded rank probes: one walk of a draw schedule for every probe.

A probe asks for the generic rank of eta (x) A (Khatri-Rao), the Jacobian
factorization of a Hadamard product of secant varieties, whose eta formula
is `_kernels_py.eta_of_columns`; a secant variety sigma_R(X) is its
one-factor case.  `_probe` walks a probe's draw schedule in order and stops
at the first draw that reaches the target rank.  The target is a ceiling
(parameter count or ambient bound), so the reported maximum is identical
to running every draw.  For a secant probe the ceiling is mathematical.
For a Hadamard probe it rests on the probed factor dimensions, which are
exact only when the factor probes reached their own targets (ROADMAP
item 8).

`probe_hadamard_ranks` runs the Hadamard probes of one variety together,
and `probe_max_rank` is its batch of one.  A draw is two kernel calls: the
points (`modlinalg.random_torus_points`, which is `kernels.torus_points_mod`,
a counter-based SplitMix64 stream exactly uniform on (F_p^*)^n), then
`kernels.hadamard_ranks_mod`.  It divides column c of eta by
prod_h S_h(c), S_k = 1 + sum_j phi(y_kj) as in `eta_of_columns`: a column
scaling by units, when every S_h(c) is one, that keeps the rank.  The blocks
of factor k become v phi(y_kj) / S_k, v = phi(y_0), which depend on y_0 and
factor k's points alone; the points are a prefix-stable stream (y_0 |
factor 1 | ...), so vectors in lexicographic order of r' share their
leading factors' blocks and the elimination after them.  Where an S_k(c) is
not a unit mod p, the draw's rank is `kernels.kr_rank_mod` of the caller's
eta (`hadamdim.eta_hadamard`).  Either way it is the rank of eta (x) A at
the draw's points, so the error budget below stands.

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

from fractions import Fraction
from itertools import count
from typing import Callable, NamedTuple

from . import kernels
from .config import RunConfig
from .exponent import ExponentMatrix, HadamardSpec
from .modlinalg import ALTERNATE_PRIMES, random_torus_points

# The error budget of the draw schedule: 2^-ERROR_BUDGET_BITS.
ERROR_BUDGET_BITS = 100


class ProbeResult(NamedTuple):
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


def _probe(schedule, target_rank: int, config: RunConfig, rank_at) -> ProbeResult:
    """Walk a `_schedule` in order, where rank_at(i, prime) is the rank of
    draw i at `prime`; stop at the first draw that reaches the target, and
    return the ProbeResult of the draws made."""
    draws = []
    for i, prime in enumerate(schedule[2]):
        draws.append((rank_at(i, prime), prime))
        if draws[-1][0] >= target_rank:
            break
    return _result(schedule, draws, target_rank, config)


def _result(schedule, draws, target_rank: int, config: RunConfig) -> ProbeResult:
    """The ProbeResult of the (rank, prime) draws of a walked `_schedule`."""
    degree, trials, _ = schedule
    best, best_prime = max(draws, key=lambda draw: draw[0])
    error_bound = 0.0
    if best < target_rank:
        at_prime = sum(prime == config.prime for _, prime in draws)
        error_bound = float(Fraction(degree, config.prime - 1) ** at_prime)
    primes_tried = tuple(dict.fromkeys(prime for _, prime in draws))
    return ProbeResult(
        best, best_prime, len(draws), len(draws) > trials, trials, primes_tried, error_bound
    )


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

    Each probe walks its own schedule.  Draw i at prime q is one walk over
    the probes that draw it, those still short of their targets, in
    lexicographic order of r', at the points of stream seed + i and q for
    the most points any of them takes; each takes its first ones.  A probe
    whose normalised blocks do not exist at a draw takes
    `kernels.kr_rank_mod(eta_at(rows, spec, points, q), rows, q)` instead.
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


def probe_secant_ranks(
    mat: ExponentMatrix, targets: dict[int, int], config: RunConfig
) -> dict[int, ProbeResult]:
    """The one-factor `probe_max_rank` of n points for every n -> target of
    `targets`, from shared Terracini streams.

    The probes walk their own schedules, the largest n first.  Draw i at
    prime q reads the `kernels.secant_ranks_mod` stream at seed + i and q,
    drawn by the first probe to reach it with its own n points, the most of
    any probe that reaches it; its rank after block n is the rank of
    eta_secant (x) A at the first n.  ValueError, before any draw, for the
    first n in order without an error budget.
    """
    schedules = {n: _schedule(mat, 1, n, config) for n in targets}
    rows = mat.entries
    streams = {}

    def rank_at(n, i, prime):
        ranks = streams.get((i, prime))
        if ranks is None:
            pts = random_torus_points(n, len(rows), config.seed + i, prime)
            ranks = streams[i, prime] = kernels.secant_ranks_mod(rows, pts, prime)
        return ranks[n - 1]

    probes = {
        n: _probe(schedules[n], targets[n], config, lambda i, prime, n=n: rank_at(n, i, prime))
        for n in sorted(targets, reverse=True)
    }
    return {n: probes[n] for n in targets}
