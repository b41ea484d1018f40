"""The benchmark's workloads and the oracles that check every answer.

A workload is a fixed list of CLI queries run in order in one fresh
process (a pass), plus the backend it must run on.  Each query's `--seed`
is derived from the workload seed and the pass and query indices, so no two
queries of a pass share a `RunConfig` and none is answered from a cache
filled by another.  The answers do not depend on the seed.

Oracles come from closed forms wherever one exists (Alexander-Hirschowitz
for the Veronese probes, the parameter count for the degeneration bound);
the tables and generic-rank searches are compared with golden reports
recorded at the seed commit.  An oracle returns None when the answer is
right and a one-line reason when it is not.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

GOLDEN = Path(__file__).resolve().parent / "golden"
# A run whose known-defect count a query's measured rate explains with
# probability below this is not correct (see too_many_defects).
DEFECT_ALARM = 1e-4


@dataclass(frozen=True)
class Query:
    argv: tuple[str, ...]
    check: Callable[[dict], str | None]
    parity: bool = False  # also run on the pure backend; reports must match
    # Names a documented defect of the program that this result shows, if
    # any; such a query counts as failed but not as a wrong answer, unless
    # it shows the defect far more often than `defect_rate`, the share of
    # seeds on which it was measured at the seed commit.
    known_defect: Callable[[dict], str | None] | None = None
    defect_rate: float = 0.0

    def with_seed(self, seed: int) -> list[str]:
        return [*self.argv, "--seed", str(seed)]


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str  # "c" or "python"
    queries: tuple[Query, ...]


def query_seed(workload_seed: int, pass_index: int, query_index: int) -> int:
    return workload_seed * 1_000_000 + pass_index * 100 + query_index


# --- closed forms --------------------------------------------------------------


def veronese_ambient(d: int, n: int) -> int:
    return math.comb(n + d, d) - 1


def ah_defective(d: int, n: int, R: int) -> bool:
    """Alexander-Hirschowitz: the defective secants of Veronese varieties."""
    if d == 2:
        return 2 <= R <= n
    return (d, n, R) in {(4, 2, 5), (4, 3, 9), (3, 4, 7), (4, 4, 14)}


def expected_dim(ambient: int, variety_dim: int, R: int) -> int:
    return min(ambient, R * (variety_dim + 1) - 1)


# --- oracles -------------------------------------------------------------------


def _exit(result: dict, code: int) -> str | None:
    if result["code"] != code:
        return f"exit code {result['code']}, expected {code}"
    return None


def veronese_probe(d: int, n: int, R: int) -> Callable[[dict], str | None]:
    """dim-secant / dim-hadamard on a Veronese whose sigma_R is nondefective.

    The Hadamard product of nondefective factors contains sigma_R and its
    parameter count is R(n+1) - 1, so both commands must report
    min(N, R(n+1) - 1), certified (exit code 0).
    """
    if ah_defective(d, n, R):
        raise ValueError(f"sigma_{R} of v_{d}(P^{n}) is defective; no closed form")
    want = expected_dim(veronese_ambient(d, n), n, R)

    def check(result):
        bad = _exit(result, 0)
        if bad:
            return bad
        got = json.loads(result["out"])["computed_dim"]
        return None if got == want else f"computed_dim {got}, expected {want}"

    return check


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def golden_table(filename: str) -> Callable[[dict], str | None]:
    """verify-table: every row passes and matches the golden row."""
    golden = _rows((GOLDEN / filename).read_text())

    def check(result):
        bad = _exit(result, 0)
        if bad:
            return bad
        rows = _rows(result["out"])
        if len(rows) != len(golden):
            return f"{len(rows)} rows, golden has {len(golden)}"
        for i, (row, want) in enumerate(zip(rows, golden)):
            if row["pass"] != "true":
                return f"row {i} ({row['descriptor']} r={row['r']}) does not pass"
            if row != want:
                return f"row {i} differs from golden: {row} != {want}"
        return None

    return check


def golden_report(filename: str) -> Callable[[dict], str | None]:
    """A JSON report with no seed field must equal the golden report."""
    golden = json.loads((GOLDEN / filename).read_text())

    def check(result):
        bad = _exit(result, 0)
        if bad:
            return bad
        got = json.loads(result["out"])
        return None if got == golden else f"report differs from golden {filename}"

    return check


def _degeneration_verdict(result: dict) -> dict:
    return json.loads(result["out"].strip().splitlines()[-1])


def degeneration_bound(ambient: int, variety_dim: int, r: tuple[int, ...]):
    """degeneration-demo: all checks pass and the bound is min(N, R(dim X+1)-1)."""
    want = expected_dim(ambient, variety_dim, sum(r) - len(r) + 1)

    def check(result):
        bad = _exit(result, 0)
        if bad:
            return bad
        verdict = _degeneration_verdict(result)
        if not verdict["all_pass"]:
            return "all_pass is false"
        got = verdict["dim_lower_bound"]
        return None if got == want else f"dim_lower_bound {got}, expected {want}"

    return check


_SAMPLING_GAVE_UP = "could not sample nondegenerate demo points"


def demo_points_gave_up(result: dict) -> str | None:
    """One face of a defect of `demo_points`: it draws coordinates 1 + a/D
    from only 16 values of a, too few for R = 8 points on rnc:30, so on some
    seeds all 8 of its draws are degenerate and the command exits with
    code 2.  Seen on rnc:30 --r 4,5 and rnc:20 --r 3,4."""
    if result["code"] == 2 and _SAMPLING_GAVE_UP in result["err"]:
        return "demo_points found no nondegenerate points"
    return None


def demo_points_not_generic(ambient: int, variety_dim: int, r: tuple[int, ...]):
    """The other face of the same defect: the points pass its checks but are
    not generic, and the verifier certifies a lower bound below
    min(N, R(dim X+1)-1) with all_pass true.  Seen on veronese:d=4,n=2
    --r 2,3.  A weaker lower bound is still a true statement; a bound above
    the oracle is not, and stays a wrong answer."""
    want = expected_dim(ambient, variety_dim, sum(r) - len(r) + 1)

    def defect(result):
        if result["code"] == 0:
            verdict = _degeneration_verdict(result)
            if verdict["all_pass"] and verdict["dim_lower_bound"] < want:
                return (f"dim_lower_bound {verdict['dim_lower_bound']} below {want}: "
                        "demo points not generic")
        return None

    return defect


def binomial_tail(n: int, k: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(n, p)."""
    return sum(math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(k, n + 1))


def too_many_defects(query: Query, attempts: int, defects: int) -> bool:
    """True when a query shows its known defect far more often than its
    measured rate: at that rate, this many or more would occur with
    probability below DEFECT_ALARM, so the program has most likely got
    worse (say, `demo_points` gives up on every seed)."""
    if defects == 0:
        return False
    return binomial_tail(attempts, defects, query.defect_rate) < DEFECT_ALARM


def classify(query: Query, result: dict) -> tuple[str, str | None]:
    """("ok" | "wrong" | "error" | "known-defect", reason) for one answer."""
    if result["code"] is None:
        return "error", result["err"].strip().splitlines()[-1]
    try:
        defect = query.known_defect(result) if query.known_defect else None
        if defect:
            return "known-defect", defect
        if result["code"] == 2:
            return "error", result["err"].strip()[-200:]
        reason = query.check(result)
    except (ValueError, KeyError, IndexError) as exc:
        return "wrong", f"unreadable report: {exc!r}"
    return ("ok", None) if reason is None else ("wrong", reason)


# --- the workloads -------------------------------------------------------------


def _q(cmd: str, check, **kw) -> Query:
    return Query(tuple(cmd.split()), check, **kw)


def _degeneration(desc: str, shape: tuple[int, int], r: tuple[int, ...], **kw) -> Query:
    return _q(f"degeneration-demo --descriptor {desc} --r {','.join(map(str, r))}",
              degeneration_bound(*shape, r), **kw)


WORKLOADS = {
    w.name: w
    for w in (
        # Thousands of small, mostly defective probes: eta assembly, point
        # draws, the retry ladder and the caches carry most of the time.
        Workload("sweep-c", "c", (
            _q("verify-table experiments --extended",
               golden_table("experiments-extended.csv")),
            _q("generic-hrank segre:n=1,1,1,1 --r 2",
               golden_report("hrank-segre-1111-r2.json"), parity=True),
            _q("generic-hrank segre:n=1,1,1,1,1 --r 2",
               golden_report("hrank-segre-11111-r2.json")),
            _q("generic-hrank veronese:d=2,n=6 --r 2",
               golden_report("hrank-veronese-d2n6-r2.json"), parity=True),
        )),
        # One attempt per probe on 400-630-row Khatri-Rao matrices: the
        # elimination kernel dominates.  The r=70 probe is tall (630 rows
        # for rank 495), so early stopping shows here and nowhere else.
        Workload("large-probe-c", "c", (
            _q("dim-secant veronese:d=4,n=8 --r 55", veronese_probe(4, 8, 55)),
            _q("dim-secant veronese:d=5,n=6 --r 66", veronese_probe(5, 6, 66),
               parity=True),
            _q("dim-hadamard veronese:d=4,n=8 --r 28,28", veronese_probe(4, 8, 55)),
            _q("dim-secant veronese:d=4,n=8 --r 70", veronese_probe(4, 8, 70)),
        )),
        # The stored check tables on the pure backend, which every install
        # without a C build gets; the pure row update takes almost all of it.
        Workload("tables-pure", "python", (
            _q("verify-table veronese", golden_table("veronese.csv")),
            _q("verify-table binary", golden_table("binary.csv")),
            _q("verify-table experiments", golden_table("experiments.csv")),
        )),
        # Exact-rational verification: Fraction elimination, no F_p kernel.
        # Defect rates are shares of seeds measured at the seed commit.
        Workload("degeneration", "c", (
            _degeneration("rnc:8", (8, 1), (2, 3)),
            _degeneration("rnc:20", (20, 1), (3, 4),
                          known_defect=demo_points_gave_up, defect_rate=0.01),
            _degeneration("rnc:30", (30, 1), (4, 5),
                          known_defect=demo_points_gave_up, defect_rate=0.15),
            _degeneration("veronese:d=4,n=2", (veronese_ambient(4, 2), 2), (2, 3),
                          known_defect=demo_points_not_generic(
                              veronese_ambient(4, 2), 2, (2, 3)),
                          defect_rate=0.04),
        )),
    )
}
