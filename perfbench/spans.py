"""Spans around the program's layer boundaries, recorded from outside `src/`.

Each traced function is a module-level binding that its caller looks up at
call time (`kernels.kr_rank_mod`, the `probe_max_rank` that `secantdim`
imported, the `ExponentMatrix.rank` method, ...).  `Tracer.install` swaps
every binding of the original object in every loaded `toricdim` module for
a wrapper that records a span: name, start, end, parent and, at some
boundaries, counts taken from the arguments and result.  Spans stay in
memory; `layer_metrics` reduces them when the pass is over.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

# span name -> (module, attribute path) of the original function.
TARGETS = {
    "cli.main": ("toricdim.cli", "main"),
    "tables.run_table": ("toricdim.tables", "run_table"),
    "hadamdim.hadamard_dimension": ("toricdim.hadamdim", "hadamard_dimension"),
    "hadamdim.eta_hadamard": ("toricdim.hadamdim", "eta_hadamard"),
    "secantdim.secant_dimension": ("toricdim.secantdim", "secant_dimension"),
    "secantdim.eta_secant": ("toricdim.secantdim", "eta_secant"),
    "probing.probe_max_rank": ("toricdim.probing", "probe_max_rank"),
    "modlinalg.random_torus_points": ("toricdim.modlinalg", "random_torus_points"),
    "kernels.kr_rank_mod": ("toricdim.kernels", "kr_rank_mod"),
    "kernels.eval_columns_mod": ("toricdim.kernels", "eval_columns_mod"),
    "exponent.ExponentMatrix.rank": ("toricdim.exponent", "ExponentMatrix.rank"),
    "rational.rational_rank": ("toricdim._rational", "rational_rank"),
    "degeneration.demo_points": ("toricdim.degeneration", "demo_points"),
    "degeneration.limit_check": ("toricdim.degeneration", "limit_check"),
    "degeneration.khatri_rao_exact": ("toricdim.degeneration", "khatri_rao_exact"),
    "degeneration.eta_secant_exact": ("toricdim.degeneration", "eta_secant_exact"),
    "degeneration.eta_hadamard_exact": ("toricdim.degeneration", "eta_hadamard_exact"),
}

ROOT = "pass"


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for the root
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _kr_counts(args, rank) -> dict:
    top, bottom = args[0], args[1]
    rows, cols = len(top) * len(bottom), len(top[0])
    return {"rows": rows, "cols": cols, "rank": rank}


def _probe_counts(args, result) -> dict:
    return {"attempts": result.attempts, "retried": int(result.retried)}


COUNTERS = {
    "kernels.kr_rank_mod": _kr_counts,
    "probing.probe_max_rank": _probe_counts,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(Span(name, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        self.spans[idx].start = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                self.spans[idx].counts = counter(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding of each target in the loaded toricdim modules."""
        for name, (modname, attr) in TARGETS.items():
            owner = sys.modules[modname]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self.wrap(name, original)
            setattr(owner, leaf, wrapper)
            for modname, mod in list(sys.modules.items()):
                if modname.startswith("toricdim"):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def computed_update_ops(rows: int, cols: int, rank: int) -> int:
    """Row-update steps of Gaussian elimination, computed from the shape.

    Pivot k (0-based) is assumed to sit in column k and to update every
    entry from that column on in every row below it, which is the generic
    case; a kernel that stops early or skips zero factors does less.
    """
    return sum((rows - k - 1) * (cols - k) for k in range(rank))


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one traced pass; spans[0] must be the root."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for s, o in zip(spans, own):
        calls[s.name] = calls.get(s.name, 0) + 1
        total[s.name] = total.get(s.name, 0.0) + s.duration
        self_s[s.name] = self_s.get(s.name, 0.0) + o
    wall = spans[0].duration

    def c(name):
        return calls.get(name, 0)

    def t(name):
        return total.get(name, 0.0)

    def st(name):
        return self_s.get(name, 0.0)

    kr = [s.counts for s in spans if s.name == "kernels.kr_rank_mod"]
    ops = sum(computed_update_ops(k["rows"], k["cols"], k["rank"]) for k in kr)
    probes = [s for s in spans if s.name == "probing.probe_max_rank"]
    engine_probes = {"secantdim.secant_dimension": 0, "hadamdim.hadamard_dimension": 0}
    for s in probes:
        parent = spans[s.parent].name
        if parent in engine_probes:
            engine_probes[parent] += 1
    attempts = sum(s.counts["attempts"] for s in probes)

    def hit_share(name):
        return 1.0 - engine_probes[name] / c(name) if c(name) else 0.0

    eta = t("secantdim.eta_secant") + t("hadamdim.eta_hadamard")
    return {
        "kernels.kr_rank_mod.calls": c("kernels.kr_rank_mod"),
        "kernels.kr_rank_mod.s": t("kernels.kr_rank_mod"),
        "kernels.kr_rank_mod.update_ops": ops,
        "kernels.kr_rank_mod.ns_per_op": 1e9 * t("kernels.kr_rank_mod") / ops if ops else 0.0,
        "kernels.kr_rank_mod.excess_rows": sum(k["rows"] - k["rank"] for k in kr),
        "kernels.kr_rank_mod.share": t("kernels.kr_rank_mod") / wall,
        "kernels.eval_columns_mod.calls": c("kernels.eval_columns_mod"),
        "kernels.eval_columns_mod.s": t("kernels.eval_columns_mod"),
        "secantdim.eta_secant.self_s": st("secantdim.eta_secant"),
        "hadamdim.eta_hadamard.self_s": st("hadamdim.eta_hadamard"),
        "eta.share": eta / wall,
        "modlinalg.random_torus_points.calls": c("modlinalg.random_torus_points"),
        "modlinalg.random_torus_points.s": t("modlinalg.random_torus_points"),
        "modlinalg.random_torus_points.share": t("modlinalg.random_torus_points") / wall,
        "probing.probes": len(probes),
        "probing.attempts": attempts,
        "probing.attempts_per_probe": attempts / len(probes) if probes else 0.0,
        "probing.retried_probes": sum(s.counts["retried"] for s in probes),
        "probing.probe_max_rank.self_s": st("probing.probe_max_rank"),
        "secantdim.secant_dimension.calls": c("secantdim.secant_dimension"),
        "secantdim.secant_dimension.hit_share": hit_share("secantdim.secant_dimension"),
        "hadamdim.hadamard_dimension.calls": c("hadamdim.hadamard_dimension"),
        "hadamdim.hadamard_dimension.hit_share": hit_share("hadamdim.hadamard_dimension"),
        "exponent.ExponentMatrix.rank.calls": c("exponent.ExponentMatrix.rank"),
        "exponent.ExponentMatrix.rank.s": t("exponent.ExponentMatrix.rank"),
        "exponent.ExponentMatrix.rank.share": t("exponent.ExponentMatrix.rank") / wall,
        "rational.rational_rank.calls": c("rational.rational_rank"),
        "rational.rational_rank.s": t("rational.rational_rank"),
        "rational.rational_rank.share": t("rational.rational_rank") / wall,
        "degeneration.demo_points.s": t("degeneration.demo_points"),
        "degeneration.limit_check.self_s": st("degeneration.limit_check"),
        "degeneration.khatri_rao_exact.s": t("degeneration.khatri_rao_exact"),
        "degeneration.eta_exact.s": (
            t("degeneration.eta_secant_exact") + t("degeneration.eta_hadamard_exact")
        ),
        "cli.main.self_s": st("cli.main"),
        "tables.run_table.self_s": st("tables.run_table"),
        "trace.untimed_s": own[0],
        "trace.wall_s": wall,
    }
