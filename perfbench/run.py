"""toricdim benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload sweep-c --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The package is built from `src/` first
(see build.py).  Each pass runs the workload's queries in a fresh
interpreter (worker.py), and passes repeat until `--seconds` have gone by.
Every answer is checked against an oracle (workloads.py).  With
`--trace 0` the last line of output reports the end-to-end metrics listed
in BENCHMARK.json; with `--trace 1` traced and untraced passes alternate
and it reports the per-layer metrics.  perfbench/README.md explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from build import BUILD_ROOT, BuildError, compile_seconds, ensure_build, source_hash
from workloads import WORKLOADS, Query, classify, query_seed, too_many_defects

WORKER = Path(__file__).resolve().parent / "worker.py"
RUN_BUDGET_S = 170  # a run must end within 180 s
# A shared host's speed drifts (by up to 1.6x over minutes on the 2-vCPU
# virtual machine of the baseline), because other tenants share it, so raw
# seconds spread more between runs than any bound could allow.  Each pass's wall time is therefore scaled to a
# reference speed: the worker times a fixed calibration loop between its
# queries (see worker.run_pass), and the loop takes this long at the
# reference speed.  Raw medians are printed and kept as per-layer metrics.
NOMINAL_CALIBRATION_S = 0.030
# Set-up is timed in this many fresh interpreters per run.  One sample
# swings by 15% or more, so setup_s is their median set-up time, scaled by
# the median of every calibration time of the run.
SETUP_SAMPLES = 15


class BenchmarkError(RuntimeError):
    """The run cannot measure what the workload claims (e.g. wrong backend)."""


class Tally:
    """Verdicts of every query attempted: ok, wrong, error, known-defect."""

    def __init__(self):
        self.counts = {"ok": 0, "wrong": 0, "error": 0, "known-defect": 0}
        self.reasons: list[str] = []
        # Per workload query: [attempts, known-defect verdicts].
        self.per_query: dict[Query, list[int]] = {}

    def add(self, verdict: str, argv, reason: str | None = None,
            query: Query | None = None) -> None:
        self.counts[verdict] += 1
        if reason and len(self.reasons) < 20:
            self.reasons.append(f"{verdict}: {' '.join(argv)}: {reason}")
        if query is not None:
            seen = self.per_query.setdefault(query, [0, 0])
            seen[0] += 1
            seen[1] += verdict == "known-defect"

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.counts["ok"]

    def defect_alarms(self) -> list[str]:
        """Queries that show their known defect far above its measured rate."""
        return [f"{' '.join(q.argv)}: known defect on {d} of {n} attempts, "
                f"measured rate {q.defect_rate:.0%}"
                for q, (n, d) in self.per_query.items() if too_many_defects(q, n, d)]

    @property
    def correct(self) -> bool:
        """No wrong answer, no failure other than a documented defect, and
        no documented defect far more often than measured."""
        return (self.counts["wrong"] == 0 and self.counts["error"] == 0
                and not self.defect_alarms())


def run_worker(root: Path, build_dir: Path, queries: list[list[str]], *,
               trace: bool, pure: bool, timeout: float) -> dict:
    """One pass in a fresh interpreter: the worker's JSON plus the set-up
    time seen from outside, or {"crashed": reason}."""
    env = {k: v for k, v in os.environ.items() if k != "TORICDIM_PURE"}
    env["PYTHONPATH"] = str(build_dir)
    if pure:
        env["TORICDIM_PURE"] = "1"
    spec = json.dumps({"queries": queries, "trace": trace})
    tmp = root / BUILD_ROOT
    with tempfile.TemporaryFile(dir=tmp) as out, tempfile.TemporaryFile(dir=tmp) as err:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(WORKER), spec], cwd=root,
                                env=env, stdout=out, stderr=err)
        try:
            proc.wait(timeout=timeout)
        except BaseException as exc:  # timed out or interrupted: leave no worker
            proc.kill()
            proc.wait()
            if not isinstance(exc, subprocess.TimeoutExpired):
                raise
        out.seek(0)
        err.seek(0)
        raw, diag = out.read(), err.read().decode(errors="replace")
    if proc.returncode != 0:
        return {"crashed": f"worker exit {proc.returncode}: {diag.strip()[-500:]}"}
    rec = json.loads(raw)
    if not Path(rec["package"]).resolve().is_relative_to(build_dir.resolve()):
        raise BenchmarkError(f"imported toricdim from {rec['package']}, not the build")
    rec["setup_s"] = rec["ready"] - start
    return rec


def _check_backend(rec: dict, workload) -> None:
    if "crashed" not in rec and rec["backend"] != workload.backend:
        raise BenchmarkError(f"backend is {rec['backend']!r}; workload "
                             f"{workload.name} needs {workload.backend!r}")


def measure(workload, seed: int, seconds: float, trace: bool,
            root: Path, build_dir: Path) -> tuple[list[dict], list[dict], Tally]:
    """Run passes for `seconds`, then the parity check; check every answer.
    A set-up sample (a worker with no queries) precedes each pass, and more
    follow until there are SETUP_SAMPLES of them."""
    started = time.monotonic()
    passes: list[dict] = []
    setups: list[dict] = []
    tally = Tally()
    pure = workload.backend == "python"

    def budget() -> float:
        return max(RUN_BUDGET_S - (time.monotonic() - started), 5.0)

    def set_up() -> None:
        rec = run_worker(root, build_dir, [], trace=False, pure=pure, timeout=budget())
        _check_backend(rec, workload)
        setups.append(rec)

    while True:
        set_up()
        i = len(passes)
        queries = [q.with_seed(query_seed(seed, i, j))
                   for j, q in enumerate(workload.queries)]
        rec = run_worker(root, build_dir, queries, trace=trace and i % 2 == 1,
                         pure=pure, timeout=budget())
        passes.append(rec)
        if "crashed" in rec:
            for argv in queries:
                tally.add("error", argv, rec["crashed"])
            break
        _check_backend(rec, workload)
        rec["all_ok"] = True
        for q, result in zip(workload.queries, rec["queries"]):
            verdict, reason = classify(q, result)
            tally.add(verdict, result["argv"], reason, query=q)
            if verdict != "ok":
                rec["all_ok"] = False
        elapsed = time.monotonic() - started
        if elapsed >= RUN_BUDGET_S - 30:
            break
        if elapsed >= seconds and (not trace or len(passes) >= 2):
            break
    while len(setups) < SETUP_SAMPLES:
        set_up()

    # Backend parity: at the seeds of the first pass, the pure backend must
    # give byte-identical reports for the workload's parity queries.
    subset = [j for j, q in enumerate(workload.queries) if q.parity]
    if subset and "crashed" not in passes[0]:
        compiled = [passes[0]["queries"][j] for j in subset]
        pure = run_worker(root, build_dir, [c["argv"] for c in compiled],
                          trace=False, pure=True, timeout=budget())
        if pure.get("backend", "python") != "python":
            raise BenchmarkError(f"parity run got backend {pure['backend']!r}")
        for k, mine in enumerate(compiled):
            if "crashed" in pure:
                tally.add("error", mine["argv"], pure["crashed"])
            elif (pure["queries"][k]["code"], pure["queries"][k]["out"]) != (
                mine["code"], mine["out"]
            ):
                tally.add("wrong", mine["argv"], "pure and compiled reports differ")
            else:
                tally.add("ok", mine["argv"])
    return passes, setups, tally


def git_sha(root: Path) -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least 10 samples beyond it, when
    one lies above the median."""
    n = len(values)
    q = 100 * (n - 10) // n if n else 0
    if q <= 50:
        return None
    return q, statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def scaled_wall(rec: dict) -> float:
    """A pass's wall time at the reference speed: each segment is scaled by
    the mean of the calibration timings on its two sides."""
    return sum(seconds * NOMINAL_CALIBRATION_S / statistics.fmean((before, after))
               for seconds, before, after in rec["segments"])


def summarise(passes: list[dict], setups: list[dict],
              trace: bool) -> tuple[dict, list[str]]:
    """Metric values by name, and human-readable lines about them."""
    # Only passes that answered every query correctly are timed: a query that
    # fails, say by giving up early, would otherwise read as a faster pass.
    completed = [p for p in passes if "crashed" not in p]
    done = [p for p in completed if p["all_ok"]]
    setups = [s for s in setups if "crashed" not in s]
    plain = [p for p in done if p["layers"] is None]
    traced = [p for p in done if p["layers"] is not None]
    if not plain:
        raise BenchmarkError("no untraced pass answered every query correctly")
    if trace and not traced:
        raise BenchmarkError("no traced pass answered every query correctly")
    if not setups:
        raise BenchmarkError("no set-up sample completed")
    med = statistics.median
    walls = [scaled_wall(p) for p in plain]
    setup_raw = med(s["setup_s"] for s in setups)
    calibration = med(c for p in completed + setups for c in p["calibration_s"])
    values = {
        "wall_s": med(walls),
        "setup_s": setup_raw * NOMINAL_CALIBRATION_S / calibration,
        "peak_rss_mib": med(p["peak_rss_mib"] for p in plain),
        "process.cpu_s": med(p["cpu_s"] for p in plain),
        "process.wall_raw_s": med(p["wall_s"] for p in plain),
        "process.setup_raw_s": setup_raw,
        "machine.calibration_s": calibration,
    }
    lines = [f"wall_s median {values['wall_s']:.4f} s over {len(walls)} passes "
             "with every answer right: "
             + " ".join(f"{w:.3f}" for w in walls),
             f"raw, unscaled: wall {values['process.wall_raw_s']:.4f} s, "
             f"setup {values['process.setup_raw_s']:.4f} s; calibration loop "
             f"{values['machine.calibration_s'] * 1e3:.2f} ms "
             f"(reference {NOMINAL_CALIBRATION_S * 1e3:.0f} ms)",
             f"setup_s {values['setup_s']:.4f} s from {len(setups)} set-up samples"]
    tail = tail_percentile(walls)
    lines.append(f"wall_s p{tail[0]} {tail[1]:.4f} s" if tail else
                 f"wall_s tail: {len(walls)} passes, too few for a percentile above "
                 "the median with 10 samples beyond it")
    for j, q in enumerate(done[0]["queries"]):
        s = med(p["queries"][j]["s"] for p in done)
        lines.append(f"  query {j}: median {s:.4f} s  {' '.join(q['argv'][:-2])}")
    if trace:
        for name in traced[0]["layers"]:
            values[name] = med(p["layers"][name] for p in traced)
        # Raw seconds: traced and untraced passes alternate, so both see the
        # same machine, and a traced pass is scaled differently (one segment).
        values["trace.overhead_s"] = (values["trace.wall_s"]
                                      - values["process.wall_raw_s"])
        lines.append(f"{len(traced)} traced passes, {len(plain)} untraced")
    return values, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    workload = WORKLOADS[args.workload]
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
        build_dir = ensure_build(root)
        passes, setups, tally = measure(workload, args.seed, args.seconds,
                                        bool(args.trace), root, build_dir)
        values, lines = summarise(passes, setups, bool(args.trace))
        if args.trace:
            values["kernels.build_s"] = compile_seconds(root)
    except (OSError, BuildError, BenchmarkError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    meta = {
        "workload": workload.name,
        "backend": workload.backend,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(root),
        "source_hash": source_hash(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    for line in lines:
        print(line)
    c = tally.counts
    print(f"failed_share {tally.failed / tally.attempted:.4f} fraction "
          f"({tally.failed} of {tally.attempted} queries; wrong {c['wrong']}, "
          f"error {c['error']}, known-defect {c['known-defect']})")
    for reason in tally.reasons:
        print("  " + reason)
    for alarm in tally.defect_alarms():
        print("  too many known defects: " + alarm)
    if args.trace:
        for m in wanted:
            print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
