"""One pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py '<json spec>'

The spec holds the query argument lists and whether to trace.  The worker
imports `toricdim.cli` first, so that the instant it is ready (on the
system-wide monotonic clock) bounds the set-up time the parent measures
from before the spawn.  It then runs every query through `toricdim.cli.main`
in this one process, capturing each report, and prints one JSON object.
"""

import time

import toricdim.cli

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import toricdim  # noqa: E402
from spans import ROOT, Tracer, layer_metrics  # noqa: E402


def run_query(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = toricdim.cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # any traceback is a failed query, not a failed pass
        code = None
        err.write(traceback.format_exc())
    return {"argv": argv, "code": code, "out": out.getvalue(),
            "err": err.getvalue(), "s": time.perf_counter() - t0,
            "cpu_s": time.process_time() - c0}


def calibrate() -> float:
    """Seconds this process takes for a fixed loop of modular arithmetic
    on a list of ints; it tracks how fast the machine runs right now."""
    t0 = time.perf_counter()
    p = (1 << 61) - 1
    x = 3
    row = list(range(1, 257))
    for _ in range(400):
        row = [(a * x + 7) % p for a in row]
        x = row[-1] | 1
    return time.perf_counter() - t0


def run_pass(queries: list[list[str]], tracer: Tracer | None = None) -> dict:
    """Run the queries in order; wall time is the sum of their times.

    The calibration loop runs before the first query and after each one,
    outside the timed queries, so each query is a segment timed together
    with the machine's speed on both sides of it.  A traced pass calibrates
    only before and after all its queries, so that its root span holds
    nothing but the queries, and it is one segment.
    """
    calibration = [calibrate()]
    if tracer:
        root = tracer.open(ROOT)
        results = [run_query(q) for q in queries]
        tracer.close(root)
        seconds = [sum(r["s"] for r in results)]
        calibration.append(calibrate())
    else:
        results = []
        for q in queries:
            results.append(run_query(q))
            calibration.append(calibrate())
        seconds = [r["s"] for r in results]
    return {"wall_s": sum(seconds), "cpu_s": sum(r["cpu_s"] for r in results),
            "queries": results, "calibration_s": calibration,
            "segments": [[s, before, after] for s, before, after
                         in zip(seconds, calibration, calibration[1:])]}


def peak_rss_mib() -> float:
    """This process's peak resident memory since it was exec'd (VmHWM).
    The parent cannot read it with wait4: ru_maxrss also counts the
    parent's own resident memory at the moment of the spawn."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    result = run_pass(spec["queries"], tracer)
    result.update(
        ready=READY,
        backend=toricdim.backend_name(),
        package=toricdim.__file__,
        layers=layer_metrics(tracer.spans) if tracer else None,
        peak_rss_mib=peak_rss_mib(),
    )
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
