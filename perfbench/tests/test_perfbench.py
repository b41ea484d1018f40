"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/tests

They build the package as the benchmark does (perfbench/_build) and run
traced passes in fresh interpreters, because the program's caches would
otherwise carry answers and counts from one pass into the next.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from build import BUILD_ROOT, ensure_build  # noqa: E402
from workloads import GOLDEN, WORKLOADS, Query, Workload, classify  # noqa: E402


@pytest.fixture(scope="module")
def build_dir():
    return ensure_build(ROOT)


def _query(workload: str, index: int) -> Query:
    return WORKLOADS[workload].queries[index]


def _result(query: Query, out: str, code: int = 0) -> dict:
    return {"argv": list(query.argv), "code": code, "out": out, "err": ""}


# --- oracles -------------------------------------------------------------------


def test_table_oracle_flags_a_planted_wrong_dimension():
    query = _query("sweep-c", 0)
    golden = (GOLDEN / "experiments-extended.csv").read_text()
    assert classify(query, _result(query, golden)) == ("ok", None)
    lines = golden.splitlines(keepends=True)
    cells = lines[100].split(",")
    cells[-3] = str(int(cells[-3]) - 1)  # computed_dim of row 99
    planted = "".join(lines[:100] + [",".join(cells)] + lines[101:])
    verdict, reason = classify(query, _result(query, planted))
    assert verdict == "wrong" and "row 99" in reason


def test_probe_oracle_flags_a_planted_wrong_dimension():
    query = _query("large-probe-c", 0)  # veronese:d=4,n=8 --r 55, N = 494
    assert classify(query, _result(query, '{"computed_dim": 494}'))[0] == "ok"
    assert classify(query, _result(query, '{"computed_dim": 493}'))[0] == "wrong"
    assert classify(query, _result(query, '{"computed_dim": 494}', code=1))[0] == "wrong"


_VERDICT = '\n{"all_pass": true, "dim_lower_bound": %d, "schema": 1}\n'
_GAVE_UP = {"argv": [], "code": 2, "out": "",
            "err": "error: could not sample nondegenerate demo points\n"}


def test_degeneration_oracle_and_known_defects():
    rnc30 = _query("degeneration", 2)  # rnc:30 --r 4,5: bound 15
    assert classify(rnc30, _result(rnc30, _VERDICT % 15))[0] == "ok"
    assert classify(rnc30, _result(rnc30, _VERDICT % 16))[0] == "wrong"
    # A weak bound is a known defect only where it was observed.
    assert classify(rnc30, _result(rnc30, _VERDICT % 14))[0] == "wrong"
    failing = _VERDICT.replace("true", "false") % 15
    assert classify(rnc30, _result(rnc30, failing, code=1))[0] == "wrong"
    assert classify(rnc30, _GAVE_UP)[0] == "known-defect"
    usage = dict(_GAVE_UP, err="error: descriptor 'rnc:x': expected an integer\n")
    assert classify(rnc30, usage)[0] == "error"

    veronese = _query("degeneration", 3)  # veronese:d=4,n=2 --r 2,3: bound 11
    assert classify(veronese, _result(veronese, _VERDICT % 11))[0] == "ok"
    assert classify(veronese, _result(veronese, _VERDICT % 10))[0] == "known-defect"
    assert classify(veronese, _result(veronese, _VERDICT % 12))[0] == "wrong"
    # Giving up on sampling is a known defect only on rnc:20 and rnc:30.
    assert classify(veronese, _GAVE_UP)[0] == "error"
    assert classify(_query("degeneration", 0), _GAVE_UP)[0] == "error"
    assert classify(_query("degeneration", 1), _GAVE_UP)[0] == "known-defect"


def test_known_defect_far_above_its_rate_makes_the_run_incorrect():
    rnc30 = _query("degeneration", 2)

    def tally(defects: int, attempts: int = 15) -> run.Tally:
        t = run.Tally()
        for i in range(attempts):
            t.add("known-defect" if i < defects else "ok", rnc30.argv, query=rnc30)
        return t

    assert tally(3).correct and not tally(3).defect_alarms()
    assert not tally(15).correct  # demo_points gives up on every seed
    assert not tally(10).correct
    assert len(tally(15).defect_alarms()) == 1


def test_only_passes_with_every_answer_right_are_timed():
    def pass_record(seconds: float, all_ok: bool) -> dict:
        return {"layers": None, "all_ok": all_ok, "wall_s": seconds, "cpu_s": seconds,
                "segments": [[seconds, 0.03, 0.03]], "calibration_s": [0.03, 0.03],
                "peak_rss_mib": 20.0, "queries": [{"argv": ["q", "--seed", "1"],
                                                   "s": seconds}]}

    setups = [{"setup_s": 0.1, "calibration_s": [0.03]}]
    # Two passes gave up early; they must not read as fast passes.
    passes = [pass_record(s, ok) for s, ok in
              ((1.0, True), (0.5, False), (0.4, False), (1.2, True), (1.1, True))]
    values, _ = run.summarise(passes, setups, trace=False)
    assert values["wall_s"] == pytest.approx(1.1)
    with pytest.raises(run.BenchmarkError):
        run.summarise([pass_record(0.5, False)], setups, trace=False)


# --- backend check -------------------------------------------------------------


def test_backend_mismatch_fails_the_workload(monkeypatch, capsys, build_dir):
    """A compiled workload refuses to report when the extension is missing."""
    pure_only = ROOT / BUILD_ROOT / "test-no-extension"
    shutil.rmtree(pure_only, ignore_errors=True)
    shutil.copytree(build_dir, pure_only,
                    ignore=shutil.ignore_patterns("*.so", "__pycache__"))
    tiny = Workload("tiny-c", "c", (Query(
        ("generic-hrank", "segre:n=1,1,1,1", "--r", "2"), lambda r: None),))
    monkeypatch.setitem(run.WORKLOADS, "tiny-c", tiny)
    monkeypatch.setattr(run, "ensure_build", lambda root: pure_only)
    monkeypatch.chdir(ROOT)
    try:
        code = run.main(["--workload", "tiny-c", "--seed", "1", "--seconds", "0"])
    finally:
        shutil.rmtree(pure_only, ignore_errors=True)
    captured = capsys.readouterr()
    assert code != 0
    assert "backend is 'python'" in captured.err
    assert '"correct"' not in captured.out


# --- traced passes ---------------------------------------------------------------

_TRACED = """
import json, sys
import worker
from spans import Tracer, layer_metrics, self_times
tracer = Tracer()
tracer.install()
worker.run_pass(json.loads(sys.argv[1]), tracer)
spans = tracer.spans
own = self_times(spans)
by_layer = {}
for s, o in zip(spans[1:], own[1:]):
    by_layer[s.name] = by_layer.get(s.name, 0.0) + o
nested = all(
    spans[s.parent].start <= s.start <= s.end <= spans[s.parent].end
    for s in spans[1:]
)
print(json.dumps({"wall": spans[0].duration, "untimed": own[0], "by_layer": by_layer,
                  "min_self": min(own), "nested": nested,
                  "layers": layer_metrics(spans)}))
"""


def _traced_pass(build_dir: Path, queries: list[list[str]]) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "TORICDIM_PURE"}
    env["PYTHONPATH"] = f"{build_dir}{os.pathsep}{BENCH}"
    done = subprocess.run([sys.executable, "-c", _TRACED, json.dumps(queries)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout)


def test_self_times_and_untimed_remainder_sum_to_traced_wall(build_dir):
    rec = _traced_pass(build_dir, [
        ["generic-hrank", "segre:n=1,1,1,1", "--r", "2", "--seed", "5"],
        ["degeneration-demo", "--descriptor", "rnc:8", "--seed", "6"],
        ["verify-table", "binary", "--seed", "7"],
    ])
    assert rec["nested"]
    assert rec["min_self"] >= 0.0
    total = sum(rec["by_layer"].values()) + rec["untimed"]
    assert total == pytest.approx(rec["wall"], abs=1e-6)
    assert {"cli.main", "tables.run_table", "kernels.kr_rank_mod",
            "degeneration.limit_check"} <= set(rec["by_layer"])


def test_extended_sweep_probe_counts_repeat_exactly(build_dir):
    for seed in ("0", "7"):
        layers = _traced_pass(build_dir, [
            ["verify-table", "experiments", "--extended", "--seed", seed],
        ])["layers"]
        assert layers["probing.probes"] == 737
        assert layers["probing.attempts"] == 1507
