"""Self-test of the benchmark at toy sizes.

    python3 -m pytest -q bench/test_bench.py

Runs every workload through the timed and the traced path, checks the
result line against BENCHMARK.json, and checks that tracing leaves arcseq
exactly as it found it and that the output checks catch wrong answers.
"""

import contextlib
import importlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(workload: str, trace: int) -> dict:
    buf = io.StringIO()
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0.3", "--trace", str(trace)]
    with contextlib.redirect_stdout(buf):
        assert run.main(argv, scale="toy") == 0
    return json.loads(buf.getvalue().splitlines()[-1])


def _bindings():
    """Every value bound in an arcseq module namespace or module-level dict."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "arcseq" or name.startswith("arcseq."):
            for attr, val in vars(mod).items():
                found[(name, attr)] = val
                if type(val) is dict:
                    for key, item in val.items():
                        found[(name, attr, key)] = item
    return found


def test_spec_lists_the_metrics_the_code_reports():
    assert [m["name"] for m in SPEC["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == dict(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == tracer.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_toy_run_reports_every_metric(workload, trace):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace:
        layers = {k: v["value"] for k, v in result["metrics"].items()}
        assert layers["trace.self_sum_s"] == pytest.approx(layers["trace.wall_s"], rel=1e-9)
        mis_calls = layers["mis.lexmin_maximum_independent_set.calls"]
        assert (mis_calls == 0) == (workload == "solve-mix")
    if trace and workload == "sweep-t1":
        assert layers["mis.calls_per_graph"] > 1


def test_tracer_restores_every_binding_even_after_an_error():
    run.fresh_import()
    before = _bindings()
    sweep = importlib.import_module("arcseq.sweep")
    original = sweep.run_sweep

    def job():
        assert sweep.run_sweep is not original
        assert sweep.REDUCTIONS["T1"] is not before[("arcseq.reductions", "reduce_theorem1")]
        raise RuntimeError("job failed")

    with pytest.raises(RuntimeError):
        tracer.Tracer().run(job)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_counts_match_the_untraced_program():
    run.fresh_import()
    sweep = importlib.import_module("arcseq.sweep")
    cfg = sweep.SweepConfig(theorem="T1", n_range=(1, 3))
    report, layers = tracer.Tracer().run(lambda: sweep.run_sweep(cfg))
    assert len(report.rows) == 29
    assert layers["reductions.check_equivalence.calls"] == 29
    # Spot checks call exact_search directly from run_sweep: every 10th row.
    assert layers["solvers.exact_search.identity.calls"] >= 3
    assert layers["sweep.spot_check.total_s"] > 0


def test_checks_catch_wrong_outputs(tmp_path):
    run.fresh_import()
    for name in workloads.NAMES:
        wl = workloads.make(name, 3, "toy")
        wl.setup(tmp_path / name)
        outcome = wl.outcome(wl.job())
        assert not outcome.failed
        assert wl.check(outcome.outputs) == set()
        key, out = next(iter(outcome.outputs.items()))
        cells = out.split(",")
        if len(cells) > 6:  # a sweep row: change lapcs_len
            cells[6] = str(int(cells[6]) + 1)
            wrong = ",".join(cells)
        else:
            wrong = out + "1 1\n"
        assert key in wl.check({**outcome.outputs, key: wrong})


class _Drifting:
    """A workload whose second repetition crashes on "a" and whose later
    repetitions print another "b" than the first."""

    ops_per_job = 2

    def __init__(self):
        self.n = 0

    def job(self):
        self.n += 1
        return self.n

    def outcome(self, n):
        return workloads.Outcome({"a": "1", "b": "2" if n == 1 else "3"}, {"a"} if n == 2 else set(), [])


def test_measure_counts_failed_and_divergent_operations():
    reps, first = run.measure(_Drifting(), 0.5)
    assert len(reps) >= 3 and first.outputs["b"] == "2"
    assert run.failures(reps, set())[:3] == [0, 2, 1]
    assert run.failures(reps, {"a"})[:3] == [1, 2, 2]


def test_tail_percentile_leaves_ten_samples_beyond():
    value, rank = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and rank == 90.0
    assert run.tail([1.0] * 10) == (None, None)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable] + SPEC["command"][1:]
        + ["--workload", "sweep-t1", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
