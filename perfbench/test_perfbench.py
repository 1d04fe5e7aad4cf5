"""Fast self-test of the benchmark at a tiny scale.

    python3 -m pytest perfbench -q

Checks that every metric named in ``BENCHMARK.json`` is emitted with its
unit on every workload, that a wrong answer is counted as a failure
instead of being timed, that a run leaves no process behind, and that
the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spec
import suites

ROOT = Path(__file__).resolve().parent.parent
TINY = suites.Sizes(
    fine_records=300,
    base_partitions=2,
    sessions_per_partition=120,
    rounds=2,
    cold_passes=1,
    setups=2,
    serve_setups=1,
)


@pytest.fixture(autouse=True)
def _checkout_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    run._use_checkout_sources()


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(capsys, workload: str, trace: int) -> tuple[int, dict]:
    code = run.main(
        ["--workload", workload, "--seed", "5", "--seconds", "0.1",
         "--trace", str(trace)],
        sizes=TINY,
    )
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


def test_benchmark_json_matches_spec():
    bench = _benchmark()
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert [w["name"] for w in bench["workloads"]] == list(spec.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in bench["workloads"])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        name: unit for name, (unit, _definition) in spec.END_TO_END.items()
    }
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert {
        m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]
    } == {
        name: (row[0], row[1]) for name, row in spec.PER_LAYER.items()
    }


@pytest.mark.parametrize("workload", spec.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_its_unit(capsys, workload, trace):
    code, result = _run(capsys, workload, trace)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    bench = _benchmark()
    expected = bench["per_layer"] if trace else bench["end_to_end"]
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in expected}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _children() -> list[int]:
    """Pids of the live processes whose parent is this one (Linux)."""
    mine = str(os.getpid())
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == mine and fields[0] != "Z":
            found.append(int(stat.parent.name))
    return found


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="needs /proc")
def test_run_leaves_no_process_behind(capsys):
    code, _result = _run(capsys, "fine_uniform", 0)
    assert code == 0
    assert _children() == []


def _corrupting(original):
    """Wrap ``ParallelEvaluator.evaluate`` to return one wrong value."""

    def evaluate(self, *args, **kwargs):
        outcome = original(self, *args, **kwargs)
        for table in outcome.result.tables.values():
            for coords, value in table.values.items():
                table.values[coords] = value + 1
                return outcome
        return outcome

    return evaluate


@pytest.mark.parametrize("workload", ["fine_uniform", "serve_append"])
def test_wrong_answer_is_a_failure_not_a_timing(capsys, monkeypatch,
                                                 workload):
    from repro.parallel import ParallelEvaluator

    monkeypatch.setattr(
        ParallelEvaluator, "evaluate", _corrupting(ParallelEvaluator.evaluate)
    )
    if workload == "serve_append":
        result = suites.run_serve(5, 0.1, None, TINY)
        # Every round recomputes M through the corrupted executor.
        assert "refresh_p50_s" not in result["tally"].samples
    else:
        result = suites.run_one_shot(workload, 5, 0.1, None, TINY)
        assert "inproc_s" not in result["tally"].samples
        assert "central_s" in result["tally"].samples
    assert result["tally"].failed > 0

    code, line = _run(capsys, workload, 0)
    assert code != 0
    assert line["correct"] is False and line["failed"] > 0
    assert line["metrics"] == {}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    bench = _benchmark()
    completed = subprocess.run(
        [sys.executable, *bench["command"][1:], "--workload",
         "fine_uniform", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
