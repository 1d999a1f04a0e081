"""Self-tests of the benchmark (not part of the package's test suite).

    python3 -m pytest bench/test_bench.py -q

They run each workload's commands a few times in-process (about a minute
on a 2-core host).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from checker import FIELDS, HEADER, check
from tracer import Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
PACKAGE = run.import_package()


def _outputs(workload, seed):
    """(command, output) for one pass over the workload."""
    out = []
    for cmd in workload.commands:
        status, text, err = run.run_cli(PACKAGE.cli, cmd.argv(seed))
        assert status == 0, err
        out.append((cmd, text))
    return out


def _corrupt(text: str) -> str:
    """Move the estimate of the first row by 0.25."""
    lines = text.splitlines()
    fields = lines[1].split(",")
    fields[-8] = repr(float(fields[-8]) + 0.25)
    return "\n".join([lines[0], ",".join(fields), *lines[2:]]) + "\n"


def _traced_counts(workload, seed):
    runner = run.Runner(PACKAGE, workload, seed)
    tracer = Tracer(PACKAGE)
    passes = runner.run_for(0.0, tracer, max_passes=1)
    assert runner.failed == 0
    metrics = run.layer_metrics(tracer.aggregate(runner.pass_commands[passes[0]]))
    return {name: value for name, value in metrics.items() if run.PER_LAYER[name] in run.COUNT_UNITS}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checker_accepts_output_and_rejects_a_corrupted_row(name):
    assert FIELDS[-8] == "estimate" and HEADER.count(",") == len(FIELDS) - 1
    for cmd, text in _outputs(WORKLOADS[name], seed=5):
        assert check(cmd, 5, text) == [], cmd
        assert check(cmd, 5, _corrupt(text)), f"corrupted output of {cmd} passed"
        assert check(cmd, 6, text), f"output of {cmd} passed under another seed"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counters_repeat_exactly_at_one_seed(name):
    first = _traced_counts(WORKLOADS[name], seed=3)
    assert first == _traced_counts(WORKLOADS[name], seed=3)
    assert any(first.values())


def test_exact_counters_do_not_depend_on_the_seed():
    assert _traced_counts(WORKLOADS["exact"], seed=1) == _traced_counts(WORKLOADS["exact"], seed=2)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric_last(trace):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "rewrite",
                           "--seed", "2", "--seconds", "1", "--trace", str(trace)],
                          capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    header = json.loads(lines[0])["header"]
    assert {"nproc", "python", "numpy", "git_commit", "seed", "sizes"} <= set(header)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "exact", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
