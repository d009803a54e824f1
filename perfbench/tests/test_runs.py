"""End-to-end runs of the benchmark command at tiny sizes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
WORKLOADS = ("grid-traverse", "rmat-analytics", "dynamic-stream", "service-mixed")


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec


def _run(workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "2", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_smoke_run(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = _declared()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["trace_overhead"]["value"] > 0


def test_planted_wrong_result_fails_the_run(monkeypatch, capsys):
    """A BFS that misreports one level is caught by the certificate."""
    import repro.algorithms as alg

    from perfbench import run

    real_bfs = alg.bfs

    def wrong_bfs(graph, source, **kwargs):
        result = real_bfs(graph, source, **kwargs)
        far = int(np.argmax(result.levels))
        result.levels[far] += 1
        return result

    monkeypatch.setattr(alg, "bfs", wrong_bfs)
    code = run.main(["--workload", "grid-traverse", "--seed", "1", "--seconds", "0.5", "--tiny"])
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    assert "failed_ratio" in out and "FAILED: bfs:" in out
    ratio_line = next(l for l in out.splitlines() if l.strip().startswith("failed_ratio"))
    assert float(ratio_line.split()[1]) > 0


def test_refuses_to_run_without_the_program(tmp_path):
    """A directory holding only the benchmark exits non-zero, no result."""
    import shutil

    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-traverse", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
