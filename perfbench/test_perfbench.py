"""Quick test of the benchmark: every workload at toy size with all checks
on, plus evidence that the checks catch a changed graph or report."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_toy(workload: str, trace: int, workdir: Path, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--size", "toy", "--workdir", str(workdir)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


# distill-seeds runs traced: it is the one workload that trains every model kind.
@pytest.mark.parametrize("workload,trace", [("build-wide", 0), ("distill-seeds", 1),
                                            ("eval-reload", 0)])
def test_toy_workload_passes_checks_and_reports_every_metric(workload, trace, tmp_path):
    proc = run_toy(workload, trace, tmp_path / "work")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0 or m["name"].startswith("autodiff.tape_records"), m["name"]
    if trace:
        for kind in ("teacher", "mlp_kd", "mlp_plain", "transformer_kd"):
            records = result["metrics"][f"autodiff.tape_records_per_step.{kind}"]["value"]
            assert records > 0 and records == int(records), kind


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_toy("build-wide", 0, tmp_path / "work", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _toy_graphs(tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from graphkd import cli, graphs
    data, path = tmp_path / "data", tmp_path / "graphs.jsonl"
    assert cli.run(["gen-synth", "--out", str(data), "--samples", "40", "--seed", "5"]) == 0
    assert cli.run(["build-graphs", "--manifest", str(data / "manifest.jsonl"),
                    "--embeddings", str(data / "visual.gemb"),
                    "--triplets", str(data / "triplets.tsv"),
                    "--triplet-embeddings", str(data / "triplets.gemb"),
                    "--out", str(path)]) == 0
    return data, path, graphs


def test_graph_check_catches_a_changed_edge_weight(tmp_path):
    import checks
    data, path, graphs = _toy_graphs(tmp_path)
    checks.check_graphs(path, data, 3, graphs.read_graphs(path)[0])

    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[3])
    n = len(record["nodes"])
    record["adjacency"][1] += 1e-6  # (0, 1) and (1, 0): still symmetric
    record["adjacency"][n] += 1e-6
    lines[3] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(checks.CheckFailed, match="independent rebuild"):
        checks.check_graphs(path, data, 3, graphs.read_graphs(path)[0])


def test_report_check_catches_a_score_that_is_not_the_confusion_trace(tmp_path):
    import checks
    report = {"num_samples": 4, "micro_f1": 0.75, "accuracy": 0.75,
              "confusion": [[2, 1], [0, 1]], "per_group": {"g0": {"num_samples": 4}}}
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report), encoding="utf-8")
    checks.check_report(path, 0.75)
    report["confusion"] = [[1, 1], [1, 1]]
    path.write_text(json.dumps(report), encoding="utf-8")
    with pytest.raises(checks.CheckFailed, match="confusion trace"):
        checks.check_report(path, 0.75)
