"""Fast self-test of the benchmark runner at reduced sizes.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from splatnet import training  # noqa: E402
from splatnet.network import Network, NetworkConfig  # noqa: E402

from perfbench import runner, spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

REDUCED = {
    "toy_train": {"samples": 64},
    "r50_eval": {"cfg": NetworkConfig(stage_blocks=(1, 1, 1, 1), base_planes=8,
                                      stem_width=8, num_classes=10),
                 "input_size": 32},
    "toy_infer": {"pool": 4},
}


@pytest.fixture(autouse=True)
def _short_setup(monkeypatch):
    monkeypatch.setattr(runner, "SETUP_MIN_REPS", 2)
    monkeypatch.setattr(runner, "SETUP_MIN_S", 0.0)


def _run(name, trace, tmp_path, seconds=0.3):
    return runner.run(name, 7, seconds, trace, ROOT, threads=1,
                      out_root=tmp_path, **REDUCED[name])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(REDUCED))
def test_result_line_schema(name, trace, tmp_path):
    record = _run(name, trace, tmp_path)
    line = json.loads(runner.result_line(record))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True, record["problems"]
    assert line["attempted"] >= 1 and line["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())
    env = record["environment"]
    for key in ("numpy", "blas", "nproc", "dtype", "seed", "git_revision"):
        assert key in env
    assert env["blas"]["threads_set"] == 1


def test_workloads_match_declaration():
    assert [w["name"] for w in SPEC["workloads"]] == list(runner.WORKLOADS)
    assert SPEC["command"][1] == "perfbench/run.py"


def test_traced_train_joins_paths_and_reports_coverage(tmp_path):
    record = _run("toy_train", True, tmp_path)
    out = tmp_path / "toy_train-seed7-trace1"
    rows = {r["path"]: r for r in record["layers"]}
    assert (out / "layers.tsv").is_file() and (out / "spans.tsv.gz").is_file()
    # every conv and FC path has forward and backward time and a MAC count
    conv_fc = [r for r in rows.values() if r["kernel"] in spans.MAC_KERNELS]
    assert {"stem.conv1", "stage1.block0.splat.conv_in", "stage1.block0.splat.fc2",
            "stage4.block0.down_conv", "fc"} <= {r["path"] for r in conv_fc}
    for r in conv_fc:
        assert r["macs"] > 0 and r["fwd_ms"] > 0 and r["bwd_ms"] > 0
        assert r["fwd_gmac_per_s"] > 0 and r["bwd_gmac_per_s"] > 0
    metrics = {k: v["value"] for k, v in record["metrics"].items()}
    assert runner.COVERAGE_MIN <= metrics["trace.coverage"] <= 1.0
    assert metrics["ops.conv2d_backward.calls"] == metrics["ops.conv2d.calls"] > 0
    assert metrics["checkpoint.bytes"] > 0
    # the wrappers are gone once the run is over
    assert training.sgd_step.__module__ == "splatnet.training"
    assert training.sgd_step.__name__ == "sgd_step"


def _tracer_with(spans_list):
    """Tracer holding hand-made spans: (name, path, parent, start, end)."""
    tracer = spans.Tracer()
    for name, path, parent, start, end in spans_list:
        tracer.names.append(name)
        tracer.paths.append(path)
        tracer.parents.append(parent)
        tracer.steps.append(0)
        tracer.starts.append(start)
        tracer.ends.append(end)
    return tracer


def test_self_time_and_coverage():
    frame = spans.SpanFrame(_tracer_with([
        ("request", "", -1, 0.0, 10.0),
        ("network.forward", "", 0, 0.5, 9.5),
        ("ops.conv2d", "stem.conv1", 1, 1.0, 4.0),
        ("ops.relu", "stem.relu1", 1, 4.0, 5.0),
    ]))
    assert list(frame.self_time) == [1.0, 5.0, 3.0, 1.0]
    # the root's and the network's own time is glue, not layer time
    assert spans.glue_time(frame) == pytest.approx(5.0)
    assert spans.coverage(frame, "request") == pytest.approx(0.4)
    rows = spans.layer_rows(frame, {"stem.conv1": 6_000_000}, batch=2, steps=1, step_s=10.0)
    conv = next(r for r in rows if r["path"] == "stem.conv1")
    assert conv["fwd_ms"] == pytest.approx(3000.0)
    assert conv["fwd_gmac_per_s"] == pytest.approx(12e6 / 3.0 / 1e9)
    assert conv["share"] == pytest.approx(0.3)


def test_coverage_gate_fails_on_large_glue(tmp_path, monkeypatch):
    forward = Network.forward

    def slow_glue(self, x, mode="train", rng=None):
        out = forward(self, x, mode=mode, rng=rng)
        time.sleep(0.05)  # inside the network's span, outside every layer's
        return out

    monkeypatch.setattr(Network, "forward", slow_glue)
    record = _run("r50_eval", True, tmp_path)
    metrics = {k: v["value"] for k, v in record["metrics"].items()}
    assert metrics["trace.coverage"] < runner.COVERAGE_MIN
    assert metrics["network.glue_ms"] >= 50.0
    assert record["correct"] is False
    assert any("layer spans cover" in p for p in record["problems"])


def test_timed_conv_without_cost_row_fails_the_run(tmp_path, monkeypatch):
    count_flops = runner.analysis.count_flops

    def without_stem_conv(net, input_hw):
        report = count_flops(net, input_hw)
        report.rows = [r for r in report.rows if r.path != "stem.conv1"]
        return report

    monkeypatch.setattr(runner.analysis, "count_flops", without_stem_conv)
    record = _run("toy_infer", True, tmp_path)
    assert record["correct"] is False
    assert "timed span without a cost row: stem.conv1" in record["problems"]


def test_path_join_reports_both_directions():
    frame = spans.SpanFrame(_tracer_with([
        ("ops.conv2d", "stem.conv1", -1, 0.0, 1.0),
        ("ops.fully_connected", "fc", -1, 1.0, 2.0),
    ]))
    assert spans.check_path_join(frame, {"stem.conv1": 5, "fc": 2, "stem.bn1": 0}) == []
    problems = spans.check_path_join(frame, {"stem.conv1": 5, "stage1.block0.conv3": 9})
    assert problems == ["cost row without a timed span: stage1.block0.conv3",
                        "timed span without a cost row: fc"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "toy_infer", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
