"""Tests of the end-to-end benchmark itself.

    python3 -m pytest perfbench/tests -q

Each workload runs end to end at tiny size, and every output check is
shown to fail when the output it guards is corrupted.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import common  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import wl_evaluate  # noqa: E402
import wl_serve  # noqa: E402
import wl_sweep  # noqa: E402
import wl_train  # noqa: E402
from common import CheckFailed  # noqa: E402

RUN = [sys.executable, str(BENCH / "run.py")]


def _run(*args: str, timeout: float = 170) -> subprocess.CompletedProcess:
    return subprocess.run(RUN + list(args), cwd=common.REPO_ROOT,
                          capture_output=True, text=True, timeout=timeout)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------

def test_benchmark_json_matches_the_workloads():
    spec = json.loads((common.REPO_ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [w["name"] for w in spec["workloads"]]
    assert set(names) <= set(run.WORKLOADS) and len(names) >= 2
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v for w in run.WORKLOADS for k, v in run.per_layer(w).items()}


# ----------------------------------------------------------------------
# Every workload end to end, tiny
# ----------------------------------------------------------------------

@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_end_to_end(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", "0", "--tiny")
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert f"fingerprint {workload}" in proc.stdout


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_workload_reports_its_layers(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", "1", "--tiny", "--alone")
    result = _result(proc)
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == run.per_layer(workload)


def test_fingerprints_repeat_for_a_seed():
    lines = []
    for _ in range(2):
        proc = _run("--workload", "evaluate", "--seed", "5", "--seconds",
                    "0.5", "--trace", "0", "--tiny")
        _result(proc)
        lines.append([ln for ln in proc.stdout.splitlines()
                      if ln.startswith("fingerprint")])
    assert lines[0] == lines[1]


def test_without_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(common.REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_a_failed_check_exits_nonzero(monkeypatch, capsys):
    def corrupted(*args, **kwargs):
        raise CheckFailed("corrupted output")

    monkeypatch.setattr(wl_evaluate, "check_accuracy", corrupted)
    code = run.main(["--workload", "evaluate", "--seed", "1", "--seconds",
                     "0.2", "--trace", "0", "--tiny"])
    assert code == 1
    assert '"correct"' not in capsys.readouterr().out


# ----------------------------------------------------------------------
# Negative tests: each check fails on corrupted output
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_training():
    from repro.basecaller import (BonitoConfig, BonitoModel,
                                  make_training_chunks)

    chunks = make_training_chunks(num_chunks=4, genome_size=20_000, seed=3)
    model = BonitoModel(BonitoConfig())
    return wl_train.gradient_check(model, chunks, seed=3)


def test_gradient_check_passes_on_backward(tiny_training):
    wl_train.check_gradients(*tiny_training)


def test_gradient_check_catches_a_perturbed_entry(tiny_training):
    analytic, numeric = tiny_training
    bad = analytic.copy()
    bad[np.argmax(np.abs(bad))] *= 1.01
    with pytest.raises(CheckFailed):
        wl_train.check_gradients(bad, numeric)


def test_loss_check_catches_a_rising_loss():
    wl_train.check_losses([30.0, 25.0, 20.0])
    with pytest.raises(CheckFailed):
        wl_train.check_losses([30.0, 25.0, 31.0])


def test_loop_check_catches_a_mismatch():
    calls = [np.array([0, 1, 2, 3], dtype=np.int8),
             np.array([3, 2, 1], dtype=np.int8)]
    wl_evaluate.check_loop_equal(calls, [c.copy() for c in calls])
    bad = [c.copy() for c in calls]
    bad[1][0] = 0
    with pytest.raises(CheckFailed):
        wl_evaluate.check_loop_equal(calls, bad)


def test_ideal_check_catches_a_wrong_logit():
    ref = np.random.default_rng(0).normal(size=(20, 5)) * 5
    wl_evaluate.check_ideal(ref + 4e-4, ref)
    bad = ref.copy()
    bad[7, 2] += 0.05
    with pytest.raises(CheckFailed):
        wl_evaluate.check_ideal(bad, ref)


def test_accuracy_check_needs_combined_below_digital():
    digital = np.array([0.9, 0.85, 0.95])
    wl_evaluate.check_accuracy(np.array([0.5, 0.6, 0.4]), digital)
    with pytest.raises(CheckFailed):
        wl_evaluate.check_accuracy(digital + 0.01, digital)
    with pytest.raises(CheckFailed):
        wl_evaluate.check_accuracy(np.array([0.5, 1.2, 0.4]), digital)


def test_attribution_refuses_a_span_outside_every_op():
    recorder = spans.SpanRecorder()
    for op in range(2):
        recorder.op = op
        with recorder.span("evaluate.read"):
            with recorder.span("nn.conv"):
                pass
    per_op = spans.self_times(recorder.spans, "evaluate.read")
    for entry in per_op:
        total = sum(entry["self"].values()) + entry["unattributed"]
        assert total == pytest.approx(entry["wall"], rel=1e-9)
    recorder.op = None
    with recorder.span("nn.conv"):
        pass
    with pytest.raises(CheckFailed):
        spans.self_times(recorder.spans, "evaluate.read")


def test_vmm_check_catches_engine_time_outside_bank_calls():
    per_op = [{"op": 0, "total": {"crossbar.lstm_recurrence": 0.004,
                                  "crossbar.vmm_other": 0.001}}]
    wl_evaluate.check_vmm_within_crossbar(per_op, [{"vmm": 0.002,
                                                    "vmm.rng": 0.0025}])
    with pytest.raises(CheckFailed):
        wl_evaluate.check_vmm_within_crossbar(per_op, [{"vmm": 0.002,
                                                        "vmm.rng": 0.0035}])


def test_serve_check_catches_a_flipped_base():
    pool = [np.zeros(384), np.zeros(512)]
    expected = ["ACGTAC", "TTGCA"]

    def frames_for(n):
        return n // 2

    responses = [(i, {"id": f"r{i}", "status": "ok", "bases": expected[i],
                      "frames": frames_for(len(pool[i]))})
                 for i in range(2)]
    wl_serve.check_responses(responses, pool, expected, frames_for)
    flipped = [(i, dict(r)) for i, r in responses]
    flipped[1][1]["bases"] = "TTGCT"
    with pytest.raises(CheckFailed):
        wl_serve.check_responses(flipped, pool, expected, frames_for)
    wrong_frames = [(i, dict(r)) for i, r in responses]
    wrong_frames[0][1]["frames"] += 1
    with pytest.raises(CheckFailed):
        wl_serve.check_responses(wrong_frames, pool, expected, frames_for)


def test_sweep_check_catches_an_altered_value(tmp_path):
    plan = wl_sweep.make_plan(seed=1, tiny=True)
    cold = wl_sweep.one_pass(plan, tmp_path, "c")
    replay = wl_sweep.one_pass(plan, tmp_path, "r",
                               cache_dir=tmp_path / "cache-c")
    direct = wl_sweep.direct_values(plan, seed=1)
    wl_sweep.check_pass(plan, cold, replay, direct)
    tag = next(iter(direct))
    altered = dict(direct)
    altered[tag] = json.loads(json.dumps(direct[tag]))
    altered[tag]["rows"][0]["kbps"] *= 1.000001
    with pytest.raises(CheckFailed):
        wl_sweep.check_pass(plan, cold, replay, altered)
    outcome = replay["result"].outcomes[0]
    outcome.value = {"altered": True}
    with pytest.raises(CheckFailed):
        wl_sweep.check_pass(plan, cold, replay, direct)
