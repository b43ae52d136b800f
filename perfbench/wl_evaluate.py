"""``evaluate``: the Fig. 8 design point, one read per op.

The committed baseline, quantised to FPP 16-16 and deployed with
``deploy()`` on 64x64 crossbars under the ``combined`` bundle at 10%
write variation, basecalls fixed-length windows of held-out D1-D4
reads one at a time, exactly as ``evaluate_accuracy`` does: one
``basecall_signal`` call, then ``read_accuracy`` against the window's
true bases.
"""

from __future__ import annotations

import os
from contextlib import nullcontext

import numpy as np

from common import (check, digest, load_baseline, log, median, metric, now,
                    self_peak_rss_mb, state_digest)
from spans import SpanRecorder, program_span_self, self_times

DATASETS = ("D1", "D2", "D3", "D4")
READS_PER_DATASET = 32
#: Samples per input window (every op does the same amount of work).
WINDOW = 512
POOL = 96
BUNDLE = "combined"
CROSSBAR = 64
WRITE_VARIATION = 0.10
DEPLOY_SEED = 7000
SETUP_REPEATS = 3
MIN_OPS = 3
#: Reads re-run on the per-tile ``loop`` backend (plus the warm-up).
LOOP_READS = 2
#: Basecalls of this many timed reads make the output fingerprint.
FINGERPRINT_READS = 16
#: Ideal bundle vs the plain-NumPy forward: 16-bit conductance levels
#: quantise each weight to 1/65535 of its tile's range, which leaves
#: logit gaps of 0.4-1.2e-3 (median 6e-4 over 90 windows, logits up to
#: ~25).  A wrong sign, bias or scale anywhere moves logits by >0.1.
IDEAL_ATOL = 5e-3
#: Mean identity the digital (plain-NumPy) basecaller must reach.
DIGITAL_FLOOR = 0.75

VMM_STAGES = ("rng", "dac", "conductance", "matmul", "wires", "adc",
              "digital")
#: Span names of the benchmark's ``CrossbarBank.vmm`` wrappers.
BANK_SPANS = ("crossbar.lstm_input_proj", "crossbar.lstm_recurrence",
              "crossbar.vmm_other")
#: Slack for the program's span durations, which it rounds to 1 ns.
SPAN_SLACK_S = 1e-6

#: Per-layer metrics of the traced run (values per read, except
#: ``core.deploy_ms``, which is part of set-up).
PER_LAYER = {"core.deploy_ms": "ms", "nn.conv_ms": "ms", "nn.lstm_ms": "ms",
             "nn.linear_ms": "ms", "crossbar.lstm_input_proj_ms": "ms",
             "crossbar.lstm_recurrence_ms": "ms", "crossbar.vmm_ms": "ms",
             "crossbar.vmm_calls": "count", "crossbar.vmm_us_per_call": "us",
             **{f"vmm.{stage}_ms": "ms" for stage in VMM_STAGES},
             "vmm.engine_self_ms": "ms", "reliability.health_ms": "ms",
             "basecaller.decode_ms": "ms", "genomics.align_ms": "ms",
             "evaluate.unattributed_ms": "ms",
             "evaluate.trace_overhead_ratio": "ratio"}


def make_pool(seed: int, tiny: bool):
    """Fixed-length windows (signal, true bases) of held-out reads."""
    from repro.basecaller import chunk_read
    from repro.genomics import dataset_reads

    per_dataset = []
    count = 8 if tiny else READS_PER_DATASET
    for name in DATASETS:
        windows = []
        for read in dataset_reads(name, count, seed_offset=100 + seed):
            chunks = chunk_read(read, WINDOW)
            if chunks:
                windows.append(chunks[0])
        per_dataset.append(windows)
    pool = [w for group in zip(*per_dataset) for w in group]
    return pool[:8 if tiny else POOL]


def deploy_point(model, bundle: str = BUNDLE, backend=None, quantise=True):
    from repro.core import deploy, get_bundle
    from repro.nn import QuantizedModel, get_quant_config

    if quantise:
        QuantizedModel(model, get_quant_config("FPP 16-16"))
    return deploy(model, get_bundle(bundle), crossbar_size=CROSSBAR,
                  write_variation=WRITE_VARIATION, seed=DEPLOY_SEED,
                  backend=backend)


def one_read(model, window, recorder=None):
    """Basecall one window, then align it against its true bases."""
    from repro.basecaller import basecall_signal
    from repro.genomics import read_accuracy

    called = basecall_signal(model, window.signal)
    with recorder.span("genomics.align") if recorder else nullcontext():
        return called, read_accuracy(called, window.target)


def _setup(seed: int, tiny: bool):
    """Inputs, weights, quantise + deploy, warm-up read."""
    start = now()
    pool = make_pool(seed, tiny)
    model = load_baseline()
    deploy_start = now()
    deployed = deploy_point(model)
    deploy_s = now() - deploy_start
    one_read(model, pool[0])
    return now() - start, deploy_s, pool, model, deployed


def _bank_kinds(deployed) -> dict[int, str]:
    """Span name per crossbar bank: LSTM input projection / recurrence."""
    kinds = {}
    for name, banks in deployed.banks.items():
        for slot, bank in enumerate(banks):
            if name.startswith("lstm"):
                kind = "lstm_input_proj" if slot == 0 else "lstm_recurrence"
            else:
                kind = "vmm_other"
            kinds[id(bank)] = f"crossbar.{kind}"
    return kinds


def _wrap_layers(recorder: SpanRecorder, deployed) -> None:
    from repro import nn
    from repro.crossbar import CrossbarBank
    from repro.reliability import HealthMonitor

    kinds = _bank_kinds(deployed)
    recorder.wrap(nn.Conv1d, "forward", "nn.conv")
    recorder.wrap(nn.LSTM, "forward", "nn.lstm")
    recorder.wrap(nn.Linear, "forward", "nn.linear")
    recorder.wrap(CrossbarBank, "vmm", "crossbar.vmm",
                  name_of=lambda bank, *args: kinds[id(bank)])
    recorder.wrap(HealthMonitor, "check_array", "reliability.health")
    recorder.wrap(nn, "greedy_decode", "basecaller.decode")


def _timed_reads(model, pool, seconds: float, recorder=None):
    """Basecall + align pool windows in order until ``seconds`` pass.

    With a ``recorder`` each read is an ``evaluate.read`` span, and the
    program's own spans of each read are drained and summed per name.
    """
    from repro.observability import get_tracer

    walls, calls, identities, stages = [], [], [], []
    tracer = get_tracer()
    start = now()
    while now() - start < seconds or len(walls) < MIN_OPS:
        window = pool[len(walls) % len(pool)]
        if recorder is not None:
            recorder.op = len(walls)
            tracer.drain()
        t0 = now()
        with recorder.span("evaluate.read") if recorder else nullcontext():
            called, identity = one_read(model, window, recorder)
        walls.append(now() - t0)
        if recorder is not None:
            stages.append(program_span_self(tracer.drain()))
        calls.append(called)
        identities.append(identity)
    return walls, calls, identities, stages


def _traced_reads(model, deployed, pool, seconds: float):
    """:func:`_timed_reads` with every layer wrapped and tracing on."""
    recorder = SpanRecorder()
    _wrap_layers(recorder, deployed)
    os.environ["SWORDFISH_TRACE"] = "1"
    try:
        walls, _, _, stages = _timed_reads(model, pool, seconds, recorder)
    finally:
        recorder.unwrap_all()
        os.environ["SWORDFISH_TRACE"] = "0"
    return walls, stages, recorder


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------

def check_loop_equal(batched_calls, loop_calls) -> None:
    for i, (a, b) in enumerate(zip(batched_calls, loop_calls)):
        check(np.array_equal(a, b),
              f"read {i}: batched and loop backends disagree "
              f"({len(a)} vs {len(b)} bases)")


def check_ideal(deployed_logits: np.ndarray, ref_logits: np.ndarray) -> float:
    check(deployed_logits.shape == ref_logits.shape,
          f"ideal logits shape {deployed_logits.shape} != reference "
          f"{ref_logits.shape}")
    gap = float(np.max(np.abs(deployed_logits - ref_logits)))
    check(gap <= IDEAL_ATOL,
          f"ideal-bundle logits differ from the NumPy forward by {gap:.3g} "
          f"(> {IDEAL_ATOL})")
    return gap


def check_accuracy(combined: np.ndarray, digital: np.ndarray) -> None:
    check(bool(np.all((combined >= 0) & (combined <= 1))),
          "identity outside [0, 1]")
    check(float(digital.mean()) >= DIGITAL_FLOOR,
          f"digital mean identity {digital.mean():.3f} below the floor "
          f"{DIGITAL_FLOOR}")
    check(float(combined.mean()) < float(digital.mean()),
          f"combined mean identity {combined.mean():.3f} is not below "
          f"digital {digital.mean():.3f}")


def check_vmm_within_crossbar(per_op, stages) -> None:
    """The program's ``vmm`` spans of a read lie inside its bank calls.

    Every engine ``vmm`` span runs inside a ``CrossbarBank.vmm`` call,
    so per read their summed time cannot exceed the summed duration of
    the bank calls; if it does, the program's spans were drained into
    the wrong read or bank calls went unwrapped.
    """
    for entry, stage in zip(per_op, stages):
        engine = sum(stage.values())
        banks = sum(entry["total"].get(k, 0.0) for k in BANK_SPANS)
        check(engine <= banks + SPAN_SLACK_S,
              f"read {entry['op']}: program vmm spans {engine * 1e3:.3f} ms "
              f"exceed its crossbar bank calls {banks * 1e3:.3f} ms")


def _run_checks(pool, calls, identities) -> None:
    from repro import nn
    from repro.genomics import read_accuracy
    from reference import bonito_logits, greedy_bases

    # Loop (per-tile reference) backend on a fresh deploy: warm-up read
    # first, so the tile RNG streams are where the timed run had them.
    loop_model = load_baseline()
    deploy_point(loop_model, backend="loop")
    one_read(loop_model, pool[0])
    loop_calls = [one_read(loop_model, w)[0] for w in pool[:LOOP_READS]]
    check_loop_equal(calls[:LOOP_READS], loop_calls)

    # Ideal bundle vs the plain-NumPy forward of the same weights.
    ideal_model = load_baseline()
    state = {k: v.copy() for k, v in ideal_model.state_dict().items()}
    deploy_point(ideal_model, bundle="ideal", quantise=False)
    signal = pool[0].signal
    with nn.no_grad():
        deployed = ideal_model(nn.Tensor(signal[None, :])).data[0]
    gap = check_ideal(deployed, bonito_logits(state, ideal_model.config,
                                              signal))

    # Accuracy: digital (NumPy forward) vs combined on the same reads.
    seen = min(len(calls), len(pool))
    digital = np.array([
        read_accuracy(greedy_bases(bonito_logits(state, ideal_model.config,
                                                 w.signal)), w.target)
        for w in pool[:seen]])
    combined = np.array(identities[:seen])
    check_accuracy(combined, digital)
    log(f"evaluate checks: loop==batched on {LOOP_READS} reads, ideal gap "
        f"{gap:.2e}, identity combined {combined.mean():.3f} < digital "
        f"{digital.mean():.3f}")


def run(seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    setups = [_setup(seed, tiny) for _ in range(SETUP_REPEATS)]
    setup_s = median(s[0] for s in setups)
    deploy_ms = median(s[1] for s in setups) * 1e3
    _, _, pool, model, deployed = setups[-1]
    del setups

    # The traced run times an untraced half first (its outputs are the
    # ones checked), then the same reads again, traced.
    length = seconds / 2 if trace else seconds
    walls, calls, identities, _ = _timed_reads(model, pool, length)
    rss = self_peak_rss_mb()     # before the checks deploy their own
    untraced = []
    if trace:
        untraced = walls
        walls, stages, recorder = _traced_reads(model, deployed, pool, length)

    _run_checks(pool, calls, identities)
    n_fp = min(len(calls), FINGERPRINT_READS)
    print(f"fingerprint evaluate weights={state_digest(load_baseline())} "
          f"basecalls={digest(*calls[:n_fp])} "
          f"identities={digest(*identities[:n_fp])} reads={n_fp}")
    ops = len(walls)
    result = {"correct": True, "attempted": ops + len(untraced), "failed": 0}
    if not trace:
        result["metrics"] = {
            "ops_per_s": metric(ops / float(np.sum(walls)), "1/s"),
            "op_p50_ms": metric(median(walls) * 1e3, "ms"),
            "peak_rss_mb": metric(rss, "MB"),
            "setup_s": metric(setup_s, "s"),
        }
        return result

    per_op = self_times(recorder.spans, "evaluate.read")
    check_vmm_within_crossbar(per_op, stages)

    def per_read(name):
        return median(e["self"].get(name, 0.0) * 1e3 for e in per_op)

    vmm_ms = [sum(e["self"].get(k, 0.0) for k in BANK_SPANS) * 1e3
              for e in per_op]
    vmm_calls = [sum(e["count"].get(k, 0) for k in BANK_SPANS)
                 for e in per_op]
    for i, e in enumerate(per_op):
        log(f"read {i}: wall {e['wall'] * 1e3:.2f} ms, unattributed "
            f"{e['unattributed'] * 1e3:.2f} ms")
    values = {
        "core.deploy_ms": deploy_ms,
        "nn.conv_ms": per_read("nn.conv"),
        "nn.lstm_ms": per_read("nn.lstm"),
        "nn.linear_ms": per_read("nn.linear"),
        "crossbar.lstm_input_proj_ms": per_read("crossbar.lstm_input_proj"),
        "crossbar.lstm_recurrence_ms": per_read("crossbar.lstm_recurrence"),
        "crossbar.vmm_ms": median(vmm_ms),
    }
    for stage in VMM_STAGES:
        values[f"vmm.{stage}_ms"] = median(
            s.get(f"vmm.{stage}", 0.0) * 1e3 for s in stages)
    values["vmm.engine_self_ms"] = median(s.get("vmm", 0.0) * 1e3
                                          for s in stages)
    values["reliability.health_ms"] = per_read("reliability.health")
    values["basecaller.decode_ms"] = per_read("basecaller.decode")
    values["genomics.align_ms"] = per_read("genomics.align")
    values["evaluate.unattributed_ms"] = median(
        e["unattributed"] * 1e3 for e in per_op)
    result["metrics"] = {k: metric(v, "ms") for k, v in values.items()}
    result["metrics"]["crossbar.vmm_calls"] = metric(median(vmm_calls),
                                                     "count")
    result["metrics"]["crossbar.vmm_us_per_call"] = metric(
        float(np.sum(vmm_ms)) * 1e3 / float(np.sum(vmm_calls)), "us")
    result["metrics"]["evaluate.trace_overhead_ratio"] = metric(
        median(walls) / median(untraced), "ratio")
    return result
