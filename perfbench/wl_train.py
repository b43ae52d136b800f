"""``train``: CTC training of the default basecaller, one epoch per op.

The default ``BonitoConfig`` trains from its seeded initialisation
through ``basecaller.train_model`` on a fixed chunk set from
``make_training_chunks`` (seeded by the benchmark seed).  Epoch
boundaries come from the public ``progress`` callback; the run stops
the loop from that callback once the measuring time is up.
"""

from __future__ import annotations

import numpy as np

from common import (check, digest, log, median, metric, now,
                    self_peak_rss_mb, state_digest)
from spans import SpanRecorder, self_times

#: Chunks in the training set and per batch: 3 steps per epoch.
NUM_CHUNKS = 48
BATCH = 16
CHUNK_SAMPLES = 256
#: Epoch cap handed to ``TrainConfig`` (fixes the LR schedule; the run
#: stops long before it).
EPOCH_CAP = 200
SETUP_REPEATS = 3
MIN_OPS = 3
#: Losses of this many timed epochs make the output fingerprint.
FINGERPRINT_EPOCHS = 3
#: Finite-difference gradient check: chunks in the batch, entries sampled.
GRAD_BATCH = 2
GRAD_PICKS = 8
GRAD_RTOL = 1e-4
GRAD_ATOL = 1e-6

#: Per-layer metrics of the traced run (values per training step).
PER_LAYER = {"nn.forward_ms": "ms", "nn.lstm_forward_ms": "ms",
             "nn.ctc_loss_ms": "ms", "nn.backward_ms": "ms",
             "nn.optim_ms": "ms", "basecaller.train_other_ms": "ms",
             "train.trace_overhead_ratio": "ratio"}


class _Stop(Exception):
    """Raised from the progress callback to end the training loop."""


def _setup(seed: int, tiny: bool):
    """Chunk set, then the warm-up op; returns (seconds, chunks)."""
    from repro.basecaller import (BonitoConfig, BonitoModel, TrainConfig,
                                  make_training_chunks, train_model)

    start = now()
    chunks = make_training_chunks(
        num_chunks=NUM_CHUNKS, chunk_samples=CHUNK_SAMPLES,
        genome_size=20_000 if tiny else 60_000, seed=10_000 + seed)
    # The untimed warm-up op: one epoch on a throwaway copy.
    train_model(BonitoModel(BonitoConfig()), chunks,
                TrainConfig(epochs=1, batch_size=BATCH))
    return now() - start, chunks


def _train(chunks, seconds: float, recorder: SpanRecorder | None):
    """Train from the seeded init until ``seconds`` pass; per-epoch data."""
    from repro.basecaller import (BonitoConfig, BonitoModel, TrainConfig,
                                  train_model)

    model = BonitoModel(BonitoConfig())
    init_digest = state_digest(model)
    bounds: list[float] = []
    losses: list[float] = []

    def progress(epoch: int, loss: float) -> None:
        bounds.append(now())
        losses.append(loss)
        if recorder is not None:
            recorder.end_op("train.epoch")
        if bounds[-1] - bounds[0] >= seconds and len(losses) >= MIN_OPS:
            raise _Stop
        if recorder is not None:
            recorder.begin_op(len(losses))

    config = TrainConfig(epochs=EPOCH_CAP, batch_size=BATCH)
    if recorder is not None:
        recorder.begin_op(0)
    bounds.append(now())
    try:
        train_model(model, chunks, config, progress=progress)
    except _Stop:
        pass
    model.eval()
    return model, init_digest, np.diff(bounds), losses


def _wrap_layers(recorder: SpanRecorder) -> None:
    from repro import nn
    from repro.basecaller import BonitoModel

    recorder.wrap(BonitoModel, "forward", "nn.forward")
    recorder.wrap(nn.LSTM, "forward", "nn.lstm_forward")
    recorder.wrap(nn, "ctc_loss", "nn.ctc_loss")
    recorder.wrap(nn.Tensor, "backward", "nn.backward")
    recorder.wrap(nn, "clip_grad_norm", "nn.optim")
    recorder.wrap(nn.Adam, "step", "nn.optim")
    recorder.wrap(nn.LinearWarmup, "step", "nn.optim")
    recorder.wrap(nn.CosineSchedule, "step", "nn.optim")


def gradient_check(model, chunks, seed: int):
    """Analytic ``backward()`` gradients vs central differences."""
    from repro import nn

    batch = chunks[:GRAD_BATCH]
    signals = nn.Tensor(np.stack([c.signal for c in batch]))
    targets = [c.target.astype(np.int64) + 1 for c in batch]
    params = list(model.parameters())
    model.zero_grad()
    nn.ctc_loss(model(signals), targets).backward()
    rng = np.random.default_rng(seed)
    picks = []
    for p in rng.choice(len(params), size=GRAD_PICKS, replace=True):
        shape = params[p].data.shape
        picks.append((int(p), tuple(int(rng.integers(n)) for n in shape)))
    analytic = np.array([params[p].grad[idx] for p, idx in picks])

    def loss_at() -> float:
        with nn.no_grad():
            return float(nn.ctc_loss(model(signals), targets).data)

    from reference import central_difference
    numeric = central_difference(loss_at, [q.data for q in params], picks)
    return analytic, numeric


def check_gradients(analytic: np.ndarray, numeric: np.ndarray) -> None:
    bad = ~np.isclose(analytic, numeric, rtol=GRAD_RTOL, atol=GRAD_ATOL)
    check(not bad.any(),
          f"backward() gradients disagree with central differences at "
          f"{np.flatnonzero(bad).tolist()}: {analytic[bad]} vs "
          f"{numeric[bad]}")


def check_losses(losses: list[float]) -> None:
    check(all(np.isfinite(losses)), f"non-finite epoch loss: {losses}")
    check(losses[-1] < losses[0],
          f"last epoch loss {losses[-1]:.4f} is not below the first "
          f"{losses[0]:.4f}")


def run(seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    setups = [_setup(seed, tiny) for _ in range(SETUP_REPEATS)]
    setup_s = median(s[0] for s in setups)
    chunks = setups[-1][1]
    del setups

    recorder = None
    untraced = []
    if trace:
        # Untraced half first, then the same epochs again traced.
        _, _, untraced, _ = _train(chunks, seconds / 2, None)
        recorder = SpanRecorder()
        _wrap_layers(recorder)
        seconds = seconds / 2
    try:
        model, init_digest, walls, losses = _train(chunks, seconds, recorder)
    finally:
        if recorder is not None:
            recorder.unwrap_all()
    rss = self_peak_rss_mb()     # before the checks allocate their own

    check_losses(losses)
    analytic, numeric = gradient_check(model, chunks, seed)
    check_gradients(analytic, numeric)
    print(f"fingerprint train weights={init_digest} "
          f"losses={digest(*losses[:FINGERPRINT_EPOCHS])} "
          f"epochs={len(losses)} first_loss={losses[0]:.6f}")
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

    per_op = self_times(recorder.spans, "train.epoch")
    steps = NUM_CHUNKS // BATCH
    totals = {name: [e["self"].get(name, 0.0) * 1e3 / steps for e in per_op]
              for name in ("nn.forward", "nn.lstm_forward", "nn.ctc_loss",
                           "nn.backward", "nn.optim")}
    other = [e["unattributed"] * 1e3 / steps for e in per_op]
    for i, e in enumerate(per_op):
        log(f"epoch {i}: wall {e['wall'] * 1e3:.1f} ms, unattributed "
            f"{e['unattributed'] * 1e3:.1f} ms")
    metrics = {
        "nn.forward_ms": median(np.add(totals["nn.forward"],
                                       totals["nn.lstm_forward"])),
        "nn.lstm_forward_ms": median(totals["nn.lstm_forward"]),
        "nn.ctc_loss_ms": median(totals["nn.ctc_loss"]),
        "nn.backward_ms": median(totals["nn.backward"]),
        "nn.optim_ms": median(totals["nn.optim"]),
        "basecaller.train_other_ms": median(other),
    }
    result["metrics"] = {k: metric(v, "ms") for k, v in metrics.items()}
    result["metrics"]["train.trace_overhead_ratio"] = metric(
        median(walls) / median(untraced), "ratio")
    return result


