"""Retrain the benchmark's baseline weights and print their digest.

    python3 perfbench/train_weights.py            # writes weights/baseline.npz
    python3 perfbench/train_weights.py --check    # retrain, compare, write nothing

Trains the default ``BonitoConfig`` with the default ``TrainConfig`` on
``make_training_chunks()`` (400 chunks), exactly as
``repro.basecaller.train_default_model`` does, with every thread pool
pinned to one thread so the result is deterministic.  Takes about five
and a half minutes on one core.
"""

from __future__ import annotations

import argparse
import tempfile
import time
from pathlib import Path

import common  # noqa: F401  (pins threads, clears SWORDFISH_*, sets sys.path)
from common import (WEIGHTS, apply_env, hermetic_env, load_baseline, log,
                    state_digest)


def train_baseline():
    from repro.basecaller import (BonitoConfig, BonitoModel, TrainConfig,
                                  make_training_chunks, train_model)

    model = BonitoModel(BonitoConfig())
    chunks = make_training_chunks(num_chunks=400)
    start = time.perf_counter()
    losses = train_model(
        model, chunks, TrainConfig(),
        progress=lambda e, l: log(f"epoch {e}: loss {l:.4f} "
                                  f"({time.perf_counter() - start:.0f} s)"))
    model.eval()
    return model, losses


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="retrain and compare with the committed "
                             "weights instead of overwriting them")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        apply_env(hermetic_env(Path(tmp)))
        model, losses = train_baseline()
    from repro import nn

    fresh = state_digest(model)
    print(f"params {model.num_parameters()}  final loss {losses[-1]:.4f}")
    print(f"weights digest {fresh}")
    if args.check:
        committed = state_digest(load_baseline())
        print(f"committed digest {committed}")
        return 0 if committed == fresh else 1
    nn.save_checkpoint(model, WEIGHTS, metadata={
        "config": model.config.cache_key(), "epochs": len(losses),
        "num_chunks": 400, "digest": fresh})
    print(f"wrote {WEIGHTS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
