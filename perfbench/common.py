"""Shared plumbing for the end-to-end benchmark.

Import this module before NumPy: it pins the BLAS/OpenMP pools to one
thread, clears ambient ``SWORDFISH_*`` settings, and puts the checkout's
``src`` directory on the import path, so every benchmark process (and
every program process it starts) runs the same code under the same
settings.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
WEIGHTS = BENCH_DIR / "weights" / "baseline.npz"

#: Thread-pool variables pinned to one thread in every benchmark and
#: program process (load comes from the benchmark's own processes only).
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def hermetic_env(run_dir: Path, **extra: str) -> dict[str, str]:
    """Environment for program code: no ambient Swordfish settings.

    Every ``SWORDFISH_*`` variable is dropped (backend, scale, tracing,
    health policy, workers, checkpoint cadence, ...), the model cache is
    pointed into ``run_dir`` and thread pools are pinned to one thread.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SWORDFISH_") and k != "PYTHONPATH"}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC_DIR)
    env["PYTHONHASHSEED"] = "0"
    env["SWORDFISH_CACHE"] = str(run_dir / "model-cache")
    env["TMPDIR"] = str(run_dir)
    env.update(extra)
    return env


def apply_env(env: dict[str, str]) -> None:
    """Make ``env`` this process's environment."""
    os.environ.clear()
    os.environ.update(env)


# The benchmark's own process gets the same treatment at import time;
# the run directory is fixed up once a workload creates it.
for _var in THREAD_VARS:
    os.environ[_var] = "1"
for _key in [k for k in os.environ if k.startswith("SWORDFISH_")]:
    del os.environ[_key]
if not SRC_DIR.is_dir():
    raise SystemExit(f"perfbench: no program sources at {SRC_DIR}")
if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))


@contextmanager
def run_directory():
    """A fresh per-run directory inside the checkout, removed afterwards.

    The process environment is the hermetic one while the run lasts and
    is restored afterwards.
    """
    scratch = REPO_ROOT / ".perfbench-runs"
    scratch.mkdir(exist_ok=True)
    saved = dict(os.environ)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        run_dir = Path(tmp)
        apply_env(hermetic_env(run_dir))
        tempfile.tempdir = str(run_dir)
        try:
            yield run_dir
        finally:
            tempfile.tempdir = None
            apply_env(saved)


def load_baseline():
    """The committed baseline, loaded through ``nn.load_checkpoint``."""
    from repro import nn
    from repro.basecaller import BonitoConfig, BonitoModel

    model = BonitoModel(BonitoConfig())
    nn.load_checkpoint(model, WEIGHTS)
    model.eval()
    return model


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------

def digest(*parts) -> str:
    """SHA-256 over NumPy arrays, bytes, strings and numbers, in order."""
    import numpy as np

    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            arr = np.ascontiguousarray(part)
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(arr.tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        elif isinstance(part, float):
            h.update(repr(float(part)).encode())
        else:
            h.update(str(part).encode())
        h.update(b"|")
    return h.hexdigest()[:16]


def state_digest(model) -> str:
    """Digest of a model's weights (sorted state-dict entries)."""
    state = model.state_dict()
    parts = []
    for name in sorted(state):
        parts += [name, state[name]]
    return digest(*parts)


# ----------------------------------------------------------------------
# Measurement helpers
# ----------------------------------------------------------------------

def now() -> float:
    return time.perf_counter()


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return float(ordered[rank - 1])


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


class CheckFailed(AssertionError):
    """A workload's output failed one of its correctness checks."""


def check(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` unless ``condition`` holds."""
    if not condition:
        raise CheckFailed(message)


def emit(result: dict) -> None:
    """Print the final one-line JSON result."""
    sys.stdout.flush()
    print(json.dumps(result, sort_keys=False), flush=True)


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)
