"""End-to-end benchmark: ``train``, ``evaluate``, ``serve`` and ``sweep``.

    python3 perfbench/run.py --workload evaluate --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --seconds 45          # every workload in turn

Each workload runs in its own process, in a fresh run directory, with
ambient ``SWORDFISH_*`` settings cleared and thread pools pinned to one
thread.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones.  A failed
output check exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
import traceback

import common
from common import CheckFailed, emit, log, run_directory

WORKLOADS = ("train", "evaluate", "serve", "sweep")
END_TO_END = {"ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB",
              "setup_s": "s"}
#: Length of the traced phases that measure the other workloads' layers
#: during a traced run (on the same inputs as their own runs).
PROBE_SECONDS = 10.0
PROBE_TIMEOUT_S = 100


def per_layer(workload: str) -> dict[str, str]:
    return importlib.import_module(f"wl_{workload}").PER_LAYER


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all, each in "
                             "its own process)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed every input is derived from")
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="how long the timed phase measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run printing per-layer metrics")
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs (for the benchmark's tests)")
    parser.add_argument("--alone", action="store_true",
                        help="traced run of this workload only, without "
                             "the short phases of the other workloads")
    return parser


def run_all(args) -> int:
    """Every workload, each in its own process; worst exit code wins."""
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        log(f"workload {name}")
        worst = max(worst, subprocess.run(cmd, cwd=common.REPO_ROOT)
                    .returncode)
    return worst


def probe(name: str, args) -> dict:
    """Short traced run of another workload, in its own process."""
    cmd = [sys.executable, __file__, "--workload", name, "--seed",
           str(args.seed), "--seconds", str(PROBE_SECONDS), "--trace", "1",
           "--alone"] + (["--tiny"] if args.tiny else [])
    out = subprocess.run(cmd, cwd=common.REPO_ROOT, capture_output=True,
                         text=True, timeout=PROBE_TIMEOUT_S)
    sys.stderr.write(out.stderr)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"traced {name} phase failed "
                           f"(exit {out.returncode})")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def check_metric_names(result: dict, expected: dict[str, str]) -> None:
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        raise RuntimeError(f"metrics {sorted(got)} do not match "
                           f"{sorted(expected)}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("--seconds must be positive")
    if args.workload is None:
        return run_all(args)
    module = importlib.import_module(f"wl_{args.workload}")
    try:
        with run_directory():
            result = module.run(args.seed, args.seconds, bool(args.trace),
                                tiny=args.tiny)
        expected = END_TO_END
        if args.trace and args.alone:
            expected = per_layer(args.workload)
        elif args.trace:
            # Every traced run reports every layer: the other workloads'
            # layers come from a short traced phase of each.
            for name in WORKLOADS:
                if name != args.workload:
                    other = probe(name, args)
                    result["attempted"] += other["attempted"]
                    result["failed"] += other["failed"]
                    result["metrics"].update(other["metrics"])
            expected = {k: v for name in WORKLOADS
                        for k, v in per_layer(name).items()}
        check_metric_names(result, expected)
    except CheckFailed as exc:
        log(f"{args.workload}: output check failed: {exc}")
        return 1
    except Exception:  # report and fail the run, never print a result
        traceback.print_exc()
        return 1
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
