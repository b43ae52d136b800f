"""``sweep``: Fig. 14's analytical throughput grid through ``SweepRunner``.

Every accelerator variant x several crossbar sizes runs as one job of
``repro.experiments.fig14_throughput:evaluate_variant`` on a runner
with two local worker processes.  Each cold pass gets a fresh result
cache, journal and telemetry file, and is followed by a warm replay on
the same cache.  An op is one job of a cold pass, timed from its
``start`` to its ``finish`` telemetry event.
"""

from __future__ import annotations

import json
import os
import resource
from pathlib import Path

import numpy as np

from common import check, digest, log, median, metric, now, self_peak_rss_mb

VARIANTS = ("ideal", "rvw", "rsa", "rsa_kd")
SIZES = (32, 64, 128, 256, 512)
WORKERS = 2
SETUP_REPEATS = 3
JOB_FN = "repro.experiments.fig14_throughput:evaluate_variant"

#: Per-layer metrics of the traced run.
PER_LAYER = {"runtime.job_ms": "ms", "runtime.overhead_ms": "ms",
             "runtime.first_dispatch_ms": "ms", "runtime.replay_ms": "ms",
             "runtime.cache_hits": "count",
             "sweep.trace_overhead_ratio": "ratio"}


def make_plan(seed: int, tiny: bool):
    """The variant x size grid, in a seed-shuffled order."""
    from repro.basecaller import BonitoModel
    from repro.basecaller.model import BONITO_PAPER_CONFIG
    from repro.core import SystemEvaluator
    from repro.experiments.common import DATASETS
    from repro.runtime import Job, SweepPlan

    gpu_kbps = SystemEvaluator().gpu_baseline(BonitoModel(BONITO_PAPER_CONFIG))
    sizes = SIZES[:2] if tiny else SIZES
    grid = [(v, s) for v in VARIANTS for s in sizes]
    order = np.random.default_rng(seed).permutation(len(grid))
    jobs = [Job(fn=JOB_FN,
                kwargs={"variant": grid[i][0], "crossbar_size": grid[i][1],
                        "datasets": tuple(DATASETS), "gpu_kbps": gpu_kbps},
                tag=f"fig14/{grid[i][0]}/{grid[i][1]}")
            for i in order]
    return SweepPlan("perfbench_fig14", jobs)


class EventClock:
    """Telemetry hook: local clock time of every ``start``/``finish``."""

    def __init__(self) -> None:
        self.start: dict[str, float] = {}
        self.finish: dict[str, float] = {}
        self.wall_s: dict[str, float] = {}

    def __call__(self, event: dict) -> None:
        kind = event.get("event")
        if kind == "start":
            self.start[event["key"]] = now()
        elif kind == "finish":
            self.finish[event["key"]] = now()
            self.wall_s[event["key"]] = float(event["wall_s"])


def one_pass(plan, run_dir: Path, label: str, cache_dir: Path | None = None):
    """Run ``plan`` on a fresh runner; returns the result and timings."""
    from repro.runtime import SweepRunner, Telemetry

    clock = EventClock()
    telemetry = Telemetry()
    telemetry.subscribe(clock)
    runner = SweepRunner(workers=WORKERS,
                         cache=cache_dir or run_dir / f"cache-{label}",
                         telemetry=telemetry,
                         telemetry_path=run_dir / f"telemetry-{label}.jsonl",
                         journal=run_dir / f"journal-{label}.jsonl")
    t0 = now()
    result = runner.run(plan)
    wall = now() - t0
    first_start = min(clock.start.values(), default=t0)
    return {"result": result, "wall": wall, "clock": clock,
            "first_dispatch": first_start - t0,
            "journal": run_dir / f"journal-{label}.jsonl"}


def _setup(seed: int, tiny: bool, run_dir: Path, k: int):
    """Plan inputs, then one warm-up job through a fresh runner."""
    from repro.runtime import SweepPlan

    start = now()
    plan = make_plan(seed, tiny)
    warm = SweepPlan("perfbench_warmup", plan.jobs[:1])
    outcome = one_pass(warm, run_dir, f"warmup{k}")["result"]
    check(outcome.ok, "warm-up job failed")
    return now() - start, plan


def _passes(plan, run_dir: Path, seconds: float, label: str):
    """Cold pass + warm replay, repeated until ``seconds`` of cold time."""
    passes = []
    cold_time = 0.0
    while cold_time < seconds or not passes:
        k = f"{label}{len(passes)}"
        cold = one_pass(plan, run_dir, k)
        cold_time += cold["wall"]
        replay = one_pass(plan, run_dir, f"{k}-replay",
                          cache_dir=run_dir / f"cache-{k}")
        passes.append((cold, replay))
    return passes


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------

def check_pass(plan, cold, replay, direct: dict[str, object]) -> None:
    """Values vs direct calls; replay all hits; telemetry and journal."""
    from repro.reliability import RunJournal

    n = len(plan.jobs)
    result = cold["result"]
    check(result.ok, "a cold-pass job failed")
    for job, outcome in zip(plan.jobs, result.outcomes):
        if job.tag in direct:
            check(_canon(outcome.value) == _canon(direct[job.tag]),
                  f"{job.tag}: runner value differs from a direct call")
    again = replay["result"]
    check(all(o.cache_hit for o in again.outcomes),
          "warm replay was not all cache hits")
    check([_canon(v) for v in again.values]
          == [_canon(v) for v in result.values],
          "warm replay values differ from the cold pass")
    for label, res, hits in (("cold", result, 0), ("replay", again, n)):
        s = res.summary
        check(s["cache_hits"] + s["cache_misses"] + s["failed"] == n,
              f"{label} telemetry: hits + misses + failures != {n} jobs")
        check(s["cache_hits"] == hits,
              f"{label} telemetry: {s['cache_hits']} hits, expected {hits}")
    _, records = RunJournal(cold["journal"]).load()
    terminal = {r["key"] for r in records
                if r.get("event") == "job" and r.get("status") == "ok"}
    keys = set(cold["clock"].finish)
    check(len(keys) == n and keys <= terminal,
          f"journal has terminal records for {len(keys & terminal)} of "
          f"{n} jobs")


def _canon(value) -> str:
    return json.dumps(value, sort_keys=True, default=str)


def direct_values(plan, seed: int) -> dict[str, object]:
    """In-process calls of the job function, one job per variant."""
    from repro.runtime import resolve_target

    fn = resolve_target(JOB_FN)
    rng = np.random.default_rng(seed + 1)
    by_variant: dict[str, list] = {}
    for job in plan.jobs:
        by_variant.setdefault(job.kwargs["variant"], []).append(job)
    picks = [group[int(rng.integers(len(group)))]
             for group in by_variant.values()]
    return {job.tag: fn(**job.kwargs) for job in picks}


def _children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _job_times(passes) -> list[float]:
    times = []
    for cold, _ in passes:
        clock = cold["clock"]
        times += [clock.finish[k] - clock.start[k] for k in clock.finish]
    return times


def run(seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    run_dir = Path(os.environ["TMPDIR"])
    setups = [_setup(seed, tiny, run_dir, k) for k in range(SETUP_REPEATS)]
    setup_s = median(s[0] for s in setups)
    plan = setups[-1][1]

    untraced = []
    if trace:
        untraced = _passes(plan, run_dir, seconds / 2, "u")
        trace_file = run_dir / "sweep-trace.jsonl"
        os.environ["SWORDFISH_TRACE"] = str(trace_file)
        try:
            passes = _passes(plan, run_dir, seconds / 2, "t")
        finally:
            os.environ["SWORDFISH_TRACE"] = "0"
        checked = untraced + passes
    else:
        passes = _passes(plan, run_dir, seconds, "p")
        checked = passes
    # Workers are reaped at the end of each pass, so RUSAGE_CHILDREN
    # holds the largest worker; read before the in-process direct calls.
    rss = max(self_peak_rss_mb(), _children_peak_rss_mb())

    direct = direct_values(plan, seed)
    for cold, replay in checked:
        check_pass(plan, cold, replay, direct)
    values = sorted((job.tag, _canon(v)) for job, v in
                    zip(plan.jobs, checked[0][0]["result"].values))
    print(f"fingerprint sweep values={digest(*values)} jobs={len(values)}")

    jobs = len(plan.jobs)
    op_times = _job_times(passes)
    ops = len(op_times)
    attempted = ops + len(_job_times(untraced))
    result = {"correct": True, "attempted": attempted, "failed": 0}
    if not trace:
        cold_wall = sum(cold["wall"] for cold, _ in passes)
        result["metrics"] = {
            "ops_per_s": metric(ops / cold_wall, "1/s"),
            "op_p50_ms": metric(median(op_times) * 1e3, "ms"),
            "peak_rss_mb": metric(rss, "MB"),
            "setup_s": metric(setup_s, "s"),
        }
        return result

    spans = [json.loads(line) for line in trace_file.read_text().splitlines()]
    job_spans = [s["dur_s"] for s in spans if s.get("name") == "runtime.job"]
    check(len(job_spans) == ops,
          f"{len(job_spans)} runtime.job spans for {ops} jobs")
    overhead = []
    for i, (cold, replay) in enumerate(passes):
        clock = cold["clock"]
        busy = sum(clock.wall_s.values())
        overhead.append((cold["wall"] * WORKERS - busy) / jobs)
        for key in clock.finish:
            wall = clock.finish[key] - clock.start[key]
            log(f"pass {i} job {key[:8]}: wall {wall * 1e3:.2f} ms = job "
                f"{clock.wall_s[key] * 1e3:.2f} + unattributed "
                f"{(wall - clock.wall_s[key]) * 1e3:.2f}")
    hits = sum(replay["result"].summary["cache_hits"] for _, replay in passes)
    result["metrics"] = {
        "runtime.job_ms": metric(median(job_spans) * 1e3, "ms"),
        "runtime.overhead_ms": metric(median(overhead) * 1e3, "ms"),
        "runtime.first_dispatch_ms": metric(
            median(c["first_dispatch"] for c, _ in passes) * 1e3, "ms"),
        "runtime.replay_ms": metric(
            median(r["wall"] / jobs for _, r in passes) * 1e3, "ms"),
        "runtime.cache_hits": metric(hits, "count"),
        "sweep.trace_overhead_ratio": metric(
            median(op_times) / median(_job_times(untraced)), "ratio"),
    }
    return result
