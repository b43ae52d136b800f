"""``serve``: ``python -m repro.serve`` under a closed-loop client.

The server hosts the committed baseline at the serve default design
point (``write_only`` on 64x64 crossbars) with one worker, in its own
process.  One ``ServeClient`` connection runs a closed loop: it keeps
``OUTSTANDING`` requests in flight and submits the next one only when a
response arrives.  Requests are fixed-length windows cut from held-out
D1-D4 reads at a few window lengths, in runs of equal length, so
requests in flight together can stack into one forward.  An op is one
request, timed from its submit to its response.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np

from common import (WEIGHTS, check, digest, hermetic_env, load_baseline, log,
                    median, metric, now, percentile, proc_peak_rss_mb,
                    state_digest)

WINDOW_LENGTHS = (384, 512, 640)
#: Windows per length in the request pool.
PER_LENGTH = 8
#: Requests the closed-loop client keeps in flight.
OUTSTANDING = 4
SETUP_REPEATS = 3
MIN_OPS = 8
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
#: The served model's architecture (the default ``BonitoConfig``).
MODEL_ARGS = ["--conv-channels", "16,32", "--lstm-hidden", "48",
              "--num-lstm-layers", "2", "--model-seed", "2024"]

#: Per-layer metrics of the traced run (server-side ones scraped over
#: the protocol's ``metrics`` op).
PER_LAYER = {"serve.queue_ms": "ms", "serve.compute_ms": "ms",
             "serve.overhead_ms": "ms", "serve.client_submit_us": "us",
             "serve.batch_occupancy": "reads", "serve.stack_size": "reads",
             "crossbar.vmm_rows_per_call": "rows",
             "crossbar.vmm_calls_per_request": "count",
             "serve.latency_p90_ms": "ms",
             "serve.trace_overhead_ratio": "ratio"}


def make_pool(seed: int, tiny: bool) -> list[np.ndarray]:
    """Request signals, in runs of equal length."""
    from repro.genomics import dataset_reads

    per_length = OUTSTANDING if tiny else PER_LENGTH
    need = per_length * len(WINDOW_LENGTHS)
    longest = max(WINDOW_LENGTHS)
    reads = []
    for name in ("D1", "D2", "D3", "D4"):
        reads += [r for r in dataset_reads(name, need,
                                           seed_offset=200 + seed)
                  if r.num_samples >= longest]
    # Interleave datasets, then cut one window per read.
    reads.sort(key=lambda r: (int(r.read_id.rsplit("_", 1)[1]), r.read_id))
    if len(reads) < need:
        raise RuntimeError(f"only {len(reads)} reads long enough for the "
                           f"request pool of {need}")
    pool = []
    for k, length in enumerate(WINDOW_LENGTHS):
        for read in reads[k * per_length:(k + 1) * per_length]:
            pool.append(np.array(read.signal[:length], dtype=np.float64))
    return pool


class Server:
    """One ``python -m repro.serve`` process."""

    def __init__(self, run_dir: Path, trace_file: Path | None = None):
        extra = {"SWORDFISH_TRACE": str(trace_file)} if trace_file else {}
        self.log_path = run_dir / f"serve-{now():.6f}.log"
        self._log = open(self.log_path, "wb")
        cmd = [sys.executable, "-m", "repro.serve", "--checkpoint",
               str(WEIGHTS), *MODEL_ARGS, "--workers", "1",
               "--host", "127.0.0.1", "--port", "0"]
        self.proc = subprocess.Popen(cmd, env=hermetic_env(run_dir, **extra),
                                     stdout=subprocess.PIPE,
                                     stderr=self._log)
        self.host, self.port = self._wait_listening()

    def _wait_listening(self) -> tuple[str, int]:
        deadline = now() + START_TIMEOUT_S
        buffer = b""
        while now() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    break
                buffer += chunk
                match = re.search(rb"listening on ([\d.]+):(\d+)", buffer)
                if match:
                    return match.group(1).decode(), int(match.group(2))
            elif self.proc.poll() is not None:
                break
        self.stop()
        raise RuntimeError(f"server did not start; see {self.log_path}: "
                           f"{self.log_path.read_text()[-2000:]}")

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def _start(run_dir: Path, pool, trace_file=None):
    """Server up, client connected, one warm-up request answered."""
    from repro.serve import ServeClient

    start = now()
    server = Server(run_dir, trace_file)
    client = None
    try:
        client = ServeClient(server.host, server.port)
        response = client.basecall("warmup", pool[0])
        check(response.get("status") == "ok", f"warm-up failed: {response}")
    except BaseException:
        if client is not None:
            client.close()
        server.stop()
        raise
    return now() - start, server, client


def closed_loop(client, pool, seconds: float):
    """Keep ``OUTSTANDING`` requests in flight until ``seconds`` pass.

    The next request is submitted as soon as a response arrives; once
    the time is up no more are submitted and the window drains.  A
    request's latency runs from just before its submit to its response.
    """
    in_flight: dict[str, tuple[int, float]] = {}
    latencies, submit_s, responses = [], [], []
    sent = 0

    def submit() -> None:
        nonlocal sent
        read_id, index = f"r{sent}", sent % len(pool)
        t0 = now()
        client.submit(read_id, pool[index])
        submit_s.append(now() - t0)
        in_flight[read_id] = (index, t0)
        sent += 1

    start = now()
    for _ in range(OUTSTANDING):
        submit()
    while in_flight:
        response = client.recv()
        index, t0 = in_flight.pop(response.get("id"))
        latencies.append(now() - t0)
        responses.append((index, response))
        if now() - start < seconds or sent < MIN_OPS:
            submit()
    return now() - start, latencies, submit_s, responses


def parse_prometheus(text: str) -> dict[str, float]:
    """``name{labels}`` -> value for every sample line."""
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            values[key] = float(value)
    return values


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------

def offline_bases(pool):
    """``basecall_signal`` on a fresh deploy with the serve design point.

    Returns the expected bases per pool window and the model.
    """
    from repro.basecaller import basecall_signal
    from repro.core import deploy, get_bundle
    from repro.serve.engine import EngineConfig

    config = EngineConfig()
    model = load_baseline()
    deployed = deploy(model, get_bundle(config.bundle),
                      crossbar_size=config.crossbar_size,
                      write_variation=config.write_variation,
                      use_wrv=config.use_wrv, seed=config.seed,
                      backend=config.backend)
    epoch = deployed.rng_snapshot()
    bases = []
    for signal_ in pool:
        deployed.rng_restore(epoch)   # what a fresh deploy() starts from
        bases.append("".join("ACGT"[c] for c in basecall_signal(model,
                                                                 signal_)))
    return bases, model


def check_responses(responses, pool, expected: list[str], frames_for) -> None:
    for index, response in responses:
        check(response.get("status") == "ok",
              f"request {response.get('id')} failed: {response}")
        frames = frames_for(len(pool[index]))
        check(response.get("frames") == frames,
              f"request {response.get('id')}: frames "
              f"{response.get('frames')} != frames_for -> {frames}")
        check(response.get("bases") == expected[index],
              f"request {response.get('id')}: served bases differ from the "
              f"offline basecall of the same window")


def overheads(responses, latencies) -> list[float]:
    """Per request: client latency - the server's own latency (s).

    The server's ``latency_ms`` runs from enqueueing the read to
    formatting its response (queue wait plus the compute of the batch
    it rode in); the rest is framing, transport and the event loop.
    """
    rest = []
    for i, ((_, resp), wall) in enumerate(zip(responses, latencies)):
        rest.append(wall - resp["latency_ms"] / 1e3)
        log(f"request {i}: wall {wall * 1e3:.2f} ms = queue "
            f"{resp['queue_ms']:.2f} + compute "
            f"{resp['latency_ms'] - resp['queue_ms']:.2f} + "
            f"unattributed {rest[-1] * 1e3:.2f}")
    return rest


def _phase(run_dir, pool, seconds, trace_file=None, repeats=1):
    """Start (``repeats`` times, keeping the last), load, scrape, stop."""
    setups = []
    for i in range(repeats):
        setup_s, server, client = _start(run_dir, pool, trace_file)
        setups.append(setup_s)
        if i < repeats - 1:
            client.close()
            server.stop()
    try:
        wall, latencies, submit_s, responses = closed_loop(client, pool,
                                                           seconds)
        scrape = parse_prometheus(client.metrics())
        rss = server.peak_rss_mb()
    finally:
        client.close()
        server.stop()
    return {"setup_s": median(setups), "wall": wall, "latencies": latencies,
            "submit_s": submit_s, "responses": responses, "scrape": scrape,
            "rss": rss}


def run(seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    run_dir = Path(os.environ["TMPDIR"])
    pool = make_pool(seed, tiny)
    if trace:
        untraced = _phase(run_dir, pool, seconds / 2)
        trace_file = run_dir / "serve-trace.jsonl"
        phase = _phase(run_dir, pool, seconds / 2, trace_file=trace_file)
    else:
        phase = _phase(run_dir, pool, seconds, repeats=SETUP_REPEATS)

    expected, model = offline_bases(pool)
    checked = untraced if trace else phase
    check_responses(checked["responses"], pool, expected, model.frames_for)
    if trace:
        check_responses(phase["responses"], pool, expected, model.frames_for)
    print(f"fingerprint serve weights={state_digest(model)} "
          f"bases={digest(*expected)} windows={len(pool)}")
    latencies = phase["latencies"]
    ops = len(latencies)
    attempted = ops + (len(untraced["latencies"]) if trace else 0)
    result = {"correct": True, "attempted": attempted, "failed": 0}
    if not trace:
        result["metrics"] = {
            "ops_per_s": metric(ops / phase["wall"], "1/s"),
            "op_p50_ms": metric(median(latencies) * 1e3, "ms"),
            "peak_rss_mb": metric(phase["rss"], "MB"),
            "setup_s": metric(phase["setup_s"], "s"),
        }
        return result

    scrape = phase["scrape"]

    def p50(name):
        return scrape[f'swordfish_{name}{{quantile="0.5"}}']

    def mean(name):
        return (scrape[f"swordfish_{name}_sum"]
                / scrape[f"swordfish_{name}_count"])

    queue_p50, compute_p50 = p50("serve_queue_ms"), p50("serve_compute_ms")
    responses = scrape["swordfish_serve_responses_total"]
    rest = [r * 1e3 for r in overheads(phase["responses"], latencies)]
    values = {
        "serve.queue_ms": (queue_p50, "ms"),
        "serve.compute_ms": (compute_p50, "ms"),
        "serve.overhead_ms": (median(rest), "ms"),
        "serve.client_submit_us": (median(phase["submit_s"]) * 1e6, "us"),
        "serve.batch_occupancy": (mean("serve_batch_occupancy"), "reads"),
        "serve.stack_size": (mean("serve_stack_size"), "reads"),
        "crossbar.vmm_rows_per_call": (mean("vmm_batch"), "rows"),
        "crossbar.vmm_calls_per_request": (
            scrape["swordfish_vmm_calls_total"] / responses, "count"),
        "serve.latency_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "serve.trace_overhead_ratio": (
            median(latencies) / median(untraced["latencies"]), "ratio"),
    }
    result["metrics"] = {k: metric(v, u) for k, (v, u) in values.items()}
    return result
