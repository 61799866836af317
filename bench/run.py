"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload pair_composite --seed 1 --seconds 25 --trace 0

One client runs a closed loop in this process and thread: the next request
starts only after the previous one returned and was checked. With --trace 0
the run reports the end-to-end metrics, with --trace 1 the per-layer metrics
of a traced pass (see bench/README.md). The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""
from __future__ import annotations

import argparse
import heapq
import json
import math
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("pair_composite", "manyline", "verify")
# The first seconds of a process run slower on small shared hosts, so warm-up
# is measured in time rather than in requests.
WARMUP_S = 2.0
SETUP_PROBES = 5
# Wall times vary by tens of percent on small shared hosts as neighbours load
# the cores, and they drift between runs minutes apart. Every timed request
# and set-up is therefore paired with the fixed calibration kernel below, run
# next to it, and reported rescaled to a host on which that kernel takes
# CALIBRATION_REF_S: seconds at a fixed host speed. The kernel and the constant
# must never change, or figures stop being comparable across commits.
CALIBRATION_REF_S = 0.05


def calibrate() -> float:
    """Wall time of a fixed kernel of small numpy calls and heap work, like vdwcp's quadrature."""
    import numpy as np  # not at module level: set-up probes time the first numpy import

    nodes, weights = np.linspace(-1.0, 1.0, 15), np.full(15, 2.0 / 15.0)
    start = time.perf_counter()
    heap, total = [], 0.0
    for k in range(3500):
        a = 1e-3 * k
        x = (a + 0.25) + 0.25 * nodes
        y = np.exp(-x) * (1.0 + x * (2.0 + x)) / (1.0 + x * x)
        value = 0.25 * float(weights @ y)
        heapq.heappush(heap, (-abs(value), k, a, value))
        if len(heap) > 64:
            heapq.heappop(heap)
        total += value
    total += math.fsum(entry[3] for entry in sorted(heap, key=lambda e: e[2]))
    elapsed = time.perf_counter() - start
    if not math.isfinite(total):
        raise RuntimeError("calibration kernel failed")
    return elapsed


def setup_probe(workload: str, seed: int) -> float:
    """Set-up seconds at the reference host speed; run in a fresh interpreter.

    Set-up is importing vdwcp and building the workload's inputs; the
    calibration kernel runs right after it in the same interpreter.
    """
    start = time.perf_counter()
    import inputs

    inputs.build(workload, seed)
    elapsed = time.perf_counter() - start
    return elapsed * CALIBRATION_REF_S / calibrate()


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters; an extra first one warms the bytecode cache."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(times[1:])


class Client:
    """Runs and checks requests, and tallies them."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.max_rel_err = 0.0
        self.values = None

    def step(self, request=None) -> tuple[float, int]:
        """Run and check one request (workload.request unless given).

        Returns the request's wall time and the channel values it delivered.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            output = (request or self.workload.request)()
            elapsed = time.perf_counter() - start
            err, values = self.workload.check(output)
        except Exception:  # a failed request is counted, reported, and the loop goes on
            self.failed += 1
            if self.failed == 1:
                traceback.print_exc(file=sys.stderr)
            return time.perf_counter() - start, 0
        self.max_rel_err = max(self.max_rel_err, err)
        return elapsed, self.values if values is None else values

    def loop(self, seconds: float, step) -> list:
        """Closed loop: call step until `seconds` have passed, at least once."""
        results = []
        deadline = time.perf_counter() + seconds
        while not results or time.perf_counter() < deadline:
            results.append(step())
        return results


def traced_step(client: Client, trace) -> tuple[float, dict, dict]:
    """One traced request: wall time, counters and per-layer self times."""
    trace.reset()
    with trace:
        elapsed, _ = client.step(lambda: trace.call("request", "harness", client.workload.request))
    return elapsed, dict(trace.counts), trace.self_times()


def peak_mem_mb(client: Client) -> float:
    """Peak traced allocation of one untimed request, without its check, in MB."""
    peak = []

    def request():
        tracemalloc.start()
        try:
            return client.workload.request()
        finally:
            peak.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    client.step(request)
    return peak[0] / 1e6


def end_to_end(client: Client, seconds: float) -> dict:
    peak = peak_mem_mb(client)
    # The calibration kernel runs between consecutive requests; each request
    # is rescaled by the mean of the kernel times right before and after it.
    kernel = [calibrate()]

    def calibrated_step():
        elapsed, values = client.step()
        kernel.append(calibrate())
        return elapsed * CALIBRATION_REF_S * 2.0 / (kernel[-2] + kernel[-1]), values

    timed = client.loop(seconds, calibrated_step)
    durations = [t for t, _ in timed]
    return {
        "request_p50_s": (statistics.median(durations), "s"),
        "values_per_s": (sum(v for _, v in timed) / sum(durations), "1/s"),
        "max_rel_err": (client.max_rel_err, "ratio"),
        "success_ratio": (1.0 - client.failed / client.attempted, "ratio"),
        "peak_mem_mb": (peak, "MB"),
    }


def per_layer(client: Client, trace, first_counts: dict, seconds: float) -> dict:
    """Alternate traced and untraced requests; layer figures are means over traced ones."""
    from tracer import layer_metrics

    traced, untraced = [], []

    def step():
        if len(traced) <= len(untraced):
            failed = client.failed
            traced.append(traced_step(client, trace))
            if client.failed == failed and traced[-1][1] != first_counts:
                client.failed += 1
                print("counters differ between traced requests", file=sys.stderr)
        else:
            untraced.append(client.step()[0])

    client.loop(seconds, step)
    while len(untraced) < 1:
        step()
    n = len(traced)
    layers = {layer for t in traced for layer in t[2]}
    self_s = {layer: sum(t[2].get(layer, 0.0) for t in traced) / n for layer in layers}
    metrics = layer_metrics(first_counts, self_s)
    metrics["trace.request_s"] = (sum(t[0] for t in traced) / n, "s")
    metrics["trace.overhead_ratio"] = (
        statistics.median(t[0] for t in traced) / statistics.median(untraced), "ratio",
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(json.dumps({"setup_s": setup_probe(args.workload, args.seed)}))
        return 0

    try:
        import tracer
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    workload.prepare()
    client = Client(workload)
    client.loop(WARMUP_S, client.step)

    # One untimed traced request: its spans are written out, its counters are
    # the reference the traced pass must repeat, and it counts the channel
    # values of workloads whose output does not carry them.
    trace = tracer.Tracer()
    _, first_counts, _ = traced_step(client, trace)
    trace.write_spans(OUT_DIR / f"spans-{args.workload}.jsonl")
    client.values = first_counts.get("potentials.channel_values", 0) - first_counts.get(
        "potentials.zero_channels", 0
    )

    if args.trace:
        metrics = per_layer(client, trace, first_counts, args.seconds)
    else:
        metrics = end_to_end(client, args.seconds)
        metrics["setup_s"] = (measure_setup(args.workload, args.seed), "s")
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
