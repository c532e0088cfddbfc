#!/usr/bin/env python3
"""The bqo benchmark: seeded closed-loop workloads over the public API.

Run from the repository root:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 32
    python3 perfbench/run.py --smoke

Workloads (perfbench/workloads.json has the op mix and window ranges):
scan, games, extract and cli; BENCHMARK.json lists all but extract. One
client runs a workload as a closed loop in one process with no threads. The
op pool comes from --seed alone. One untimed pass fills lazy state and
records every op's result. The timed loop then repeats whole passes until
--seconds have gone by, timing a fresh interpreter's set-up at even points
in between; every repeated result must equal the first one. Each op's time
is its fastest repeat. After the timed loop, each op's first result goes
through an independent check.

--trace 0 reports the end-to-end metrics; --trace 1 adds, after the same
untimed and timed passes, one pass under perfbench/tracing.py and reports
the per-layer metrics of that pass plus the tracing overhead. Both print
human-readable lines, then as the last line one JSON object with the keys
correct, attempted, failed and metrics. --workload all runs every workload
in its own process and prints one table. --smoke runs every workload at
tiny windows with every check and both trace passes, and asserts no timing.

The benchmark exits 2 without a result when the program's sources
(src/bqo) are missing.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("scan", "games", "extract", "cli")
SETUP_SAMPLES = 11
TRACE_DIR = ROOT / ".bench_out"

# (metric, unit) in report order; BENCHMARK.json lists the same
END_TO_END = [
    ("throughput_ops_s", "ops/s"), ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"), ("ok_ops_ratio", "ratio"),
    ("peak_rss_mb", "MB"), ("setup_s", "s"),
]


def fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import bqo from this checkout's src/, or exit 2 without a result."""
    if not (SRC / "bqo" / "__init__.py").is_file():
        fail(f"{SRC / 'bqo'} is missing; run from a checkout that holds the "
             "program's sources")
    sys.path[:0] = [str(SRC), str(HERE)]
    import bqo
    if Path(bqo.__file__).resolve().parent != (SRC / "bqo").resolve():
        fail(f"imported bqo from {bqo.__file__}, not from {SRC}")


def workload_module(name: str):
    return __import__(f"workload_{name}")


def load_spec(name: str, smoke: bool) -> dict:
    spec = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    entry = spec["workloads"][name]
    return entry["smoke"] if smoke else entry["ops"]


# --- measurement ---------------------------------------------------------------

def setup_once(wl) -> float:
    """Time from spawning a fresh interpreter to ready for the first op."""
    code = f"import {', '.join(wl.MODULES)}\n"
    if wl.BUILDS_PARSER:
        code += "bqo.cli.build_parser()\n"
    code += "print('ready', flush=True)\n"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        ready = perf_counter()
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        fail(f"set-up interpreter exited {proc.returncode}")
    return ready - start


def fingerprint(wl, outcome):
    from common import ERROR, OK
    status, value = outcome
    if status == OK:
        return OK, wl.fingerprint(value)
    if status == ERROR:
        return ERROR, object()   # equal to nothing else
    return status, type(value).__name__, str(value)


def run_passes(wl, pool, refs, until: float, tracer=None):
    """Whole passes over the pool until perf_counter() reaches `until` (at
    least one). Returns per-op latencies in pass order, per-op mismatch counts and
    the time of each pass."""
    from common import attempt
    latencies = array("d")
    mismatches = [0] * len(pool)
    pass_times = []
    run = wl.run
    while True:
        pass_start = perf_counter()
        for i, op in enumerate(pool):
            if tracer is not None:
                tracer.op = i
            t0 = perf_counter()
            outcome = attempt(run, op)
            latencies.append(perf_counter() - t0)
            if fingerprint(wl, outcome) != refs[i]:
                mismatches[i] += 1
        pass_times.append(perf_counter() - pass_start)
        if perf_counter() >= until:
            return latencies, mismatches, pass_times


def percentile(sorted_values, q: float, steps: int = 32) -> float:
    """Harrell-Davis estimate of the q-quantile: a weighted mean of the order
    statistics with Beta(q(n+1), (1-q)(n+1)) weights. Per-op times cluster
    at a few cost levels, and a nearest-rank percentile sitting between two
    levels jumps whenever one op crosses over; this estimate moves smoothly.
    Each weight is the Beta density integrated by the midpoint rule."""
    n = len(sorted_values)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    h = 1 / (n * steps)
    weighted = total = 0.0
    for i, value in enumerate(sorted_values):
        weight = sum(
            math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
            for x in ((i * steps + k + 0.5) * h for k in range(steps)))
        weighted += weight * value
        total += weight
    return weighted / total


class Run:
    """One workload in this process: pool, first pass, timed passes."""

    def __init__(self, name: str, seed: int, smoke: bool = False):
        from common import attempt
        self.wl = workload_module(name)
        rng = random.Random(f"{name}-{seed}")
        start = perf_counter()
        self.pool = self.wl.make_pool(rng, load_spec(name, smoke))
        self.first = [attempt(self.wl.run, op) for op in self.pool]
        self.refs = [fingerprint(self.wl, o) for o in self.first]
        self.prepare_s = perf_counter() - start
        self.check_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.failures = []

    def timed(self, until: float, tracer=None):
        """Passes until perf_counter() reaches `until`; 0 gives one pass."""
        gc.collect()
        lat, mismatches, pass_times = run_passes(
            self.wl, self.pool, self.refs, until, tracer)
        self.attempted += len(lat)
        self.failed += sum(mismatches)
        self.passes += len(pass_times)
        for i, n in enumerate(mismatches):
            if n:
                self.failures.append(f"op {i}: result changed on {n} repeats")
        return lat, pass_times

    def check(self):
        """Independent checks of every op's first result; a failed op
        counts as failed on every pass that ran it."""
        from common import ERROR
        start = perf_counter()
        for i, (op, outcome) in enumerate(zip(self.pool, self.first)):
            if outcome[0] == ERROR:
                problem = f"unexpected {outcome[1]!r}"
            else:
                problem = self.wl.check(op, outcome)
            if problem:
                self.failed += self.passes
                self.failures.append(f"op {i}: {problem}")
        self.check_s = perf_counter() - start

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.failures


def end_to_end(name: str, seed: int, seconds: float) -> tuple:
    """Each op's time is its fastest repeat across the timed passes, as
    timeit takes it: a shared host can slow by up to 1.8x in phases of
    seconds, and an op's fastest repeat falls in a fast phase, where a
    median or a mean follows the phases. Throughput is the pool over the sum
    of these op times, and the latency percentiles are taken over them."""
    wl = workload_module(name)
    setup_once(wl)  # compiles bytecode; not counted
    run = Run(name, seed)
    # set-up samples are spread over the run, one after each stretch of
    # timed passes, so that their median spans the host's phases
    lat, pass_times, setups = array("d"), [], []
    start = perf_counter()
    for i in range(1, SETUP_SAMPLES + 1):
        until = start + seconds * i / SETUP_SAMPLES
        if perf_counter() < until or not pass_times:
            stretch_lat, stretch_passes = run.timed(until)
            lat.extend(stretch_lat)
            pass_times += stretch_passes
        setups.append(setup_once(wl))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run.check()
    size = len(run.pool)
    per_op = sorted(min(lat[i::size]) for i in range(size))
    metrics = {
        "throughput_ops_s": (size / math.fsum(per_op),
                             f"{len(pass_times)} passes of {size} ops"),
        "latency_p50_ms": (percentile(per_op, 0.5) * 1e3,
                           f"{size} op minima of {len(lat)} samples"),
        "latency_p90_ms": (percentile(per_op, 0.9) * 1e3,
                           f"{size} op minima of {len(lat)} samples"),
        "ok_ops_ratio": (1 - run.failed / run.attempted,
                         f"{run.attempted} ops attempted"),
        "peak_rss_mb": (peak_rss_mb, "1 sample"),
        "setup_s": (statistics.median(setups),
                    f"median of {len(setups)} interpreters"),
    }
    header = (f"workload {name}  seed {seed}  pool {size} ops  "
              f"passes {len(pass_times)}  timed {sum(pass_times):.2f} s  "
              f"(pool and first pass {run.prepare_s:.2f} s, checks "
              f"{run.check_s:.2f} s)  "
              f"failed_ops_ratio {run.failed / run.attempted:.6g}")
    units = dict(END_TO_END)
    lines = [header] + [
        f"  {key:<18} {value:>14.6g} {units[key]:<6} ({samples})"
        for key, (value, samples) in metrics.items()]
    return run, lines, {k: {"value": v, "unit": units[k]}
                        for k, (v, _) in metrics.items()}


def traced(name: str, seed: int, seconds: float) -> tuple:
    from tracing import LAYERS, PER_LAYER, Tracer
    run = Run(name, seed)
    _, pass_times = run.timed(perf_counter() + seconds)
    # a typical untraced pass against the one traced pass
    untraced = len(run.pool) / statistics.median(pass_times)
    tracer = Tracer()
    tracer.install()
    try:
        lat, pass_times = run.timed(0, tracer)
    finally:
        tracer.uninstall()
    run.check()
    values = tracer.metrics()
    values["trace.traced_ops_s"] = len(lat) / pass_times[0]
    values["trace.overhead_ops_s"] = untraced - values["trace.traced_ops_s"]
    path = TRACE_DIR / f"trace-{name}-seed{seed}.tsv.gz"
    kept = tracer.write_spans(path)
    self_total = sum(values[f"{layer}.self_s"] for layer in LAYERS) or 1.0
    lines = [f"workload {name}  seed {seed}  traced pass {len(lat)} ops  "
             f"untraced {untraced:.6g} ops/s  traced "
             f"{values['trace.traced_ops_s']:.6g} ops/s  "
             f"spans {tracer.span_count} ({kept} kept in "
             f"{path.relative_to(ROOT)})"]
    for key, unit, _ in PER_LAYER:
        share = (f"  {values[key] / self_total:6.1%} of self time"
                 if key.endswith(".self_s") else "")
        lines.append(f"  {key:<26} {values[key]:>14.6g} {unit}{share}")
    return run, lines, {k: {"value": values[k], "unit": u}
                        for k, u, _ in PER_LAYER}


# --- entry points ----------------------------------------------------------------

def one(args) -> int:
    if args.trace:
        run, lines, metrics = traced(args.workload, args.seed, args.seconds)
    else:
        run, lines, metrics = end_to_end(args.workload, args.seed, args.seconds)
    for line in lines + [f"  check failure: {f}" for f in run.failures[:20]]:
        print(line)
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def every(args) -> int:
    """Each workload in its own process, then one table."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode or not lines:
            print(proc.stderr, file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def smoke() -> int:
    """Every workload at tiny windows, with every check and two traced
    passes whose counts must agree; no timing is asserted."""
    from tracing import PER_LAYER, Tracer
    problems = []
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [(m["name"], m["unit"]) for m in bench["end_to_end"]] != END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.py")
    if [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
            != PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from tracing.py")
    if not {w["name"] for w in bench["workloads"]} <= set(WORKLOADS):
        problems.append("BENCHMARK.json names a workload run.py lacks")
    for name in WORKLOADS:
        start = perf_counter()
        run = Run(name, 0, smoke=True)
        run.timed(0)
        counts = []
        for _ in range(2):
            tracer = Tracer()
            tracer.install()
            try:
                run.timed(0, tracer)
            finally:
                tracer.uninstall()
            counts.append({k: v for k, v in tracer.metrics().items()
                           if not k.endswith("_s")})
        run.check()
        if counts[0] != counts[1]:
            problems.append(f"{name}: traced counts differ between passes")
        if not any(counts[0].values()):
            problems.append(f"{name}: the traced pass counted nothing")
        problems += [f"{name}: {f}" for f in run.failures]
        print(f"smoke {name}: {len(run.pool)} ops, {run.attempted} attempted, "
              f"{run.failed} failed, {perf_counter() - start:.2f} s")
    for problem in problems:
        print(f"  FAIL {problem}")
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny windows, every check, no timing")
    args = parser.parse_args()
    load_program()
    os.chdir(ROOT)
    if args.smoke:
        return smoke()
    if args.workload == "all":
        return every(args)
    return one(args)


if __name__ == "__main__":
    sys.exit(main())
