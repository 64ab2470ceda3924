#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of sswilf.

    python3 perfbench/run.py --workload {sweep,queries,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src`` directory, exactly as the tests do.  One client in one process runs
the workload's round of operations again and again (a closed loop) until the
operations have taken ``--seconds``, checks every output, and prints one JSON
object as its last line.  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced rounds with rounds that
record spans around the calls into each module, and reports the per-layer
metrics.  Run records and span traces are written under ``perfbench/runs/``.
See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 15
WORKLOADS = ("sweep", "queries", "cli")
# The machine's speed drifts by 10-40% over stretches of 10-30 s, longer than
# a run.  Reported times are scaled to the speed at which gauge_ns() takes
# REFERENCE_NS, using gauge samples taken between operations.
REFERENCE_NS = 2_000_000
GAUGE_EVERY_NS = 250_000_000


def gauge_ns() -> int:
    """Best of three timings of a fixed pure-Python task that does not touch
    the package: dict updates, tuple keys and sorts, like the library's own
    work."""
    best = None
    for _ in range(3):
        begin = time.perf_counter_ns()
        counts = {}
        for i in range(2000):
            key = (i * 7919) % 1009, i % 13
            counts[key] = counts.get(key, 0) + 1
        sorted(counts.items())
        sorted(range(1500), key=lambda x: -x)
        took = time.perf_counter_ns() - begin
        best = took if best is None else min(best, took)
    return best


class Runner:
    """Runs whole rounds of ``ops``, times each op, and checks every output:
    the first round's against the reference values, later rounds' against
    the first round's digests.  Between ops it samples the machine's speed;
    ``speed[r]`` scales round r's times to the reference speed."""

    def __init__(self, ops):
        self.ops = ops
        self.digests: dict[int, object] = {}
        self.problems: list[str] = []
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.speed: list[float] = []

    def round(self, tracer=None) -> list[int]:
        """Run every op once; their latencies in ns."""
        latencies = []
        gauges = [gauge_ns()]
        gauged = time.perf_counter_ns()
        for index, op in enumerate(self.ops):
            if tracer is not None:
                tracer.begin(op.label)
            begin = time.perf_counter_ns()
            try:
                out = op.call(tracer)
            except Exception as exc:  # a failed operation is counted, not fatal
                latencies.append(time.perf_counter_ns() - begin)
                self.attempted += 1
                self.failed += 1
                self.errors.append(f"{op.label} failed: {exc!r}"[:500])
                continue
            latencies.append(time.perf_counter_ns() - begin)
            self.attempted += 1
            self.verify(index, op, out)
            del out  # freed here, not inside the next op's time
            if time.perf_counter_ns() - gauged >= GAUGE_EVERY_NS:
                gauges.append(gauge_ns())
                gauged = time.perf_counter_ns()
        gauges.append(gauge_ns())
        self.speed.append(REFERENCE_NS / statistics.median(gauges))
        return latencies

    def run(self, seconds: float, between_rounds) -> list[list[int]]:
        """Whole rounds until the ops have taken ``seconds`` (checks not
        counted); ``between_rounds`` gets the share of the time done."""
        rounds = []
        timed = 0
        while True:
            rounds.append(self.round())
            timed += sum(rounds[-1])
            done = min(timed / (seconds * 1e9), 1.0)
            between_rounds(done)
            if done >= 1.0:
                return rounds

    def verify(self, index: int, op, out) -> None:
        if index not in self.digests:
            try:
                found = op.check(out)
            except Exception as exc:  # an answer the check cannot even read is wrong
                found = [f"check raised {exc!r}"]
            self.problems += [f"{op.label}: {p}"[:500] for p in found]
            self.digests[index] = op.digest(out)
        elif op.digest(out) != self.digests[index]:
            self.problems.append(f"{op.label}: output changed between rounds")


def round_seconds(rounds) -> list[float]:
    return [sum(r) / 1e9 for r in rounds]


class SetupProbe:
    """Wall time of fresh interpreters that import the package and run the
    workload's warm-up, each with the speed gauged just before it.  The
    samples are spread evenly over the timed loop, between rounds."""

    def __init__(self, workload: str):
        self.workload = workload
        self.samples: list[float] = []
        self.speed: list[float] = []

    def __call__(self, done: float) -> None:
        while len(self.samples) < round(SETUP_SAMPLES * done):
            self.speed.append(REFERENCE_NS / gauge_ns())
            begin = time.perf_counter()
            subprocess.run([sys.executable, str(HERE / "probe.py"), self.workload], check=True)
            self.samples.append(time.perf_counter() - begin)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "sswilf" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'sswilf'}", file=sys.stderr)
        return 2
    # the benchmark measures the package as it configures itself
    for var in ("SSWILF_KERNEL", "SSWILF_ORACLE_LIMIT"):
        os.environ.pop(var, None)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    sys.path.insert(0, str(SRC))

    import probe
    import tracing
    import workloads
    from sswilf import kernel

    runs = HERE / "runs"
    runs.mkdir(exist_ok=True)
    probe.warm_up(args.workload)
    if args.workload == "cli":
        spawn = workloads.Spawner(runs)
        ops = workloads.cli_ops(args.seed, spawn)
        peak_mib = lambda: spawn.peak_kib / 1024  # noqa: E731
    else:
        ops = (workloads.sweep_ops if args.workload == "sweep" else workloads.query_ops)(args.seed)
        peak_mib = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # noqa: E731
    runner = Runner(ops)
    print(f"perfbench: workload {args.workload}, seed {args.seed}, {len(ops)} ops per round, "
          f"kernel backend {kernel.BACKEND}, python {platform.python_version()}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "backend": kernel.BACKEND, "ops_per_round": len(ops)}
    if not args.trace:
        setup = SetupProbe(args.workload)
        rounds = runner.run(args.seconds, setup)
        peak = peak_mib()
        per_round = round_seconds(rounds)
        speed = runner.speed
        metrics = {
            "ops_per_s": (
                len(ops) / statistics.median(t * f for t, f in zip(per_round, speed)), "ops/s"),
            "op_p50_ms": (
                statistics.median(statistics.median(r) * f for r, f in zip(rounds, speed)) / 1e6,
                "ms"),
            "peak_rss_mib": (peak, "MiB"),
            "setup_s": (
                statistics.median(t * f for t, f in zip(setup.samples, setup.speed)), "s"),
        }
        record["setup_samples_s"] = setup.samples
        record["setup_speed"] = setup.speed
    else:
        # traced and untraced rounds alternate, so that both see the same
        # stretches of machine speed and their difference is the overhead
        tracer = tracing.Tracer()
        untraced, rounds = [], []
        while sum(map(sum, untraced + rounds)) < args.seconds * 1e9:
            untraced.append(runner.round())
            if args.workload != "cli":
                tracing.install(tracer)
            try:
                rounds.append(runner.round(tracer))
            finally:
                tracer.restore()
        plain = statistics.median(round_seconds(untraced))
        traced = statistics.median(round_seconds(rounds))
        metrics = tracing.per_layer(tracer, len(rounds), sum(map(sum, rounds)),
                                    (traced - plain) / plain * 100)
        with open(runs / f"trace-{args.workload}-seed{args.seed}.json", "w") as f:
            json.dump({"labels": tracer.labels, "spans": tracer.spans, "counts": tracer.counts}, f)
        record["untraced_round_s"] = round_seconds(untraced)
        per_round = round_seconds(rounds)

    labels = sorted({op.label for op in ops})
    record.update({
        "round_s": per_round,
        "speed": runner.speed,
        "op_median_ms": {
            label: statistics.median(r[i] for r in rounds for i, op in enumerate(ops)
                                     if op.label == label) / 1e6
            for label in labels
        },
        "problems": runner.problems[:50],
        "errors": runner.errors[:50],
    })
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record["result"] = result
    with open(runs / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1)
    for problem in (runner.errors + runner.problems)[:10]:
        print(f"perfbench: {problem}")
    print(f"perfbench: {len(rounds)} rounds, {runner.attempted} ops, {runner.failed} failed")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
