"""Spans around the calls into sswilf's modules, kept in memory.

The program itself is not changed: ``install`` swaps the module attributes
through which one module calls another (and through which the benchmark and
the CLI call the library) for wrappers that record a span.  A span is
``[op, parent, name, start_ns, end_ns, work]``: the index of the benchmark
operation it belongs to (``labels`` names it), the index of the enclosing
span (-1 at the top), the layer-qualified name, its clock interval, and a
count of the work it did (perms swept, words scanned, orbit members,
neighbours generated).

A call from a module into itself (the counting recursions, the prefix
recursion, ``is_ss_equivalent`` computing two pyramids) records no span, so
spans mark layer boundaries.  The shift layer's orbit closure and its
neighbour enumeration are the exceptions: their cost per member is what the
shift metrics measure.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from math import perm

LAYERS = (
    "kernel", "oracle", "shift", "pyramid", "words",
    "trapezoid", "counting", "representatives", "cli",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.labels: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def begin(self, label: str) -> None:
        """Attribute the spans that follow to a new operation."""
        self.labels.append(label)
        self.op = len(self.labels) - 1

    def _open(self, name: str) -> list:
        record = [self.op, self._stack[-1] if self._stack else -1, name, 0, 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        record[3] = time.perf_counter_ns()
        try:
            yield record
        finally:
            record[4] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, work=None, internal: bool = False) -> None:
        """Record a span for each call of ``module.attr`` from another layer
        (from any caller when ``internal``)."""
        original = getattr(module, attr)
        layer = name.split(".", 1)[0]
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if stack and (internal and spans[stack[-1]][2] == name
                          or not internal and spans[stack[-1]][2].startswith(layer + ".")):
                return original(*args, **kwargs)
            record = self._open(name)
            record[3] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
            if work is not None:
                record[5] = work(args, result)
            return result

        self._saved.append((module, attr, original))
        setattr(module, attr, traced)

    def count(self, module, attr: str, name: str) -> None:
        """Count the calls of ``module.attr`` without timing them."""
        original = getattr(module, attr)
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._saved.append((module, attr, original))
        setattr(module, attr, counted)

    def restore(self, module=None) -> None:
        """Put back the original functions (of one module, if given)."""
        kept = []
        while self._saved:
            entry = self._saved.pop()
            if module is None or entry[0] is module:
                setattr(entry[0], entry[1], entry[2])
            else:
                kept.append(entry)
        self._saved = kept[::-1]

    def adopt(self, spans: list, counts: dict) -> None:
        """Add the spans and counts a child process recorded for the
        current operation."""
        base = len(self.spans)
        for _, parent, name, start, end, work in spans:
            self.spans.append(
                [self.op, parent + base if parent >= 0 else -1, name, start, end, work])
        for name, value in counts.items():
            self.counts[name] = self.counts.get(name, 0) + value


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries the three workloads cross."""
    from sswilf import (
        counting, kernel, oracle, pyramid, representatives, shift, trapezoid, words,
    )

    tracer.wrap(kernel, "sweep_block", "kernel.sweep_block", lambda a, r: a[2])
    tracer.wrap(oracle, "bruteforce_ss_partition", "oracle.bruteforce_ss_partition")
    tracer.wrap(oracle, "bruteforce_minimal_prefixes", "oracle.bruteforce_minimal_prefixes",
                lambda a, r: perm(a[1], a[0]))
    tracer.wrap(oracle, "bruteforce_shift_partition", "oracle.bruteforce_shift_partition")
    for module in (oracle, shift):
        tracer.wrap(module, "enumerate_rigid_shifts", "shift.enumerate_rigid_shifts",
                    lambda a, r: len(r), internal=True)
    tracer.wrap(shift, "_closure", "shift.closure", lambda a, r: len(r), internal=True)
    for attr in ("is_strong_shift_equivalent", "is_shift_equivalent", "find_witness",
                 "strong_shift_class"):
        tracer.wrap(shift, attr, f"shift.{attr}")
    for attr in ("pyramidal_sequence", "class_size_exponent", "canonical_member",
                 "canonical_key", "levels_from_key", "is_ss_equivalent"):
        tracer.wrap(pyramid, attr, f"pyramid.{attr}")
    tracer.wrap(words, "parse_permutation", "words.parse_permutation")
    for attr in ("prefix_to_trapezoid", "trapezoid_to_prefix", "prefix_to_noninterval",
                 "noninterval_to_prefix", "minimal_prefixes"):
        tracer.wrap(trapezoid, attr, f"trapezoid.{attr}")
    tracer.wrap(representatives, "minimal_prefixes", "trapezoid.minimal_prefixes")
    tracer.wrap(representatives, "decompositions", "representatives.decompositions")
    for attr in ("class_count", "class_count_by_exponent", "minimal_prefix_count",
                 "shift_class_count"):
        tracer.wrap(counting, attr, f"counting.{attr}")
    tracer.count(trapezoid, "is_minimal_prefix", "trapezoid.is_minimal_prefix")
    tracer.count(trapezoid, "validate_transition", "trapezoid.validate_transition")


# -- from spans to metrics -------------------------------------------------------

def self_times(spans: list) -> list[int]:
    """Each span's duration minus the part its child spans cover (ns)."""
    own = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[4] - s[3]
    return own


def per_layer(tracer: Tracer, rounds: int, op_ns: int, overhead_pct: float) -> dict:
    """The per-layer metrics of a traced run of ``rounds`` rounds whose
    operations took ``op_ns`` in all.  A layer the workload does not reach
    reads 0."""
    import statistics  # here, not at the top: the traced CLI child imports this module

    spans = tracer.spans
    own = self_times(spans)
    calls: dict[str, int] = {}
    total: dict[str, int] = {}
    selfs: dict[str, int] = {}
    work: dict[str, int] = {}
    for s, o in zip(spans, own):
        name = s[2]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0) + s[4] - s[3]
        selfs[name] = selfs.get(name, 0) + o
        work[name] = work.get(name, 0) + s[5]

    def per_call(name, scale, use_self=False):
        n = calls.get(name, 0)
        return (selfs if use_self else total)[name] / n * scale if n else 0.0

    def rate(name):
        return work[name] / total[name] * 1e9 if total.get(name) else 0.0

    def cold(name, label):
        """Time per round of the ``name`` spans in the ops labelled
        ``label``, each run in a fresh process (s)."""
        got = sum(s[4] - s[3] for s in spans if s[2] == name and tracer.labels[s[0]] == label)
        return got / rounds / 1e9

    def median_per_op(name, use_self):
        """Median over the ops of the ``name`` spans' time in each (ms)."""
        by_op: dict[int, int] = {}
        for s, o in zip(spans, own):
            if s[2] == name:
                by_op[s[0]] = by_op.get(s[0], 0) + (o if use_self else s[4] - s[3])
        return statistics.median(by_op.values()) / 1e6 if by_op else 0.0

    enumerated = calls.get("shift.enumerate_rigid_shifts", 0)
    roundtrips = calls.get("trapezoid.prefix_to_trapezoid", 0) + calls.get(
        "trapezoid.prefix_to_noninterval", 0)
    validations = tracer.counts.get("trapezoid.is_minimal_prefix", 0) + tracer.counts.get(
        "trapezoid.validate_transition", 0)
    metrics = {
        "kernel.sweep_block.perms_per_s": (rate("kernel.sweep_block"), "perms/s"),
        "oracle.bruteforce_ss_partition.self_s": (
            per_call("oracle.bruteforce_ss_partition", 1e-9, True), "s"),
        "oracle.bruteforce_minimal_prefixes.words_per_s": (
            rate("oracle.bruteforce_minimal_prefixes"), "words/s"),
        "oracle.bruteforce_shift_partition.self_s": (
            per_call("oracle.bruteforce_shift_partition", 1e-9, True), "s"),
        "shift.enumerate_rigid_shifts.us_per_call": (
            per_call("shift.enumerate_rigid_shifts", 1e-3), "us"),
        "shift.closure.members_per_s": (rate("shift.closure"), "members/s"),
        "shift.neighbours_per_member": (
            work.get("shift.enumerate_rigid_shifts", 0) / enumerated if enumerated else 0.0,
            "count"),
        "shift.is_strong_shift_equivalent.ms_per_call": (
            per_call("shift.is_strong_shift_equivalent", 1e-6), "ms"),
        "shift.find_witness.ms_per_call": (per_call("shift.find_witness", 1e-6), "ms"),
    }
    for fn in ("pyramidal_sequence", "canonical_member", "canonical_key", "is_ss_equivalent"):
        metrics[f"pyramid.{fn}.us_per_call"] = (per_call(f"pyramid.{fn}", 1e-3), "us")
    metrics.update({
        "words.parse_permutation.us_per_call": (
            per_call("words.parse_permutation", 1e-3), "us"),
        "trapezoid.prefix_to_trapezoid.us_per_call": (
            per_call("trapezoid.prefix_to_trapezoid", 1e-3), "us"),
        "trapezoid.validations_per_roundtrip": (
            validations / roundtrips if roundtrips else 0.0, "count"),
        "trapezoid.minimal_prefixes.cold_s": (
            cold("trapezoid.minimal_prefixes", "prefixes"), "s"),
        "counting.class_count.cold_s": (cold("counting.class_count", "count s 200"), "s"),
        "representatives.class_representatives.cold_s": (
            cold("representatives.decompositions", "reps"), "s"),
        "cli.import_ms": (median_per_op("cli.import", False), "ms"),
        "cli.main.self_ms": (median_per_op("cli.main", True), "ms"),
        "trace.overhead_pct": (overhead_pct, "%"),
    })
    by_layer = dict.fromkeys(LAYERS, 0)
    for s, o in zip(spans, own):
        by_layer[s[2].split(".", 1)[0]] += o
    top = sum(s[4] - s[3] for s in spans if s[1] < 0)
    for layer, ns in by_layer.items():
        metrics[f"layer.{layer}.self_s"] = (ns / rounds / 1e9, "s")
    metrics["layer.outside.self_s"] = ((op_ns - top) / rounds / 1e9, "s")
    return metrics
