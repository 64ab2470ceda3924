"""The three workloads: their seeded inputs, their operations and the checks
on every output.

A workload is a fixed list of operations, one round, that the runner repeats
until its time is up; the seed picks the permutations and prefixes, never
how many operations of each kind a round holds or their sizes.  Each check
compares an output with ``reference`` (printed tables, definitions, the
paper's theorems), never with a saved copy of an earlier output.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import reference as ref
from sswilf import counting, oracle, pyramid, shift, trapezoid, words

HERE = Path(__file__).resolve().parent


@dataclass
class Op:
    """One timed call.  ``call`` gets the run's tracer (or None); ``check``
    lists what is wrong with an output; ``digest`` reduces an output to what
    later rounds must reproduce."""

    label: str
    call: Callable[[Any], Any]
    check: Callable[[Any], list[str]]
    digest: Callable[[Any], Any] = lambda out: out


# -- sweep -----------------------------------------------------------------------

SWEEP_N = 9  # bruteforce_ss_partition and bruteforce_minimal_prefixes default limit
SHIFT_N = 7  # bruteforce_shift_partition default limit


def _report_digest(report):
    return report.class_count, sorted(report.size_histogram.items()), hash(report.classes)


def _check_ss_report(report) -> list[str]:
    reps = [rep for _, _, rep in report.classes]
    sizes = [size for _, size, _ in report.classes]
    return ref.check_partition(SWEEP_N, report.class_count, report.size_histogram, reps, sizes)


def _check_shift_report(with_reversals: bool):
    def check(report) -> list[str]:
        reps = [rep for _, _, rep in report.classes]
        sizes = [size for _, size, _ in report.classes]
        return ref.check_shift_partition(SHIFT_N, with_reversals, report.class_count, reps, sizes)

    return check


def sweep_ops(seed: int) -> list[Op]:
    """The brute-force oracles at their default size limits, serially.  The
    sweeps are exhaustive, so the seed changes nothing."""
    ops = [Op("ss_partition", lambda t: oracle.bruteforce_ss_partition(SWEEP_N),
              _check_ss_report, _report_digest)]
    for i in range(1, SWEEP_N - 1):
        ops.append(Op(
            f"minimal_prefixes {i}",
            lambda t, i=i: oracle.bruteforce_minimal_prefixes(i, SWEEP_N),
            lambda out, i=i: ref.check_minimal_prefixes(i, SWEEP_N, out),
            hash,
        ))
    for with_reversals in (False, True):
        ops.append(Op(
            f"shift_partition reversals={with_reversals}",
            lambda t, r=with_reversals: oracle.bruteforce_shift_partition(SHIFT_N, r),
            _check_shift_report(with_reversals),
            _report_digest,
        ))
    return ops


# -- queries ---------------------------------------------------------------------

QUERY_SIZES = range(8, 17)
CHAINS_PER_SIZE = 2
# shift queries: (n, j) of the class each item's permutation is drawn from;
# the second list holds the large classes (2^j >= 64, n <= 12)
SMALL_CLASSES = [(8, 1), (9, 2), (10, 1), (11, 2), (12, 1), (13, 2), (14, 1), (15, 2), (16, 1)]
LARGE_CLASSES = [(10, 6), (11, 6), (12, 6), (10, 7), (11, 7), (12, 7), (11, 8), (12, 8), (12, 9)]


def random_permutation(rng: random.Random, n: int) -> tuple[int, ...]:
    u = list(range(1, n + 1))
    rng.shuffle(u)
    return tuple(u)


def with_exponent(rng: random.Random, n: int, j: int) -> tuple[int, ...]:
    """A random permutation of size n whose class has exactly 2^j members.

    Letters j-1, ..., 1 each go to one end of a random block of the others,
    which makes levels 1..j all ones; draws whose upper levels add more
    doubling steps are redrawn."""
    while True:
        u = list(random_permutation(rng, n - j + 1))
        u = [x + j - 1 for x in u]
        for letter in range(j - 1, 0, -1):
            if rng.random() < 0.5:
                u.insert(0, letter)
            else:
                u.append(letter)
        if ref.exponent(ref.pyramid(u)) == j:
            return tuple(u)


def random_minimal_prefix(rng: random.Random, i: int, n: int) -> tuple[int, ...]:
    """A random minimal periodic-complement prefix of length i over 1..n:
    a random progression as the complement, the other letters in random
    order, redrawn until no shorter prefix has a periodic complement."""
    size = n - i
    while True:
        d = rng.randint(1, (n - 1) // (size - 1))
        a = rng.randint(1, n - (size - 1) * d)
        complement = set(range(a, a + (size - 1) * d + 1, d))
        w = [x for x in range(1, n + 1) if x not in complement]
        rng.shuffle(w)
        if ref.is_minimal_prefix(w, n):
            return tuple(w)


def _text(u) -> str:
    return "".join(map(str, u)) if len(u) <= 9 else " ".join(map(str, u))


def _pyramid_chain(u) -> list[Op]:
    """parse, pyramid, class size, canonical member, key and its decoding."""
    levels = ref.pyramid(u)
    p = pyramid.pyramidal_sequence(u)
    key = pyramid.canonical_key(p)
    text = _text(u)
    return [
        Op("parse_permutation", lambda t: words.parse_permutation(text),
           lambda out: [] if out == u else [f"parsed {text!r} as {out}"]),
        Op("pyramidal_sequence", lambda t: pyramid.pyramidal_sequence(u),
           lambda out: [] if out.levels == levels else [f"pyramid of {u}: {out.levels}"]),
        Op("class_size_exponent", lambda t: pyramid.class_size_exponent(p),
           lambda out: [] if out == ref.exponent(levels) else [f"exponent of {u}: {out}"]),
        Op("canonical_member", lambda t: pyramid.canonical_member(p),
           lambda out: [] if ref.is_permutation(out) and ref.pyramid(out) == levels
           else [f"canonical member {out} is not in the class of {u}"]),
        Op("canonical_key", lambda t: pyramid.canonical_key(p),
           lambda out: [] if pyramid.levels_from_key(out) == levels
           else [f"key of {u} does not decode to its pyramid"]),
        Op("levels_from_key", lambda t: pyramid.levels_from_key(key),
           lambda out: [] if out == levels else [f"key of {u} decodes to {out}"]),
    ]


def _expect(label: str, want):
    return lambda out: [] if out == want else [f"{label}: {out}, expected {want}"]


def _shift_item(rng: random.Random, n: int, j: int, strong_partner: bool) -> list[Op]:
    """Four shift queries on a permutation u whose class has 2^j members."""
    u = with_exponent(rng, n, j)
    v = rng.choice(sorted(shift.strong_shift_class(u)))
    other = v if strong_partner else random_permutation(rng, n)
    mirror = v[::-1]
    strong, _ = ref.shift_partner(u, other)
    _, mirrored = ref.shift_partner(u, mirror)
    return [
        Op("is_strong_shift_equivalent", lambda t: shift.is_strong_shift_equivalent(u, other),
           _expect(f"strong shift {u} ~ {other}", strong)),
        Op("is_shift_equivalent", lambda t: shift.is_shift_equivalent(u, mirror),
           _expect(f"shift {u} ~ {mirror}", mirrored)),
        Op("find_witness", lambda t: shift.find_witness(u, v, False),
           lambda out: ref.check_witness(
               u, v, [m if m == "reversal" else (m.height, m.offset) for m in out or ()])),
        Op("strong_shift_class", lambda t: shift.strong_shift_class(u),
           lambda out: ref.check_orbit(u, out, j)),
    ]


def _roundtrips(rng: random.Random, n: int) -> list[Op]:
    """prefix -> trapezoid -> prefix, and prefix -> non-interval -> prefix."""
    w = random_minimal_prefix(rng, n - 4, n)
    tower = ref.deletion_tower(w, n)
    t_in = trapezoid.prefix_to_trapezoid(w, n)
    k = rng.randint(2, n // 2 - 1)
    s = random_minimal_prefix(rng, k, n)
    b_in = trapezoid.prefix_to_noninterval(s, n)
    return [
        Op("prefix_to_trapezoid", lambda t: trapezoid.prefix_to_trapezoid(w, n),
           lambda out: [] if out.levels == tower else [f"tower of {w}: {out.levels}"]),
        Op("trapezoid_to_prefix", lambda t: trapezoid.trapezoid_to_prefix(t_in),
           _expect(f"prefix of the tower of {w}", w)),
        Op("prefix_to_noninterval", lambda t: trapezoid.prefix_to_noninterval(s, n),
           lambda out: [] if ref.is_permutation(out) and len(out) == k + 1
           and not ref.has_interval_suffix(out)
           and trapezoid.noninterval_to_prefix(out, n) == s
           else [f"{s} maps to {out}"]),
        Op("noninterval_to_prefix", lambda t: trapezoid.noninterval_to_prefix(b_in, n),
           _expect(f"prefix of {b_in}", s)),
    ]


def query_ops(seed: int) -> list[Op]:
    """A seeded stream of library calls on permutations of sizes 8-16."""
    rng = random.Random(seed)
    ops: list[Op] = []
    for n in QUERY_SIZES:
        for c in range(CHAINS_PER_SIZE):
            u = random_permutation(rng, n)
            ops += _pyramid_chain(u)
            v = pyramid.canonical_member(pyramid.pyramidal_sequence(u)) if c % 2 == 0 \
                else random_permutation(rng, n)
            ops.append(Op("is_ss_equivalent", lambda t, u=u, v=v: pyramid.is_ss_equivalent(u, v),
                          _expect(f"{u} ~ {v}", ref.pyramid(u) == ref.pyramid(v))))
        ops += _roundtrips(rng, n)
    for index, (n, j) in enumerate(SMALL_CLASSES + LARGE_CLASSES):
        ops += _shift_item(rng, n, j, strong_partner=index % 2 == 0)
    return ops


# -- cli -------------------------------------------------------------------------

ORBIT_MEMBER = (2, 10, 9, 11, 12, 8, 7, 6, 5, 4, 3, 1)  # its class has 2^9 members
ORBIT_EXPONENT = 9
COUNT_N = 200


class CommandFailed(RuntimeError):
    pass


class Spawner:
    """Runs ``wilf`` commands, one fresh process each, and keeps the largest
    resident set any of them reached."""

    def __init__(self, runs: Path):
        self.runs = runs
        self.peak_kib = 0

    def __call__(self, args: list[str], tracer) -> bytes:
        if tracer is None:
            entry = ["-c", "from sswilf.cli import console_main; console_main()"]
        else:
            entry = [str(HERE / "cli_child.py")]
        with tempfile.TemporaryFile(dir=self.runs) as err:
            proc = subprocess.Popen([sys.executable, *entry, *args, "--json"],
                                    stdout=subprocess.PIPE, stderr=err)
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            diagnostics = err.read().decode(errors="replace")
        if proc.returncode != 0:
            raise CommandFailed(f"wilf {' '.join(args)} exited {proc.returncode}: "
                                f"{diagnostics[-500:]}")
        if tracer is None:
            self.peak_kib = max(self.peak_kib, usage.ru_maxrss)
        else:
            trace = json.loads(diagnostics.splitlines()[-1])
            tracer.adopt(trace["spans"], trace["counts"])
        return out


def _payload(check):
    """Apply ``check`` to the JSON a command printed."""
    return lambda out: check(json.loads(out))


def _check_pyramid(u):
    levels = ref.pyramid(u)
    j = ref.exponent(levels)

    def check(got) -> list[str]:
        member = tuple(got["canonical_member"])
        if (tuple(got["permutation"]) != u
                or tuple(map(tuple, got["levels"])) != levels
                or got["exponent"] != j or got["class_size"] != 1 << j
                or not ref.is_permutation(member) or ref.pyramid(member) != levels):
            return [f"wilf pyramid {u}: {got}"]
        return []

    return check


def _check_value(want):
    return lambda got: [] if got["value"] == want else [f"{got}: expected {want}"]


def _check_table(printed: dict):
    def check(got) -> list[str]:
        cells = {(c["i"], c["n"]): c["value"] for c in got["values"]}
        wrong = {cell: v for cell, v in printed.items() if cells.get(cell) != v}
        return [f"table cells differ from the printed table: {sorted(wrong)}"] if wrong else []

    return check


def _check_class_count_200(got) -> list[str]:
    """Computed apart from the timed command, by the size-split recurrence."""
    by_exponent = {j: counting.class_count_by_exponent(j, COUNT_N) for j in range(1, COUNT_N)}
    return ref.check_count_identities(COUNT_N, got["value"], by_exponent)


def _check_reps(got) -> list[str]:
    members = [tuple(m) for m in got["members"]]
    if (len(members) != ref.CLASS_COUNTS[8]
            or not all(len(m) == 8 and ref.is_permutation(m) for m in members)
            or not ref.distinct_pyramids(members)):
        return [f"wilf reps: {len(members)} members are not one per class of S_8"]
    return []


def cli_ops(seed: int, spawn: Spawner) -> list[Op]:
    """Cheap commands, whose time is mostly interpreter start and import,
    on seeded permutations; then four heavy cold-cache commands."""
    rng = random.Random(seed)

    def command(label, args, check):
        return Op(label, lambda t: spawn(args, t), _payload(check), hash)

    ops = []
    for n in (9, 12, 16):
        u = random_permutation(rng, n)
        ops.append(command("pyramid", ["pyramid", _text(u)], _check_pyramid(u)))
    # letter 1 sits at one end of u; moving it to the other keeps the pyramid
    u = with_exponent(rng, 9, 4)
    v = u[1:] + (1,) if u[0] == 1 else (1,) + u[:-1]
    for a, b in ((u, v), (random_permutation(rng, 12), random_permutation(rng, 12))):
        want = ref.pyramid(a) == ref.pyramid(b)
        ops.append(command("equiv", ["equiv", _text(a), _text(b), "--relation", "ss"],
                           lambda got, a=a, b=b, want=want: [] if got["equivalent"] == want
                           else [f"equiv {a} {b}: {got}"]))
    return ops + [
        command("count s 10", ["count", "s", "--n", "10"], _check_value(ref.CLASS_COUNTS[10])),
        command("count sh 11", ["count", "sh", "--n", "11"],
                lambda got: _check_value(ref.SHIFT_CLASS_COUNTS[11])(got)
                + _check_value(1 + ref.CLASS_COUNTS[11] // 2)(got)),
        command("count d 14", ["count", "d", "--i", "4", "--n", "14"],
                _check_value(ref.NONINTERVAL_COUNTS[5])),
        command("table 4", ["table", "4"], _check_table(ref.CLASS_COUNTS_BY_EXPONENT)),
        command("table 1", ["table", "1"], _check_table(ref.MINIMAL_PREFIX_COUNTS)),
        command(f"count s {COUNT_N}", ["count", "s", "--n", str(COUNT_N)],
                _check_class_count_200),
        command("reps", ["reps", "--n", "8", "--invert"], _check_reps),
        command("prefixes", ["prefixes", "--i", "6", "--n", "10"],
                lambda got: ref.check_minimal_prefixes(
                    6, 10, [tuple(m) for m in got["members"]])),
        command("shift-orbit", ["shift-orbit", _text(ORBIT_MEMBER)],
                lambda got: ref.check_orbit(ORBIT_MEMBER, got["orbit"], ORBIT_EXPONENT)),
    ]
