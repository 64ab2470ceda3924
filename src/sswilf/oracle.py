"""Brute-force ground truth.

Everything here recomputes, by exhaustive enumeration, quantities that the
rest of the package obtains from recurrences, bijections, or structure rules:
the partition of S_n by pyramid, the minimal-prefix sets, and the orbit
partitions under rigid shifts.  The oracle side deliberately avoids the
recursive shortcuts so that agreement is meaningful.

The orbit BFS uses one lemma and no pyramid: mirroring the skyline diagram
turns the rigid shift (h, d) of u into the rigid shift (h, -d) of rev(u),
with the result reversed, so the rigid-shift orbit of rev(u) is the
reversal of the orbit of u.  Each BFS thus yields a mirror pair of orbits,
or one orbit under shifts and reversals.  The pyramid key only labels them.
It steps with its own :func:`enumerate_rigid_shifts`, a scan of every cut
and offset over position masks, and shares no move generator with
``sswilf.shift``, so agreement with the library's orbits also checks the
library's moves.

Each sweep refuses sizes above a limit (``DEFAULT_SS_LIMIT`` for the
pyramid and prefix sweeps, ``DEFAULT_SHIFT_LIMIT`` for the orbit BFS) unless
the caller passes a higher ``limit``; the CLI's ``--limit`` feeds it.  No
limit lets the pyramid sweep past ``kernel.MAX_N``.
"""
from __future__ import annotations

import os
from collections import namedtuple
from itertools import permutations as _permutations
from math import factorial

from . import kernel
from .errors import InternalError
from .pyramid import canonical_key, pyramidal_sequence
from .words import as_prefix_length, as_size, enforce_limit

DEFAULT_SS_LIMIT = 9
DEFAULT_SHIFT_LIMIT = 7
# the default limit of each check_* cross-check, in the order the CLI runs them
LIMITS = {
    "ss": DEFAULT_SS_LIMIT,
    "prefixes": DEFAULT_SS_LIMIT,
    "shift": DEFAULT_SHIFT_LIMIT,
}
# the least size each check_* cross-check compares; a smaller n_max checks nothing
_LEAST = {"ss": 2, "prefixes": 3, "shift": 2}
# the most a limit may allow: the kernel sweeps sizes up to its MAX_N only
_MOST = {"ss": kernel.MAX_N}


class ClassPartitionReport(
    namedtuple("ClassPartitionReport", "n class_count size_histogram classes")
):
    """Partition of S_n: class count, histogram of log2 sizes ({j: classes
    of size 2^j}), and per class the grouping key, size, and
    lexicographically least member."""

    __slots__ = ()


def _finish_report(n: int, table: dict) -> ClassPartitionReport:
    """Drain ``table``, {key: [class size, code of its least member]} with
    the code of u being sum of u[p] * 256^(n-1-p) as ``kernel.sweep_block``
    gives it, into the report.

    Classes leave the table one at a time, in insertion order, and each code
    becomes a tuple only as its row is written, so the table and the rows are
    never held whole at once.  The table is empty, and cleared, before the
    rows are sorted by least member and the histogram by exponent, so the
    report does not depend on the order the table was filled in.
    """
    histogram: dict[int, int] = {}
    classes = []
    total = 0
    pop = table.pop
    for key in list(table):
        size, code = pop(key)
        j = size.bit_length() - 1
        if 1 << j != size:
            raise InternalError(f"class size {size} is not a power of two")
        histogram[j] = histogram.get(j, 0) + 1
        classes.append((key, size, tuple(code.to_bytes(n, "big"))))
        total += size
    table.clear()
    if total != factorial(n):
        raise InternalError(f"class sizes sum to {total}, expected {factorial(n)}")
    classes.sort(key=lambda item: item[2])
    histogram = dict(sorted(histogram.items()))
    return ClassPartitionReport(n, len(classes), histogram, tuple(classes))


def _merge(into: dict[bytes, list], part: dict[bytes, list]) -> None:
    for key, (count, least) in part.items():
        entry = into.get(key)
        if entry is None:
            into[key] = [count, least]
        else:
            entry[0] += count
            if least < entry[1]:
                entry[1] = least


def bruteforce_ss_partition(
    n: int, workers: int = 1, limit: int | None = None
) -> ClassPartitionReport:
    """Group all of S_n by pyramid key.

    With ``workers`` > 1 the lexicographic order is split into ``workers``
    contiguous blocks (at most n!, one permutation each), swept by a pool of
    at most one process per CPU; per-block tallies merge by summing counts
    and keeping the least representative.  On a 2-CPU machine two workers
    are slower than one: the parent process unpickles and merges every
    block's table on its own, and that costs more than the sweep it shares.
    """
    n = as_size(n, least=2)
    workers = as_size(workers, "workers", least=1)
    enforce_limit(n, limit, DEFAULT_SS_LIMIT, _MOST["ss"])
    total = factorial(n)
    blocks = min(workers, total)
    if blocks == 1:
        return _finish_report(n, kernel.sweep_block(n, 0, total))
    # imported here: the pool costs every other command its start-up time
    from concurrent.futures import ProcessPoolExecutor

    bounds = [total * b // blocks for b in range(blocks + 1)]
    groups: dict[bytes, list] = {}
    with ProcessPoolExecutor(max_workers=min(blocks, os.cpu_count() or 1)) as pool:
        futures = [
            pool.submit(kernel.sweep_block, n, lo, hi - lo)
            for lo, hi in zip(bounds, bounds[1:])
        ]
        for future in futures:
            _merge(groups, future.result())
    return _finish_report(n, groups)


def _periodic_complement_table(n: int) -> bytearray:
    """table[mask of used letters] = 1 iff the unused letters form an
    arithmetic progression (needs at least two of them).  Each progression
    a, a + d, ..., of at least two terms in 1..n marks its complement."""
    full = (1 << n) - 1
    table = bytearray(1 << n)
    for d in range(1, n):
        for a in range(1, n - d + 1):
            progression = 1 << (a - 1)
            for x in range(a + d, n + 1, d):
                progression |= 1 << (x - 1)
                table[full & ~progression] = 1
    return table


def bruteforce_minimal_prefixes(
    i: int, n: int, limit: int | None = None
) -> tuple[tuple[int, ...], ...]:
    """Filter the distinct-letter words of length i over 1..n by the defining
    conditions (periodic complement, no shorter prefix with one), without the
    recursive construction.

    The words grow one letter at a time in lex order.  A shorter word whose
    complement is periodic is dropped at once, since no extension of it can
    be minimal; at length i only the words with a periodic complement stay.
    Each length lists the letters that may follow only for the letter sets
    its words hold, so a call does work in proportion to the words it meets.
    """
    i, n = as_prefix_length(i, n)
    enforce_limit(n, limit, DEFAULT_SS_LIMIT)
    table = _periodic_complement_table(n)
    # step[mask] = (letter, mask with it) for each unused letter whose addition
    # leaves a complement that is periodic at length i and aperiodic before;
    # the masks of one length all hold that many letters, so lengths never
    # share an entry
    step: list = [None] * (1 << n)
    words: list[tuple[tuple[int, ...], int]] = [((), 0)]  # (word, mask of its letters)
    masks = {0}  # the masks the words hold: each mask reached is held by a word
    for length in range(1, i + 1):
        periodic = length == i
        for mask in masks:
            step[mask] = [
                (x, mask | 1 << (x - 1))
                for x in range(1, n + 1)
                if not mask >> (x - 1) & 1 and table[mask | 1 << (x - 1)] == periodic
            ]
        words = [(w + (x,), m) for w, mask in words for x, m in step[mask]]
        masks = {m for mask in masks for _, m in step[mask]}
    return tuple(w for w, _ in words)


def enumerate_rigid_shifts(
    u: tuple[int, ...],
) -> tuple[tuple[tuple[int, int], tuple[int, ...]], ...]:
    """Every rigid shift of the permutation ``u``, straight from the
    definition, as ((cut height, offset), result) pairs in (height, offset)
    order; ``u`` is not checked, the BFS builds it.

    Letters above the cut h sit on the columns of the mask ``moved``; those
    at or above it on ``landing``, which is ``moved`` and the column of h.
    Every offset d != 0 that keeps ``moved`` inside the diagram is tried,
    and the shift is valid when each moved column lands on a column of
    ``landing``, i.e. when ``moved`` shifted by d has no bit outside it.  The
    result puts each letter above h d columns on, h on the one landing
    column left uncovered, and every other letter where it was.
    """
    n = len(u)
    pos = [0] * (n + 1)  # pos[x]: the column of letter x
    for i, x in enumerate(u):
        pos[x] = i
    at_least = [0] * (n + 2)  # at_least[h]: the columns of the letters >= h
    for h in range(n, 0, -1):
        at_least[h] = at_least[h + 1] | 1 << pos[h]
    out = []
    for h in range(1, n):
        moved, landing = at_least[h + 1], at_least[h]
        least, greatest = (moved & -moved).bit_length() - 1, moved.bit_length() - 1
        for d in range(-least, n - greatest):
            if d == 0:
                continue
            shifted = moved << d if d > 0 else moved >> -d
            if shifted & ~landing:
                continue
            r = list(u)
            for x in range(h + 1, n + 1):
                r[pos[x] + d] = x
            r[(landing & ~shifted).bit_length() - 1] = h
            out.append(((h, d), tuple(r)))
    return tuple(out)


def bruteforce_shift_partition(
    n: int, with_reversals: bool, limit: int | None = None
) -> ClassPartitionReport:
    """Partition S_n into orbit closures under rigid shifts (and reversals
    when flagged) by plain breadth-first search, no pyramid involved.

    Mirroring the skyline diagram turns the rigid shift (h, d) of u into the
    rigid shift (h, -d) of rev(u), whose result is reversed too.  So the
    rigid-shift orbit of rev(u) is the reversal of the orbit of u, and the
    orbit under shifts and reversals is orbit ∪ rev(orbit).  The BFS walks
    rigid shifts only, from the least permutation not yet seen, and reverses
    the orbit it finds: with reversals the mirror joins the orbit; without,
    it is a second orbit unless it is the orbit itself.  The pyramid key
    only labels the orbits, it plays no part in grouping.
    """
    n = as_size(n, least=2)
    enforce_limit(n, limit, DEFAULT_SHIFT_LIMIT)
    seen: set[tuple[int, ...]] = set()
    entries = {}

    def record(least: tuple[int, ...], size: int) -> None:
        key = canonical_key(pyramidal_sequence(least))
        entries[key] = (size, int.from_bytes(bytes(least), "big"))

    for start in _permutations(range(1, n + 1)):
        if start in seen:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            for _, r in enumerate_rigid_shifts(frontier.pop()):
                if r not in orbit:
                    orbit.add(r)
                    frontier.append(r)
        mirror = {x[::-1] for x in orbit}
        seen |= orbit
        seen |= mirror
        # `start` is lexicographically least: S_n is walked in ascending order,
        # and every permutation below it is seen, so the mirror lies above it
        if with_reversals:
            orbit |= mirror
        elif start[::-1] not in orbit:
            record(min(mirror), len(mirror))
        record(start, len(orbit))
    return _finish_report(n, entries)


# -- agreement checks driven by the CLI --------------------------------------

def _check_sizes(check: str, n_max: int, limit: int | None) -> range:
    """The sizes ``check`` compares up to ``n_max``: refuse an ``n_max``
    below its least size, which would check nothing, or above its limit."""
    least = _LEAST[check]
    n_max = as_size(n_max, f"n_max of check {check}", least)
    enforce_limit(n_max, limit, LIMITS[check], _MOST.get(check))
    return range(least, n_max + 1)


def check_ss(n_max: int, workers: int = 1, limit: int | None = None) -> list[str]:
    """Compare swept class counts and histograms against the recurrences."""
    from .counting import class_count, class_count_by_exponent

    mismatches = []
    for n in _check_sizes("ss", n_max, limit):
        report = bruteforce_ss_partition(n, workers=workers, limit=limit)
        expected = class_count(n)
        if report.class_count != expected:
            mismatches.append(
                f"n={n}: swept {report.class_count} classes, recurrence says {expected}"
            )
        for j in range(1, n):
            got = report.size_histogram.get(j, 0)
            want = class_count_by_exponent(j, n)
            if got != want:
                mismatches.append(
                    f"n={n}: {got} classes of size 2^{j}, recurrence says {want}"
                )
    return mismatches


def check_prefixes(n_max: int, limit: int | None = None) -> list[str]:
    """Compare brute-forced minimal prefix sets against the recursive
    construction and the counting recurrence."""
    from .counting import minimal_prefix_count
    from .trapezoid import minimal_prefixes

    mismatches = []
    for n in _check_sizes("prefixes", n_max, limit):
        for i in range(1, n - 1):
            brute = set(bruteforce_minimal_prefixes(i, n, limit=limit))
            built = set(minimal_prefixes(i, n))
            if brute != built:
                extra = sorted(built - brute)[:3]
                missing = sorted(brute - built)[:3]
                mismatches.append(
                    f"(i={i}, n={n}): sets differ; built-only {extra}, "
                    f"brute-only {missing}"
                )
            want = minimal_prefix_count(i, n)
            if len(brute) != want:
                mismatches.append(
                    f"(i={i}, n={n}): {len(brute)} prefixes, recurrence says {want}"
                )
    return mismatches


def check_shift(n_max: int, limit: int | None = None) -> list[str]:
    """Compare BFS orbit partitions against the class recurrences: without
    reversals against the class count, with reversals against the shift
    class count."""
    from .counting import class_count, shift_class_count

    mismatches = []
    for n in _check_sizes("shift", n_max, limit):
        plain = bruteforce_shift_partition(n, with_reversals=False, limit=limit)
        if plain.class_count != class_count(n):
            mismatches.append(
                f"n={n}: {plain.class_count} rigid-shift orbits, "
                f"class recurrence says {class_count(n)}"
            )
        mirrored = bruteforce_shift_partition(n, with_reversals=True, limit=limit)
        if mirrored.class_count != shift_class_count(n):
            mismatches.append(
                f"n={n}: {mirrored.class_count} shift orbits, "
                f"formula says {shift_class_count(n)}"
            )
    return mismatches
