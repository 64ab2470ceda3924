"""Brute-force ground truth.

Everything here recomputes, by exhaustive enumeration, quantities that the
rest of the package obtains from recurrences, bijections, or structure rules:
the partition of S_n by pyramid, the minimal-prefix sets and their counts,
and the orbit partitions under rigid shifts.  The oracle side deliberately
avoids the recursive shortcuts so that agreement is meaningful.

Whether a word is a minimal prefix depends only on the letter sets of its
prefixes, so the minimal-prefix filter walks letter sets, not words.  It
then joins two halves at the letter sets of length k = (i + 1) // 2: the
words of length k, and for each of their sets the suffixes that complete
it, listed back from length i.  It holds those half-words, the letter sets
they reach, and the letter sets whose unused letters form a progression
(1,381 of them at n = 30).  Nothing in it is sized by 2^n, and each suffix
it lists completes an output word, so its memory follows its output.

The pyramid sweep and the orbit BFS give their classes as the same rows,
(code of the least member, key, size), and share one report step: it sorts
the rows on their codes, rewrites each in place into the report's row while
counting the classes of each size, and checks each distinct size once: it
is a power of two, and the sizes sum to n!.  The serial sweep hands the
kernel's rows over as they are, one per class; only the pool merges, by key,
the rows its blocks share.

The orbit BFS uses one lemma and no pyramid: mirroring the skyline diagram
turns the rigid shift (h, d) of u into the rigid shift (h, -d) of rev(u),
with the result reversed, so the rigid-shift orbit of rev(u) is the
reversal of the orbit of u.  Each BFS thus yields a mirror pair of orbits,
or one orbit under shifts and reversals.  The pyramid key only labels them.
Each label is built from the least member's position masks as
``kernel.sweep_block`` builds a key, from the level bytes of the letters
>= x for x = n down to 1, so it has the bytes of ``pyramid.canonical_key``
and no pyramid is built.  The BFS steps with its own
:func:`enumerate_rigid_shifts`, a scan of every cut and offset over position
masks, and shares no move generator with ``sswilf.shift``, so agreement with
the library's orbits also checks the library's moves.

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
from operator import itemgetter

from . import kernel
from .errors import InternalError
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


def _finish_report(n: int, rows: list) -> ClassPartitionReport:
    """Turn ``rows``, one (code of the least member, key, class size) per
    class with the code of u being sum of u[p] * 256^(n-1-p) as
    ``kernel.sweep_block`` gives it, into the report.

    The rows are sorted on their code alone, an int key.  No two classes
    share a least member, so this gives the order of a sort on whole rows
    without its second comparison per pair, and the report does not depend
    on the order the rows came in.  Each row is then rewritten in place to
    (key, size, least member), its code becoming a tuple only then, and the
    classes of each size are counted in the same pass.  The checks run once
    per distinct size after it: each size must be a power of two, and the
    sizes, times their counts, must sum to n!.
    """
    rows.sort(key=itemgetter(0))
    per_size: dict[int, int] = {}  # class size -> number of classes of that size
    for i, (code, key, size) in enumerate(rows):
        per_size[size] = per_size.get(size, 0) + 1
        rows[i] = (key, size, tuple(code.to_bytes(n, "big")))
    histogram: dict[int, int] = {}
    total = 0
    for size, count in per_size.items():
        j = size.bit_length() - 1
        if 1 << j != size:
            raise InternalError(f"class size {size} is not a power of two")
        histogram[j] = count
        total += size * count
    if total != factorial(n):
        raise InternalError(f"class sizes sum to {total}, expected {factorial(n)}")
    histogram = dict(sorted(histogram.items()))
    return ClassPartitionReport(n, len(rows), histogram, tuple(rows))


def _merge(into: dict[bytes, list], rows: list) -> None:
    """Fold a block's rows into ``into``, {key: [code, count]}: a key that
    several blocks hold sums its counts and keeps the smaller code."""
    for code, key, count in rows:
        entry = into.get(key)
        if entry is None:
            into[key] = [code, count]
        else:
            entry[1] += count
            if code < entry[0]:
                entry[0] = code


def bruteforce_ss_partition(
    n: int, workers: int = 1, limit: int | None = None
) -> ClassPartitionReport:
    """Group all of S_n by pyramid key.

    With ``workers`` > 1 the lexicographic order is split into ``workers``
    contiguous blocks (at most n!, one permutation each), swept by a pool of
    at most one process per CPU; per-block rows merge by key, summing counts
    and keeping the least representative.  On a 2-CPU machine two workers
    are slower than one: the parent process unpickles and merges every
    block's rows on its own, and that costs more than the sweep it shares.
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
    return _finish_report(n, [(code, key, count) for key, (code, count) in groups.items()])


def _periodic_complements(n: int) -> set[int]:
    """The masks of used letters whose unused letters form an arithmetic
    progression (needs at least two of them).  Each progression a, a + d,
    ..., of at least two terms in 1..n gives its complement."""
    full = (1 << n) - 1
    periodic = set()
    for d in range(1, n):
        for a in range(1, n - d + 1):
            progression = 1 << (a - 1)
            for x in range(a + d, n + 1, d):
                progression |= 1 << (x - 1)
                periodic.add(full & ~progression)
    return periodic


def bruteforce_minimal_prefixes(
    i: int, n: int, limit: int | None = None
) -> tuple[tuple[int, ...], ...]:
    """Filter the distinct-letter words of length i over 1..n by the defining
    conditions (periodic complement, no shorter prefix with one), without the
    recursive construction.

    Whether a word is a minimal prefix depends only on the letter sets of its
    prefixes: the set of all i letters has a periodic complement and no
    shorter nonempty prefix's set has one.  So the filter first walks letter
    sets alone: for each length it lists, per mask reached, the letters that
    may follow, each leaving a complement periodic at length i and aperiodic
    before.  It then joins two halves at the masks of length k = (i + 1) // 2.
    Going back from length i, each mask gets its completing suffixes, in lex
    order; going forward, only the words of length k are listed.  Each word
    is followed by the suffixes of its mask, which keeps lex order, since the
    words ascend and so do each mask's suffixes.  Near the middle both
    halves stay small: at (i, n) = (7, 9) the split k = 0..7 took
    58/49/36/24/19/24/39/76 ms (median of 7 calls), against 42 ms for a
    filter that lists the words of every length, and at (6, 9) k = 3 took
    1.9 ms against 5.7 ms.

    Every mask in the walk is reached by a word, so every suffix listed
    completes at least one output word: a call holds and does work in
    proportion to its output, with no table over all 2^n letter sets.
    """
    i, n = as_prefix_length(i, n)
    enforce_limit(n, limit, DEFAULT_SS_LIMIT)
    periodic = _periodic_complements(n)
    letters = [(x, 1 << (x - 1)) for x in range(1, n + 1)]
    masks = {0}  # the masks reached at the current length
    # steps[length - 1][mask] lists (letter, mask with it) for each unused
    # letter whose addition leaves a complement that is periodic at length i
    # and aperiodic before
    steps = []
    for length in range(1, i + 1):
        last = length == i
        step = {
            mask: [
                (x, mask | bit)
                for x, bit in letters
                if not mask & bit and ((mask | bit) in periodic) == last
            ]
            for mask in masks
        }
        steps.append(step)
        masks = {m for nexts in step.values() for _, m in nexts}
    k = (i + 1) // 2
    tails = {m: [()] for m in masks}  # tails[mask]: its suffixes to length i
    for step in reversed(steps[k:]):
        tails = {
            mask: [(x,) + t for x, m in nexts for t in tails[m]]
            for mask, nexts in step.items()
        }
    words: list[tuple[tuple[int, ...], int]] = [((), 0)]  # (word, mask of its letters)
    for step in steps[:k]:
        words = [(w + (x,), m) for w, mask in words for x, m in step[mask]]
    return tuple([w + t for w, mask in words for t in tails[mask]])


def bruteforce_minimal_prefix_row(n: int, limit: int | None = None) -> tuple[int, ...]:
    """Count the minimal prefixes over 1..n of every length from the
    definition, listing none: ``row[i]`` is their number at length i, for
    1 <= i <= n-2, and ``row[0]`` is 0.

    Whether a word is a minimal prefix depends only on the letter sets of its
    prefixes: a word of length i counts when the set of its first i letters
    has a periodic complement and no shorter nonempty prefix's set has one.
    So the words are counted through their sets, in one pass over the 2^n
    used-letter masks in increasing order.  A mask outside the periodic ones
    stores the number of words that reach it with no periodic prefix before,
    the sum over its letters x of the number stored for the mask without x.
    A periodic mask, of size i <= n-2, adds that sum to ``row[i]`` and stores
    nothing, since no word goes on past it.  It holds 2^n counts, so it is
    limited like the listing it checks.
    """
    n = as_size(n, least=3)
    enforce_limit(n, limit, DEFAULT_SS_LIMIT)
    periodic = _periodic_complements(n)
    bits = [1 << x for x in range(n)]
    ways = [0] * (1 << n)  # ways[mask]: words over the mask's letters, no periodic prefix
    ways[0] = 1
    row = [0] * (n - 1)
    for mask in range(1, 1 << n):
        total = sum(ways[mask ^ bit] for bit in bits if mask & bit)
        if mask in periodic:
            row[mask.bit_count()] += total
        else:
            ways[mask] = total
    return tuple(row)


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
    only labels the orbits, it plays no part in grouping.  Each label comes
    from the positions of the least member's letters: with one
    ``kernel._LevelBytes`` per call, the bytes of the level of the letters
    >= x, looked up by their position mask for x = n down to 1, joined.
    Those are the bytes of ``pyramid.canonical_key``, built as
    ``kernel.sweep_block`` builds its keys.
    """
    n = as_size(n, least=2)
    enforce_limit(n, limit, DEFAULT_SHIFT_LIMIT)
    seen: set[tuple[int, ...]] = set()
    rows = []
    level = kernel._LevelBytes()
    join = b"".join
    at = [0] * (n + 1)  # at[x] = 1 << the position of letter x in `least`

    def record(least: tuple[int, ...], size: int) -> None:
        for p, x in enumerate(least):
            at[x] = 1 << p
        mask = 0
        parts = []
        for x in range(n, 0, -1):
            mask |= at[x]
            parts.append(level[mask])
        rows.append((int.from_bytes(bytes(least), "big"), join(parts), size))

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
    return _finish_report(n, rows)


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
    """Compare brute-forced minimal prefix listings against the recursive
    construction and the counting recurrence, and the row counted over
    letter sets against the recurrence as well.

    Both listings are sorted tuples, so they are compared as they are, order
    and repeats included; sets of the words are built only on a mismatch, to
    name the words one listing has and the other lacks."""
    from .counting import minimal_prefix_count
    from .trapezoid import minimal_prefixes

    mismatches = []
    for n in _check_sizes("prefixes", n_max, limit):
        row = bruteforce_minimal_prefix_row(n, limit=limit)
        for i in range(1, n - 1):
            brute = bruteforce_minimal_prefixes(i, n, limit=limit)
            built = minimal_prefixes(i, n)
            if brute != built:
                brute_set, built_set = set(brute), set(built)
                if brute_set == built_set:
                    mismatches.append(
                        f"(i={i}, n={n}): same words, listed in another order "
                        f"or with repeats"
                    )
                else:
                    extra = sorted(built_set - brute_set)[:3]
                    missing = sorted(brute_set - built_set)[:3]
                    mismatches.append(
                        f"(i={i}, n={n}): sets differ; built-only {extra}, "
                        f"brute-only {missing}"
                    )
            want = minimal_prefix_count(i, n)
            if len(brute) != want:
                mismatches.append(
                    f"(i={i}, n={n}): {len(brute)} prefixes, recurrence says {want}"
                )
            if row[i] != want:
                mismatches.append(
                    f"(i={i}, n={n}): {row[i]} prefixes counted over letter sets, "
                    f"recurrence says {want}"
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
