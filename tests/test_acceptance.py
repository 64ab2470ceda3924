"""Acceptance suite: every shipping criterion, one pass/fail line each.

Run under pytest (lines are printed as each criterion passes) or directly::

    python tests/test_acceptance.py

Each criterion function returns a one-line summary and raises on failure.
"""
from __future__ import annotations

import sys
import time
from itertools import permutations as _permutations
from math import factorial

import pytest

import tables
from conftest import brute_class_map, pyramid_by_suffix_alphabets, symmetric_group

from sswilf import kernel
from sswilf.counting import (
    class_count,
    class_count_by_exponent,
    minimal_prefix_count,
    shift_class_count,
)
from sswilf.oracle import (
    bruteforce_minimal_prefixes,
    bruteforce_shift_partition,
    bruteforce_ss_partition,
)
from sswilf.pyramid import (
    PyramidalSequence,
    canonical_member,
    class_size_exponent,
    levels_from_key,
    pyramidal_sequence,
)
from sswilf.representatives import inverse_representatives
from sswilf.shift import (
    RigidShiftMove,
    apply_rigid_shift,
    enumerate_rigid_shifts,
    strong_shift_class,
)
from sswilf.trapezoid import (
    minimal_prefixes,
    noninterval_to_prefix,
    prefix_to_noninterval,
    prefix_to_trapezoid,
    trapezoid_to_prefix,
)
from sswilf.words import embedding_set, inverse, reduced_form, reversal

CRITERIA = []


def criterion(number, title):
    def register(fn):
        CRITERIA.append((number, title, fn))
        return fn

    return register


def _timed():
    start = time.perf_counter()
    return lambda: time.perf_counter() - start


@criterion(1, "minimal-prefix count table")
def criterion_01():
    elapsed = _timed()
    for (i, n), value in tables.MINIMAL_PREFIX_COUNTS.items():
        assert minimal_prefix_count(i, n) == value, (i, n)
    assert minimal_prefix_count(5, 10) == 488
    assert minimal_prefix_count(10, 12) == 162774240
    took = elapsed()
    assert took < 1.0, f"took {took:.3f}s"
    cells = len(tables.MINIMAL_PREFIX_COUNTS)
    return (
        f"all {cells} populated cells match in {took:.3f}s "
        "(the two n=12 cells follow the recurrence; the printed values are "
        "inconsistent with it, see tests/tables.py)"
    )


@criterion(2, "class count sequence")
def criterion_02():
    elapsed = _timed()
    for n, value in tables.CLASS_COUNTS.items():
        assert class_count(n) == value, n
    took = elapsed()
    assert took < 1.0, f"took {took:.3f}s"
    return f"sizes 1..12 match in {took:.3f}s (n=12 per the recurrence)"


@criterion(3, "shift class count sequence")
def criterion_03():
    elapsed = _timed()
    for n, value in tables.SHIFT_CLASS_COUNTS.items():
        assert shift_class_count(n) == value, n
        if n >= 3:
            assert class_count(n) % 2 == 0, f"odd class count at n={n}"
    took = elapsed()
    assert took < 1.0, f"took {took:.3f}s"
    return f"sizes 1..12 match, halving never hit an odd count, in {took:.3f}s"


@criterion(4, "class counts by size")
def criterion_04():
    elapsed = _timed()
    for (j, n), value in tables.CLASS_COUNTS_BY_EXPONENT.items():
        assert class_count_by_exponent(j, n) == value, (j, n)
    for n in range(2, 13):
        row = [class_count_by_exponent(j, n) for j in range(1, n)]
        assert sum(row) == class_count(n), n
        assert sum(c * 2**j for j, c in enumerate(row, 1)) == factorial(n), n
    took = elapsed()
    assert took < 1.0, f"took {took:.3f}s"
    return (
        f"all populated cells match, columns sum to the class counts and "
        f"weighted columns to n!, in {took:.3f}s"
    )


@criterion(5, "representative sets")
def criterion_05():
    elapsed = _timed()
    for n in (3, 4, 5, 6):
        got = set(inverse_representatives(n))
        assert got == tables.representative_set(n), n
        assert len(got) == class_count(n)
    took = elapsed()
    assert took < 1.0, f"took {took:.3f}s"
    return (
        f"sets for sizes 3..6 match (2+8+40+256 members) in {took:.3f}s "
        "(one printed size-6 member is transposed, see tests/tables.py)"
    )


@criterion(6, "exhaustive class partition vs recurrences")
def criterion_06():
    for n in range(2, 9):
        report = bruteforce_ss_partition(n)
        assert report.class_count == class_count(n), n
        for j in range(1, n):
            assert report.size_histogram.get(j, 0) == class_count_by_exponent(j, n)
    elapsed = _timed()
    report = bruteforce_ss_partition(9)
    single = elapsed()
    assert report.class_count == class_count(9)
    for j in range(1, 9):
        assert report.size_histogram.get(j, 0) == class_count_by_exponent(j, 9)
    # both acceptance bounds hold the one serial sweep
    assert single < 60.0, f"the S_9 sweep took {single:.1f}s, over 60 s"
    assert single < 15.0, f"the S_9 sweep took {single:.1f}s, over 15 s"
    return (
        f"counts and histograms match for sizes 2..9; size 9 swept in one "
        f"serial run in {single:.2f}s ({kernel.BACKEND} kernel)"
    )


@criterion(7, "exhaustive prefix sets vs construction and counts")
def criterion_07():
    elapsed = _timed()
    for n in range(3, 10):
        for i in range(1, n - 1):
            brute = set(bruteforce_minimal_prefixes(i, n))
            assert brute == set(minimal_prefixes(i, n)), (i, n)
            assert len(brute) == minimal_prefix_count(i, n), (i, n)
    took = elapsed()
    assert took < 30.0, f"took {took:.1f}s"
    return f"all (length, size) pairs up to size 9 agree in {took:.1f}s"


@criterion(8, "bijection roundtrips")
def criterion_08():
    checked = 0
    for n in range(3, 10):
        # heights >= 2: the prefix <-> trapezoid maps invert exactly
        for i in range(2, n - 1):
            for u in minimal_prefixes(i, n):
                t = prefix_to_trapezoid(u, n)
                assert trapezoid_to_prefix(t) == u, (u, n)
                checked += 1
        # height 1 collapses: deleting 1 or n leaves the same gap vector
        singles = minimal_prefixes(1, n)
        images = {u: prefix_to_trapezoid(u, n) for u in singles}
        assert trapezoid_to_prefix(images[(1,)]) == (1,)
        if n == 3:
            assert trapezoid_to_prefix(images[(2,)]) == (2,)
            assert images[(1,)] == images[(3,)]
        else:
            assert images[(1,)] == images[(n,)]
        # trapezoid -> prefix -> trapezoid closes on every image
        for t in set(images.values()):
            assert prefix_to_trapezoid(trapezoid_to_prefix(t), n) == t
        # pattern correspondence on its bijective range
        for k in range(1, (n + 1) // 2):
            if k > n - 2 or not k < n // 2:
                continue
            pats = set()
            for u in minimal_prefixes(k, n):
                b = prefix_to_noninterval(u, n)
                assert noninterval_to_prefix(b, n) == u, (u, n)
                pats.add(b)
                checked += 1
            for b in pats:
                assert prefix_to_noninterval(noninterval_to_prefix(b, n), n) == b
    return (
        f"{checked} roundtrips verified with zero failures; at height 1 the "
        "prefix map is two-to-one by construction (both endpoint deletions "
        "give one trapezoid whose inverse image is the letter 1), reported "
        "and pinned rather than patched"
    )


@criterion(9, "rigid-shift orbits are the equivalence classes")
def criterion_09():
    elapsed = _timed()
    # every move is undone by the offset-reversed move, so one breadth-first
    # closure per class settles membership for all of its members
    for n in range(2, 6):
        for u in symmetric_group(n):
            for move, r in enumerate_rigid_shifts(u):
                back = RigidShiftMove(move.height, -move.offset)
                assert apply_rigid_shift(r, back) == u, (u, move)
    for n in range(2, 8):
        covered = 0
        for levels, members in brute_class_map(n).items():
            orbit = strong_shift_class(members[0])
            assert orbit == set(members), (n, levels)
            covered += len(orbit)
        assert covered == factorial(n)
    took = elapsed()
    assert took < 60.0, f"took {took:.1f}s"
    return (
        f"orbits equal classes for every permutation of sizes 2..7 "
        f"(moves verified invertible) in {took:.1f}s"
    )


@criterion(10, "shift orbit partition and mirror-invariant classes")
def criterion_10():
    for n in range(3, 8):
        report = bruteforce_shift_partition(n, with_reversals=True)
        assert report.class_count == shift_class_count(n), n
        assert report.class_count == 1 + class_count(n) // 2, n
        invariant = [
            members
            for members in brute_class_map(n).values()
            if {reversal(w) for w in members} == set(members)
        ]
        assert len(invariant) == 2, n
    return (
        "orbit counts match 1 + classes/2 for sizes 3..7 and each size has "
        "exactly two mirror-invariant classes"
    )


@criterion(11, "golden worked examples")
def criterion_11():
    levels = pyramidal_sequence((5, 9, 2, 7, 3, 8, 1, 6, 4)).levels
    assert levels == (
        (1, 1, 1, 1, 1, 1, 1, 1),
        (1, 1, 1, 1, 1, 2, 1),
        (1, 2, 1, 1, 2, 1),
        (1, 2, 2, 2, 1),
        (1, 2, 2, 2),
        (2, 2, 2),
        (2, 2),
        (4,),
    )
    assert embedding_set((3, 2, 2), (2, 3, 4, 3, 2, 1, 3, 4, 2, 1)) == (2, 3, 7)
    assert apply_rigid_shift((3, 2, 4, 1, 5), RigidShiftMove(3, -2)) == (4, 2, 5, 1, 3)
    return "pyramid levels, embedding indices, and the rigid shift all exact"


@criterion(12, "structural properties, exhaustive through size 8")
def criterion_12():
    elapsed = _timed()
    for n in range(2, 9):
        rows = kernel.sweep_block(n, 0, factorial(n))
        total_classes = 0
        for _least, key, size in rows:
            # validated construction checks the base and every transition
            p = PyramidalSequence(levels_from_key(key))
            j = class_size_exponent(p)
            assert size == 2**j, (n, key)
            member = canonical_member(p)
            assert pyramidal_sequence(member) == p, (n, key)
            total_classes += 1
        assert total_classes == class_count(n)
    for n in range(2, 9):
        for u in symmetric_group(n):
            assert inverse(inverse(u)) == u
            assert reversal(reversal(u)) == u
            assert reduced_form(u) == u
    took = elapsed()
    return (
        f"every pyramid through size 8 validates, class sizes are the "
        f"predicted powers of two, rebuilt members land in their classes, "
        f"and the involution laws hold ({took:.1f}s)"
    )


_IDS = [f"criterion_{number:02d}" for number, _, _ in CRITERIA]


@pytest.mark.parametrize("number,title,fn", CRITERIA, ids=_IDS)
def test_criterion(number, title, fn, capsys):
    message = fn()
    with capsys.disabled():
        print(f"\ncriterion {number}: PASS: {message}")


@pytest.mark.xfail(
    strict=True,
    reason="the height-1 prefix map sends both 1 and n to the same trapezoid, "
    "so no inverse can return both; the inverse settles on 1",
)
def test_literal_all_heights_inversion():
    for n in range(4, 10):
        t = prefix_to_trapezoid((n,), n)
        assert trapezoid_to_prefix(t) == (n,)


def _run_all() -> int:
    failures = 0
    for number, title, fn in CRITERIA:
        start = time.perf_counter()
        try:
            message = fn()
        except Exception as exc:  # report and continue with the remaining criteria
            failures += 1
            took = time.perf_counter() - start
            print(f"criterion {number}: FAIL: {title}: {exc} ({took:.1f}s)")
        else:
            print(f"criterion {number}: PASS: {message}")
    print(
        f"{len(CRITERIA) - failures}/{len(CRITERIA)} criteria passed"
        + (f", {failures} FAILED" if failures else "")
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(_run_all())
