import ast
import hashlib
import tracemalloc
from itertools import permutations
from pathlib import Path

import pytest

from sswilf import oracle
from sswilf.counting import (
    class_count,
    class_count_by_exponent,
    minimal_prefix_count,
    shift_class_count,
)
from sswilf.errors import InternalError, LimitExceeded, OutOfRange
from sswilf.oracle import (
    ClassPartitionReport,
    _periodic_complements,
    bruteforce_minimal_prefix_row,
    bruteforce_minimal_prefixes,
    bruteforce_shift_partition,
    bruteforce_ss_partition,
    check_prefixes,
    check_shift,
    check_ss,
)
from sswilf.pyramid import (
    PyramidalSequence,
    canonical_member,
    canonical_key,
    levels_from_key,
    pyramidal_sequence,
)
from sswilf.shift import enumerate_rigid_shifts
from sswilf.trapezoid import minimal_prefixes
from sswilf.words import reversal


class TestEquivalencePartition:
    def test_smallest_group(self):
        report = bruteforce_ss_partition(3)
        assert report.class_count == 2
        assert sorted(size for _, size, _ in report.classes) == [2, 4]

    def test_counts_match_recurrence_up_to_seven(self):
        for n in range(2, 8):
            report = bruteforce_ss_partition(n)
            assert report.class_count == class_count(n)
            for j, count in report.size_histogram.items():
                assert count == class_count_by_exponent(j, n)

    def test_representatives_are_least_members(self):
        report = bruteforce_ss_partition(5)
        for key, _, rep in report.classes:
            assert canonical_key(pyramidal_sequence(rep)) == key

    def test_representatives_rebuild_their_class(self):
        report = bruteforce_ss_partition(6)
        for key, _, rep in report.classes:
            p = PyramidalSequence(levels_from_key(key))
            member = canonical_member(p)
            assert pyramidal_sequence(member) == p

    def test_limits(self):
        with pytest.raises(LimitExceeded):
            bruteforce_ss_partition(10)
        with pytest.raises(OutOfRange):
            bruteforce_ss_partition(1)

    def test_limit_override(self):
        with pytest.raises(LimitExceeded):
            bruteforce_ss_partition(5, limit=4)
        assert bruteforce_ss_partition(5, limit=5).class_count == 40


# sha256 of repr(bruteforce_minimal_prefixes(i, 10, limit=10)), first 16 hex
# digits, as the filter over whole words of every length listed them
PREFIX_LISTING_DIGESTS = {
    1: "5a8f51ba8193dbe4", 2: "71280cf77a50ec8b", 3: "a499bfec8171ecf2",
    4: "798e7c24e715e31f", 5: "6fc6c467f310c108", 6: "306bb8ea47478ac6",
    7: "18b2aff3b1e99758", 8: "5d2274931043976b",
}


class TestMinimalPrefixSweep:
    def test_pairs_over_five(self):
        assert set(bruteforce_minimal_prefixes(2, 5)) == {
            (2, 1), (2, 4), (4, 2), (4, 5),
        }

    def test_agrees_with_construction(self):
        for n in range(3, 9):
            for i in range(1, n - 1):
                assert set(bruteforce_minimal_prefixes(i, n)) == set(
                    minimal_prefixes(i, n)
                )

    def test_named_cardinality(self):
        assert len(bruteforce_minimal_prefixes(3, 8)) == 8

    def test_periodic_complement_table_matches_definition(self):
        # mask by mask: the letters missing from the mask, ascending, are at
        # least two and all their differences are equal
        for n in range(1, 13):
            expected = set()
            for mask in range(1 << n):
                rest = [x for x in range(1, n + 1) if not mask >> (x - 1) & 1]
                gaps = {b - a for a, b in zip(rest, rest[1:])}
                if len(rest) >= 2 and len(gaps) == 1:
                    expected.add(mask)
            assert _periodic_complements(n) == expected

    def test_same_tuple_as_a_filter_over_every_word(self):
        # every length-i word, scanned from its first letter until a prefix
        # leaves a periodic complement: kept only when that prefix is all of it
        for n in range(3, 10):
            periodic = _periodic_complements(n)
            for i in range(1, n - 1):
                expected = []
                for w in permutations(range(1, n + 1), i):
                    mask = 0
                    for j, x in enumerate(w):
                        mask |= 1 << (x - 1)
                        if mask in periodic:
                            if j == i - 1:
                                expected.append(w)
                            break
                assert bruteforce_minimal_prefixes(i, n) == tuple(expected)

    def test_listings_at_ten_are_unchanged(self):
        for i, digest in PREFIX_LISTING_DIGESTS.items():
            listing = bruteforce_minimal_prefixes(i, 10, limit=10)
            assert hashlib.sha256(repr(listing).encode()).hexdigest()[:16] == digest, i

    def test_memory_follows_the_words_not_two_to_the_n(self):
        # the two words of D(1, 22) need no table over the 2^22 letter sets
        tracemalloc.start()
        try:
            found = bruteforce_minimal_prefixes(1, 22, limit=22)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found == ((1,), (22,))
        assert peak < 1 << 20

    def test_limit(self):
        with pytest.raises(LimitExceeded):
            bruteforce_minimal_prefixes(2, 10)


class TestMinimalPrefixRow:
    def test_every_cell_through_fourteen(self):
        for n in range(3, 15):
            assert bruteforce_minimal_prefix_row(n, limit=14) == (0, *(
                minimal_prefix_count(i, n) for i in range(1, n - 1)
            )), n

    def test_printed_cells_at_twelve(self):
        # exhaustion settles the two cells the source prints differently
        row = bruteforce_minimal_prefix_row(12, limit=12)
        assert row[9] == 7_167_712
        assert row[10] == 162_774_240

    def test_limit(self):
        with pytest.raises(LimitExceeded):
            bruteforce_minimal_prefix_row(10)


def _orbits_by_definition(n, with_reversals):
    """The orbit partition by a BFS that takes a reversal as one more edge,
    with no mirror shortcut, as a report."""
    seen = set()
    classes = []
    histogram = {}
    for start in permutations(range(1, n + 1)):
        if start in seen:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            neighbours = [r for _, r in enumerate_rigid_shifts(x)]
            if with_reversals:
                neighbours.append(reversal(x))
            for r in neighbours:
                if r not in orbit:
                    orbit.add(r)
                    frontier.append(r)
        seen |= orbit
        classes.append((canonical_key(pyramidal_sequence(start)), len(orbit), start))
        j = len(orbit).bit_length() - 1
        histogram[j] = histogram.get(j, 0) + 1
    return ClassPartitionReport(
        n, len(classes), dict(sorted(histogram.items())), tuple(classes)
    )


class TestShiftPartition:
    def test_single_class_at_two(self):
        for flag in (False, True):
            report = bruteforce_shift_partition(2, with_reversals=flag)
            assert report.class_count == 1
            assert report.classes[0][1] == 2

    def test_five_with_reversals(self):
        assert bruteforce_shift_partition(5, with_reversals=True).class_count == 21

    def test_five_without_reversals(self):
        assert bruteforce_shift_partition(5, with_reversals=False).class_count == 40

    def test_rigid_orbits_refine_to_equivalence_partition(self):
        for n in range(2, 7):
            orbits = bruteforce_shift_partition(n, with_reversals=False)
            swept = bruteforce_ss_partition(n)
            assert orbits.class_count == swept.class_count
            assert sorted(orbits.classes) == sorted(swept.classes)

    def test_equals_a_bfs_with_a_reversal_edge(self):
        for n in range(2, 7):
            for flag in (False, True):
                report = bruteforce_shift_partition(n, with_reversals=flag)
                assert repr(report) == repr(_orbits_by_definition(n, flag)), (n, flag)

    def test_limit(self):
        with pytest.raises(LimitExceeded):
            bruteforce_shift_partition(8, with_reversals=True)


# sha256 of repr(bruteforce_shift_partition(n, with_reversals)), first 16 hex
# digits, as the BFS gave them while it stepped with the library's
# shift.enumerate_rigid_shifts
ORBIT_REPORT_DIGESTS = {
    (2, False): "0ee20e849fb77c9f", (2, True): "0ee20e849fb77c9f",
    (3, False): "452add544b141dfe", (3, True): "452add544b141dfe",
    (4, False): "dcf35f50f236fb16", (4, True): "94f044ee7acd4fd0",
    (5, False): "d7c4552e248773ee", (5, True): "d43571ed8b4414ea",
    (6, False): "774dd28f1510c2cb", (6, True): "720c5326d2dcf56d",
    (7, False): "3ce041506512455d", (7, True): "6b55aa327edbff42",
}

# sha256 of repr(bruteforce_ss_partition(n)), first 16 hex digits: the
# report's bytes, which no change to how the sweep builds it may move
SS_REPORT_DIGESTS = {
    2: "0ee20e849fb77c9f", 3: "452add544b141dfe", 4: "dcf35f50f236fb16",
    5: "d7c4552e248773ee", 6: "774dd28f1510c2cb", 7: "3ce041506512455d",
    8: "1d388612da8a3e81", 9: "caf7bf0842866e69",
}


def _modules_imported(tree):
    """Every dotted module name an import statement in ``tree`` may bind,
    relative imports read as inside ``sswilf``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = f"sswilf.{base}" if base else "sswilf"
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


class TestOwnRigidShiftStep:
    def test_same_moves_as_the_library_on_every_permutation_through_seven(self):
        for n in range(1, 8):
            for u in permutations(range(1, n + 1)):
                assert oracle.enumerate_rigid_shifts(u) == enumerate_rigid_shifts(u), u

    def test_moves_are_plain_int_pairs(self):
        moves = [move for move, _ in oracle.enumerate_rigid_shifts((3, 2, 4, 1, 5))]
        assert moves and all(type(move) is tuple for move in moves)
        assert moves == sorted(moves)

    def test_imports_nothing_from_the_shift_module(self):
        tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
        imported = set(_modules_imported(tree))
        assert "sswilf.kernel" in imported  # the walk reads relative imports
        assert not {m for m in imported if m == "sswilf.shift" or m.startswith("sswilf.shift.")}

    def test_the_bfs_steps_through_the_module_global(self, monkeypatch):
        calls = []

        def counted(u):
            calls.append(u)
            return enumerate_rigid_shifts(u)

        monkeypatch.setattr(oracle, "enumerate_rigid_shifts", counted)
        assert bruteforce_shift_partition(4, with_reversals=False).class_count == class_count(4)
        assert calls

    def test_orbit_reports_are_unchanged(self):
        for (n, flag), digest in ORBIT_REPORT_DIGESTS.items():
            report = bruteforce_shift_partition(n, with_reversals=flag)
            assert hashlib.sha256(repr(report).encode()).hexdigest()[:16] == digest, (n, flag)


def _code(u):
    return int.from_bytes(bytes(u), "big")


class TestFinishReport:
    def test_a_size_that_is_no_power_of_two_is_named(self):
        rows = [(_code((1, 2, 3)), b"a", 3), (_code((2, 1, 3)), b"b", 3)]
        with pytest.raises(InternalError, match="class size 3 is not a power of two"):
            oracle._finish_report(3, rows)

    def test_sizes_short_of_n_factorial(self):
        rows = [(_code((1, 2, 3)), b"a", 2), (_code((2, 1, 3)), b"b", 2)]
        with pytest.raises(InternalError, match="class sizes sum to 4, expected 6"):
            oracle._finish_report(3, rows)

    def test_histogram_and_rows_come_out_sorted(self):
        members = [(4, 3, 2, 1), (2, 1, 3, 4), (3, 1, 2, 4), (1, 2, 3, 4), (1, 3, 2, 4)]
        sizes = [8, 2, 4, 8, 2]  # exponents 3, 1, 2, 3, 1 in the rows' order
        rows = [(_code(u), bytes([k]), size) for k, (size, u) in enumerate(zip(sizes, members))]
        report = oracle._finish_report(4, rows)
        assert list(report.size_histogram.items()) == [(1, 2), (2, 1), (3, 2)]
        assert report.class_count == 5
        assert [row[2] for row in report.classes] == sorted(members)
        assert [row[1] for row in report.classes] == [8, 2, 2, 4, 8]
        assert [row[0] for row in report.classes] == [b"\3", b"\4", b"\1", b"\2", b"\0"]

    def test_pyramid_reports_are_unchanged(self):
        for n, digest in SS_REPORT_DIGESTS.items():
            report = bruteforce_ss_partition(n)
            assert hashlib.sha256(repr(report).encode()).hexdigest()[:16] == digest, n


class TestChecks:
    def test_all_green_small(self):
        assert check_ss(5) == []
        assert check_prefixes(5) == []
        assert check_shift(4) == []

    def test_prefixes_compares_the_letter_set_row(self, monkeypatch):
        row = bruteforce_minimal_prefix_row

        def off_by_one(n, limit=None):
            counted = list(row(n, limit=limit))
            if n == 5:
                counted[2] += 1
            return tuple(counted)

        monkeypatch.setattr(oracle, "bruteforce_minimal_prefix_row", off_by_one)
        want = minimal_prefix_count(2, 5)
        assert check_prefixes(5) == [
            f"(i=2, n=5): {want + 1} prefixes counted over letter sets, "
            f"recurrence says {want}"
        ]

    def test_prefixes_compares_the_listings_in_order(self, monkeypatch):
        listing = oracle.bruteforce_minimal_prefixes

        def reversed_at_2_5(i, n, limit=None):
            words = listing(i, n, limit=limit)
            return words[::-1] if (i, n) == (2, 5) else words

        monkeypatch.setattr(oracle, "bruteforce_minimal_prefixes", reversed_at_2_5)
        # the same set of words, so a comparison of sets would miss it
        assert set(reversed_at_2_5(2, 5)) == set(minimal_prefixes(2, 5))
        assert check_prefixes(5) == [
            "(i=2, n=5): same words, listed in another order or with repeats"
        ]

    def test_prefixes_reports_a_repeated_word(self, monkeypatch):
        listing = oracle.bruteforce_minimal_prefixes

        def repeat_at_3_5(i, n, limit=None):
            words = listing(i, n, limit=limit)
            return words + words[-1:] if (i, n) == (3, 5) else words

        monkeypatch.setattr(oracle, "bruteforce_minimal_prefixes", repeat_at_3_5)
        want = minimal_prefix_count(3, 5)
        assert check_prefixes(5) == [
            "(i=3, n=5): same words, listed in another order or with repeats",
            f"(i=3, n=5): {want + 1} prefixes, recurrence says {want}",
        ]

    def test_prefixes_names_the_words_of_a_differing_set(self, monkeypatch):
        listing = oracle.bruteforce_minimal_prefixes

        def drop_first_at_2_5(i, n, limit=None):
            words = listing(i, n, limit=limit)
            return words[1:] if (i, n) == (2, 5) else words

        monkeypatch.setattr(oracle, "bruteforce_minimal_prefixes", drop_first_at_2_5)
        want = minimal_prefix_count(2, 5)
        assert check_prefixes(5) == [
            "(i=2, n=5): sets differ; built-only [(2, 1)], brute-only []",
            f"(i=2, n=5): {want - 1} prefixes, recurrence says {want}",
        ]

    def test_limit_comes_before_any_sweep(self, monkeypatch):
        from sswilf import oracle

        def fail(*args, **kwargs):
            raise AssertionError("swept before checking the limit")

        for name in ("bruteforce_ss_partition", "bruteforce_minimal_prefixes",
                     "bruteforce_minimal_prefix_row", "bruteforce_shift_partition"):
            monkeypatch.setattr(oracle, name, fail)
        with pytest.raises(LimitExceeded):
            check_ss(10)
        with pytest.raises(LimitExceeded):
            check_prefixes(10)
        with pytest.raises(LimitExceeded):
            check_shift(8)

    def test_counts_match_through_six(self):
        for n in (5, 6):
            assert bruteforce_shift_partition(
                n, with_reversals=True
            ).class_count == shift_class_count(n)
