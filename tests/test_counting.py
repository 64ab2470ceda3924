import os
import subprocess
import sys
from math import factorial
from pathlib import Path

import pytest

import sswilf
from sswilf import counting
from sswilf.counting import (
    class_count,
    class_count_by_exponent,
    minimal_prefix_count,
    noninterval_count,
    periodic_prefix_count,
    shift_class_count,
)
from sswilf.errors import NegativeResult, OutOfRange

import tables


class TestPeriodicPrefixCount:
    def test_empty_prefix(self):
        for n in (3, 7, 12):
            assert periodic_prefix_count(0, n) == 1

    def test_small_values(self):
        assert periodic_prefix_count(1, 5) == 2
        assert periodic_prefix_count(2, 6) == 6

    def test_pair_complements_are_unrestricted(self):
        # complements of size two are always progressions
        for n in range(3, 10):
            assert periodic_prefix_count(n - 2, n) == (
                n * (n - 1) // 2 * factorial(n - 2)
            )

    def test_progression_count_against_subset_enumeration(self):
        # checked for every cell feeding the golden tables: together with the
        # double-counting identity this pins the whole minimal-count table
        # independently of the recurrence
        from itertools import combinations

        for n in range(3, 13):
            for i in range(1, n - 1):
                direct = sum(
                    1
                    for comb in combinations(range(1, n + 1), n - i)
                    if len({b - a for a, b in zip(comb, comb[1:])}) == 1
                )
                assert periodic_prefix_count(i, n) == direct * factorial(i), (i, n)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            periodic_prefix_count(4, 5)
        with pytest.raises(OutOfRange):
            periodic_prefix_count(0, 2)


class TestMinimalPrefixCount:
    def test_golden_table(self):
        for (i, n), value in tables.MINIMAL_PREFIX_COUNTS.items():
            assert minimal_prefix_count(i, n) == value, (i, n)

    def test_named_cells(self):
        assert minimal_prefix_count(5, 10) == 488
        assert minimal_prefix_count(8, 10) == 1114944
        assert minimal_prefix_count(1, 3) == 3
        for n in range(4, 13):
            assert minimal_prefix_count(1, n) == 2

    def test_double_counting_identity(self):
        # each periodic-complement prefix has one minimal initial segment;
        # the empty-prefix factor at k = i is 1 by definition
        def p(i, n):
            return 1 if i == 0 else periodic_prefix_count(i, n)

        for n in range(3, 13):
            for i in range(1, n - 1):
                rhs = sum(
                    p(i - k, n - k) * minimal_prefix_count(k, n)
                    for k in range(1, i + 1)
                )
                assert periodic_prefix_count(i, n) == rhs

    def test_short_prefixes_count_noninterval_patterns(self):
        for n in range(4, 13):
            for k in range(1, (n - 1) // 2 + 1):
                if k < n // 2:
                    assert minimal_prefix_count(k, n) == noninterval_count(k + 1)

    def test_printed_discrepancy_is_flagged(self):
        printed = tables.PRINTED_DISCREPANCIES["minimal_prefix_count"]
        for (i, n), wrong in printed.items():
            assert minimal_prefix_count(i, n) != wrong

    def test_a_cell_below_one_raises(self, monkeypatch):
        # every minimal count is positive; a sign slip in the periodic counts
        # makes D(1, n) negative, on a table of its own
        progressions = counting._progressions
        monkeypatch.setattr(counting, "_minimal_rows", {})
        monkeypatch.setattr(counting, "_progressions", lambda s, n: -progressions(s, n))
        with pytest.raises(NegativeResult):
            minimal_prefix_count(5, 10)


class TestNonIntervalCount:
    def test_sequence(self):
        assert [noninterval_count(n) for n in range(2, 10)] == [
            2, 2, 8, 44, 296, 2312, 20384, 199376,
        ]

    def test_base(self):
        assert noninterval_count(2) == 2

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            noninterval_count(1)


class TestClassCount:
    def test_golden_table(self):
        for n, value in tables.CLASS_COUNTS.items():
            assert class_count(n) == value, n

    def test_bases(self):
        assert class_count(1) == class_count(2) == 1
        assert class_count(3) == 2
        assert class_count(4) == 8

    def test_ten(self):
        assert class_count(10) == 1490564

    def test_cold_cache_needs_no_recursion_depth(self):
        env = dict(os.environ, PYTHONPATH=str(Path(sswilf.__file__).parents[1]))
        for call in (
            "class_count(150)",
            "class_count_by_exponent(150, 160)",
            "minimal_prefix_count(150, 300)",
        ):
            # a fresh interpreter per call, so no size is cached before it
            code = (
                "import sys; sys.setrecursionlimit(100)\n"
                "from sswilf.counting import *\n"
                f"print({call})"
            )
            done = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True,
                timeout=120,
            )
            assert done.returncode == 0, (call, done.stderr)
            assert int(done.stdout) == eval(call), call

    def test_a_grown_table_equals_a_cold_one(self):
        # the tables extend from their tops: after a smaller call, and in any
        # order of calls, they must hold what a fresh interpreter's single
        # call fills; the exponent columns grow by as many cells as a call needs
        env = dict(os.environ, PYTHONPATH=str(Path(sswilf.__file__).parents[1]))
        runs = {
            "cold": "class_count(150); class_count_by_exponent(30, 60)",
            "after 40": (
                "class_count(40); "
                "[class_count_by_exponent(j, 60) for j in range(59, 0, -1)]"
            ),
            "ascending": (
                "[class_count(n) for n in range(1, 121)]; "
                "[class_count_by_exponent(j, n) for n in range(2, 61) for j in range(1, n)]"
            ),
        }
        printed = {}
        for name, calls in runs.items():
            code = (
                "from sswilf.counting import class_count, class_count_by_exponent\n"
                f"{calls}\n"
                "print([class_count(n) for n in range(1, 151)])\n"
                "print([[class_count_by_exponent(j, n) for j in range(1, n)]"
                " for n in range(2, 61)])"
            )
            done = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True,
                timeout=120,
            )
            assert done.returncode == 0, (name, done.stderr)
            printed[name] = done.stdout
        assert printed["after 40"] == printed["cold"]
        assert printed["ascending"] == printed["cold"]

    def test_a_count_outside_its_bounds_raises(self, monkeypatch):
        # c(n-1) <= c(n) <= n!/2 holds for every n; a sign slip in the
        # periodic counts breaks it at n = 3, on a table of its own
        progressions = counting._progressions
        monkeypatch.setattr(counting, "_class_counts", [0, 1])
        monkeypatch.setattr(counting, "_progressions", lambda s, n: -progressions(s, n))
        with pytest.raises(NegativeResult):
            class_count(3)


class TestClassCountByExponent:
    def test_golden_table(self):
        for (j, n), value in tables.CLASS_COUNTS_BY_EXPONENT.items():
            assert class_count_by_exponent(j, n) == value, (j, n)

    def test_degenerate(self):
        assert class_count_by_exponent(0, 9) == 0
        assert class_count_by_exponent(9, 9) == 0

    def test_adjacent_cells_often_confused(self):
        # the j=4 row starts at n=5, so these two neighbours differ a lot
        assert class_count_by_exponent(4, 9) == 546
        assert class_count_by_exponent(4, 10) == 3992

    def test_diagonal_of_ones(self):
        for n in range(2, 13):
            assert class_count_by_exponent(n - 1, n) == 1

    def test_rows_sum_to_class_count(self):
        for n in range(2, 13):
            assert sum(
                class_count_by_exponent(j, n) for j in range(1, n)
            ) == class_count(n)

    def test_weighted_rows_sum_to_group_order(self):
        for n in range(2, 13):
            assert sum(
                class_count_by_exponent(j, n) * 2**j for j in range(1, n)
            ) == factorial(n)

    def test_a_negative_cell_raises(self, monkeypatch):
        # a sign slip in the progression counts turns C_2(5) negative, on
        # tables of their own
        progressions = counting._progressions
        monkeypatch.setattr(counting, "_periodic_rows", {})
        monkeypatch.setattr(counting, "_counts_by_exponent", [])
        monkeypatch.setattr(counting, "_progressions", lambda s, n: -progressions(s, n))
        with pytest.raises(NegativeResult):
            class_count_by_exponent(4, 10)


class TestShiftClassCount:
    def test_golden_table(self):
        for n, value in tables.SHIFT_CLASS_COUNTS.items():
            assert shift_class_count(n) == value, n

    def test_small(self):
        assert shift_class_count(1) == shift_class_count(2) == 1
        assert shift_class_count(3) == 2
        assert shift_class_count(5) == 21

    def test_halving_formula(self):
        for n in range(3, 13):
            s = class_count(n)
            assert s % 2 == 0
            assert shift_class_count(n) == 1 + s // 2


@pytest.mark.xfail(
    strict=True,
    reason="the printed n=12 cells are arithmetically inconsistent with the "
    "defining recurrences; exhaustive enumeration of the (9, 12) prefix set "
    "confirms the recurrence values",
)
def test_source_prints_these_cells():
    printed = tables.PRINTED_DISCREPANCIES
    assert class_count(12) == printed["class_count"][12]


def _periodic(i, n):
    """periodic_prefix_count summed per common difference, as defined."""
    gaps = n - i - 1
    return sum(n - d * gaps for d in range(1, (n - 1) // gaps + 1)) * factorial(i)


def _plain_recurrence_tables(n_max):
    """Minimal-prefix cells and class counts by the subtraction recurrence
    alone, without the stabilization identity."""
    minimal = {}
    for n in range(3, n_max + 1):
        for i in range(1, n - 1):
            minimal[i, n] = _periodic(i, n) - sum(
                _periodic(i - k, n - k) * minimal[k, n] for k in range(1, i)
            )
    counts = [0, 1, 1, 2]
    for n in range(4, n_max + 1):
        counts.append(counts[n - 1] + sum(
            minimal[i, n] * counts[n - i] for i in range(2, n - 1)
        ))
    return minimal, counts


def _stabilized_recurrence_rows(n_max):
    """Minimal-prefix rows by the stabilized subtraction recurrence: cells
    i < n//2 are noninterval counts, each later cell subtracts a full sum over
    the shorter minimal prefixes."""
    nonint = [0, 0, 2]
    for m in range(3, n_max):
        nonint.append(factorial(m) - sum(
            nonint[k] * factorial(m - k + 1) for k in range(2, m)
        ))
    rows = {}
    for n in range(3, n_max + 1):
        row = [0] + nonint[2:n // 2 + 1]
        for i in range(n // 2, n - 1):
            q = [_periodic(j, n - i + j) for j in range(i + 1)]  # complement size n-i
            row.append(q[i] - sum(row[k] * q[i - k] for k in range(1, i)))
        rows[n] = row
    return rows


def _exponent_columns_from_rows(n_max):
    """Class counts by exponent as {(j, n): count}, by the split on the
    minimal prefix: C_j(n) = C_{j-1}(n-1) + sum_{i=2}^{n-2} D(i, n)*C_j(n-i)
    for n >= 4, with D read from minimal_prefix_count."""
    cells = {(1, 2): 1, (1, 3): 1, (2, 3): 1}
    for n in range(4, n_max + 1):
        row = [minimal_prefix_count(i, n) for i in range(2, n - 1)]
        for j in range(1, n):
            cells[j, n] = cells.get((j - 1, n - 1), 0) + sum(
                d * cells.get((j, n - i), 0) for i, d in enumerate(row, start=2)
            )
    return cells


def _correction(i, s):
    """E(i, s): how far the minimal-prefix cell (i, i+s) exceeds N(i+1)."""
    return minimal_prefix_count(i, i + s) - noninterval_count(i + 1)


class TestCorrection:
    def test_zero_below_the_diagonal_and_positive_from_it(self):
        for n in range(3, 61):
            for i in range(1, n - 1):
                e = _correction(i, n - i)
                if i <= n - i - 2:
                    assert e == 0, (i, n)
                else:
                    assert e > 0, (i, n)

    def test_first_diagonal_is_a_factorial(self):
        for i in range(1, 30):
            assert _correction(i, i + 1) == factorial(i), i

    def test_second_diagonal(self):
        for i in range(3, 31):
            assert _correction(i, i) == 2 * (i - 1) * factorial(i - 1), i


class TestAgainstPlainRecurrence:
    def test_every_minimal_prefix_cell_through_100(self):
        for n, row in _stabilized_recurrence_rows(100).items():
            for i in range(1, n - 1):
                assert minimal_prefix_count(i, n) == row[i], (i, n)

    def test_every_minimal_prefix_cell_through_40(self):
        minimal, _ = _plain_recurrence_tables(40)
        for (i, n), value in minimal.items():
            assert minimal_prefix_count(i, n) == value, (i, n)

    def test_class_counts_through_60(self):
        _, counts = _plain_recurrence_tables(60)
        for n in range(1, 61):
            assert class_count(n) == counts[n], n

    def test_class_counts_from_minimal_prefix_rows_through_100(self):
        # the split on the minimal prefix, read from the filled rows: a
        # second path to every class count, through D
        counts = [0, 1, 1, 2]
        for n in range(4, 101):
            counts.append(counts[n - 1] + sum(
                minimal_prefix_count(i, n) * counts[n - i] for i in range(2, n - 1)
            ))
        for n in range(1, 101):
            assert class_count(n) == counts[n], n

    def test_every_exponent_cell_through_100(self):
        # the same split per exponent: the weighted and plain row sums hold
        # for any periodic counts, so only this pins the columns cell by cell
        for (j, n), value in _exponent_columns_from_rows(100).items():
            assert class_count_by_exponent(j, n) == value, (j, n)

    def test_transposed_weights_are_shifted_counts(self):
        # the transposed system y_s = c(s) - sum_{s'<s} Q_{s'}[s-s']*y_{s'},
        # Q_{s'}[j] = periodic_prefix_count(j, s'+j), is solved by y_2 = 1 and
        # y_s = -c(s-1): what collapses class_count to one convolution
        y = {2: 1}
        for s in range(3, 61):
            y[s] = class_count(s) - sum(
                periodic_prefix_count(s - t, s) * y[t] for t in range(2, s)
            )
            assert y[s] == -class_count(s - 1), s

    def test_double_counting_identity_through_40(self):
        for n in range(3, 41):
            for i in range(1, n - 1):
                assert _periodic(i, n) == sum(
                    _periodic(i - k, n - k) * minimal_prefix_count(k, n)
                    for k in range(1, i + 1)
                ), (i, n)


def test_count_identities_at_two_hundred():
    by_exponent = [class_count_by_exponent(j, 200) for j in range(1, 200)]
    assert sum(c << j for j, c in enumerate(by_exponent, start=1)) == factorial(200)
    assert sum(by_exponent) == class_count(200)
