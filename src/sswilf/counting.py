"""Exact counting recurrences in tables filled bottom-up, integer-only throughout.

All counts are derived from one geometric fact: for a permutation prefix of
length i over 1..n, the unused n-i letters form an arithmetic progression in
``periodic_prefix_count`` many ways, and subtracting the ways in which a
shorter prefix already had that property isolates the minimal ones.  Chained
through suffix scaling this yields the number of equivalence classes, the
class counts by size, and the shift-class counts.

Each quantity lives in a module-level table that grows from the bottom up, so
no recursion depth limits n and a filled cell is a list lookup.
"""
from __future__ import annotations

from operator import mul

from .errors import NegativeResult, ParityViolation
from .words import as_prefix_length, as_size

_factorials = [1]  # index = k
_nonintervals = [0, 0, 2]  # index = size; sizes 0 and 1 are undefined
_periodic_rows: dict[int, list[int]] = {}  # s -> [periodic_prefix_count(j, s + j)]
_minimal_rows: dict[int, list[int]] = {}  # n -> [0, minimal_prefix_count(1, n), ...]
_class_counts = [0, 1, 1, 2]  # index = size
_counts_by_exponent: list[list[int]] = []  # [j][n]


def _factorial_table(k: int) -> list[int]:
    f = _factorials
    for m in range(len(f), k + 1):
        f.append(f[-1] * m)
    return f


def _progressions(s: int, n: int) -> int:
    """Arithmetic progressions of s >= 2 terms inside 1..n, in closed form:
    with g = s-1 gaps, difference d leaves n - g*d starting points, for
    d = 1..D where D = (n-1) // g."""
    g = s - 1
    d = (n - 1) // g
    return n * d - g * d * (d + 1) // 2


def _periodic_row(s: int, n: int) -> list[int]:
    """Q_s through index n - s, where Q_s[j] = periodic_prefix_count(j, s + j)."""
    row = _periodic_rows.setdefault(s, [])
    if len(row) <= n - s:
        fact = _factorial_table(n - s)
        for j in range(len(row), n - s + 1):
            row.append(_progressions(s, s + j) * fact[j])
    return row


def _noninterval_table(n: int) -> list[int]:
    a = _nonintervals
    if len(a) <= n:
        fact = _factorial_table(n)
        for m in range(len(a), n + 1):
            a.append(fact[m] - sum(map(mul, a[2:m], fact[m - 1:1:-1])))
    return a


def _minimal_row(n: int) -> list[int]:
    """[0, minimal_prefix_count(1, n), ..., minimal_prefix_count(n-2, n)].

    Cells i < n//2 are noninterval counts (the stabilization identity); the
    rest solve the double-counting relation, whose factor
    periodic_prefix_count(i-k, n-k) keeps the complement size n-i fixed.
    """
    row = _minimal_rows.get(n)
    if row is None:
        half = n // 2
        row = [0] + _noninterval_table(half)[2:half + 1]
        for i in range(half, n - 1):
            q = _periodic_row(n - i, n)
            total = q[i] - sum(map(mul, row[1:i], q[i - 1:0:-1]))
            if total <= 0:
                raise NegativeResult(f"minimal prefix count ({i}, {n}) = {total}")
            row.append(total)
        _minimal_rows[n] = row
    return row


def periodic_prefix_count(i: int, n: int) -> int:
    """Number of length-i prefixes of permutations of 1..n whose unused
    letters form an arithmetic progression.

    Evaluated as (number of progressions of size n-i) * i!, keeping
    everything in integers.

    >>> periodic_prefix_count(2, 6)
    6
    """
    i, n = as_prefix_length(i, n, least=0)
    return _progressions(n - i, n) * _factorial_table(i)[i]


def minimal_prefix_count(i: int, n: int) -> int:
    """Number of *minimal* periodic-complement prefixes of length i over 1..n.

    Every periodic-complement prefix has a unique minimal initial segment;
    splitting on its length k gives
    ``periodic_prefix_count(i, n) = sum_k minimal(k, n) * periodic_prefix_count(i-k, n-k)``
    which is solved here for the minimal count.  Below length n//2 the count
    stabilizes at ``noninterval_count(i + 1)``.

    >>> minimal_prefix_count(5, 10)
    488
    """
    i, n = as_prefix_length(i, n)
    return _minimal_row(n)[i]


def noninterval_count(n: int) -> int:
    """Number of permutations of size n with no interval prefix.

    Base 2 for n = 2; afterwards n! minus the permutations whose shortest
    interval prefix is proper.  Produces 2, 2, 8, 44, 296, 2312, ...

    >>> [noninterval_count(n) for n in range(2, 8)]
    [2, 2, 8, 44, 296, 2312]
    """
    n = as_size(n, least=2)
    return _noninterval_table(n)[n]


def class_count(n: int) -> int:
    """Number of super-strong Wilf equivalence classes of S_n.

    >>> class_count(10)
    1490564
    """
    n = as_size(n, least=1)
    counts = _class_counts
    for m in range(len(counts), n + 1):
        row = _minimal_row(m)
        counts.append(counts[m - 1] + sum(map(mul, row[2:m - 1], counts[m - 2:1:-1])))
    return counts[n]


def class_count_by_exponent(j: int, n: int) -> int:
    """Number of classes of S_n with exactly 2**j members.

    Filled one column of sizes per exponent up to j.

    >>> class_count_by_exponent(4, 10)
    3992
    """
    j, n = as_size(j, "j", least=0), as_size(n, least=2)
    if j == 0 or j > n - 1:
        return 0
    columns = _counts_by_exponent
    columns.extend([] for _ in range(len(columns), j + 1))
    for e in range(j + 1):  # cell (j, n) needs (e, m) only for m - e <= n - j
        column = columns[e]
        for m in range(len(column), n - j + e + 1):
            if e == 0 or e > m - 1:
                column.append(0)
            elif m <= 3:
                column.append(1)
            else:
                row = _minimal_row(m)
                column.append(columns[e - 1][m - 1] + sum(
                    map(mul, row[2:m - e], column[m - 2:e:-1])
                ))
    return columns[j][n]


def shift_class_count(n: int) -> int:
    """Number of shift equivalence classes of S_n: 1 + class_count(n)/2
    for n >= 3 (two classes are reversal-invariant, the rest pair up).

    >>> shift_class_count(5)
    21
    """
    n = as_size(n, least=1)
    if n <= 2:
        return 1
    s = class_count(n)
    if s % 2:
        raise ParityViolation(f"class count {s} for n={n} must be even")
    return 1 + s // 2
