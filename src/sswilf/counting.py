"""Exact counting recurrences, memoized, integer-only throughout.

All counts are derived from one geometric fact: for a permutation prefix of
length i over 1..n, the unused n-i letters form an arithmetic progression in
``periodic_prefix_count`` many ways, and subtracting the ways in which a
shorter prefix already had that property isolates the minimal ones.  Chained
through suffix scaling this yields the number of equivalence classes, the
class counts by size, and the shift-class counts.
"""
from __future__ import annotations

from functools import lru_cache
from math import factorial

from .errors import NegativeResult, OutOfRange, ParityViolation


@lru_cache(maxsize=None)
def periodic_prefix_count(i: int, n: int) -> int:
    """Number of length-i prefixes of permutations of 1..n whose unused
    letters form an arithmetic progression.

    Evaluated as (number of progressions of size n-i) * i!; the progression
    count is summed per common difference d, keeping everything in integers.

    >>> periodic_prefix_count(2, 6)
    6
    """
    if n < 3 or not 0 <= i <= n - 2:
        raise OutOfRange(f"need n >= 3 and 0 <= i <= n-2, got i={i}, n={n}")
    if i == 0:
        return 1
    m = n - i - 1  # gaps in the progression
    progressions = sum(n - d * m for d in range(1, n // m + 1))
    return progressions * factorial(i)


@lru_cache(maxsize=None)
def minimal_prefix_count(i: int, n: int) -> int:
    """Number of *minimal* periodic-complement prefixes of length i over 1..n.

    Every periodic-complement prefix has a unique minimal initial segment;
    splitting on its length k gives
    ``periodic_prefix_count(i, n) = sum_k minimal(k, n) * periodic_prefix_count(i-k, n-k)``
    which is solved here for the minimal count.

    >>> minimal_prefix_count(5, 10)
    488
    """
    if n < 3 or not 1 <= i <= n - 2:
        raise OutOfRange(f"need n >= 3 and 1 <= i <= n-2, got i={i}, n={n}")
    total = periodic_prefix_count(i, n)
    for k in range(1, i):
        total -= periodic_prefix_count(i - k, n - k) * minimal_prefix_count(k, n)
    if total <= 0:
        raise NegativeResult(f"minimal prefix count ({i}, {n}) = {total}")
    return total


@lru_cache(maxsize=None)
def noninterval_count(n: int) -> int:
    """Number of permutations of size n with no interval prefix.

    Base 2 for n = 2; afterwards n! minus the permutations whose shortest
    interval prefix is proper.  Produces 2, 2, 8, 44, 296, 2312, ...

    >>> [noninterval_count(n) for n in range(2, 8)]
    [2, 2, 8, 44, 296, 2312]
    """
    if n < 2:
        raise OutOfRange(f"defined for n >= 2, got {n}")
    if n == 2:
        return 2
    i = n - 1
    return factorial(i + 1) - sum(
        noninterval_count(k + 1) * factorial(i - k + 1) for k in range(1, i)
    )


_class_counts = [0, 1, 1, 2]  # index = size; grown in place by class_count


def class_count(n: int) -> int:
    """Number of super-strong Wilf equivalence classes of S_n.

    Filled bottom-up over the sizes, so no recursion depth limits n.

    >>> class_count(10)
    1490564
    """
    if n < 1:
        raise OutOfRange(f"defined for n >= 1, got {n}")
    counts = _class_counts
    for m in range(len(counts), n + 1):
        counts.append(
            counts[m - 1]
            + sum(minimal_prefix_count(i, m) * counts[m - i] for i in range(2, m - 1))
        )
    return counts[n]


_counts_by_exponent: list[list[int]] = []  # [j][n]; grown by class_count_by_exponent


def class_count_by_exponent(j: int, n: int) -> int:
    """Number of classes of S_n with exactly 2**j members.

    Filled bottom-up, one column of sizes per exponent up to j, so no
    recursion depth limits n.

    >>> class_count_by_exponent(4, 10)
    3992
    """
    if n < 2 or j < 0:
        raise OutOfRange(f"need n >= 2 and j >= 0, got j={j}, n={n}")
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
                column.append(columns[e - 1][m - 1] + sum(
                    minimal_prefix_count(k, m) * column[m - k] for k in range(2, m - e)
                ))
    return columns[j][n]


def shift_class_count(n: int) -> int:
    """Number of shift equivalence classes of S_n: 1 + class_count(n)/2
    for n >= 3 (two classes are reversal-invariant, the rest pair up).

    >>> shift_class_count(5)
    21
    """
    if n < 1:
        raise OutOfRange(f"defined for n >= 1, got {n}")
    if n <= 2:
        return 1
    s = class_count(n)
    if s % 2:
        raise ParityViolation(f"class count {s} for n={n} must be even")
    return 1 + s // 2
