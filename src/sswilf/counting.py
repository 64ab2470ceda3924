"""Exact counting recurrences in tables filled bottom-up, integer-only throughout.

All counts are derived from one geometric fact: for a permutation prefix of
length i over 1..n, the unused n-i letters form an arithmetic progression in
``periodic_prefix_count`` many ways, and subtracting the ways in which a
shorter prefix already had that property isolates the minimal ones.  Chained
through suffix scaling this yields the number of equivalence classes, the
class counts by size, and the shift-class counts.

Write D(i, n) for ``minimal_prefix_count``, p(l, n) for
``periodic_prefix_count`` (p(0, n) = 1), c for ``class_count`` and
C(n; t) = sum_j C_j(n)*t**j with C_j(n) = ``class_count_by_exponent(j, n)``.

* Each periodic-complement prefix has one minimal initial segment, so along
  row n the double-counting relation is the triangular system

      p(l, n) = sum_{k=1}^{l} D(k, n)*p(l-k, n-k),

  which fills a row of D by ascending i with i-1 products per cell.
* Splitting on the length i of the minimal prefix: i = 1 (the first letter
  is 1 or n, so D(1, n) = 2 for n >= 4) doubles the class of the rest, and
  any other i keeps its size.  So for n >= 4

      C(n; t) = t*C(n-1; t) + sum_{i=2}^{n-2} D(i, n)*C(n-i; t)
              = sum_{i=1}^{n-2} D(i, n)*C(n-i; t) + (t-2)*C(n-1; t).

* Transposed (the two sums exchanged), the triangular system says that for
  any sequence x the convolution F(n) = sum_{l=0}^{n-2} p(l, n)*x(n-l)
  satisfies

      F(n) - x(n) = sum_{k=1}^{n-2} D(k, n)*F(n-k).

* With x(2) = t and x(m) = (t-2)*C(m-1; t) this is the split above, and
  F(2) = t = C(2; t), F(3) = t**2 + t = C(3; t), so F = C by induction on
  n.  As p(n-2, n) = n!/2 (any two letters form a progression),

      C(n; t) = t*n!/2 + (t-2)*sum_{l=0}^{n-3} p(l, n)*C(n-1-l; t),   n >= 3,

  and no D cell is read.  Per coefficient,

      C_e(n) = [e = 1]*n!/2 + sum_l p(l, n)*(C_{e-1} - 2*C_e)(n-1-l),

  where the terms with n-1-l < e are 0.
* At t = 1 it is ``class_count``'s recurrence

      c(n) = n!/2 - sum_{l=0}^{n-3} p(l, n)*c(n-1-l),   n >= 2,

  so each size closes from the smaller ones with n-2 big-integer products.
  At t = 2 the sum drops out, so C(n; 2) = n!.  Both identities,
  sum_j C_j(n) = c(n) and sum_j 2**j*C_j(n) = n!, hold by construction for
  any p: they check the arithmetic of the columns, not the recurrence.

Each quantity lives in a module-level table that grows from the bottom up, so
no recursion depth limits n and a filled cell is a list lookup.
"""
from __future__ import annotations

from operator import mul

from .errors import NegativeResult, ParityViolation
from .words import as_prefix_length, as_size

_factorials = [1]  # index = k
_nonintervals = [0, 0, 2]  # index = size; sizes 0 and 1 are undefined
_periodic_rows: dict[int, list[int]] = {}  # m -> [periodic_prefix_count(0, m), ...]
_minimal_rows: dict[int, list[int]] = {}  # n -> [0, minimal_prefix_count(1, n), ...]
_class_counts = [0, 1]  # index = size
_counts_by_exponent: list[list[int]] = []  # [j][k] = class_count_by_exponent(j, j+1+k)


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


def _noninterval_table(n: int) -> list[int]:
    a = _nonintervals
    if len(a) <= n:
        fact = _factorial_table(n)
        for m in range(len(a), n + 1):
            a.append(fact[m] - sum(map(mul, a[2:m], fact[m - 1:1:-1])))
    return a


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
    which is solved here for the minimal count, one row of n at a time with
    about n**2/2 big-integer products.  Below length n//2 the count equals
    ``noninterval_count(i + 1)``.

    >>> minimal_prefix_count(5, 10)
    488
    """
    i, n = as_prefix_length(i, n)
    row = _minimal_rows.get(n)
    if row is None:  # filled whole before it is published
        fact = _factorial_table(n)
        row = [0]
        for k in range(1, n - 1):
            s = n - k  # p(k-l, n-l) = p(j, s+j) with j = k-l
            periodic = (_progressions(s, s + j) * fact[j] for j in range(k - 1, 0, -1))
            d = _progressions(s, n) * fact[k] - sum(map(mul, row[1:k], periodic))
            if d <= 0:
                raise NegativeResult(f"minimal prefix count ({k}, {n}) = {d}")
            row.append(d)
        _minimal_rows[n] = row
    return row[i]


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

    c(n) = n!/2 - sum_{l=0}^{n-3} periodic_prefix_count(l, n)*c(n-1-l), the
    transposed class-count sum of the module docstring: each size closes from
    the smaller ones with n-2 big-integer products, about n**2/2 through n,
    and fills no minimal-prefix cell.  A call past the table extends it from
    its top, so calls for ascending sizes cost what one call for the last
    size costs.  Each new count must lie between c(n-1) and n!/2: c(n) - c(n-1)
    is the minimal-prefix share of the split, and n!/2 - c(n) half the number
    of members beyond two per class (every class of S_n, n >= 2, has 2**j >= 2
    members), so both are counts.

    >>> class_count(10)
    1490564
    """
    n = as_size(n, least=1)
    counts = _class_counts
    if len(counts) <= n:
        fact = _factorial_table(n)
        for m in range(len(counts), n + 1):
            periodic = map(mul, fact, (_progressions(m - l, m) for l in range(m - 2)))
            half = fact[m] // 2
            c = half - sum(map(mul, periodic, counts[m - 1:1:-1]))
            if not counts[m - 1] <= c <= half:
                raise NegativeResult(
                    f"class count {c} for n={m} lies outside [c(n-1), n!/2] = "
                    f"[{counts[m - 1]}, {half}]"
                )
            counts.append(c)
    return counts[n]


def class_count_by_exponent(j: int, n: int) -> int:
    """Number of classes of S_n with exactly 2**j members.

    C_j(n) = [j = 1]*n!/2 + sum_l p(l, n)*(C_{j-1} - 2*C_j)(n-1-l), the
    transposed exponent sum of the module docstring with
    p = ``periodic_prefix_count``: it reads no minimal-prefix cell.  Column e
    holds C_e(m) from m = e+1 on; cell (j, n) needs the columns e <= j through
    m = n-j+e only, and a call extends each from its top, about
    j*(n-j)**2/2 big-integer products for a cold call.  The differences
    C_{e-1} - 2*C_e that a column convolves live only while it fills.  A new
    cell below 0 raises ``NegativeResult``.

    >>> class_count_by_exponent(4, 10)
    3992
    """
    j, n = as_size(j, "j", least=0), as_size(n, least=2)
    if j == 0 or j > n - 1:
        return 0
    fact = _factorial_table(n)
    top = n - j  # each column e <= j fills entries k < n-j, sizes m = e+1+k
    columns = _counts_by_exponent
    columns.extend([] for _ in range(len(columns), j + 1))
    columns[0] += [0] * (top - len(columns[0]))
    for e in range(1, j + 1):
        column, below = columns[e], columns[e - 1]
        if len(column) >= top:
            continue
        # d[i] = C_{e-1}(e+i) - 2*C_e(e+i), the differences each cell convolves
        diffs = [b - 2 * a for b, a in zip(below[:len(column)], [0, *column])]
        for k in range(len(column), top):
            m = e + 1 + k
            diffs.append(below[k] - 2 * (column[-1] if k else 0))
            row = _periodic_rows.get(m)
            if row is None:
                # below l = (m-1)/2 only difference 1 fits, so p(l, m) = (l+1)!:
                # those cells share the factorial table's ints
                row = _periodic_rows[m] = [
                    fact[l + 1] if 2 * l < m - 1 else _progressions(m - l, m) * fact[l]
                    for l in range(m - 2)
                ]
            c = sum(map(mul, row, reversed(diffs)))
            if e == 1:
                c += fact[m] // 2
            if c < 0:
                raise NegativeResult(f"class count by exponent ({e}, {m}) = {c}")
            column.append(c)
    return columns[j][top - 1]


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
