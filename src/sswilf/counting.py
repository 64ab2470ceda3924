"""Exact counting recurrences in tables filled bottom-up, integer-only throughout.

All counts are derived from one geometric fact: for a permutation prefix of
length i over 1..n, the unused n-i letters form an arithmetic progression in
``periodic_prefix_count`` many ways, and subtracting the ways in which a
shorter prefix already had that property isolates the minimal ones.  Chained
through suffix scaling this yields the number of equivalence classes, the
class counts by size, and the shift-class counts.

How a minimal-prefix cell is filled.  Write D(i, n) for
``minimal_prefix_count``, N for ``noninterval_count``, s = n - i for the
complement size, Q_s[j] = ``periodic_prefix_count(j, s + j)`` = P(s, s+j)*j!
with P(s, m) the number of s-term progressions in 1..m, and g = s - 1.

* The j+1 interval complements give Q_s[j] = (j+1)! + R_s[j] with
  R_s[j] = (P(s, s+j) - j - 1)*j!; R_s[j] = 0 for j < s-1, since a
  difference-2 progression of s terms needs 2s-1 letters.
* Non-interval permutations obey N(i+1) = (i+1)! - sum_{j=1}^{i-1} N(i-j+1)*(j+1)!.
* Put D(k, n) = N(k+1) + E(k, n-k) into the double-counting relation
  D(i, n) = Q_s[i] - sum_{j=1}^{i-1} D(i-j, n)*Q_s[j] and subtract the line
  above.  The correction E is 0 for i <= s-2 (the stabilization
  D(i, n) = N(i+1) for i < n//2) and otherwise

      E(i, s) = R_s[i] - sum_{j=s-1}^{i-1} N(i-j+1)*R_s[j]
                       - sum_{j=1}^{(i-s+1)//2} E(i-j, s+j)*Q_s[j],

  whose last sum stays on row n.
* Expanding P, R_s[j] = j! * sum (j-t+1) over t = g, 2g, ... <= j, so the
  middle sum is sum_{t=g,2g,...<=i-1} U(i, t) with
  U(i, t) = sum_{j=t}^{i-1} N(i-j+1)*j!*(j-t+1).  One U row serves every n;
  two running sums fill it with at most i-1 products.

Filling every row through n takes about n**3/24 big-integer products where
the plain relation takes n**3/8.  The rows a call needs are filled together,
column by column (ascending i over all of them), so one U row is alive at a
time.  A U row starts at the least gap g its rows read, so a row filled alone
costs about what the plain relation costs.  ``class_count_by_exponent`` reads
every row, so it is cubic; ``class_count`` reads none.

How ``class_count`` avoids the cells.  Write c for ``class_count`` and
p(l, n) = Q_{n-l}[l] for ``periodic_prefix_count``, with p(0, n) = 1.

* Splitting on the length of the minimal prefix, and using D(1, n) = 2,
  gives for n >= 4

      c(n) = c(n-1) + sum_{i=2}^{n-2} D(i, n)*c(n-i)
           = sum_{i=1}^{n-2} D(i, n)*c(n-i) - c(n-1).

* Along row n the double-counting relation is the triangular system
  p(l, n) = sum_{k=1}^{l} D(k, n)*p(l-k, n-k), whose coefficients
  p(l-k, n-k) = Q_{n-l}[l-k] do not depend on n.  Transposed (the two sums
  exchanged), it says that for any sequence x the convolution
  F(n) = sum_{l=0}^{n-2} p(l, n)*x(n-l) satisfies

      F(n) - x(n) = sum_{k=1}^{n-2} D(k, n)*F(n-k).

* With x(2) = 1 and x(m) = -c(m-1) this is the split above, and
  F(2) = 1 = c(2), F(3) = 3 - 1 = 2 = c(3), so F = c by induction on n.
  As p(n-2, n) = n!/2 (any two letters form a progression),

      c(n) = n!/2 - sum_{l=0}^{n-3} p(l, n)*c(n-1-l),   n >= 2.

  Each size closes from the smaller ones with n-2 big-integer products, and
  no D cell, N, E or U is read.  (Transposing the correction system of E
  alone, whose coefficients are the same Q, gives the same weights x(s).)

Each quantity lives in a module-level table that grows from the bottom up, so
no recursion depth limits n and a filled cell is a list lookup.
"""
from __future__ import annotations

from itertools import accumulate
from operator import mul

from .errors import NegativeResult, ParityViolation
from .words import as_prefix_length, as_size

_factorials = [1]  # index = k
_nonintervals = [0, 0, 2]  # index = size; sizes 0 and 1 are undefined
_periodic_rows: dict[int, list[int]] = {}  # s -> [periodic_prefix_count(j, s + j)]
_minimal_rows: dict[int, list[int]] = {}  # n -> [0, minimal_prefix_count(1, n), ...]
_class_counts = [0, 1]  # index = size
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


def _minimal_rows_for(sizes: range) -> dict[int, list[int]]:
    """The rows [0, minimal_prefix_count(1, m), ..., minimal_prefix_count(m-2, m)]
    for every m >= 3 in ``sizes``, filling the missing ones as N(i+1) + E(i, m-i)
    (see the module docstring).

    Missing rows fill together, by ascending i over all of them, so one U row
    serves every row and is the only one alive.  They hold their corrections E
    while they fill and are published whole.
    """
    rows = _minimal_rows
    new = {m: [0] * (m - 1) for m in sizes if m not in rows}
    if not new:
        return rows
    top = max(new)
    fact = _factorial_table(top)
    nonint = _noninterval_table(top - 1)
    for i in range(min(new) // 2, top - 1):
        # E(i, m-i) is 0 on rows m >= 2i+2
        targets = [m for m in range(i + 2, min(top, 2 * i + 1) + 1) if m in new]
        if not targets:
            continue
        # u[t] = U(i, t), as a running sum of the tails sum_{j>=t} N(i-j+1)*j!;
        # only t >= g is read, and the least g is the first target's
        least = targets[0] - i - 1
        terms = map(mul, nonint[2:i - least + 2], fact[i - 1:least - 1:-1])
        u = [0] * least + list(accumulate(accumulate(terms)))[::-1]
        for m in targets:
            s = m - i
            g = s - 1
            reach = (i - g) // 2  # the last sum stops where E(i-j, s+j) turns 0
            q = _periodic_row(s, s + reach)
            row = new[m]  # E(i, s) = R_s[i] - middle sum - last sum
            e = ((_progressions(s, m) - i - 1) * fact[i] - sum(u[g::g])
                 - sum(map(mul, row[i - reach:i], q[reach:0:-1])))
            if e < 0:
                raise NegativeResult(f"minimal prefix correction ({i}, {m}) = {e}")
            row[i] = e
    for m, row in new.items():
        h = m // 2
        row[1:h] = nonint[2:h + 1]
        for k in range(h, m - 1):
            row[k] += nonint[k + 1]
        rows[m] = row
    return rows


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
    stabilizes at ``noninterval_count(i + 1)``; from there on it is
    ``noninterval_count(i + 1)`` plus a correction E(i, n-i) with a recurrence
    of its own (module docstring).

    >>> minimal_prefix_count(5, 10)
    488
    """
    i, n = as_prefix_length(i, n)
    return _minimal_rows_for(range(n, n + 1))[n][i]


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

    Filled one column of sizes per exponent up to j.

    >>> class_count_by_exponent(4, 10)
    3992
    """
    j, n = as_size(j, "j", least=0), as_size(n, least=2)
    if j == 0 or j > n - 1:
        return 0
    rows = _minimal_rows_for(range(4, n + 1))
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
                    map(mul, rows[m][2:m - e], column[m - 2:e:-1])
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
