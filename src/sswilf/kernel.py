"""Sweep kernel.

Walks a contiguous lexicographic block of S_n, computes each permutation's
pyramid key, and aggregates class counts.  The key has the same bytes as
``pyramid.canonical_key``: gap entries stay below 0x80 at these sizes, so one
byte per entry is already the varint encoding.  ``BACKEND`` names the
implementation, which is pure Python.  Sizes stop at ``MAX_N`` = 16: S_16
already holds about 2 * 10^13 permutations, far more than a sweep can walk,
and every gap (at most n - 1) stays well inside one key byte.

Two things keep the walk cheap:

- **Level bytes by position mask.** The level of the letters >= k is fixed by
  the set of their positions, so its bytes (the gaps, then 0x00) are looked
  up by the bitmask of those positions in a table that each call fills as
  masks first occur (at most 2^n of them).  A permutation then costs n-1
  ``m |= bit[letter]`` steps with one lookup each, and one ``b"".join``.
  The level of n alone has no gaps and adds no byte, so the walk starts at
  the level of n and n-1.
- **Aligned lex runs.** The block is cut into runs, each a fixed head
  followed by every arrangement of the remaining letters.  A run starts at a
  rank that is a multiple of (number of free letters)!, so its free letters
  come out of ``unrank`` ascending and ``itertools.permutations`` yields the
  run in lexicographic order.  The runs follow one another in that order too,
  so the first member seen per key is the least in the block.
"""
from __future__ import annotations

from itertools import permutations
from math import factorial

BACKEND = "python"
MAX_N = 16


def unrank(n: int, rank: int) -> list[int]:
    """Permutation of 1..n at the given index of the lexicographic order."""
    letters = list(range(1, n + 1))
    out = []
    for k in range(n, 0, -1):
        f = factorial(k - 1)
        idx, rank = divmod(rank, f)
        out.append(letters.pop(idx))
    return out


class _LevelBytes(dict):
    """mask of at least two positions -> its gaps as bytes, then 0x00."""

    def __missing__(self, mask: int) -> bytes:
        positions = [i for i in range(mask.bit_length()) if mask >> i & 1]
        entry = bytes(b - a for a, b in zip(positions, positions[1:])) + b"\0"
        self[mask] = entry
        return entry


def _lex_runs(n: int, start: int, count: int):
    """Cut ranks [start, start+count) into aligned runs, in order.

    Yields (head, free): the run is head followed by each arrangement of the
    ascending letters ``free``, (len(free))! ranks starting at a multiple of
    that factorial.  Each run takes the most free letters that alignment and
    the end of the block allow.
    """
    fact = [factorial(k) for k in range(n + 1)]
    end = start + count
    while start < end:
        k = 0
        while k < n and start % fact[k + 1] == 0 and start + fact[k + 1] <= end:
            k += 1
        perm = unrank(n, start)
        yield perm[: n - k], perm[n - k :]
        start += fact[k]


def sweep_block(n: int, start: int, count: int) -> dict[bytes, list]:
    """Aggregate ``count`` permutations of S_n starting at lex index ``start``.

    Returns {pyramid key: [class member count, lex-least member as a tuple]}.
    Because the walk is ascending, the first member seen per key is the least
    in the block; block results merge by summing counts and taking the
    smaller tuple.
    """
    if not 2 <= n <= MAX_N:
        raise ValueError(f"kernel supports sizes 2..{MAX_N}, got {n}")
    if not 0 <= start <= start + count <= factorial(n):
        raise ValueError("block out of range")
    acc: dict[bytes, list] = {}
    get = acc.get
    level = _LevelBytes()
    join = b"".join
    bit = [0] * (n + 1)  # bit[letter] = 1 << its position
    below_n = range(n - 1, 0, -1)
    for head, free in _lex_runs(n, start, count):
        for i, x in enumerate(head):
            bit[x] = 1 << i
        first = 1 << len(head)
        head = tuple(head)
        for tail in permutations(free):
            b = first
            for x in tail:
                bit[x] = b
                b <<= 1
            m = bit[n]
            parts = []
            for x in below_n:
                m |= bit[x]
                parts.append(level[m])
            key = join(parts)
            entry = get(key)
            if entry is None:
                acc[key] = [1, head + tail]
            else:
                entry[0] += 1
    return acc
