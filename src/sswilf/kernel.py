"""Sweep kernel.

Tallies a contiguous lexicographic block of S_n by pyramid key.  The key has
the same bytes as ``pyramid.canonical_key``: gap entries stay below 0x80 at
these sizes, so one byte per entry is already the varint encoding.
``BACKEND`` names the implementation, which is pure Python.  Sizes stop at
``MAX_N`` = 16: S_16 already holds about 2 * 10^13 permutations, far more
than a sweep can walk, and every gap (at most n - 1) stays well inside one
key byte.

- **Level bytes by position mask.** The level of the letters >= x is fixed by
  the set of their positions, so its bytes (the gaps, then 0x00) are looked
  up by the bitmask of those positions in a table that each call fills as
  masks first occur (at most 2^n of them).  The level of n alone adds no
  byte to the key, not even the 0x00, so a single position maps to no bytes.
- **Aligned lex runs.** The block is cut into runs, each a fixed head
  followed by every arrangement of k free letters on the last k positions.
  A run starts at a rank that is a multiple of k!, so its free letters come
  out of ``unrank`` ascending.
- **Each run is a product.** Split the free letters at k // 2 into the lower
  ones (up to t, the largest of them) and the upper ones.  The levels above
  t hold no lower letter, so their bytes depend only on where the upper
  letters sit.  The levels at or below t hold every upper letter, so their
  bytes depend only on the *set* M of positions the upper letters take, and
  on where the lower letters sit.  So for each M the run tallies the upper
  arrangements by their part ``a`` of the key and the lower arrangements on
  the other positions by their part ``b``, and every pair of an ``a`` and a
  ``b`` is the class of key ``a + b`` with count c_a * c_b.  Within one M a
  cell's two parts are chosen independently, so its count is the product.
- **Least members as values.** A permutation u is held as the integer
  v = sum of u[p] * 256^(n-1-p), whose numeric order is lex order.  The head
  and the two halves sit on disjoint positions, so their values add, and the
  least member of a cell is the head plus the least ``a`` arrangement plus
  the least ``b`` arrangement.  Arrangements of ascending letters on
  ascending positions come out of ``itertools.permutations`` in lex order,
  so the first one seen per part is its least.  A key met under several M,
  or in several runs, keeps the smaller value.  That value is what the
  block returns as the class's least member, its base-256 code: the caller
  turns it into a tuple (``tuple(v.to_bytes(n, "big"))``) only when it
  writes the class out, so a block's table holds one int per class and no
  tuple.

The split at k // 2 balances the halves.  A run of k free letters with h of
them lower walks C(k, h) * (h! + (k-h)!) arrangements, and that is least at
the middle: for k = 9 it is 18,144 at h = 4 against 60,984 at h = 3 or 6,
where the full S_9 has 362,880 permutations.
"""
from __future__ import annotations

from itertools import combinations, permutations
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
    """mask of positions -> its gaps as bytes, then 0x00; a single position
    gives no bytes, as the key leaves out the level of n alone."""

    def __missing__(self, mask: int) -> bytes:
        positions = [i for i in range(mask.bit_length()) if mask >> i & 1]
        gaps = bytes(b - a for a, b in zip(positions, positions[1:]))
        entry = self[mask] = gaps + b"\0" if gaps else b""
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

    Returns {pyramid key: [class member count, code of the lex-least
    member]}, where the code of u is sum of u[p] * 256^(n-1-p), so numeric
    order is lex order.  Block results merge by summing counts and taking the
    smaller code.
    """
    if not 2 <= n <= MAX_N:
        raise ValueError(f"kernel supports sizes 2..{MAX_N}, got {n}")
    if not 0 <= start <= start + count <= factorial(n):
        raise ValueError("block out of range")
    acc: dict[bytes, list] = {}
    get = acc.get
    level = _LevelBytes()
    join = b"".join
    weight = [1 << 8 * (n - 1 - p) for p in range(n)]  # 256^(n-1-p)
    bit = [0] * (n + 1)  # bit[letter] = 1 << its position

    def tally(letters, spots, mask, levels):
        """{key part: [count, least value]} over the arrangements of
        ``letters`` on ``spots``.  The part is the levels of the letters in
        ``levels``, top first; ``mask`` holds the positions of the letters
        above the first of them."""
        parts_seen: dict[bytes, list] = {}
        for arrangement in permutations(letters):
            for x, p in zip(arrangement, spots):
                bit[x] = 1 << p
            m = mask
            parts = []
            for x in levels:
                m |= bit[x]
                parts.append(level[m])
            part = join(parts)
            entry = parts_seen.get(part)
            if entry is None:
                value = sum(x * weight[p] for x, p in zip(arrangement, spots))
                parts_seen[part] = [1, value]
            else:
                entry[0] += 1
        return parts_seen

    for head, free in _lex_runs(n, start, count):
        k = len(free)
        lower, upper = free[: k // 2], free[k // 2 :]
        t = lower[-1] if lower else 0
        above = 0  # positions of the head letters > t
        head_value = 0
        for p, x in enumerate(head):
            bit[x] = 1 << p
            head_value += x * weight[p]
            if x > t:
                above |= bit[x]
        span = range(n - k, n)
        for spots in combinations(span, len(upper)):
            ups = tally(upper, spots, 0, range(n, t, -1))
            taken = sum(1 << p for p in spots)
            rest = [p for p in span if not taken >> p & 1]
            lows = tally(lower, rest, above | taken, range(t, 0, -1)).items()
            for a, (ca, va) in ups.items():
                va += head_value
                for b, (cb, vb) in lows:
                    key = a + b
                    value = va + vb
                    entry = get(key)
                    if entry is None:
                        acc[key] = [ca * cb, value]
                    else:
                        entry[0] += ca * cb
                        if value < entry[1]:
                            entry[1] = value
    return acc
