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
- **Translates share the upper part.** Let f = n - k be the run's first free
  position.  When the head holds no letter above t (true of the whole-S_n
  run), every level above t is a subset of M, so moving M and its
  arrangement by s moves each of those masks by s.  Level bytes are gaps,
  so ``a`` and c_a do not change, and the least value of ``a`` becomes
  ``va >> 8*s``.  The run therefore tallies the upper letters once per
  translation class, for the M with min(M) = f, and walks the shifts s in
  ``range(n - max(M))``.  When the head holds a letter above t, each M
  stands alone.
- **Keys of one run meet only across translates.** The last upper level is
  the gaps of ``above | M``, where ``above`` holds the positions of the head
  letters above t, and gaps fix a set up to translation.  So two M whose
  masks ``above | M`` are not translates give different parts ``a``.  With
  ``above`` not empty, both masks start at min(above), so no two distinct M
  are translates at all.  Within a run, then, each ``b`` of a class meets
  each ``a`` once.
- **The lower letters alone pick the least translate.** Let u_s place M + s,
  and take s < s'.  Positions f..f+s-1 hold lower letters in both u_s and
  u_s', and at position f+s, u_s holds an upper letter and u_s' a lower
  one, so their lex order never depends on the upper arrangement.  So per
  ``b`` the shifts merge into one count (the sum) and one least value (of
  the shift that wins), ranked with any one upper value; then each ``a``
  pairs once with each merged ``b``.
- **Least members as values.** A permutation u is held as the integer
  v = sum of u[p] * 256^(n-1-p), whose numeric order is lex order.  The head
  and the two halves sit on disjoint positions, so their values add, and the
  least member of a cell is the head plus the least ``a`` arrangement plus
  the least ``b`` arrangement.  Arrangements of ascending letters on
  ascending positions come out of ``itertools.permutations`` in lex order,
  so the first one seen per part is its least.
- **One row per pair.** Each pair of an ``a`` and a merged ``b`` appends the
  row (value, ``a + b``, c_a * c_b) and looks nothing up.  By the two facts
  above, a run meets each of its keys in one pair, so the rows of one run
  hold distinct keys, and the whole-S_n block, one run, gives one row per
  class.  A key can repeat only across runs, where the caller merges by
  summing counts and keeping the smaller value.  The value is the class's
  least member as a base-256 code: the caller turns it into a tuple
  (``tuple(v.to_bytes(n, "big"))``) only when it writes the class out.

The split at k // 2 balances the halves.  A run of k free letters with h of
them lower walks C(k, h) * h! lower arrangements, and C(k, h) * (k-h)! upper
ones when M stands alone, or C(k-1, h) * (k-h)! when the upper letters are
tallied once per translation class.  Either way the sum is least at the
middle: for k = 9 the translation classes give 11,424 at h = 4 against
16,464 at h = 5 and 40,824 at h = 3 (18,144 at h = 4 without them), where
the full S_9 has 362,880 permutations.
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


def sweep_block(n: int, start: int, count: int) -> list[tuple[int, bytes, int]]:
    """Aggregate ``count`` permutations of S_n starting at lex index ``start``.

    Returns rows (code of the lex-least member, pyramid key, member count),
    where the code of u is sum of u[p] * 256^(n-1-p), so numeric order is lex
    order.  There is one row per key per run, and the whole-S_n block is one
    run, so it gives one row per class.  Rows of several runs or blocks merge
    by key, summing counts and taking the smaller code.
    """
    if not 2 <= n <= MAX_N:
        raise ValueError(f"kernel supports sizes 2..{MAX_N}, got {n}")
    if not 0 <= start <= start + count <= factorial(n):
        raise ValueError("block out of range")
    rows: list[tuple[int, bytes, int]] = []
    append = rows.append
    level = _LevelBytes()
    join = b"".join
    weight = [1 << 8 * (n - 1 - p) for p in range(n)]  # 256^(n-1-p)
    bit = [0] * (n + 1)  # bit[letter] = 1 << its position

    def tally(letters, spots, mask, levels, base, shift):
        """{key part: [key part, count, least value, shift]} over the
        arrangements of ``letters`` on ``spots``.  The part is the levels of
        the letters in ``levels``, top first; ``mask`` holds the positions of
        the letters above the first of them.  Each value starts at ``base``.
        An entry holds its own part so that the entries alone, unpacked flat,
        feed the pair loop."""
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
                value = sum((x * weight[p] for x, p in zip(arrangement, spots)), base)
                parts_seen[part] = [part, 1, value, shift]
            else:
                entry[1] += 1
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
        f = n - k  # the run's first free position
        span = range(f, n)
        up_levels, low_levels = range(n, t, -1), range(t, 0, -1)
        for spots in combinations(span, len(upper)):
            if above:
                shifts = range(1)  # M stands alone
            elif spots[0] > f:
                break  # every class was walked from its M with min(M) = f
            else:
                shifts = range(n - spots[-1])  # M and its translates
            ups = tally(upper, spots, 0, up_levels, 0, 0).values()
            spot_mask = sum(1 << p for p in spots)
            ups_at = [ups]  # ups_at[s]: the upper entries with M moved by s
            for s in shifts:
                taken = spot_mask << s
                rest = [p for p in span if not taken >> p & 1]
                seen = tally(lower, rest, above | taken, low_levels, head_value, s)
                if not s:
                    lows = seen  # b -> [b, count, least value, the shift it is at]
                    continue
                ups_at.append([(a, ca, va >> 8 * s, s) for a, ca, va, _ in ups])
                probe = next(iter(ups))[2]  # any upper value ranks shifts
                for b, low in seen.items():
                    entry = lows.setdefault(b, low)
                    if entry is not low:
                        entry[1] += low[1]
                        if low[2] + (probe >> 8 * s) < entry[2] + (probe >> 8 * entry[3]):
                            entry[2:] = low[2:]
            for b, cb, vb, s in lows.values():
                for a, ca, va, _ in ups_at[s]:
                    append((va + vb, a + b, ca * cb))
    return rows
