"""Sweep kernel.

Tallies all of S_n by pyramid key, one row per class.  The key has the same
bytes as ``pyramid.canonical_key``: gap entries stay below 0x80 at these
sizes, so one byte per entry is already the varint encoding.  ``BACKEND``
names the implementation, which is pure Python.  Sizes stop at ``MAX_N`` =
16: S_16 already holds about 2 * 10^13 permutations, far more than a sweep
can walk, and every gap (at most n - 1) stays well inside one key byte.

- **Level bytes by position mask.** The level of the letters >= x is fixed by
  the set of their positions, so its bytes (the gaps, then 0x00) are looked
  up by the bitmask of those positions in a table that each sweep fills as
  masks first occur (at most 2^n of them).  The level of n alone adds no
  byte to the key, not even the 0x00, so a single position maps to no bytes.
- **S_n is a product.** Split the letters at t = n // 2 into the lower ones
  (1..t) and the upper ones.  The levels above t hold no lower letter, so
  their bytes depend only on where the upper letters sit.  The levels at or
  below t hold every upper letter, so their bytes depend only on the *set* M
  of positions the upper letters take, and on where the lower letters sit.
  So for each M the sweep tallies the upper arrangements by their part
  ``a`` of the key and the lower arrangements on the other positions by
  their part ``b``, and every pair of an ``a`` and a ``b`` is the class of
  key ``a + b`` with count c_a * c_b.  Within one M a cell's two parts are
  chosen independently, so its count is the product.
- **Translates share the upper part.** Every level above t is a subset of
  M, so moving M and its arrangement by s moves each of those masks by s.
  Level bytes are gaps, so ``a`` and c_a do not change, and the least value
  of ``a`` becomes ``va >> 8*s``.  The sweep therefore tallies the upper
  letters once per translation class, for the M with min(M) = 0, and walks
  the shifts s in ``range(n - max(M))``.
- **Keys meet only across translates.** The last upper level is the gaps of
  M, and gaps fix a set up to translation.  So two M that are not
  translates give different parts ``a``, and each ``b`` of a class meets
  each ``a`` once.
- **The lower letters alone pick the least translate.** Let u_s place M + s,
  and take s < s'.  Positions 0..s-1 hold lower letters in both u_s and
  u_s', and at position s, u_s holds an upper letter and u_s' a lower one,
  so their lex order never depends on the upper arrangement.  So per ``b``
  the shifts merge into one count (the sum) and one least value (of the
  shift that wins), ranked with any one upper value; then each ``a`` pairs
  once with each merged ``b``.
- **Least members as values.** A permutation u is held as the integer
  v = sum of u[p] * 256^(n-1-p), whose numeric order is lex order.  The two
  halves sit on disjoint positions, so their values add, and the least
  member of a cell is the least ``a`` arrangement plus the least ``b``
  arrangement.  Arrangements of ascending letters on ascending positions
  come out of ``itertools.permutations`` in lex order, so the first one
  seen per part is its least.
- **One row per pair.** Each pair of an ``a`` and a merged ``b`` appends the
  row (value, ``a + b``, c_a * c_b) and looks nothing up.  By the two facts
  above, the sweep meets each key in one pair, so it gives one row per
  class.  The value is the class's least member as a base-256 code: the
  caller turns it into a tuple (``tuple(v.to_bytes(n, "big"))``) only when
  it writes the class out.

The split at n // 2 balances the halves.  With h of the n letters lower, the
sweep walks C(n, h) * h! lower arrangements and C(n-1, h) * (n-h)! upper
ones, the upper letters being tallied once per translation class.  The sum
is least at the middle: for n = 9 it is 11,424 at h = 4 against 16,464 at
h = 5 and 40,824 at h = 3, where the full S_9 has 362,880 permutations.
"""
from __future__ import annotations

from itertools import combinations, permutations
from math import factorial

BACKEND = "python"
MAX_N = 16


class _LevelBytes(dict):
    """mask of positions -> its gaps as bytes, then 0x00; a single position
    gives no bytes, as the key leaves out the level of n alone."""

    def __missing__(self, mask: int) -> bytes:
        positions = [i for i in range(mask.bit_length()) if mask >> i & 1]
        gaps = bytes(b - a for a, b in zip(positions, positions[1:]))
        entry = self[mask] = gaps + b"\0" if gaps else b""
        return entry


def _translation_classes(n: int):
    """Per translation class of the upper positions M of S_n, walked at its
    M with min(M) = 0, yield (ups_at, lows).

    ``ups_at[s]`` holds the upper entries (a, c_a, least value, s) with M
    moved by s; ``lows`` holds the lower entries merged over the shifts,
    (b, c_b, least value, the shift it is least at).  Each lower entry
    paired with each upper entry of its shift is one class of S_n: key
    a + b, c_a * c_b members, least member of value va + vb.
    """
    level = _LevelBytes()
    join = b"".join
    weight = [1 << 8 * (n - 1 - p) for p in range(n)]  # 256^(n-1-p)
    bit = [0] * (n + 1)  # bit[letter] = 1 << its position

    def tally(letters, spots, mask, levels, shift):
        """{key part: [key part, count, least value, shift]} over the
        arrangements of ``letters`` on ``spots``.  The part is the levels of
        the letters in ``levels``, top first; ``mask`` holds the positions of
        the letters above the first of them.  An entry holds its own part so
        that the entries alone, unpacked flat, feed the pair loop."""
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
                parts_seen[part] = [part, 1, value, shift]
            else:
                entry[1] += 1
        return parts_seen

    t = n // 2  # the largest lower letter
    lower, upper = range(1, t + 1), range(t + 1, n + 1)
    span = range(n)
    up_levels, low_levels = range(n, t, -1), range(t, 0, -1)
    for others in combinations(range(1, n), len(upper) - 1):
        spots = (0, *others)
        ups = tally(upper, spots, 0, up_levels, 0).values()
        spot_mask = sum(1 << p for p in spots)
        ups_at = [ups]  # ups_at[s]: the upper entries with M moved by s
        probe = next(iter(ups))[2]  # any upper value ranks shifts
        for s in range(n - spots[-1]):
            taken = spot_mask << s
            rest = [p for p in span if not taken >> p & 1]
            seen = tally(lower, rest, taken, low_levels, s)
            if not s:
                lows = seen  # b -> [b, count, least value, the shift it is at]
                continue
            ups_at.append([(a, ca, va >> 8 * s, s) for a, ca, va, _ in ups])
            for b, low in seen.items():
                entry = lows.setdefault(b, low)
                if entry is not low:
                    entry[1] += low[1]
                    if low[2] + (probe >> 8 * s) < entry[2] + (probe >> 8 * entry[3]):
                        entry[2:] = low[2:]
        yield ups_at, lows.values()


def sweep_block(n: int, start: int, count: int) -> list[tuple[int, bytes, int]]:
    """Group all of S_n by pyramid key; the block must be the whole group,
    ``start`` 0 and ``count`` n!.  (``perfbench/tracing.py`` reads ``count``
    as the permutations swept.)

    Returns one row per class: (code of the lex-least member, pyramid key,
    member count), where the code of u is sum of u[p] * 256^(n-1-p), so
    numeric order is lex order.
    """
    if not 2 <= n <= MAX_N:
        raise ValueError(f"kernel supports sizes 2..{MAX_N}, got {n}")
    if start != 0 or count != factorial(n):
        raise ValueError(f"the kernel sweeps all of S_n: start 0, count {n}!")
    rows: list[tuple[int, bytes, int]] = []
    append = rows.append
    for ups_at, lows in _translation_classes(n):
        for b, cb, vb, s in lows:
            for a, ca, va, _ in ups_at[s]:
                append((va + vb, a + b, ca * cb))
    return rows
