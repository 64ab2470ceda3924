"""Pure-Python sweep kernel.

Walks a contiguous lexicographic block of S_n, computes each permutation's
pyramid key, and aggregates class counts.  The key has the same bytes as
``pyramid.canonical_key``: gap entries stay below 0x80 at these sizes, so one
byte per entry is already the varint encoding.  The compiled twin in
``_ckernel`` exposes the same interface; both are limited to n <= 16 where a
permutation packs into one 64-bit code (4 bits per letter, first letter most
significant, so integer order equals lexicographic order).
"""
from __future__ import annotations

from bisect import insort
from math import factorial

MAX_N = 16


def pack_code(perm) -> int:
    code = 0
    for x in perm:
        code = (code << 4) | (x - 1)
    return code


def unpack_code(code: int, n: int) -> tuple[int, ...]:
    return tuple(((code >> (4 * (n - 1 - i))) & 0xF) + 1 for i in range(n))


def unrank(n: int, rank: int) -> list[int]:
    """Permutation of 1..n at the given index of the lexicographic order."""
    letters = list(range(1, n + 1))
    out = []
    for k in range(n, 0, -1):
        f = factorial(k - 1)
        idx, rank = divmod(rank, f)
        out.append(letters.pop(idx))
    return out


def _advance(perm: list[int]) -> bool:
    """In-place lexicographic successor; False once the order wraps."""
    i = len(perm) - 2
    while i >= 0 and perm[i] >= perm[i + 1]:
        i -= 1
    if i < 0:
        return False
    j = len(perm) - 1
    while perm[j] <= perm[i]:
        j -= 1
    perm[i], perm[j] = perm[j], perm[i]
    perm[i + 1 :] = perm[:i:-1]
    return True


def sweep_block(n: int, start: int, count: int) -> dict[bytes, list[int]]:
    """Aggregate ``count`` permutations of S_n starting at lex index ``start``.

    Returns {pyramid key: [class member count, packed lex-least member]}.
    Because the walk is ascending, the first member seen per key is the least
    in the block; block results merge by summing counts and taking the
    smaller code.
    """
    if not 2 <= n <= MAX_N:
        raise ValueError(f"kernel supports sizes 2..{MAX_N}, got {n}")
    if not 0 <= start <= start + count <= factorial(n):
        raise ValueError("block out of range")
    acc: dict[bytes, list[int]] = {}
    get = acc.get
    perm = unrank(n, start)
    pos = [0] * (n + 1)
    letters_desc = range(n - 1, 0, -1)
    for _ in range(count):
        i = 1
        for x in perm:
            pos[x] = i
            i += 1
        positions = [pos[n]]
        out = bytearray()
        append = out.append
        for letter in letters_desc:
            insort(positions, pos[letter])
            prev = positions[0]
            for q in positions[1:]:
                append(q - prev)
                prev = q
            append(0)
        key = bytes(out)
        entry = get(key)
        if entry is None:
            code = 0
            for x in perm:
                code = (code << 4) | (x - 1)
            acc[key] = [1, code]
        else:
            entry[0] += 1
        _advance(perm)
    return acc
