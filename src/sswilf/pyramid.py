"""The pyramidal sequence invariant of a permutation.

For u in S_n, level i (for i = 1..n-1) is the vector of gaps between the
positions of the letters >= i, read left to right in u.  Stacking the levels
gives a pyramid: level 1 is always (1,...,1) of length n-1, and each level
arises from the one below by merging two adjacent entries or by dropping the
leftmost or rightmost entry.  Two permutations are super-strongly Wilf
equivalent exactly when their pyramids coincide, so the pyramid is a complete
class invariant and everything here revolves around computing it, validating
it, serializing it, and rebuilding a class member from it.
"""
from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidPyramid, LengthMismatch, SizeMismatch, SizeTooSmall
from .words import as_permutation, inverse as _inverse

DiffVector = tuple[int, ...]


def consecutive_differences(values) -> DiffVector:
    """Gaps between consecutive elements of a set, in increasing order.

    >>> consecutive_differences({2, 4, 6, 8})
    (2, 2, 2)
    """
    xs = sorted(values)
    if len(xs) < 2:
        raise SizeTooSmall("need at least two elements to take differences")
    return tuple(b - a for a, b in zip(xs, xs[1:]))


def set_from_differences(start: int, diffs: Sequence[int]) -> tuple[int, ...]:
    """Rebuild the increasing set with minimum ``start`` and the given gaps.

    Inverse of :func:`consecutive_differences` once a minimum is fixed.
    """
    out = [start]
    for d in diffs:
        out.append(out[-1] + d)
    return tuple(out)


def validate_transition(a: DiffVector, b: DiffVector) -> bool:
    """True when ``b`` arises from ``a`` by one admissible step.

    Admissible steps: replace two adjacent entries of ``a`` by their sum,
    drop the leftmost entry, or drop the rightmost entry.

    >>> validate_transition((1, 2, 1, 1, 2, 1), (1, 2, 2, 2, 1))
    True
    >>> validate_transition((1, 3), (5,))
    False
    """
    if len(a) < 2 or len(b) != len(a) - 1:
        raise LengthMismatch(f"cannot step from length {len(a)} to length {len(b)}")
    if b == a[1:] or b == a[:-1]:
        return True
    for k in range(len(b)):
        if b[k] != a[k]:
            return b[k] == a[k] + a[k + 1] and b[k + 1 :] == a[k + 2 :]
    return False


def is_periodic_vector(d: Sequence[int]) -> bool:
    """True when all entries are equal (single entries count).

    >>> is_periodic_vector((2, 2, 2))
    True
    >>> is_periodic_vector((1, 2, 2, 2))
    False
    """
    return not d or d.count(d[0]) == len(d)


def _built(cls, levels: tuple[DiffVector, ...]):
    """A ``cls`` value holding ``levels`` (tuples of tuples) unchecked: only
    for levels the library built itself, which are valid by construction."""
    value = object.__new__(cls)
    object.__setattr__(value, "levels", levels)
    return value


@dataclass(frozen=True)
class PyramidalSequence:
    """Validated stack of difference vectors (levels[0] is the longest).

    The constructor checks the caller's levels; :func:`pyramidal_sequence`
    skips it, since the pyramid of a permutation is valid by construction.
    """

    levels: tuple[DiffVector, ...]

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(tuple(v) for v in self.levels))
        levels = self.levels
        n = len(levels) + 1
        if n < 2:
            raise InvalidPyramid("a pyramid has at least one level")
        if levels[0] != (1,) * (n - 1):
            raise InvalidPyramid(f"level 1 must be {(1,) * (n - 1)}, got {levels[0]}")
        for i, level in enumerate(levels, start=1):
            if len(level) != n - i:
                raise InvalidPyramid(f"level {i} must have {n - i} entries, got {level}")
            if any(e < 1 for e in level):
                raise InvalidPyramid(f"level {i} has a non-positive entry: {level}")
        for i in range(len(levels) - 1):
            if not validate_transition(levels[i], levels[i + 1]):
                raise InvalidPyramid(
                    f"no admissible step from level {i + 1} {levels[i]} "
                    f"to level {i + 2} {levels[i + 1]}"
                )

    @property
    def n(self) -> int:
        return len(self.levels) + 1

    def level(self, i: int) -> DiffVector:
        """The vector for letters >= i (1-based, i in 1..n-1)."""
        return self.levels[i - 1]

    def to_json(self) -> list[list[int]]:
        return [list(v) for v in self.levels]


def pyramidal_sequence(u: Sequence[int]) -> PyramidalSequence:
    """The pyramid of ``u``: level i lists the gaps between positions of
    letters >= i as they occur in ``u`` from left to right.

    ``inverse`` validates ``u``; the levels are a pyramid by construction
    (Hadjiloucas, Michos and Savvidou, 2018), so they are not checked again.

    >>> pyramidal_sequence((2, 1, 3)).levels
    ((1, 1), (2,))
    """
    n = len(u)
    if n < 2:
        raise SizeTooSmall("pyramids are defined for size >= 2")
    pos = _inverse(u)
    positions = [pos[n - 1]]
    levels: list[DiffVector] = []
    for i in range(n - 2, -1, -1):
        insort(positions, pos[i])
        levels.append(tuple(b - a for a, b in zip(positions, positions[1:])))
    levels.reverse()
    return _built(PyramidalSequence, tuple(levels))


def is_ss_equivalent(u: Sequence[int], v: Sequence[int]) -> bool:
    """Super-strong Wilf equivalence test: equal pyramids.

    Size-1 permutations are trivially equivalent.
    """
    if len(u) != len(v):
        raise SizeMismatch(f"sizes differ: {len(u)} vs {len(v)}")
    if len(u) == 1:
        return as_permutation(u) == as_permutation(v)
    return pyramidal_sequence(u) == pyramidal_sequence(v)


def class_size_exponent(p: PyramidalSequence) -> int:
    """Exponent j such that the class of ``p`` has exactly 2**j members.

    Each step that shortens a constant vector (d,...,d) to (d,...,d) with the
    same d can be realized in two ways, doubling the class; the final step
    down to the empty vector always counts, hence the baseline of 1.
    """
    levels = p.levels
    j = 1
    for i in range(len(levels) - 1):
        a, b = levels[i], levels[i + 1]
        if is_periodic_vector(a) and is_periodic_vector(b) and a[0] == b[0]:
            j += 1
    return j


def canonical_member(p: PyramidalSequence) -> tuple[int, ...]:
    """Rebuild a permutation whose pyramid equals ``p``.

    Letters are placed from n downward.  The top level (d,) fixes letters n-1
    and n at distance d with n-1 on the left.  Each further letter i is
    forced by comparing level i with level i+1: a merge at entry k puts i at
    distance d_1+...+d_k right of the current leftmost letter; a left (right)
    drop puts i at distance d_1 left of the leftmost (d_last right of the
    rightmost).  When the two drops coincide -- both levels constant with the
    same d -- the left placement is chosen, which pins down one member of the
    class per choice point.
    """
    levels = p.levels
    n = p.n
    d = levels[-1][0]
    position = {n - 1: 0, n: d}
    left, right = 0, d
    for i in range(n - 2, 0, -1):
        a = levels[i - 1]
        b = levels[i]
        if b == a[1:]:
            spot = left - a[0]
        elif b == a[:-1]:
            spot = right + a[-1]
        else:  # a merge at the first entry where the levels differ
            k = 0
            while b[k] == a[k]:
                k += 1
            spot = left + sum(a[: k + 1])
        position[i] = spot
        left = min(left, spot)
        right = max(right, spot)
    return tuple(sorted(position, key=position.get))


def _encode_varint(value: int, out: bytearray) -> None:
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def canonical_key(p: PyramidalSequence) -> bytes:
    """Deterministic injective byte serialization of a pyramid.

    Levels are emitted top first (shortest vector first), each entry as an
    unsigned varint, each level closed by a 0x00 byte.  Entries are positive,
    so 0x00 never occurs inside a varint and equal keys mean equal pyramids.
    Top-first order lets pyramids sharing a scaled upper part share a key
    prefix.
    """
    out = bytearray()
    for level in reversed(p.levels):
        for e in level:
            _encode_varint(e, out)
        out.append(0)
    return bytes(out)


def levels_from_key(key: bytes) -> tuple[DiffVector, ...]:
    """Decode :func:`canonical_key` output back into bottom-first levels."""
    levels: list[DiffVector] = []
    current: list[int] = []
    value = 0
    shift = 0
    for byte in key:
        if byte == 0 and shift == 0:
            levels.append(tuple(current))
            current = []
            continue
        value |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
        else:
            current.append(value)
            value = 0
            shift = 0
    if current or shift:
        raise InvalidPyramid("truncated pyramid key")
    levels.reverse()
    return tuple(levels)
