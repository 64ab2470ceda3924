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

from itertools import accumulate
from operator import index
from typing import Sequence

from .errors import (
    DuplicateLetter,
    InvalidPyramid,
    LengthMismatch,
    MalformedToken,
    OutOfRange,
    SizeMismatch,
    SizeTooSmall,
)
from .words import _letters, as_permutation, inverse as _inverse

DiffVector = tuple[int, ...]


def consecutive_differences(values) -> DiffVector:
    """Gaps between consecutive elements of a set, in increasing order; the
    elements are distinct integers, so every gap is positive.

    >>> consecutive_differences({2, 4, 6, 8})
    (2, 2, 2)
    """
    xs = sorted(_letters(values, "values"))
    if len(xs) < 2:
        raise SizeTooSmall("need at least two elements to take differences")
    gaps = tuple(b - a for a, b in zip(xs, xs[1:]))
    if 0 in gaps:
        raise DuplicateLetter(f"repeated element in {xs}")
    return gaps


def set_from_differences(start: int, diffs: Sequence[int]) -> tuple[int, ...]:
    """Rebuild the increasing set with minimum ``start`` and the given gaps,
    each at least 1.

    Inverse of :func:`consecutive_differences` once a minimum is fixed.
    """
    (start,), diffs = _letters((start,), "start"), _letters(diffs, "diffs")
    if any(d < 1 for d in diffs):
        raise OutOfRange(f"gaps of an increasing set are at least 1, got {diffs}")
    return tuple(accumulate(diffs, initial=start))


def _deletions(points, n: int):
    """Yield the gaps of 1..n, then the gaps left after deleting each point
    in turn.

    This is the one step rule of pyramids and trapezoids.  Deleting the
    least surviving point drops the first gap; deleting the greatest drops
    the last gap; deleting an inner point merges its two neighbouring gaps.
    A point that is not left to delete raises ``ValueError``.

    >>> list(_deletions((3, 1), 5))
    [(1, 1, 1, 1), (1, 2, 1), (2, 1)]
    """
    survivors = list(range(1, n + 1))
    level = (1,) * (n - 1)
    yield level
    for x in points:
        p = survivors.index(x)
        del survivors[p]
        if p == 0:
            level = level[1:]
        elif p == len(level):
            level = level[:-1]
        else:
            level = level[: p - 1] + (level[p - 1] + level[p],) + level[p + 1 :]
        yield level


def _step(a: DiffVector, b: DiffVector) -> int | None:
    """The index p of the surviving point whose deletion turns level ``a``
    into level ``b`` (see :func:`_deletions`), or None when no step does.

    ``b`` must be one entry shorter than ``a``.  When ``a`` is constant both
    end drops give ``b``; the left one, p = 0, is returned.
    """
    if b == a[1:]:
        return 0
    if b == a[:-1]:
        return len(a)
    k = 0
    while b[k] == a[k]:  # stops inside b, as b != a[:-1]
        k += 1
    return k + 1 if b[k] == a[k] + a[k + 1] and b[k + 1 :] == a[k + 2 :] else None


def validate_transition(a: DiffVector, b: DiffVector) -> bool:
    """True when ``b`` arises from ``a`` by one admissible step.

    Admissible steps: replace two adjacent entries of ``a`` by their sum,
    drop the leftmost entry, or drop the rightmost entry.

    >>> validate_transition((1, 2, 1, 1, 2, 1), (1, 2, 2, 2, 1))
    True
    >>> validate_transition((1, 3), (5,))
    False
    """
    # frozen as tuples of ints, so slices of a and b compare equal
    a, b = _letters(a, "a"), _letters(b, "b")
    if len(a) < 2 or len(b) != len(a) - 1:
        raise LengthMismatch(f"cannot step from length {len(a)} to length {len(b)}")
    return _step(a, b) is not None


def is_periodic_vector(d: Sequence[int]) -> bool:
    """True when all entries are equal (single entries count).

    >>> is_periodic_vector((2, 2, 2))
    True
    >>> is_periodic_vector((1, 2, 2, 2))
    False
    """
    try:
        return d.count(d[0]) == len(d)
    except IndexError:  # the empty vector
        return True
    except AttributeError:  # not a sequence: None, 1, a set
        raise MalformedToken(f"a gap vector is a sequence, got {d!r}") from None


def _built(cls, levels: tuple[DiffVector, ...]):
    """A ``cls`` value holding ``levels`` (tuples of tuples) unchecked: only
    for levels the library built itself, which are valid by construction."""
    value = object.__new__(cls)
    object.__setattr__(value, "levels", levels)
    return value


def _levels_of(tower, cls, error) -> tuple[DiffVector, ...]:
    """The levels of ``tower``, which must be a ``cls``: the levels of any
    other tower break the reading of ``cls``, so they raise ``error``."""
    if isinstance(tower, cls):
        return tower.levels
    raise error(f"expected a {cls.__name__}, got {tower!r}")


def _checked_tower(levels, error) -> tuple[DiffVector, ...]:
    """The caller's ``levels`` as tuples of ints, checked as a tower of gap
    vectors: an all-ones base, then levels one entry shorter each, every one
    reached from the level below by one step.  Raises ``error`` otherwise."""
    try:
        levels = tuple(tuple(map(index, level)) for level in levels)
    except TypeError:
        raise error(f"levels must be sequences of integers, got {levels!r}") from None
    if not levels or not levels[0] or levels[0].count(1) != len(levels[0]):
        raise error(f"the base level must be all ones, got {levels[:1]}")
    for j, (a, b) in enumerate(zip(levels, levels[1:]), start=1):
        if len(b) != len(a) - 1:
            raise error(f"level {j + 1} must have {len(a) - 1} entries, got {b}")
        if _step(a, b) is None:
            raise error(f"no admissible step from level {j} {a} to level {j + 1} {b}")
    return levels


class _Tower:
    """An immutable stack of levels, set once by the subclass constructor
    (or by :func:`_built`); equal to a value of the same class with the same
    levels, and hashed by them."""

    levels: tuple[DiffVector, ...]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.levels == other.levels
        return NotImplemented

    def __hash__(self):
        return hash((self.levels,))

    def __repr__(self):
        return f"{self.__class__.__qualname__}(levels={self.levels!r})"


class PyramidalSequence(_Tower):
    """Validated stack of difference vectors (levels[0] is the longest).

    The constructor checks the caller's levels; :func:`pyramidal_sequence`
    skips it, since the pyramid of a permutation is valid by construction.
    """

    def __init__(self, levels):
        levels = _checked_tower(levels, InvalidPyramid)
        if len(levels[-1]) != 1:
            raise InvalidPyramid(f"the top level must have one entry, got {levels[-1]}")
        object.__setattr__(self, "levels", levels)

    @property
    def n(self) -> int:
        return len(self.levels) + 1


def pyramidal_sequence(u: Sequence[int]) -> PyramidalSequence:
    """The pyramid of ``u``: level i lists the gaps between positions of
    letters >= i as they occur in ``u`` from left to right, so level i + 1
    is level i with the position of letter i deleted.

    ``inverse`` validates ``u``; the levels are a pyramid by construction
    (Hadjiloucas, Michos and Savvidou, 2018), so they are not checked again.

    >>> pyramidal_sequence((2, 1, 3)).levels
    ((1, 1), (2,))
    """
    try:
        n = len(u)
    except TypeError:
        raise MalformedToken(f"a permutation is a sequence, got {u!r}") from None
    if n < 2:
        raise SizeTooSmall("pyramids are defined for size >= 2")
    return _built(PyramidalSequence, tuple(_deletions(_inverse(u)[: n - 2], n)))


def is_ss_equivalent(u: Sequence[int], v: Sequence[int]) -> bool:
    """Super-strong Wilf equivalence test: equal pyramids.

    Size-1 permutations are trivially equivalent.
    """
    try:
        n, m = len(u), len(v)
    except TypeError:
        raise MalformedToken(f"permutations are sequences, got {u!r}, {v!r}") from None
    if n != m:
        raise SizeMismatch(f"sizes differ: {n} vs {m}")
    if n == 1:
        return as_permutation(u) == as_permutation(v)
    return pyramidal_sequence(u) == pyramidal_sequence(v)


def class_size_exponent(p: PyramidalSequence) -> int:
    """Exponent j such that the class of ``p`` has exactly 2**j members.

    A step where both end drops give the next level -- a constant vector
    (d,...,d) shortened to (d,...,d) with the same d -- can be realized in
    two ways, doubling the class; the final step down to the empty vector
    always counts, hence the baseline of 1.
    """
    levels = _levels_of(p, PyramidalSequence, InvalidPyramid)
    return 1 + sum(b == a[1:] == a[:-1] for a, b in zip(levels, levels[1:]))


def canonical_member(p: PyramidalSequence) -> tuple[int, ...]:
    """Rebuild a permutation whose pyramid equals ``p``.

    Letters are placed from n downward.  Letter i is the point whose
    deletion (see :func:`_deletions`) turns level i into level i + 1, the
    level above the top being empty: a left drop puts i at distance d_1 left
    of the leftmost placed letter, the deletion of the k-th point
    (k > 0) puts it at distance d_1+...+d_k right of it.  Where both end drops fit -- both levels constant with the
    same d -- the left one is taken, which pins down one member of the class
    per choice point.
    """
    levels = _levels_of(p, PyramidalSequence, InvalidPyramid) + ((),)
    position = {p.n: 0}
    left = 0
    for i in range(p.n - 1, 0, -1):
        a = levels[i - 1]
        k = _step(a, levels[i])
        if k == 0:
            left -= a[0]
            position[i] = left
        else:
            position[i] = left + sum(a[:k])
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
    for level in reversed(_levels_of(p, PyramidalSequence, InvalidPyramid)):
        for e in level:
            _encode_varint(e, out)
        out.append(0)
    return bytes(out)


def levels_from_key(key: bytes) -> tuple[DiffVector, ...]:
    """Decode :func:`canonical_key` output back into bottom-first levels.

    This reads the byte format only.  Bytes that break it raise
    ``InvalidPyramid``: an empty key or level, a zero or overlong entry (a
    0x00 byte that ends a varint), or a truncated one.  Levels that form no
    tower decode as they are; ``PyramidalSequence(levels)`` checks the tower.

    >>> levels_from_key(b"\\x02\\x00\\x01\\x02\\x00")
    ((1, 2), (2,))
    """
    if not isinstance(key, (bytes, bytearray)):
        raise InvalidPyramid(f"a pyramid key is bytes, got {key!r}")
    *chunks, rest = key.split(b"\0")  # 0x00 closes a level, inside no entry
    levels: list[DiffVector] = []
    for chunk in chunks:
        if not chunk:
            raise InvalidPyramid("a pyramid key holds no empty level")
        if chunk[-1] & 0x80:
            raise InvalidPyramid("a pyramid key holds no overlong or zero entry")
        level = []
        value = shift = 0
        for byte in chunk:
            value |= (byte & 0x7F) << shift
            if byte & 0x80:
                shift += 7
            else:
                level.append(value)
                value = shift = 0
        levels.append(tuple(level))
    if rest or not levels:
        raise InvalidPyramid("truncated pyramid key")
    levels.reverse()
    return tuple(levels)
