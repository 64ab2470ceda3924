"""Minimal prefixes with periodic complement, and their two correspondences.

A length-i word u over 1..n (distinct letters) is a *minimal periodic-
complement prefix* when the unused letters form an arithmetic progression
(a periodic set) while no proper prefix of u has that property.  Deleting the
letters of u from 1..n one at a time and recording the gap vector after each
deletion yields a *trapezoidal sequence*: a tower whose top level is the
first constant vector after the base.  That map is reversible, and the
prefixes of length k < n//2 additionally correspond to the permutations of
size k+1 with no interval suffix.  Both directions of both correspondences
live here.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import permutations as _permutations
from typing import Sequence

from .errors import InvalidTrapezoid, NotAPrefix, NotInB, OutOfRange, SizeTooSmall
from .pyramid import (
    DiffVector,
    _Tower,
    _built,
    _checked_tower,
    _deletions,
    _levels_of,
    _step,
    consecutive_differences,
    is_periodic_vector,
    validate_transition,  # unused here; perfbench/tracing.py counts calls to this name
)
from .words import _letters, as_prefix_length, as_size, reduced_form, reversal


def is_periodic_set(values) -> bool:
    """True when the sorted elements form an arithmetic progression."""
    return is_periodic_vector(consecutive_differences(values))


def _complement(letters, n: int) -> set[int]:
    return set(range(1, n + 1)) - set(letters)


def _is_trapezoid(levels: tuple[DiffVector, ...]) -> bool:
    """The trapezoid rule on a tower of gap vectors over 1..n: its height is
    1..n-2, and above the all-ones base only the top level is constant."""
    n, height = len(levels[0]) + 1, len(levels) - 1
    return 1 <= height <= n - 2 and all(
        is_periodic_vector(level) == (j == height)
        for j, level in enumerate(levels[1:], 1)
    )


def _deletion_tower(u: tuple[int, ...], n: int) -> tuple[DiffVector, ...] | None:
    """The levels :func:`~sswilf.pyramid._deletions` gives for ``u`` over
    1..n, or None unless ``u`` is a minimal prefix: distinct letters of
    1..n whose levels are a trapezoid."""
    try:
        levels = tuple(_deletions(u, n))
    except ValueError:  # a repeated letter or one outside 1..n
        return None
    return levels if _is_trapezoid(levels) else None


def is_minimal_prefix(u: Sequence[int], n: int) -> bool:
    """Membership test straight from the definition: complement periodic,
    no proper prefix with periodic complement, letters distinct in 1..n."""
    return _deletion_tower(_letters(u), as_size(n)) is not None


def _periodic_subsets(size: int, n: int):
    """All arithmetic progressions of the given size inside 1..n."""
    gaps = size - 1
    for d in range(1, (n - 1) // gaps + 1):
        for a in range(1, n - gaps * d + 1):
            yield tuple(range(a, a + gaps * d + 1, d))


def minimal_prefixes(i: int, n: int) -> tuple[tuple[int, ...], ...]:
    """The set D of minimal periodic-complement prefixes of length i over
    1..n, sorted lexicographically.

    Built recursively: enumerate the periodic complements, order the
    remaining letters in every way, and reject words with a shorter prefix
    already in some D.

    >>> minimal_prefixes(2, 5)
    ((2, 1), (2, 4), (4, 2), (4, 5))
    """
    return _prefix_set(*as_prefix_length(i, n))


@lru_cache(maxsize=None)
def _prefix_set(i: int, n: int) -> tuple[tuple[int, ...], ...]:
    smaller = [frozenset(_prefix_set(j, n)) for j in range(1, i)]
    out = []
    for comp in _periodic_subsets(n - i, n):
        letters = sorted(set(range(1, n + 1)) - set(comp))
        for w in _permutations(letters):
            if all(w[:j] not in smaller[j - 1] for j in range(1, i)):
                out.append(w)
    return tuple(sorted(out))


class TrapezoidalSequence(_Tower):
    """Validated initial tower (levels[0] longest) whose top level is the
    only constant vector apart from the all-ones base.

    The constructor checks the caller's levels; :func:`prefix_to_trapezoid`
    skips it, since a minimal prefix's deletion tower is trapezoidal.
    """

    def __init__(self, levels):
        levels = _checked_tower(levels, InvalidTrapezoid)
        if not _is_trapezoid(levels):
            raise InvalidTrapezoid(
                f"{levels} is no trapezoid: it needs height 1..n-2 and, above "
                "the base, a constant top level and no other constant level"
            )
        object.__setattr__(self, "levels", levels)

    @property
    def n(self) -> int:
        return len(self.levels[0]) + 1

    @property
    def height(self) -> int:
        return len(self.levels) - 1


def prefix_to_trapezoid(u: Sequence[int], n: int) -> TrapezoidalSequence:
    """Delete the letters of ``u`` from 1..n in order, recording the gap
    vector of the surviving set after each deletion.

    For length-1 prefixes the images of 1 and n coincide (deleting either
    endpoint leaves gaps (1,...,1)), so the map is two-to-one there and
    injective at every greater height.

    One walk tests ``u`` and builds its tower, trapezoidal by construction.
    """
    u = _letters(u)
    levels = _deletion_tower(u, as_size(n))
    if levels is None:
        raise NotAPrefix(f"{u} is not a minimal periodic-complement prefix for n={n}")
    return _built(TrapezoidalSequence, levels)


def trapezoid_to_prefix(t: TrapezoidalSequence) -> tuple[int, ...]:
    """Reverse of :func:`prefix_to_trapezoid`.

    Walk the tower upward keeping the sorted surviving letters, and delete
    at each level the survivor whose deletion gives the next level (see
    :func:`~sswilf.pyramid._deletions`).  Where the prefix map is two-to-one
    (height 1) both end drops fit and the least survivor is taken, so this
    walk returns the deleted-minimum reading, i.e. the prefix (1,).
    """
    levels = _levels_of(t, TrapezoidalSequence, InvalidTrapezoid)
    survivors = list(range(1, t.n + 1))
    return tuple(survivors.pop(_step(a, b)) for a, b in zip(levels, levels[1:]))


def is_non_interval(b: Sequence[int]) -> bool:
    """No prefix of length 2..n-1 uses a contiguous block of values.

    >>> is_non_interval((2, 4, 1, 3))
    True
    >>> is_non_interval((1, 2, 3))
    False
    """
    b = _letters(b)
    n = len(b)
    if n < 2:
        raise SizeTooSmall("defined for size >= 2")
    lo = hi = b[0]
    for l in range(2, n):
        x = b[l - 1]
        lo = x if x < lo else lo
        hi = x if x > hi else hi
        if hi - lo == l - 1:
            return False
    return True


def _has_no_interval_suffix(b: Sequence[int]) -> bool:
    # suffixes of b are prefixes of its reversal
    return is_non_interval(reversal(b))


def prefix_to_noninterval(u: Sequence[int], n: int) -> tuple[int, ...]:
    """Compress a minimal prefix with interval complement to a permutation
    with no interval suffix.

    Appending the least unused letter collapses the complement block to one
    letter under reduction, leaving a permutation of size k+1 none of whose
    proper suffixes is an interval.  Every prefix of length k < n//2 has an
    interval complement (and on that range this map is a bijection); longer
    prefixes qualify only individually, and those with a spread-out
    complement are rejected.

    >>> prefix_to_noninterval((4, 5), 5)
    (2, 3, 1)
    """
    u, n = _letters(u), as_size(n)
    if _deletion_tower(u, n) is None:
        raise NotAPrefix(f"{u} is not a minimal periodic-complement prefix for n={n}")
    complement = sorted(_complement(u, n))
    if complement[-1] - complement[0] != len(complement) - 1:
        raise OutOfRange(
            f"complement of {u} is not an interval (guaranteed only for "
            f"lengths below {n // 2})"
        )
    return reduced_form(u + (complement[0],))


def noninterval_to_prefix(b: Sequence[int], n: int) -> tuple[int, ...]:
    """Reverse of :func:`prefix_to_noninterval`.

    Letters above the final one are shifted up by n-k-1, re-opening the gap
    the reduction closed.

    >>> noninterval_to_prefix((2, 3, 1), 5)
    (4, 5)
    """
    b = _letters(b)
    k, n = as_prefix_length(len(b) - 1, n, "len(b) - 1")
    if sorted(b) != list(range(1, k + 2)) or not _has_no_interval_suffix(b):
        raise NotInB(f"{b} is not an interval-suffix-free permutation")
    pivot = b[-1]
    return tuple(x if x < pivot else x + (n - k - 1) for x in b[:-1])
