"""Rigid shifts of permutation skyline diagrams and the orbits they generate.

Draw a permutation as a bar chart (column i has height u_i), cut at height h,
and slide every block above the cut by one common offset so that each block
lands on a column whose truncated height is exactly h.  The orbit of a
permutation under such moves is its strong shift class, which coincides with
its super-strong Wilf equivalence class.

Mirroring the diagram turns the shift (h, d) of u into the shift (h, -d) of
rev(u), with the result reversed.  So the shift class of u (under shifts and
reversals) is its strong class joined with its members' reversals, and a
shortest chain needs one reversal at most, placed last.  The walk behind
every orbit, predicate and witness applies rigid shifts only.

Each rule of a move is stated once, in ``_inside`` (the move stays in the
diagram), ``_lands`` (every moved column lands on one at least as tall as
the cut) and ``_shifted`` (the result), and both
:func:`apply_rigid_shift` and :func:`enumerate_rigid_shifts` read them.

The walk steps through the public :func:`enumerate_rigid_shifts`, so it
checks every member it reaches as a permutation again.  That is kept on
purpose: the benchmark's tracer times the walk's steps under the name
``shift.enumerate_rigid_shifts`` (``shift.neighbours_per_member`` and its
``us_per_call``), and a walk that skipped the check ran the ``queries``
workload about twice as fast but raised its peak RSS past the 5% bound,
because the harness keeps one Python int per latency.
"""
from __future__ import annotations

from collections import namedtuple
from operator import index
from typing import Sequence

from .errors import InvalidMove, SizeMismatch
from .words import as_permutation, as_size, identity, reversal


class RigidShiftMove(namedtuple("RigidShiftMove", "height offset")):
    """Cut height and common offset of one rigid shift (offset never 0);
    moves order by (height, offset)."""

    __slots__ = ()

    def __new__(cls, height: int, offset: int):
        try:  # integers only: a float or a string would later index a tuple
            height, offset = index(height), index(offset)
        except TypeError:
            raise InvalidMove(
                f"height and offset must be integers, got {height!r}, {offset!r}"
            ) from None
        if height < 1:
            raise InvalidMove(f"cut height must be >= 1, got {height}")
        if offset == 0:
            raise InvalidMove(f"offset {offset!r} would not move anything")
        return tuple.__new__(cls, (height, offset))


def apply_rigid_shift(u: Sequence[int], move: RigidShiftMove) -> tuple[int, ...]:
    """Perform one rigid shift.

    Columns strictly above the cut move by ``move.offset``; each must land on
    a column of height >= cut (so its truncated height is exactly the cut).
    Landing positions take height cut + moved excess, the one tall column
    left uncovered drops to the cut height, everything below the cut stays.

    ``move`` may be a plain (height, offset) pair; it is checked as a
    :class:`RigidShiftMove`, so anything else raises ``InvalidMove``.

    >>> apply_rigid_shift((3, 2, 4, 1, 5), RigidShiftMove(3, -2))
    (4, 2, 5, 1, 3)
    """
    try:
        move = RigidShiftMove(*move)
    except TypeError:  # not a pair: 5, (5,), (1, 2, 3), None
        raise InvalidMove(f"a move is a (height, offset) pair, got {move!r}") from None
    u = as_permutation(u)
    n = len(u)
    h, d = move
    if h > n:
        raise InvalidMove(f"cut height {h} exceeds the diagram height {n}")
    moved = [i for i, x in enumerate(u) if x > h]
    if moved and d not in _inside(n, moved):
        raise InvalidMove(f"{move} takes a column of {u} out of the diagram")
    if not _lands(u, h, d, moved):
        raise InvalidMove(f"{move} lands a column of {u} on one below the cut")
    return _shifted(u, h, d, moved)


def _inside(n: int, moved: list[int]) -> range:
    """The offsets that keep every column of ``moved`` (ascending, non-empty)
    inside a diagram of n columns."""
    return range(-moved[0], n - moved[-1])


def _lands(u: tuple[int, ...], h: int, d: int, moved: list[int]) -> bool:
    """The landing rule: each column of ``moved`` (those above the cut h),
    moved d columns on, lands on a column at least h tall."""
    return all(u[i + d] >= h for i in moved)


def _shifted(u: tuple[int, ...], h: int, d: int, moved: list[int]) -> tuple[int, ...]:
    """The result of the rigid shift (h, d) of ``u``, unchecked: every column
    truncated at h, then each letter of ``moved`` put d columns on."""
    r = [x if x < h else h for x in u]
    for i in moved:
        r[i + d] = u[i]
    return tuple(r)


def enumerate_rigid_shifts(
    u: Sequence[int],
) -> tuple[tuple[RigidShiftMove, tuple[int, ...]], ...]:
    """All valid moves with a non-empty moved set, with their results,
    ordered by (height, offset).  Cuts at the full height move nothing and
    are omitted."""
    u = as_permutation(u)
    n = len(u)
    out = []
    for h in range(1, n):
        moved = [i for i, x in enumerate(u) if x > h]
        for d in _inside(n, moved):
            if d and _lands(u, h, d, moved):
                out.append((RigidShiftMove(h, d), _shifted(u, h, d, moved)))
    return tuple(out)


def _closure(
    seed: tuple[int, ...], target: tuple | None = None, mirror: tuple | None = None
) -> dict[tuple[int, ...], tuple | None]:
    """Level-order walk from ``seed`` under rigid shifts: {member: (parent,
    move) or None for the seed}.  Returns as soon as ``target`` is reached;
    once ``mirror`` is reached it finishes that level and returns, so a
    ``target`` at the same depth is still found."""
    parents: dict[tuple[int, ...], tuple | None] = {seed: None}
    level = [seed]
    while level and target not in parents and mirror not in parents:
        deeper = []
        for x in level:
            for move, r in enumerate_rigid_shifts(x):
                if r not in parents:
                    parents[r] = (x, move)
                    if r == target:
                        return parents
                    deeper.append(r)
        level = deeper
    return parents


def strong_shift_class(u: Sequence[int]) -> frozenset:
    """Orbit of ``u`` under rigid shifts alone (breadth-first closure)."""
    return frozenset(_closure(as_permutation(u)))


def shift_class(u: Sequence[int]) -> frozenset:
    """Orbit of ``u`` under rigid shifts and reversals: its strong class and
    the reversals of its members (the same set for the two mirror-invariant
    classes)."""
    orbit = _closure(as_permutation(u))
    return frozenset(orbit).union(map(reversal, orbit))


def is_shift_equivalent(u: Sequence[int], v: Sequence[int]) -> bool:
    """True when some chain of rigid shifts and reversals links u to v."""
    return find_witness(u, v, True) is not None


def is_strong_shift_equivalent(u: Sequence[int], v: Sequence[int]) -> bool:
    """True when some chain of rigid shifts alone links u to v."""
    return find_witness(u, v, False) is not None


def find_witness(
    u: Sequence[int], v: Sequence[int], with_reversals: bool
) -> list[RigidShiftMove | str] | None:
    """Shortest move sequence turning u into v, or None.

    A reversal appears as the string ``"reversal"``, at most once and last.
    The walk stops at the first level that holds v or rev(v): the chain to v
    when it reaches v, else the chain to rev(v) followed by the reversal.
    """
    u, v = as_permutation(u), as_permutation(v)
    if len(u) != len(v):
        raise SizeMismatch(f"sizes differ: {len(u)} vs {len(v)}")
    mirror = reversal(v) if with_reversals else None
    parents = _closure(u, v, mirror)
    if v in parents:
        path, x = [], v
    elif mirror in parents:
        path, x = ["reversal"], mirror
    else:
        return None
    while parents[x] is not None:
        x, move = parents[x]
        path.insert(0, move)
    return path


def reversal_invariant_members(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Seeds of the two mirror-invariant classes of S_n (n >= 3): the
    identity and 1 2 .. (n-3) (n-1) (n-2) n."""
    n = as_size(n, least=3)
    v = tuple(range(1, n - 2)) + (n - 1, n - 2, n)
    return identity(n), v
