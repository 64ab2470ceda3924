"""Rigid shifts of permutation skyline diagrams and the orbits they generate.

Draw a permutation as a bar chart (column i has height u_i), cut at height h,
and slide every block above the cut by one common offset so that each block
lands on a column whose truncated height is exactly h.  The orbit of a
permutation under such moves is its strong shift class, which coincides with
its super-strong Wilf equivalence class.  Allowing reversals as well only
joins each class to the class of its mirror, so a shift class is the union of
the strong classes of u and of its reversal.

Every public function validates its permutation arguments on entry; the
breadth-first closure behind the orbits and witnesses adds no check of its
own.
"""
from __future__ import annotations

from collections import namedtuple
from operator import index
from typing import Sequence

from .errors import InvalidMove, SizeMismatch
from .words import as_permutation, identity, reversal


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

    >>> apply_rigid_shift((3, 2, 4, 1, 5), RigidShiftMove(3, -2))
    (4, 2, 5, 1, 3)
    """
    return _apply(as_permutation(u), move)


def _apply(u: tuple[int, ...], move: RigidShiftMove) -> tuple[int, ...]:
    n = len(u)
    h, offset = move
    if h > n:
        raise InvalidMove(f"cut height {h} exceeds the diagram height {n}")
    received = {}
    for i, x in enumerate(u):
        if x > h:
            t = i + offset
            if not 0 <= t < n:
                raise InvalidMove(f"column {i + 1} would leave the diagram")
            if u[t] < h:
                raise InvalidMove(
                    f"column {i + 1} would land on height {u[t]} < cut {h}"
                )
            received[t] = x
    result = []
    for j, x in enumerate(u):
        if j in received:
            result.append(received[j])
        elif x >= h:
            result.append(h)
        else:
            result.append(x)
    return tuple(result)


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
        lo = -min(moved)
        hi = (n - 1) - max(moved)
        for offset in range(lo, hi + 1):
            if offset == 0:
                continue
            if all(u[i + offset] >= h for i in moved):
                move = RigidShiftMove(h, offset)
                out.append((move, _apply(u, move)))
    return tuple(out)


def _closure(
    seed: tuple[int, ...], with_reversals: bool, target: tuple[int, ...] | None = None
) -> dict[tuple[int, ...], tuple | None]:
    """Level-order walk from ``seed`` under rigid shifts (and reversals when
    flagged): {member: (parent, move) or None for the seed}.  Stops early once
    ``target`` has been reached, so its parent chain is a shortest path."""
    parents: dict[tuple[int, ...], tuple | None] = {seed: None}
    queue = [seed]
    for x in queue:  # the queue grows while it is walked
        if target in parents:
            break
        steps = list(enumerate_rigid_shifts(x))
        if with_reversals:
            steps.append(("reversal", reversal(x)))
        for move, r in steps:
            if r not in parents:
                parents[r] = (x, move)
                queue.append(r)
    return parents


def strong_shift_class(u: Sequence[int]) -> frozenset:
    """Orbit of ``u`` under rigid shifts alone (breadth-first closure)."""
    return frozenset(_closure(as_permutation(u), with_reversals=False))


def shift_class(u: Sequence[int]) -> frozenset:
    """Orbit of ``u`` under rigid shifts and reversals: the strong class of
    ``u`` joined with the strong class of its reversal (the two coincide for
    the two mirror-invariant classes)."""
    u = as_permutation(u)
    return frozenset(_closure(u, with_reversals=False)).union(
        _closure(reversal(u), with_reversals=False)
    )


def _pair(u: Sequence[int], v: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    u, v = as_permutation(u), as_permutation(v)
    if len(u) != len(v):
        raise SizeMismatch(f"sizes differ: {len(u)} vs {len(v)}")
    return u, v


def is_shift_equivalent(u: Sequence[int], v: Sequence[int]) -> bool:
    """True when some chain of rigid shifts and reversals links u to v."""
    u, v = _pair(u, v)
    return v in _closure(u, with_reversals=True, target=v)


def is_strong_shift_equivalent(u: Sequence[int], v: Sequence[int]) -> bool:
    """True when some chain of rigid shifts alone links u to v."""
    u, v = _pair(u, v)
    return v in _closure(u, with_reversals=False, target=v)


def find_witness(
    u: Sequence[int], v: Sequence[int], with_reversals: bool
) -> list[RigidShiftMove | str] | None:
    """Shortest move sequence turning u into v, or None.

    Reversal steps appear as the string ``"reversal"``.
    """
    u, v = _pair(u, v)
    parents = _closure(u, with_reversals, target=v)
    if v not in parents:
        return None
    path = []
    step = parents[v]
    while step is not None:
        node, move = step
        path.append(move)
        step = parents[node]
    path.reverse()
    return path


def reversal_invariant_members(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Seeds of the two mirror-invariant classes of S_n (n >= 3): the
    identity and 1 2 .. (n-3) (n-1) (n-2) n."""
    v = tuple(range(1, n - 2)) + (n - 1, n - 2, n)
    return identity(n), v
