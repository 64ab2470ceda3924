"""One representative per equivalence class, built recursively.

Members are assembled as ``prefix + suffix`` where the prefix is either the
single letter 1 or a minimal periodic-complement prefix of length >= 2, and
the suffix spells a recursively chosen smaller representative on the unused
letters.  The assembled words themselves may share a class; it is their
*inverses* that are pairwise inequivalent and form a full transversal of the
classes.
"""
from __future__ import annotations

from functools import lru_cache

from .trapezoid import minimal_prefixes
from .words import _invert, as_size

Decomposition = tuple[int, tuple[int, ...], tuple[int, ...]]


def _emission_prefixes(i: int, n: int) -> tuple[tuple[int, ...], ...]:
    # length-1 prefixes would overcount: only the letter 1 is used there
    if i == 1:
        return ((1,),)
    return minimal_prefixes(i, n)


@lru_cache(maxsize=None)
def _build(n: int) -> tuple[tuple[tuple[int, ...], Decomposition], ...]:
    if n == 1:
        return (((1,), (0, (), ())),)
    if n == 2:
        return (((1, 2), (0, (), ())),)
    if n == 3:
        # the recursion starts at size 4; size 3 is pinned
        return (
            ((1, 2, 3), (1, (1,), (1, 2))),
            ((2, 1, 3), (1, (2,), (1, 2))),
        )
    out = []
    full = set(range(1, n + 1))
    for i in range(1, n - 1):
        for u in _emission_prefixes(i, n):
            alphabet = sorted(full - set(u))
            for tau, _ in _build(n - i):
                # un_reduce(alphabet, tau), without checking parts built here
                out.append((u + tuple(alphabet[t - 1] for t in tau), (i, u, tau)))
    return tuple(out)


def inverse_representatives(n: int) -> tuple[tuple[int, ...], ...]:
    """The assembled words, in emission order (ascending prefix length,
    lexicographic prefix, recursive suffix order).

    >>> inverse_representatives(3)
    ((1, 2, 3), (2, 1, 3))
    """
    return tuple(w for w, _ in _build(as_size(n, least=1)))


def class_representatives(n: int) -> tuple[tuple[int, ...], ...]:
    """Inverses of the assembled words: exactly one permutation per
    super-strong Wilf equivalence class of S_n, in matching order."""
    return tuple(_invert(w) for w, _ in _build(as_size(n, least=1)))


def decompositions(n: int) -> tuple[tuple[tuple[int, ...], Decomposition], ...]:
    """Each assembled word with its (prefix length, prefix, reduced suffix)
    build record; sizes 1 and 2 carry an empty record."""
    return _build(as_size(n, least=1))
