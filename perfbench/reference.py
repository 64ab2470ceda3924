"""Values and checks computed apart from the program under test.

Nothing here imports ``sswilf``.  The tables are the paper's printed tables
(sizes up to 11, plus the printed n = 12 cells that are not disputed); the
functions work straight from the definitions, or from the paper's theorems
(pyramid equality is the class, rigid-shift orbits are the classes, a class
has 2^j members), never from the program's recurrences or key format.

Every ``check_*`` function returns a list of problems; an empty list means
the answer is right.
"""
from __future__ import annotations

from math import factorial

# -- the paper's printed tables ------------------------------------------------

# minimal periodic-complement prefix counts d(i, n); the printed cells (9, 12)
# and (10, 12) are disputed and left out
MINIMAL_PREFIX_COUNTS = {
    (1, 3): 3,
    (1, 4): 2, (2, 4): 6,
    (1, 5): 2, (2, 5): 4, (3, 5): 24,
    (1, 6): 2, (2, 6): 2, (3, 6): 16, (4, 6): 168,
    (1, 7): 2, (2, 7): 2, (3, 7): 14, (4, 7): 100, (5, 7): 1212,
    (1, 8): 2, (2, 8): 2, (3, 8): 8, (4, 8): 80, (5, 8): 712, (6, 8): 10824,
    (1, 9): 2, (2, 9): 2, (3, 9): 8, (4, 9): 68, (5, 9): 500, (6, 9): 6376,
    (7, 9): 103992,
    (1, 10): 2, (2, 10): 2, (3, 10): 8, (4, 10): 44, (5, 10): 488,
    (6, 10): 4664, (7, 10): 58336, (8, 10): 1114944,
    (1, 11): 2, (2, 11): 2, (3, 11): 8, (4, 11): 44, (5, 11): 416,
    (6, 11): 3704, (7, 11): 43592, (8, 11): 630544, (9, 11): 12907824,
    (1, 12): 2, (2, 12): 2, (3, 12): 8, (4, 12): 44, (5, 12): 296,
    (6, 12): 3512, (7, 12): 33152, (8, 12): 444992,
}

# classes of S_n, n = 1..11 (the printed n = 12 value is disputed)
CLASS_COUNTS = {
    1: 1, 2: 1, 3: 2, 4: 8, 5: 40, 6: 256, 7: 1860, 8: 15580,
    9: 144812, 10: 1490564, 11: 16758972,
}

# shift classes of S_n, n = 1..11 (the printed n = 12 value is disputed)
SHIFT_CLASS_COUNTS = {
    1: 1, 2: 1, 3: 2, 4: 5, 5: 21, 6: 129, 7: 931, 8: 7791,
    9: 72407, 10: 745283, 11: 8379487,
}

# classes of size 2^j in S_n, keyed (j, n); the printed cells (1, 12) and
# (2, 12) are disputed and left out
CLASS_COUNTS_BY_EXPONENT = {
    (1, 2): 1,
    (1, 3): 1, (2, 3): 1,
    (1, 4): 6, (2, 4): 1, (3, 4): 1,
    (1, 5): 28, (2, 5): 10, (3, 5): 1, (4, 5): 1,
    (1, 6): 196, (2, 6): 46, (3, 6): 12, (4, 6): 1, (5, 6): 1,
    (1, 7): 1452, (2, 7): 330, (3, 7): 62, (4, 7): 14, (5, 7): 1, (6, 7): 1,
    (1, 8): 12632, (2, 8): 2416, (3, 8): 442, (4, 8): 72, (5, 8): 16,
    (6, 8): 1, (7, 8): 1,
    (1, 9): 119744, (2, 9): 21216, (3, 9): 3204, (4, 9): 546, (5, 9): 82,
    (6, 9): 18, (7, 9): 1, (8, 9): 1,
    (1, 10): 1260432, (2, 10): 197120, (3, 10): 28276, (4, 10): 3992,
    (5, 10): 630, (6, 10): 92, (7, 10): 20, (8, 10): 1, (9, 10): 1,
    (1, 11): 14389600, (2, 11): 2067024, (3, 11): 262080, (4, 11): 34680,
    (5, 11): 4744, (6, 11): 718, (7, 11): 102, (8, 11): 22, (9, 11): 1,
    (10, 11): 1,
    (3, 12): 2707296, (4, 12): 318408, (5, 12): 41108, (6, 12): 5412,
    (7, 12): 810, (8, 12): 112, (9, 12): 24, (10, 12): 1, (11, 12): 1,
}

# permutations of size n with no interval prefix, n = 2..9
NONINTERVAL_COUNTS = {
    2: 2, 3: 2, 4: 8, 5: 44, 6: 296, 7: 2312, 8: 20384, 9: 199376,
}


# -- definitions ---------------------------------------------------------------

def pyramid(u) -> tuple[tuple[int, ...], ...]:
    """Levels 1..n-1 of u: level i lists the gaps between the positions of
    the letters >= i, read left to right."""
    levels = []
    for i in range(1, len(u)):
        spots = [p for p, x in enumerate(u) if x >= i]
        levels.append(tuple([b - a for a, b in zip(spots, spots[1:])]))
    return tuple(levels)


def exponent(levels) -> int:
    """j with class size 2^j: one, plus one per step between two constant
    levels with the same entry."""
    return 1 + sum(
        1
        for a, b in zip(levels, levels[1:])
        if len(set(a)) == 1 and set(a) == set(b)
    )


def is_permutation(u) -> bool:
    return sorted(u) == list(range(1, len(u) + 1))


def is_progression(values) -> bool:
    """At least two values, evenly spaced."""
    xs = sorted(values)
    return len(xs) >= 2 and len({b - a for a, b in zip(xs, xs[1:])}) == 1


def is_minimal_prefix(w, n: int) -> bool:
    """Distinct letters of 1..n whose complement is a progression, while
    the complement of no shorter prefix is."""
    if not 1 <= len(w) <= n - 2 or len(set(w)) != len(w):
        return False
    if not all(1 <= x <= n for x in w):
        return False
    rest = set(range(1, n + 1))
    for j, x in enumerate(w, start=1):
        rest.discard(x)
        if is_progression(rest):
            return j == len(w)
    return False


def has_interval_suffix(b) -> bool:
    """Some suffix of length 2..k-1 uses a contiguous block of values."""
    return any(max(b[-m:]) - min(b[-m:]) == m - 1 for m in range(2, len(b)))


def deletion_tower(w, n: int) -> tuple[tuple[int, ...], ...]:
    """Gap vectors of 1..n after deleting the letters of w one at a time."""
    rest = list(range(1, n + 1))
    tower = [tuple(b - a for a, b in zip(rest, rest[1:]))]
    for x in w:
        rest.remove(x)
        tower.append(tuple(b - a for a, b in zip(rest, rest[1:])))
    return tuple(tower)


def rigid_shift(u, height: int, offset: int):
    """Cut u's bar chart at ``height`` and slide every block above the cut by
    ``offset``; None unless each block lands on a column at least as high as
    the cut."""
    n = len(u)
    tops = [(i, x) for i, x in enumerate(u) if x > height]
    if not tops or offset == 0:
        return None
    out = [min(x, height) for x in u]
    for i, x in tops:
        t = i + offset
        if not 0 <= t < n or u[t] < height:
            return None
        out[t] = x
    return tuple(out)


def replay(u, moves):
    """Apply a witness (moves as (height, offset) pairs or "reversal");
    None if a move is not a rigid shift of the word it is applied to."""
    w = tuple(u)
    for move in moves:
        if move == "reversal":
            w = w[::-1]
            continue
        w = rigid_shift(w, *move)
        if w is None:
            return None
    return w


def shift_partner(u, v) -> tuple[bool, bool]:
    """(strong shift equivalent, shift equivalent) by the paper's theorems:
    rigid-shift orbits are the pyramid classes, and reversals join a class
    with its mirror."""
    pu = pyramid(u)
    strong = pu == pyramid(v)
    return strong, strong or pu == pyramid(v[::-1])


# -- checks --------------------------------------------------------------------

def check_partition(n: int, count: int, histogram: dict, reps, sizes) -> list[str]:
    """A partition of S_n into pyramid classes: the printed class count and
    size table, sizes summing to n!, each representative's class of size
    2^j, and representatives with pairwise distinct pyramids."""
    problems = []
    if count != CLASS_COUNTS[n]:
        problems.append(f"S_{n}: {count} classes, printed {CLASS_COUNTS[n]}")
    for j in range(1, n):
        want = CLASS_COUNTS_BY_EXPONENT.get((j, n), 0)
        if histogram.get(j, 0) != want:
            problems.append(f"S_{n}: {histogram.get(j, 0)} classes of size 2^{j}, printed {want}")
    if sum(sizes) != factorial(n):
        problems.append(f"S_{n}: class sizes sum to {sum(sizes)}")
    # the pyramids' hashes, not the pyramids, so that checking a whole sweep
    # does not raise the process's peak memory; a clash is settled exactly
    hashes = set()
    clash = False
    for rep, size in zip(reps, sizes):
        p = pyramid(rep)
        if len(rep) != n or not is_permutation(rep) or size != 1 << exponent(p):
            problems.append(f"S_{n}: bad representative {rep} of size {size}")
            break
        h = hash(p)
        clash = clash or h in hashes
        hashes.add(h)
    if len(reps) != count or clash and not distinct_pyramids(reps):
        problems.append(f"S_{n}: the {len(reps)} representatives are not {count} distinct classes")
    return problems


def distinct_pyramids(perms) -> bool:
    """True when no two of the permutations share a pyramid."""
    return len(set(map(pyramid, perms))) == len(perms)


def check_shift_partition(n: int, with_reversals: bool, count: int, reps, sizes) -> list[str]:
    """Orbits of S_n under rigid shifts (and reversals): the printed class
    or shift class count, sizes summing to n!, and each orbit the pyramid
    class of its representative, joined with the mirror class when
    reversals are allowed."""
    want = (SHIFT_CLASS_COUNTS if with_reversals else CLASS_COUNTS)[n]
    problems = []
    if count != want:
        problems.append(f"S_{n}: {count} orbits, printed {want}")
    if sum(sizes) != factorial(n):
        problems.append(f"S_{n}: orbit sizes sum to {sum(sizes)}")
    seen = set()
    for rep, size in zip(reps, sizes):
        p = pyramid(rep)
        mirror = pyramid(rep[::-1])
        expected = 1 << exponent(p)
        if with_reversals and mirror != p:
            expected *= 2
        if size != expected or p in seen:
            problems.append(f"S_{n}: orbit of {rep} has {size} members, expected {expected}")
            break
        seen.add(p)
        if with_reversals:
            seen.add(mirror)
    return problems


def check_minimal_prefixes(i: int, n: int, words) -> list[str]:
    """The printed count d(i, n), distinct words, each minimal by definition."""
    problems = []
    want = MINIMAL_PREFIX_COUNTS.get((i, n))
    if want is not None and len(words) != want:
        problems.append(f"d({i}, {n}): {len(words)} words, printed {want}")
    if len(set(words)) != len(words):
        problems.append(f"d({i}, {n}): repeated words")
    bad = [w for w in words if len(w) != i or not is_minimal_prefix(w, n)]
    if bad:
        problems.append(f"d({i}, {n}): {bad[0]} is not a minimal prefix")
    return problems


def check_orbit(u, members, j: int | None = None) -> list[str]:
    """A strong shift orbit of u: 2^j distinct permutations, u among them,
    all with u's pyramid; j defaults to the exponent of u's pyramid."""
    p = pyramid(u)
    if j is None:
        j = exponent(p)
    members = list(members)
    if len(members) != 1 << j or len(set(map(tuple, members))) != len(members):
        return [f"orbit of {u}: {len(members)} members, expected 2^{j}"]
    if tuple(u) not in set(map(tuple, members)):
        return [f"orbit of {u} misses u"]
    for m in members:
        if not is_permutation(m) or pyramid(m) != p:
            return [f"orbit of {u}: {m} has another pyramid"]
    return []


def check_witness(u, v, moves) -> list[str]:
    reached = replay(u, moves)
    if reached != tuple(v):
        return [f"witness from {u} to {v} reaches {reached}"]
    return []


def check_count_identities(n: int, total: int, by_exponent: dict) -> list[str]:
    """class_count(n) against the size-split counts: sum_j c_j = total and
    sum_j 2^j c_j = n!."""
    problems = []
    if sum(by_exponent.values()) != total:
        problems.append(f"n={n}: classes by size sum to {sum(by_exponent.values())}, not {total}")
    if sum(c << j for j, c in by_exponent.items()) != factorial(n):
        problems.append(f"n={n}: class members do not sum to {n}!")
    return problems
