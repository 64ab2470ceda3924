"""Words and permutations in one-line notation.

A *word* is a tuple of positive integers.  A *permutation* of size n is a
word containing each letter of 1..n exactly once; the letter at (1-based)
position i is u[i-1].  Both are plain tuples, so structural equality,
lexicographic ordering and hashing come for free.

The generalized factor order compares words letterwise: u embeds into w at
index j when every u_i is dominated by w_{j+i-1}.

Every public function of the package checks its arguments on entry through
shared guards, so each rule is stated once.  Here :func:`as_size` takes an
integer size and its least value, :func:`as_prefix_length` the length i of
a prefix over 1..n, :func:`enforce_limit` a sweep's size limit, and
``_letters`` freezes a sequence of integers; ``pyramid._levels_of`` and
``pyramid._checked_tower`` guard towers of levels.
"""
from __future__ import annotations

import re
from operator import index
from typing import Iterable, Sequence

from .errors import (
    DuplicateLetter,
    EmptyPattern,
    LimitExceeded,
    MalformedToken,
    MissingLetter,
    NonPositiveLetter,
    OutOfRange,
    SizeMismatch,
)

_SEPARATORS = re.compile(r"[,\s]+")


def as_size(value, name: str = "n", least: int | None = None) -> int:
    """Validate an integer size or length parameter named ``name``, at least
    ``least`` when that is given.

    >>> as_size(5, least=1)
    5
    """
    try:
        value = index(value)
    except TypeError:
        raise OutOfRange(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise OutOfRange(f"{name} must be at least {least}, got {value}")
    return value


def as_prefix_length(i, n, name: str = "i", least: int = 1) -> tuple[int, int]:
    """Validate the length i, named ``name``, of a prefix over 1..n: the
    complement keeps at least two letters, so n >= 3 and least <= i <= n-2.

    >>> as_prefix_length(2, 5)
    (2, 5)
    """
    i, n = as_size(i, name), as_size(n)
    if n < 3 or not least <= i <= n - 2:
        raise OutOfRange(
            f"need n >= 3 and {least} <= {name} <= n-2, got {name}={i}, n={n}"
        )
    return i, n


def enforce_limit(
    n: int, limit: int | None, default: int, most: int | None = None
) -> None:
    """Raise ``LimitExceeded`` when n is above ``limit`` (``default`` if None),
    or above ``most``, when that is given, whatever the limit."""
    bound = default if limit is None else as_size(limit, "limit")
    if most is not None:
        bound = min(bound, most)
    if n > bound:
        raise LimitExceeded(f"n={n} exceeds the size limit {bound}")


def _letters(letters: Iterable[int], name: str = "letters") -> tuple[int, ...]:
    """Freeze the argument ``name`` as exact integers; a float, a string or
    any other non-integer entry is malformed rather than rounded or parsed."""
    try:
        return tuple(map(index, letters))
    except TypeError:
        raise MalformedToken(f"{name} must be integers, got {letters!r}") from None


def as_word(letters: Iterable[int]) -> tuple[int, ...]:
    """Validate and freeze a word (letters may repeat, all must be >= 1)."""
    w = _letters(letters)
    if w and min(w) < 1:
        raise NonPositiveLetter(f"letter {min(w)} is not a positive integer")
    return w


def as_permutation(letters: Iterable[int]) -> tuple[int, ...]:
    """Validate and freeze a permutation of 1..n.

    >>> as_permutation([2, 1, 3])
    (2, 1, 3)
    """
    w = as_word(letters)
    n = len(w)
    if n == 0:
        raise MissingLetter("a permutation has at least one letter")
    if len(set(w)) != n:
        raise DuplicateLetter(f"duplicate letter in {w}")
    if max(w) != n:
        raise MissingLetter(f"letters of {w} are not exactly 1..{n}")
    return w


def parse_permutation(text: str, n_hint: int | None = None) -> tuple[int, ...]:
    """Parse permutation text.

    Two formats are accepted: a compact digit string such as ``"592738164"``
    (one digit per letter, so only usable while all letters are <= 9), and a
    comma- or space-separated list such as ``"3, 12, 1, 2"`` which is
    required as soon as a letter exceeds 9.  ``n_hint``, when given, is the
    size the permutation must have, an integer >= 1.

    >>> parse_permutation("1")
    (1,)
    >>> parse_permutation("3 1 2")
    (3, 1, 2)
    """
    try:
        text = text.strip()
        separated = _SEPARATORS.search(text)
    except (AttributeError, TypeError):  # not a str: 123, b"12", None
        raise MalformedToken(f"permutation text must be a string, got {text!r}") from None
    if not text:
        raise MalformedToken("empty permutation text")
    if separated:
        letters = []
        for tok in _SEPARATORS.split(text):
            if not tok:  # a leading or trailing comma
                continue
            # ASCII digits only: int() would also take "٢", "+2" and "1_0"
            if not (tok.isascii() and tok.isdigit()):
                raise MalformedToken(f"token {tok!r} is not a number in ASCII digits")
            letters.append(int(tok))
    elif text.isascii() and text.isdigit():  # "²".isdigit() holds too
        letters = [int(c) for c in text]
    else:
        raise MalformedToken(f"cannot read {text!r} as a permutation")
    u = as_permutation(letters)
    if n_hint is not None and len(u) != as_size(n_hint, "n_hint", least=1):
        raise MissingLetter(f"expected a permutation of 1..{n_hint}, got size {len(u)}")
    return u


def format_word(w: Sequence[int]) -> str:
    """Render a word compactly when all letters fit one digit."""
    w = _letters(w)
    if w and max(w) <= 9:
        return "".join(str(x) for x in w)
    return " ".join(str(x) for x in w)


def identity(n: int) -> tuple[int, ...]:
    """The identity permutation 1 2 ... n."""
    return tuple(range(1, as_size(n, least=1) + 1))


def inverse(u: Sequence[int]) -> tuple[int, ...]:
    """Inverse permutation: the result t satisfies t[u[i]-1] == i+1.

    ``u`` is checked by :func:`as_permutation`, so a word that is not a
    permutation of 1..n raises the same ``UsageError`` there and here.

    >>> inverse((5, 9, 2, 7, 3, 8, 1, 6, 4))
    (7, 3, 5, 9, 1, 8, 4, 6, 2)
    """
    return _invert(as_permutation(u))


def _invert(u: Sequence[int]) -> tuple[int, ...]:
    """Inverse of a permutation of 1..n that is known to be one, unchecked:
    for words already checked, or assembled by the library itself."""
    inv = [0] * len(u)
    for i, x in enumerate(u, 1):
        inv[x - 1] = i
    return tuple(inv)


def reversal(w: Sequence[int]) -> tuple[int, ...]:
    """The word read right to left.

    >>> reversal((3, 2, 4, 1, 5))
    (5, 1, 4, 2, 3)
    """
    try:
        return tuple(reversed(w))
    except TypeError:  # not a sequence: 0, None, a set
        raise MalformedToken(f"a word is a sequence, got {w!r}") from None


def reduced_form(w: Sequence[int]) -> tuple[int, ...]:
    """Relabel a distinct-letter word order-isomorphically onto 1..k.

    The smallest letter becomes 1, the second smallest 2, and so on.

    >>> reduced_form((7, 3, 5))
    (3, 1, 2)
    """
    try:
        if len(set(w)) != len(w):
            raise DuplicateLetter(f"cannot reduce {tuple(w)}: repeated letters")
        rank = {x: i + 1 for i, x in enumerate(sorted(w))}
    except TypeError:  # not a sequence, or letters that do not compare
        raise MalformedToken(f"cannot reduce {w!r}: not a word of letters") from None
    return tuple(rank[x] for x in w)


def un_reduce(alphabet: Iterable[int], pattern: Sequence[int]) -> tuple[int, ...]:
    """Write ``pattern`` using the given alphabet: the unique word over
    ``alphabet`` whose reduced form is ``pattern``.
    """
    letters = sorted(as_word(alphabet))
    pattern = as_word(pattern)
    if len(set(letters)) != len(letters):
        raise DuplicateLetter(f"repeated letter in the alphabet {tuple(letters)}")
    if len(letters) != len(pattern):
        raise SizeMismatch(
            f"alphabet size {len(letters)} != pattern size {len(pattern)}"
        )
    if sorted(pattern) != list(range(1, len(pattern) + 1)):
        raise MissingLetter(f"pattern {tuple(pattern)} is not a permutation of 1..k")
    return tuple(letters[t - 1] for t in pattern)


def weight(w: Sequence[int]) -> tuple[int, int]:
    """(length, sum of letters) of a word.

    >>> weight((3, 2, 2))
    (3, 7)
    >>> weight(())
    (0, 0)
    """
    w = as_word(w)
    return len(w), sum(w)


def embedding_set(u: Sequence[int], w: Sequence[int]) -> tuple[int, ...]:
    """All 1-based start indices at which ``u`` embeds into ``w``.

    Index j is included when u_i <= w_{j+i-1} for every position i of u.
    The scan is the naive O(|u|*|w|) one; hosts here are small.

    >>> embedding_set((3, 2, 2), (2, 3, 4, 3, 2, 1, 3, 4, 2, 1))
    (2, 3, 7)
    """
    u, w = as_word(u), as_word(w)
    if len(u) == 0:
        raise EmptyPattern("the pattern word must be non-empty")
    m, n = len(u), len(w)
    hits = []
    for j in range(n - m + 1):
        if all(u[i] <= w[j + i] for i in range(m)):
            hits.append(j + 1)
    return tuple(hits)
