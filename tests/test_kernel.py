"""The sweep kernel must agree with the library on all of S_n, and on
sampled classes of the sizes it cannot sweep in a test."""
import random
from itertools import islice
from math import factorial

import pytest

from sswilf import kernel
from sswilf.counting import class_count
from sswilf.pyramid import (
    PyramidalSequence,
    canonical_key,
    canonical_member,
    class_size_exponent,
    levels_from_key,
    pyramidal_sequence,
)
from sswilf.shift import strong_shift_class

from conftest import symmetric_group


def _code(u):
    """The base-256 code sweep_block gives a least member: sum of
    u[p] * 256^(n-1-p)."""
    return int.from_bytes(bytes(u), "big")


def test_sweep_counts_match_direct_grouping():
    for n in range(2, 9):
        expected = {}
        for u in symmetric_group(n):
            key = canonical_key(pyramidal_sequence(u))
            if key not in expected:
                expected[key] = [0, _code(u)]
            expected[key][0] += 1
        # one row per class, so the rows themselves equal the grouping
        got = kernel.sweep_block(n, 0, factorial(n))
        assert sorted(got) == sorted(
            (least, key, count) for key, (count, least) in expected.items()
        )


def test_whole_group_gives_one_row_per_class():
    # keys meet only across translates, and each b meets each a once
    for n in range(2, 10):
        keys = [key for _, key, _ in kernel.sweep_block(n, 0, factorial(n))]
        assert len(set(keys)) == len(keys) == class_count(n), n


def test_sampled_classes_of_the_first_translation_classes():
    # S_11..S_16 are too large to sweep here, so sample pairs (a, b) of the
    # first translation classes and check each class against the library:
    # its key is a pyramid of the size the pair gives, the least member's
    # pyramid has that key, the library's canonical member lies in it, and a
    # small class's rigid-shift orbit has as many members as the pair
    # counts, the least of them the pair's value
    rng = random.Random(16)
    for n, classes in ((11, 2), (12, 2), (13, 2), (14, 1), (16, 1)):
        for ups_at, lows in islice(kernel._translation_classes(n), classes):
            lows = list(lows)
            for _ in range(40):
                b, cb, vb, s = rng.choice(lows)
                a, ca, va, _ = rng.choice(list(ups_at[s]))
                key, size = a + b, ca * cb
                u = tuple((va + vb).to_bytes(n, "big"))
                p = PyramidalSequence(levels_from_key(key))
                assert 2 ** class_size_exponent(p) == size
                assert canonical_key(pyramidal_sequence(u)) == key
                assert pyramidal_sequence(canonical_member(p)) == p
                if size <= 64:
                    members = strong_shift_class(u)
                    assert len(members) == size
                    assert min(members) == u


def test_size_bounds():
    # sizes outside 2..MAX_N, and any block short of the whole group
    blocks = ((1, 0, 1), (17, 0, 1), (5, 0, 119), (5, 1, 119), (5, 100, 100), (5, 0, 0))
    for block in blocks:
        with pytest.raises(ValueError):
            kernel.sweep_block(*block)
