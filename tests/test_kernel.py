"""The sweep kernel must agree with the library, block by block."""
import random
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sswilf import kernel
from sswilf.counting import class_count
from sswilf.pyramid import canonical_key, pyramidal_sequence

from conftest import symmetric_group


def _code(u):
    """The base-256 code sweep_block gives a least member: sum of
    u[p] * 256^(n-1-p)."""
    return int.from_bytes(bytes(u), "big")


def _merged(rows):
    """The rows of sweep_block merged by key as blocks merge: {key: [count,
    least code]}, summing counts and keeping the smaller code."""
    merged = {}
    for code, key, count in rows:
        entry = merged.get(key)
        if entry is None:
            merged[key] = [count, code]
        else:
            entry[0] += count
            entry[1] = min(entry[1], code)
    return merged


def _library_tally(n, start, count):
    """sweep_block's answer for a block, computed one permutation at a time
    through the library's pyramid and key."""
    expected = {}
    for rank in range(start, start + count):
        u = tuple(kernel.unrank(n, rank))
        key = canonical_key(pyramidal_sequence(u))
        if key not in expected:
            expected[key] = [0, _code(u)]
        expected[key][0] += 1
    return expected


def test_key_matches_library():
    for n in range(2, 7):
        for rank in range(factorial(n)):
            assert _merged(kernel.sweep_block(n, rank, 1)) == _library_tally(n, rank, 1)


def test_key_matches_library_random_large():
    rng = random.Random(99)
    for n in (10, 13, 16):
        for _ in range(8):
            count = rng.randint(1, 40)
            start = rng.randrange(factorial(n) - count + 1)
            assert _merged(kernel.sweep_block(n, start, count)) == _library_tally(n, start, count)


def test_sweep_counts_match_direct_grouping():
    for n in range(2, 9):
        expected = {}
        for rank, u in enumerate(symmetric_group(n)):
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
    # the whole-S_n block is one run, and a run meets each key in one pair
    for n in range(2, 10):
        keys = [key for _, key, _ in kernel.sweep_block(n, 0, factorial(n))]
        assert len(set(keys)) == len(keys) == class_count(n), n


def test_aligned_runs_of_six_to_eight_free_letters():
    # one run each: a head of n - k letters, then all k! arrangements of the
    # rest, so the product split works on 3-4 lower and 3-4 upper letters; at
    # n = 16 the run starting at 0 puts letters 9..16 in the free tail
    rng = random.Random(12)
    for n, k in ((12, 6), (14, 7), (16, 8)):
        run = factorial(k)
        start = 0 if n == 16 else run * rng.randrange(factorial(n) // run)
        assert _merged(kernel.sweep_block(n, start, run)) == _library_tally(n, start, run)


def _rank(u):
    """Index of the permutation u in the lexicographic order (unrank's
    inverse)."""
    rank = 0
    for p, x in enumerate(u):
        rank += sum(y < x for y in u[p + 1 :]) * factorial(len(u) - 1 - p)
    return rank


def _run_with_head(rng, n, k, head_above_t):
    """The start of a run of k free letters whose head holds a letter above
    t, the largest of the k // 2 lower free letters, or holds none."""
    while True:
        u = list(range(1, n + 1))
        rng.shuffle(u)
        head, free = u[: n - k], sorted(u[n - k :])
        if (max(head) > free[k // 2 - 1]) == head_above_t:
            return _rank(head + free)


# n = 10..13 and k = 6..8; the k = 8 run costs the library tally most
_RUN_SHAPES = ((10, 6), (11, 7), (12, 8), (13, 6), (13, 7))


def test_translated_runs_with_a_head():
    # a head with no letter above t: the upper letters are tallied once per
    # translation class and the shifts merge per lower part
    rng = random.Random(25)
    for n, k in _RUN_SHAPES:
        run = factorial(k)
        starts = [0] if k == 8 else [0, _run_with_head(rng, n, k, False)]
        for start in starts:
            assert start % run == 0
            assert _merged(kernel.sweep_block(n, start, run)) == _library_tally(n, start, run)


def test_runs_whose_head_holds_a_letter_above_t():
    # each set of upper positions stands alone
    rng = random.Random(26)
    for n, k in _RUN_SHAPES:
        run = factorial(k)
        start = _run_with_head(rng, n, k, True)
        assert start % run == 0
        assert _merged(kernel.sweep_block(n, start, run)) == _library_tally(n, start, run)


def test_blocks_merge_to_full_sweep():
    # S_9 is cut at odd ranks, multiples of no k! with k >= 2, so the blocks
    # meet in short runs whose keys the neighbouring blocks also hold
    for n, cuts in ((6, (240, 360)), (9, (120_961, 241_919))):
        total = factorial(n)
        full = kernel.sweep_block(n, 0, total)
        bounds = [0, *cuts, total]
        rows = []
        for lo, hi in zip(bounds, bounds[1:]):
            rows += kernel.sweep_block(n, lo, hi - lo)
        assert _merged(rows) == _merged(full)


def test_every_block_of_s4():
    total = factorial(4)
    for start in range(total + 1):
        for count in range(total - start + 1):
            assert _merged(kernel.sweep_block(4, start, count)) == _library_tally(4, start, count)


def test_unaligned_random_blocks():
    # an odd start is a multiple of no k! with k >= 2, so the walk opens with
    # short runs before it reaches aligned ones
    rng = random.Random(7)
    for n in (7, 8):
        total = factorial(n)
        for _ in range(100):
            count = rng.randint(1, 200)
            start = rng.randrange(1, total - count + 1, 2)
            assert _merged(kernel.sweep_block(n, start, count)) == _library_tally(n, start, count)


def test_empty_blocks():
    for n in (2, 5, 9, 16):
        for start in (0, 1, factorial(n) // 2, factorial(n)):
            assert kernel.sweep_block(n, start, 0) == []


def test_block_ending_at_the_last_permutation():
    for n, count in ((5, 1), (6, 7), (7, 130), (10, 45), (16, 30)):
        start = factorial(n) - count
        assert _merged(kernel.sweep_block(n, start, count)) == _library_tally(n, start, count)


@st.composite
def _blocks(draw):
    n = draw(st.integers(2, 16))
    count = draw(st.integers(1, min(50, factorial(n))))
    start = draw(st.integers(0, factorial(n) - count))
    return n, start, count


@settings(derandomize=True)
@given(block=_blocks())
def test_any_block_matches_library(block):
    assert _merged(kernel.sweep_block(*block)) == _library_tally(*block)


def test_size_bounds():
    with pytest.raises(ValueError):
        kernel.sweep_block(1, 0, 1)
    with pytest.raises(ValueError):
        kernel.sweep_block(17, 0, 1)
    with pytest.raises(ValueError):
        kernel.sweep_block(5, 100, 100)


def test_unrank_agrees_with_enumeration():
    for n in (1, 3, 5):
        for rank, u in enumerate(symmetric_group(n)):
            assert tuple(kernel.unrank(n, rank)) == u
