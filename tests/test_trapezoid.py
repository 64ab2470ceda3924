from itertools import permutations

import pytest

from sswilf.errors import (
    InvalidTrapezoid,
    NotAPrefix,
    NotInB,
    OutOfRange,
    SizeTooSmall,
)
from sswilf.pyramid import _deletions, consecutive_differences, set_from_differences
from sswilf.trapezoid import (
    TrapezoidalSequence,
    is_minimal_prefix,
    is_non_interval,
    is_periodic_set,
    is_periodic_vector,
    minimal_prefixes,
    noninterval_to_prefix,
    prefix_to_noninterval,
    prefix_to_trapezoid,
    trapezoid_to_prefix,
)
from sswilf.words import reversal

from conftest import symmetric_group

import tables

WALKTHROUGH_PREFIX = (7, 3, 5, 9, 1)
WALKTHROUGH_LEVELS = (
    (1, 1, 1, 1, 1, 1, 1, 1),
    (1, 1, 1, 1, 1, 2, 1),
    (1, 2, 1, 1, 2, 1),
    (1, 2, 2, 2, 1),
    (1, 2, 2, 2),
    (2, 2, 2),
)


class TestPeriodicity:
    def test_constant_vector(self):
        assert is_periodic_vector((2, 2, 2))
        assert not is_periodic_vector((1, 2, 2, 2))
        assert is_periodic_vector((7,))

    def test_sets(self):
        assert is_periodic_set({2, 4, 6, 8})
        assert not is_periodic_set({1, 2, 4, 6, 8})  # complement of 7359 in 1..9
        assert is_periodic_set({3, 11})

    def test_too_small(self):
        with pytest.raises(SizeTooSmall):
            is_periodic_set({4})


class TestMinimalPrefixes:
    def test_single_letters(self):
        assert minimal_prefixes(1, 5) == ((1,), (5,))
        assert minimal_prefixes(1, 3) == ((1,), (2,), (3,))

    def test_pairs_over_five(self):
        assert minimal_prefixes(2, 5) == ((2, 1), (2, 4), (4, 2), (4, 5))

    def test_count_at_ten(self):
        assert len(minimal_prefixes(5, 10)) == 488

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            minimal_prefixes(4, 5)
        with pytest.raises(OutOfRange):
            minimal_prefixes(1, 2)

    def test_membership_predicate_agrees(self):
        for n in range(3, 8):
            for i in range(1, n - 1):
                members = set(minimal_prefixes(i, n))
                from itertools import permutations

                for w in permutations(range(1, n + 1), i):
                    assert (w in members) == is_minimal_prefix(w, n)

    def test_counts_match_recurrence(self):
        from sswilf.counting import minimal_prefix_count

        for n in range(3, 10):
            for i in range(1, n - 1):
                assert len(minimal_prefixes(i, n)) == minimal_prefix_count(i, n)

    def test_complement_is_a_unique_progression(self):
        for n in range(3, 9):
            for i in range(1, n - 1):
                for u in minimal_prefixes(i, n):
                    comp = sorted(set(range(1, n + 1)) - set(u))
                    diffs = consecutive_differences(comp)
                    assert is_periodic_vector(diffs)
                    # one (start, difference) pair rebuilds it
                    assert set_from_differences(comp[0], diffs) == tuple(comp)


class TestTrapezoids:
    def test_walkthrough_image(self):
        t = prefix_to_trapezoid(WALKTHROUGH_PREFIX, 9)
        assert t.levels == WALKTHROUGH_LEVELS

    def test_single_deletion(self):
        t = prefix_to_trapezoid((1,), 5)
        assert t.levels == ((1, 1, 1, 1), (1, 1, 1))

    def test_rejects_non_members(self):
        with pytest.raises(NotAPrefix):
            prefix_to_trapezoid((2,), 5)
        with pytest.raises(NotAPrefix):
            prefix_to_trapezoid((1, 2), 5)

    def test_walkthrough_inverse(self):
        t = TrapezoidalSequence(WALKTHROUGH_LEVELS)
        assert trapezoid_to_prefix(t) == WALKTHROUGH_PREFIX

    def test_validation(self):
        with pytest.raises(InvalidTrapezoid):
            TrapezoidalSequence(((1, 1, 1), (1, 2)))  # bad step
        with pytest.raises(InvalidTrapezoid):
            TrapezoidalSequence(((1, 1, 1), (2, 1), (2,), (2,)))  # wrong shape
        with pytest.raises(InvalidTrapezoid):
            # interior level constant
            TrapezoidalSequence(((1, 1, 1, 1), (1, 1, 1), (1, 1)))

    def test_built_towers_pass_the_constructor_checks(self):
        # prefix_to_trapezoid skips the constructor's checks; they must agree
        for n in range(3, 10):
            for i in range(1, n - 1):
                for u in minimal_prefixes(i, n):
                    t = prefix_to_trapezoid(u, n)
                    assert TrapezoidalSequence(t.levels) == t

    def test_constructor_accepts_exactly_the_minimal_prefix_towers(self):
        # one trapezoid rule: the deletion tower of a distinct-letter word is
        # a TrapezoidalSequence exactly when the word is a minimal prefix
        for n in range(3, 7):
            for i in range(1, n - 1):
                for u in permutations(range(1, n + 1), i):
                    levels = tuple(_deletions(u, n))
                    if is_minimal_prefix(u, n):
                        assert TrapezoidalSequence(levels) == prefix_to_trapezoid(u, n)
                    else:
                        with pytest.raises(InvalidTrapezoid):
                            TrapezoidalSequence(levels)

    def test_rejects_malformed_letters(self):
        for u in ((5, 5), (0, 3), (4, 8), (1, 2, 3, 4, 5, 6)):
            assert not is_minimal_prefix(u, 7)
            with pytest.raises(NotAPrefix):
                prefix_to_trapezoid(u, 7)

    def test_images_satisfy_trapezoid_shape(self):
        for n in range(3, 9):
            for i in range(1, n - 1):
                for u in minimal_prefixes(i, n):
                    t = prefix_to_trapezoid(u, n)
                    assert t.height == i and t.n == n

    def test_roundtrip_heights_two_and_up(self):
        for n in range(3, 9):
            for i in range(2, n - 1):
                for u in minimal_prefixes(i, n):
                    t = prefix_to_trapezoid(u, n)
                    assert trapezoid_to_prefix(t) == u
                    assert prefix_to_trapezoid(trapezoid_to_prefix(t), n) == t

    def test_height_one_collapse(self):
        # deleting 1 or n leaves the same gap vector, so at height 1 the map
        # is two-to-one and its inverse settles on the deleted minimum
        for n in range(4, 9):
            low = prefix_to_trapezoid((1,), n)
            high = prefix_to_trapezoid((n,), n)
            assert low == high
            assert trapezoid_to_prefix(low) == (1,)
        # over size 3 the merge image is still invertible
        assert trapezoid_to_prefix(prefix_to_trapezoid((2,), 3)) == (2,)

    def test_image_roundtrip_all_heights(self):
        for n in range(3, 9):
            for i in range(1, n - 1):
                images = {prefix_to_trapezoid(u, n) for u in minimal_prefixes(i, n)}
                for t in images:
                    assert prefix_to_trapezoid(trapezoid_to_prefix(t), n) == t


class TestNonInterval:
    def test_counts_over_s4(self):
        count = sum(1 for b in symmetric_group(4) if is_non_interval(b))
        assert count == 8

    def test_ascending_rejected(self):
        assert not is_non_interval((1, 2, 3, 4, 5))

    def test_clean_example(self):
        assert is_non_interval((2, 4, 1, 3))

    def test_size_bound(self):
        with pytest.raises(SizeTooSmall):
            is_non_interval((1,))

    def test_counts_match_recurrence(self):
        from sswilf.counting import noninterval_count

        for n in range(2, 8):
            count = sum(1 for b in symmetric_group(n) if is_non_interval(b))
            assert count == noninterval_count(n) == tables.NONINTERVAL_COUNTS[n]


class TestPatternCorrespondence:
    def test_forward_examples(self):
        assert prefix_to_noninterval((2, 1), 5) == (2, 1, 3)
        assert prefix_to_noninterval((4, 5), 5) == (2, 3, 1)

    def test_backward_examples(self):
        assert noninterval_to_prefix((2, 3, 1), 5) == (4, 5)
        assert noninterval_to_prefix((2, 1, 3), 5) == (2, 1)

    def test_range_guards(self):
        # complement {1, 3, 5} is spread out, not an interval
        with pytest.raises(OutOfRange):
            prefix_to_noninterval((2, 4), 5)
        with pytest.raises(OutOfRange):
            noninterval_to_prefix((2, 1, 3), 3)

    def test_rejects_interval_suffixes(self):
        with pytest.raises(NotInB):
            noninterval_to_prefix((3, 1, 2), 7)  # suffix 12 is an interval

    def test_rejects_non_prefixes(self):
        with pytest.raises(NotAPrefix):
            prefix_to_noninterval((1, 2), 5)

    def test_roundtrips(self):
        for n in range(3, 10):
            for k in range(1, (n // 2 - 1) + 1):
                if k > n - 2:
                    continue
                for u in minimal_prefixes(k, n):
                    b = prefix_to_noninterval(u, n)
                    assert noninterval_to_prefix(b, n) == u

    def test_images_cover_all_suffix_free_patterns(self):
        from sswilf.counting import noninterval_count

        for n in range(4, 10):
            for k in range(1, n // 2):
                images = {
                    prefix_to_noninterval(u, n) for u in minimal_prefixes(k, n)
                }
                # the codomain: permutations whose reversal has no interval prefix
                want = {
                    b
                    for b in symmetric_group(k + 1)
                    if is_non_interval(reversal(b))
                }
                assert images == want
                assert len(images) == noninterval_count(k + 1)
                for b in images:
                    assert prefix_to_noninterval(noninterval_to_prefix(b, n), n) == b
