import random
from itertools import product

import pytest

from sswilf.errors import InvalidPyramid, LengthMismatch, SizeMismatch, SizeTooSmall
from sswilf.pyramid import (
    PyramidalSequence,
    canonical_key,
    canonical_member,
    class_size_exponent,
    consecutive_differences,
    is_ss_equivalent,
    levels_from_key,
    pyramidal_sequence,
    set_from_differences,
    validate_transition,
)
from sswilf.words import identity, inverse

from conftest import brute_class_map, pyramid_by_suffix_alphabets, symmetric_group

WORKED_PERM = (5, 9, 2, 7, 3, 8, 1, 6, 4)
WORKED_LEVELS = (
    (1, 1, 1, 1, 1, 1, 1, 1),
    (1, 1, 1, 1, 1, 2, 1),
    (1, 2, 1, 1, 2, 1),
    (1, 2, 2, 2, 1),
    (1, 2, 2, 2),
    (2, 2, 2),
    (2, 2),
    (4,),
)


class TestDifferences:
    def test_even_set(self):
        assert consecutive_differences({2, 4, 6, 8}) == (2, 2, 2)

    def test_interval(self):
        assert consecutive_differences(range(1, 7)) == (1,) * 5

    def test_mixed(self):
        assert consecutive_differences({1, 3, 5, 9}) == (2, 2, 4)

    def test_too_small(self):
        with pytest.raises(SizeTooSmall):
            consecutive_differences({4})

    def test_rebuild(self):
        assert set_from_differences(2, (2, 2, 2)) == (2, 4, 6, 8)
        assert set_from_differences(1, (1,)) == (1, 2)

    def test_roundtrip(self):
        xs = (1, 3, 5, 9)
        assert set_from_differences(1, consecutive_differences(xs)) == xs


class TestPyramidalSequence:
    def test_worked_example(self):
        assert pyramidal_sequence(WORKED_PERM).levels == WORKED_LEVELS

    def test_identity(self):
        for n in (2, 5, 8):
            p = pyramidal_sequence(identity(n))
            assert all(level == (1,) * (n - i) for i, level in enumerate(p.levels, 1))

    def test_near_identity_swap(self):
        assert pyramidal_sequence((1, 3, 2, 4)).levels == ((1, 1, 1), (1, 1), (2,))

    def test_size_one_rejected(self):
        with pytest.raises(SizeTooSmall):
            pyramidal_sequence((1,))

    def test_agrees_with_suffix_alphabet_computation(self):
        for n in range(2, 8):
            for u in symmetric_group(n):
                assert pyramidal_sequence(u).levels == pyramid_by_suffix_alphabets(u)

    def test_agrees_on_random_larger(self):
        rng = random.Random(42)
        for n in (10, 12, 15):
            for _ in range(25):
                u = list(range(1, n + 1))
                rng.shuffle(u)
                u = tuple(u)
                assert pyramidal_sequence(u).levels == pyramid_by_suffix_alphabets(u)

    def test_validation_is_strict(self):
        with pytest.raises(InvalidPyramid):
            PyramidalSequence(((1, 1), (3,)))
        with pytest.raises(InvalidPyramid):
            PyramidalSequence(((1, 2), (1,)))
        with pytest.raises(InvalidPyramid):
            PyramidalSequence(((1, 1, 1), (1,)))

    def test_built_pyramids_pass_the_constructor_checks(self):
        # pyramidal_sequence skips the constructor's checks; they must agree
        for n in range(2, 8):
            for u in symmetric_group(n):
                p = pyramidal_sequence(u)
                assert PyramidalSequence(p.levels) == p

    def test_level_sums_shrink_by_merge_or_edge_deletion(self):
        for n in range(2, 8):
            for u in symmetric_group(n):
                levels = pyramidal_sequence(u).levels
                for a, b in zip(levels, levels[1:]):
                    if sum(b) == sum(a):
                        continue  # a merge
                    assert (b == a[1:] and sum(a) - sum(b) == a[0]) or (
                        b == a[:-1] and sum(a) - sum(b) == a[-1]
                    )


class TestTransitions:
    def test_drop_rightmost(self):
        assert validate_transition((1, 2, 2, 2, 1), (1, 2, 2, 2))

    def test_merge(self):
        assert validate_transition((1, 2, 1, 1, 2, 1), (1, 2, 2, 2, 1))

    def test_impossible(self):
        assert not validate_transition((1, 3), (5,))

    def test_mixed_sequence_types(self):
        # a list and a tuple of the same entries are the same level
        assert validate_transition((1, 2), [3])
        assert validate_transition((1, 1), [1])
        assert validate_transition([1, 2, 1], (3, 1))
        assert not validate_transition([1, 3], (5,))

    def test_length_contract(self):
        with pytest.raises(LengthMismatch):
            validate_transition((1, 2), (1, 2))
        with pytest.raises(LengthMismatch):
            validate_transition((3,), ())

    def test_exhaustive_against_the_definition(self):
        # b follows a exactly when it is a with its first or last entry
        # dropped or with one adjacent pair summed
        for length in range(2, 5):
            for a in product((1, 2, 3), repeat=length):
                steps = {a[1:], a[:-1]} | {
                    a[:k] + (a[k] + a[k + 1],) + a[k + 2 :] for k in range(length - 1)
                }
                for b in product(range(1, 7), repeat=length - 1):
                    assert validate_transition(a, b) == (b in steps), (a, b)

    def test_every_computed_pyramid_passes(self):
        for n in range(2, 8):
            for u in symmetric_group(n):
                levels = pyramidal_sequence(u).levels
                assert levels[0] == (1,) * (n - 1)
                for a, b in zip(levels, levels[1:]):
                    assert validate_transition(a, b)


class TestEquivalence:
    def test_small_classes(self):
        assert is_ss_equivalent((1, 2, 3), (3, 2, 1))
        assert not is_ss_equivalent((1, 2, 3), (2, 1, 3))

    def test_reflexive(self):
        assert is_ss_equivalent(WORKED_PERM, WORKED_PERM)

    def test_worked_pair(self):
        assert is_ss_equivalent(WORKED_PERM, (5, 6, 2, 8, 3, 7, 1, 9, 4))

    def test_trivial_size_one(self):
        assert is_ss_equivalent((1,), (1,))

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            is_ss_equivalent((1, 2), (1, 2, 3))


class TestClassSizeExponent:
    def test_identity_class_of_s3(self):
        p = pyramidal_sequence((1, 2, 3))
        assert class_size_exponent(p) == 2

    def test_other_class_of_s3(self):
        p = pyramidal_sequence((2, 1, 3))
        assert class_size_exponent(p) == 1

    def test_s2(self):
        assert class_size_exponent(pyramidal_sequence((1, 2))) == 1

    def test_sizes_match_brute_force(self):
        for n in range(2, 8):
            groups = brute_class_map(n)
            for levels, members in groups.items():
                j = class_size_exponent(PyramidalSequence(levels))
                assert len(members) == 2**j


class TestCanonicalMember:
    def test_worked_construction(self):
        p = PyramidalSequence(WORKED_LEVELS)
        assert canonical_member(p) == (5, 6, 2, 8, 3, 7, 1, 9, 4)
        assert pyramidal_sequence(canonical_member(p)) == p

    def test_all_ones_gives_identity(self):
        p = pyramidal_sequence((1, 2, 3))
        assert canonical_member(p) == (1, 2, 3)

    def test_size_two(self):
        assert canonical_member(pyramidal_sequence((1, 2))) == (1, 2)

    def test_lands_in_class_exhaustively(self):
        for n in range(2, 8):
            for levels, members in brute_class_map(n).items():
                got = canonical_member(PyramidalSequence(levels))
                assert got in members


class TestCanonicalKey:
    def test_frozen_bytes(self):
        p = pyramidal_sequence((1, 2, 3))
        assert canonical_key(p) == b"\x01\x00\x01\x01\x00"

    def test_stable_across_runs(self):
        p = pyramidal_sequence(WORKED_PERM)
        assert canonical_key(p) == canonical_key(pyramidal_sequence(WORKED_PERM))

    def test_distinct_sizes_distinct_keys(self):
        assert canonical_key(pyramidal_sequence(identity(3))) != canonical_key(
            pyramidal_sequence(identity(4))
        )

    def test_injective_over_s7(self):
        seen = {}
        for u in symmetric_group(7):
            p = pyramidal_sequence(u)
            key = canonical_key(p)
            if key in seen:
                assert seen[key] == p.levels
            else:
                seen[key] = p.levels
        assert len(seen) == len(brute_class_map(7))

    def test_key_decodes_back(self):
        for u in symmetric_group(6):
            p = pyramidal_sequence(u)
            assert levels_from_key(canonical_key(p)) == p.levels

    def test_varints_beyond_single_bytes(self):
        # build a wide pyramid step by step: merge everything into one entry
        stack = [(1,) * 200]
        while len(stack[-1]) > 1:
            prev = stack[-1]
            stack.append((prev[0] + prev[1],) + prev[2:])
        p = PyramidalSequence(tuple(stack))
        assert levels_from_key(canonical_key(p)) == p.levels

    def test_decoding_reads_the_format_and_the_constructor_checks_the_tower(self):
        # well-formed bytes whose levels are no pyramid decode as they are
        assert levels_from_key(b"\x05\x00") == ((5,),)
        assert levels_from_key(b"\x02\x00\x01\x02\x00") == ((1, 2), (2,))
        for key in (b"\x05\x00", b"\x02\x00\x01\x02\x00"):
            with pytest.raises(InvalidPyramid):
                PyramidalSequence(levels_from_key(key))


def test_partition_sizes_sum_to_group_order():
    from math import factorial

    for n in range(2, 8):
        groups = brute_class_map(n)
        total = sum(
            2 ** class_size_exponent(PyramidalSequence(levels)) for levels in groups
        )
        assert total == factorial(n)


def test_inverse_is_compatible_with_classes():
    # equivalence is defined through the permutation itself, not its inverse;
    # sanity-check the worked pair stays equivalent after inverting twice
    u = WORKED_PERM
    assert is_ss_equivalent(inverse(inverse(u)), u)
