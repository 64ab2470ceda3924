import random
from itertools import product

import pytest

from sswilf.errors import (
    DuplicateLetter,
    EmptyPattern,
    MalformedToken,
    MissingLetter,
    NonPositiveLetter,
    OutOfRange,
    UsageError,
)
from sswilf.words import (
    as_permutation,
    embedding_set,
    identity,
    inverse,
    parse_permutation,
    reduced_form,
    reversal,
    un_reduce,
    weight,
)

from conftest import symmetric_group

HOST = (2, 3, 4, 3, 2, 1, 3, 4, 2, 1)  # the running example host word


class TestParse:
    def test_compact(self):
        assert parse_permutation("592738164") == (5, 9, 2, 7, 3, 8, 1, 6, 4)

    def test_singleton(self):
        assert parse_permutation("1") == (1,)

    def test_separated_large_letters(self):
        text = "3 12 1 2 4 5 6 7 8 9 10 11"
        u = parse_permutation(text)
        assert len(u) == 12 and u[1] == 12

    def test_commas(self):
        assert parse_permutation("3,1,2") == (3, 1, 2)

    def test_malformed_token(self):
        # int() would read every token here but "x"
        for text in ("1 2 x", "٢,١", "1_0 1 2 3 4 5 6 7 8 9", "+2 1", "-1 2"):
            with pytest.raises(MalformedToken):
                parse_permutation(text)

    def test_leading_and_trailing_commas(self):
        assert parse_permutation(",2,1,") == (2, 1)

    def test_compact_cannot_carry_two_digit_letters(self):
        # 12 jammed into compact text parses as two letters and fails
        with pytest.raises(DuplicateLetter):
            parse_permutation("31212456789")
        with pytest.raises(MalformedToken):
            parse_permutation("3(12)12")

    def test_duplicate(self):
        with pytest.raises(DuplicateLetter):
            parse_permutation("122")

    def test_missing(self):
        with pytest.raises(MissingLetter):
            parse_permutation("124")

    def test_zero(self):
        with pytest.raises(NonPositiveLetter):
            parse_permutation("102")

    def test_hint(self):
        assert parse_permutation("312", n_hint=3) == (3, 1, 2)
        with pytest.raises(MissingLetter):
            parse_permutation("312", n_hint=4)
        # the hint is a size: an exact integer >= 1
        for text, hint in (("12", 2.0), ("12", "2"), ("1", 0)):
            with pytest.raises(OutOfRange):
                parse_permutation(text, n_hint=hint)

    def test_empty(self):
        with pytest.raises(MalformedToken):
            parse_permutation("   ")


class TestInverse:
    def test_worked_example(self):
        assert inverse((5, 9, 2, 7, 3, 8, 1, 6, 4)) == (7, 3, 5, 9, 1, 8, 4, 6, 2)

    def test_identity(self):
        for n in (1, 4, 9):
            assert inverse(identity(n)) == identity(n)

    def test_involution_case(self):
        assert inverse((2, 1, 3)) == (2, 1, 3)

    def test_involution_exhaustive(self):
        for n in range(1, 10):
            for u in symmetric_group(n):
                assert inverse(inverse(u)) == u

    def test_involution_random_large(self):
        rng = random.Random(2019)
        for n in (12, 25, 60):
            for _ in range(50):
                u = list(range(1, n + 1))
                rng.shuffle(u)
                u = tuple(u)
                assert inverse(inverse(u)) == u

    def test_rejects_what_as_permutation_rejects(self):
        # one permutation rule: every word of length <= 3 over -1..5 meets
        # the same error class in both, or none
        def outcome(f, w):
            try:
                f(w)
            except UsageError as e:
                return type(e)

        for k in range(4):
            for w in product(range(-1, 6), repeat=k):
                assert outcome(inverse, w) is outcome(as_permutation, w), w

    def test_error_classes(self):
        with pytest.raises(NonPositiveLetter):
            inverse((0, 1))
        with pytest.raises(DuplicateLetter):
            inverse((1, 1, 5))
        with pytest.raises(MissingLetter):
            inverse((1, 3))


class TestReversal:
    def test_definition(self):
        assert reversal((3, 2, 4, 1, 5)) == (5, 1, 4, 2, 3)

    def test_empty(self):
        assert reversal(()) == ()

    def test_involution(self):
        w = HOST
        assert reversal(reversal(w)) == w


class TestReducedForm:
    def test_ranks_letters(self):
        assert reduced_form((7, 3, 5)) == (3, 1, 2)

    def test_already_reduced(self):
        assert reduced_form((1, 2, 3, 4, 5)) == (1, 2, 3, 4, 5)

    def test_prefix_with_appended_minimum(self):
        assert reduced_form((2, 1, 3)) == (2, 1, 3)

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(100):
            w = tuple(rng.sample(range(1, 60), rng.randint(1, 12)))
            assert reduced_form(reduced_form(w)) == reduced_form(w)

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicateLetter):
            reduced_form((2, 2))


class TestUnReduce:
    def test_example(self):
        assert un_reduce({3, 4, 5}, (2, 1, 3)) == (4, 3, 5)

    def test_identity_alphabet(self):
        assert un_reduce(range(1, 4), (3, 1, 2)) == (3, 1, 2)

    def test_roundtrip(self):
        rng = random.Random(11)
        for _ in range(100):
            alpha = rng.sample(range(1, 80), rng.randint(1, 10))
            tau = tuple(reduced_form(tuple(rng.sample(alpha, len(alpha)))))
            assert reduced_form(un_reduce(alpha, tau)) == tau


class TestWeight:
    def test_direct(self):
        assert weight((3, 2, 2)) == (3, 7)

    def test_empty(self):
        assert weight(()) == (0, 0)

    def test_host_word(self):
        assert weight(HOST) == (10, 25)

    def test_reversal_invariant(self):
        rng = random.Random(5)
        for _ in range(50):
            w = tuple(rng.randint(1, 9) for _ in range(rng.randint(0, 15)))
            assert weight(reversal(w)) == weight(w)


class TestEmbeddingSet:
    def test_worked_example(self):
        assert embedding_set((3, 2, 2), HOST) == (2, 3, 7)

    def test_reflexive(self):
        assert embedding_set(HOST, HOST) == (1,)

    def test_no_letter_tall_enough(self):
        assert embedding_set((5,), HOST) == ()

    def test_empty_pattern(self):
        with pytest.raises(EmptyPattern):
            embedding_set((), HOST)

    def test_against_naive_oracle(self):
        rng = random.Random(13)
        for _ in range(200):
            u = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 4)))
            w = tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 10)))
            naive = tuple(
                j + 1
                for j in range(len(w) - len(u) + 1)
                if all(u[i] <= w[j + i] for i in range(len(u)))
            )
            assert embedding_set(u, w) == naive
