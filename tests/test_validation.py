"""Public calls reject malformed permutations, tower levels and non-integer
sizes with a UsageError, so the CLI keeps exit code 2 for bad input instead
of leaking IndexError, ValueError, TypeError or AttributeError; and each size
or prefix-length argument starts at its least value, raising OutOfRange
below it."""
import inspect

import pytest
from hypothesis import given, settings, strategies as st

import sswilf
from sswilf import (
    counting, kernel, oracle, pyramid, representatives, shift, trapezoid, words,
)
from sswilf.errors import OutOfRange, UsageError, WilfError

BAD_CALLS = {
    "inverse": lambda: words.inverse((2, 3)),
    "inverse_repeat": lambda: words.inverse((1, 1)),
    "un_reduce": lambda: words.un_reduce([1, 2], [3, 1]),
    "un_reduce_repeated_letter": lambda: words.un_reduce((5, 5, 7), (1, 2, 3)),
    "un_reduce_text_alphabet": lambda: words.un_reduce("ab", (2, 1)),
    "un_reduce_float_pattern": lambda: words.un_reduce((4, 6), (1.0, 2.0)),
    "weight_text": lambda: words.weight("ab"),
    "weight_nonpositive": lambda: words.weight((0, -3)),
    "embedding_set_text_host": lambda: words.embedding_set((1,), "abc"),
    "embedding_set_text_pattern": lambda: words.embedding_set("a", (1, 2)),
    "RigidShiftMove_text_height": lambda: shift.RigidShiftMove("a", 1),
    "RigidShiftMove_text_offset": lambda: shift.RigidShiftMove(2, "a"),
    "RigidShiftMove_float_height": lambda: shift.RigidShiftMove(1.5, 1),
    "RigidShiftMove_float_offset": lambda: shift.RigidShiftMove(2, 1.0),
    "levels_from_key_empty_level": lambda: pyramid.levels_from_key(b"\x00"),
    "levels_from_key_empty_inner_level": lambda: pyramid.levels_from_key(b"\x01\x00\x00"),
    "levels_from_key_zero_entry": lambda: pyramid.levels_from_key(b"\x80\x00\x00"),
    "levels_from_key_overlong_entry": lambda: pyramid.levels_from_key(b"\x81\x00\x00"),
    "levels_from_key_empty_key": lambda: pyramid.levels_from_key(b""),
    "is_ss_equivalent": lambda: pyramid.is_ss_equivalent((1, 4), (2, 1)),
    "is_ss_equivalent_size_one": lambda: pyramid.is_ss_equivalent((5,), (1,)),
    "pyramidal_sequence": lambda: pyramid.pyramidal_sequence((1, 4)),
    "shift_class": lambda: shift.shift_class((1, 5, 2)),
    "strong_shift_class": lambda: shift.strong_shift_class((1, 5, 2)),
    "enumerate_rigid_shifts": lambda: shift.enumerate_rigid_shifts((1, 1, 1)),
    "apply_rigid_shift": lambda: shift.apply_rigid_shift((1, 1), shift.RigidShiftMove(1, 1)),
    "is_strong_shift_equivalent": lambda: shift.is_strong_shift_equivalent((1, 2), (2, 2)),
    "is_shift_equivalent": lambda: shift.is_shift_equivalent((0, 1), (1, 2)),
    "find_witness": lambda: shift.find_witness((1, 2, 3), (3, 1, 1), True),
    "class_count_float": lambda: counting.class_count(2.5),
    "class_count_text": lambda: counting.class_count("5"),
    "minimal_prefix_count_float": lambda: counting.minimal_prefix_count(2.0, 6),
    "shift_class_count_none": lambda: counting.shift_class_count(None),
    "minimal_prefixes_float": lambda: trapezoid.minimal_prefixes(2, 5.0),
    "class_representatives_float": lambda: representatives.class_representatives(3.5),
    "noninterval_to_prefix_float": lambda: trapezoid.noninterval_to_prefix((2, 3, 1), 5.5),
    "bruteforce_ss_partition_float": lambda: oracle.bruteforce_ss_partition(4.0),
    "bruteforce_ss_partition_workers_text": lambda: oracle.bruteforce_ss_partition(5, workers="2"),
    "bruteforce_ss_partition_workers_zero": lambda: oracle.bruteforce_ss_partition(5, workers=0),
    "bruteforce_ss_partition_workers_negative": lambda: oracle.bruteforce_ss_partition(5, workers=-4),
    "bruteforce_ss_partition_limit_text": lambda: oracle.bruteforce_ss_partition(3, limit="x"),
    "as_permutation_float_letter": lambda: words.as_permutation([1.5, 2]),
    "as_permutation_text_letter": lambda: words.as_permutation(["x"]),
    "pyramidal_sequence_float_letter": lambda: pyramid.pyramidal_sequence((1.5, 2)),
    "is_ss_equivalent_float_letter": lambda: pyramid.is_ss_equivalent((1, 2), (2, 1.0)),
    "validate_transition_float_entry": lambda: pyramid.validate_transition((1, 2), (1.5,)),
    "PyramidalSequence_float_entry": lambda: pyramid.PyramidalSequence(((1, 1), (2.0,))),
    "PyramidalSequence_flat_levels": lambda: pyramid.PyramidalSequence((1,)),
    "TrapezoidalSequence_flat_levels": lambda: trapezoid.TrapezoidalSequence((1, 2)),
    "check_ss_below_two": lambda: oracle.check_ss(1),
    "check_prefixes_below_three": lambda: oracle.check_prefixes(2),
    "check_prefixes_negative": lambda: oracle.check_prefixes(-3),
    "check_shift_below_two": lambda: oracle.check_shift(1),
    "reversal_invariant_members_two": lambda: shift.reversal_invariant_members(2),
    "reversal_invariant_members_negative": lambda: shift.reversal_invariant_members(-1),
    "reversal_invariant_members_float": lambda: shift.reversal_invariant_members(5.0),
    "noninterval_to_prefix_float_letters": lambda: trapezoid.noninterval_to_prefix(
        (2.0, 3.0, 1.0), 5),
    "is_minimal_prefix_float_letter": lambda: trapezoid.is_minimal_prefix((1.0,), 5),
    "prefix_to_trapezoid_float_letter": lambda: trapezoid.prefix_to_trapezoid((1.0,), 5),
    "prefix_to_noninterval_float_letters": lambda: trapezoid.prefix_to_noninterval(
        (4.0, 5.0), 5),
    "is_non_interval_text_letters": lambda: trapezoid.is_non_interval(("a", "b", "c")),
    "apply_rigid_shift_zero_offset_pair": lambda: shift.apply_rigid_shift((1, 2), (1, 0)),
    "apply_rigid_shift_int_move": lambda: shift.apply_rigid_shift((1, 2), 5),
    "apply_rigid_shift_short_move": lambda: shift.apply_rigid_shift((1, 2), (5,)),
    "apply_rigid_shift_long_move": lambda: shift.apply_rigid_shift((1, 2), (1, 1, 1)),
    "apply_rigid_shift_no_move": lambda: shift.apply_rigid_shift((1, 2), None),
    "apply_rigid_shift_cut_at_full_height": lambda: shift.apply_rigid_shift(
        (1, 2, 3), (3, 1000)),
    "pyramidal_sequence_int": lambda: pyramid.pyramidal_sequence(0),
    "is_ss_equivalent_ints": lambda: pyramid.is_ss_equivalent(0, 0),
    "consecutive_differences_float": lambda: pyramid.consecutive_differences((1.5, 2)),
    "consecutive_differences_int": lambda: pyramid.consecutive_differences(3),
    "set_from_differences_float_gap": lambda: pyramid.set_from_differences(1, (1.5,)),
    "set_from_differences_float_start": lambda: pyramid.set_from_differences(1.0, (1,)),
    "levels_from_key_int": lambda: pyramid.levels_from_key(0),
    "levels_from_key_text": lambda: pyramid.levels_from_key("ab"),
    "canonical_key_tuple": lambda: pyramid.canonical_key(((1,),)),
    "canonical_member_tuple": lambda: pyramid.canonical_member(((1,),)),
    "class_size_exponent_tuple": lambda: pyramid.class_size_exponent(((1,),)),
    "canonical_member_trapezoid": lambda: pyramid.canonical_member(
        trapezoid.prefix_to_trapezoid((2, 1), 5)),
    "canonical_key_trapezoid": lambda: pyramid.canonical_key(
        trapezoid.prefix_to_trapezoid((2, 1), 5)),
    "trapezoid_to_prefix_pyramid": lambda: trapezoid.trapezoid_to_prefix(
        pyramid.pyramidal_sequence((2, 1, 3))),
    "identity_float": lambda: words.identity(2.0),
    "identity_zero": lambda: words.identity(0),
    "identity_negative": lambda: words.identity(-2),
    "inverse_empty": lambda: words.inverse(()),
    "bruteforce_ss_partition_past_kernel": lambda: oracle.bruteforce_ss_partition(
        kernel.MAX_N + 1, limit=kernel.MAX_N + 1),
    "set_from_differences_zero_gap": lambda: pyramid.set_from_differences(3, (0, -2)),
    "set_from_differences_negative_gap": lambda: pyramid.set_from_differences(1, (2, -1)),
    "consecutive_differences_repeat": lambda: pyramid.consecutive_differences([2, 2]),
    "is_periodic_set_repeat": lambda: trapezoid.is_periodic_set([1, 1, 1]),
    "reversal_int": lambda: words.reversal(0),
    "reduced_form_int": lambda: words.reduced_form(0),
    "reduced_form_mixed_letters": lambda: words.reduced_form(("a", 1)),
    "format_word_int": lambda: words.format_word(0),
    "format_word_text_letter": lambda: words.format_word(("a",)),
    "parse_permutation_int": lambda: words.parse_permutation(123),
    "parse_permutation_bytes": lambda: words.parse_permutation(b"12"),
    "parse_permutation_float_hint": lambda: words.parse_permutation("12", n_hint=2.0),
    "parse_permutation_text_hint": lambda: words.parse_permutation("12", n_hint="2"),
    "parse_permutation_zero_hint": lambda: words.parse_permutation("1", n_hint=0),
    "is_periodic_set_int": lambda: trapezoid.is_periodic_set(0),
    "is_periodic_vector_int": lambda: trapezoid.is_periodic_vector(1),
    "trapezoid_to_prefix_tuple": lambda: trapezoid.trapezoid_to_prefix(((1, 1),)),
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_bad_permutation_raises_usage_error(call):
    with pytest.raises(UsageError):
        call()


# -- the domain of every size and prefix-length argument ---------------------------

# each call of one size argument, and the least value it takes
SIZE_DOMAINS = {
    "identity": (words.identity, 1),
    "noninterval_count": (counting.noninterval_count, 2),
    "class_count": (counting.class_count, 1),
    "shift_class_count": (counting.shift_class_count, 1),
    "class_count_by_exponent_n": (lambda n: counting.class_count_by_exponent(1, n), 2),
    "class_count_by_exponent_j": (lambda j: counting.class_count_by_exponent(j, 4), 0),
    "bruteforce_ss_partition": (oracle.bruteforce_ss_partition, 2),
    "bruteforce_ss_partition_workers": (
        lambda w: oracle.bruteforce_ss_partition(3, workers=w), 1),
    "bruteforce_shift_partition": (
        lambda n: oracle.bruteforce_shift_partition(n, with_reversals=True), 2),
    "bruteforce_minimal_prefix_row": (oracle.bruteforce_minimal_prefix_row, 3),
    "check_ss": (oracle.check_ss, 2),
    "check_prefixes": (oracle.check_prefixes, 3),
    "check_shift": (oracle.check_shift, 2),
    "class_representatives": (representatives.class_representatives, 1),
    "inverse_representatives": (representatives.inverse_representatives, 1),
    "decompositions": (representatives.decompositions, 1),
    "reversal_invariant_members": (shift.reversal_invariant_members, 3),
}


@pytest.mark.parametrize("call, least", SIZE_DOMAINS.values(), ids=SIZE_DOMAINS.keys())
def test_sizes_start_at_their_least_value(call, least):
    call(least)
    with pytest.raises(OutOfRange):
        call(least - 1)


# each call of a prefix length i over 1..n, and the least i it takes; the
# permutation (2, 3, ..., i + 1, 1) has no interval suffix, so it is the
# image of a prefix of length i
PREFIX_DOMAINS = {
    "periodic_prefix_count": (counting.periodic_prefix_count, 0),
    "minimal_prefix_count": (counting.minimal_prefix_count, 1),
    "minimal_prefixes": (trapezoid.minimal_prefixes, 1),
    "bruteforce_minimal_prefixes": (oracle.bruteforce_minimal_prefixes, 1),
    "noninterval_to_prefix": (
        lambda i, n: trapezoid.noninterval_to_prefix((*range(2, i + 2), 1), n), 1),
}


@pytest.mark.parametrize("call, least", PREFIX_DOMAINS.values(), ids=PREFIX_DOMAINS.keys())
def test_prefix_lengths_run_from_their_least_value_to_n_minus_two(call, least):
    call(least, 3)
    call(4, 6)
    for i, n in ((least - 1, 3), (least, 2), (5, 6)):
        with pytest.raises(OutOfRange):
            call(i, n)


# -- every public callable, on malformed arguments --------------------------------

# values of the wrong kind: small ints where a sequence goes; floats, text,
# bytes or None where an int goes; and tuples or lists nesting any of them.
# Ints stay within -2..6 and containers within 6 entries, so no sweep or
# enumeration runs long.
_SCALARS = st.one_of(
    st.integers(-2, 6), st.floats(), st.text(max_size=3), st.binary(max_size=3), st.none()
)
_FLAT = st.lists(_SCALARS, max_size=6)
_JUNK = st.one_of(
    _SCALARS, _FLAT, _FLAT.map(tuple), st.lists(_FLAT.map(tuple), max_size=4).map(tuple)
)
# every public callable but the error types, which are raised, not called
_CALLABLES = [
    name for name in sswilf.__all__
    if callable(getattr(sswilf, name))
    and not (inspect.isclass(getattr(sswilf, name))
             and issubclass(getattr(sswilf, name), BaseException))
]


@pytest.mark.parametrize("name", _CALLABLES)
@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_only_wilf_errors_escape_the_public_api(name, data):
    func = getattr(sswilf, name)
    # workers > 1 would start a process pool per example
    params = [p for p in inspect.signature(func).parameters if p != "workers"]
    kwargs = {p: data.draw(_JUNK, label=p) for p in params}
    try:
        func(**kwargs)
    except WilfError:
        pass
