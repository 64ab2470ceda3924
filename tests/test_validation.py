"""Public calls reject malformed permutations with a UsageError, so the CLI
keeps exit code 2 for bad input instead of leaking IndexError or ValueError."""
import pytest

from sswilf import pyramid, shift, words
from sswilf.errors import UsageError

BAD_CALLS = {
    "inverse": lambda: words.inverse((2, 3)),
    "inverse_repeat": lambda: words.inverse((1, 1)),
    "un_reduce": lambda: words.un_reduce([1, 2], [3, 1]),
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
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_bad_permutation_raises_usage_error(call):
    with pytest.raises(UsageError):
        call()
