"""The library's record types: pyramids, trapezoids, rigid-shift moves and
partition reports are immutable values, equal and hashed by their fields,
with a keyword repr, and their constructors reject bad fields."""
import random

import pytest

from sswilf.errors import InvalidMove, InvalidPyramid, InvalidTrapezoid
from sswilf.kernel import sweep_block
from sswilf.oracle import ClassPartitionReport, _finish_report, bruteforce_ss_partition
from sswilf.pyramid import PyramidalSequence, pyramidal_sequence
from sswilf.shift import RigidShiftMove
from sswilf.trapezoid import TrapezoidalSequence, prefix_to_trapezoid

PYRAMID_LEVELS = ((1, 1), (2,))
TRAPEZOID_LEVELS = ((1, 1, 1, 1), (1, 1, 2), (1, 1))  # the tower of (4, 5) over 1..5


@pytest.mark.parametrize(
    "value, field",
    [
        (PyramidalSequence(PYRAMID_LEVELS), "levels"),
        (TrapezoidalSequence(TRAPEZOID_LEVELS), "levels"),
        (TrapezoidalSequence(TRAPEZOID_LEVELS), "height"),
        (RigidShiftMove(3, -2), "height"),
        (RigidShiftMove(3, -2), "offset"),
        (bruteforce_ss_partition(3), "class_count"),
    ],
)
def test_fields_cannot_be_assigned(value, field):
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, field, 1)
    assert repr(value) == before


@pytest.mark.parametrize(
    "value", [PyramidalSequence(PYRAMID_LEVELS), RigidShiftMove(3, -2)]
)
def test_no_new_attributes(value):
    with pytest.raises(AttributeError):
        value.extra = 1


class TestEqualityAndHash:
    def test_pyramids_follow_levels(self):
        built = pyramidal_sequence((2, 1, 3))
        checked = PyramidalSequence([[1, 1], [2]])
        assert built == checked and hash(built) == hash(checked)
        assert built != pyramidal_sequence((1, 3, 2))
        assert len({built, checked, pyramidal_sequence((1, 3, 2))}) == 2

    def test_trapezoids_follow_levels(self):
        built = prefix_to_trapezoid((4, 5), 5)
        checked = TrapezoidalSequence(TRAPEZOID_LEVELS)
        assert built == checked and hash(built) == hash(checked)
        assert built != prefix_to_trapezoid((2, 1), 5)

    def test_a_pyramid_is_not_a_trapezoid(self):
        # the two classes hold the same kind of levels but are different values
        levels = ((1, 1, 1), (2, 1), (3,))
        assert PyramidalSequence(levels) != TrapezoidalSequence(levels)

    def test_moves_follow_fields(self):
        assert RigidShiftMove(3, -2) == RigidShiftMove(height=3, offset=-2)
        assert hash(RigidShiftMove(3, -2)) == hash(RigidShiftMove(3, -2))
        assert RigidShiftMove(3, -2) != RigidShiftMove(3, 2)
        assert len({RigidShiftMove(1, 1), RigidShiftMove(1, 1), RigidShiftMove(2, 1)}) == 2

    def test_reports_follow_fields(self):
        assert bruteforce_ss_partition(4) == bruteforce_ss_partition(4)
        assert bruteforce_ss_partition(4) != bruteforce_ss_partition(3)


class TestRepr:
    def test_pyramid(self):
        assert repr(PyramidalSequence(PYRAMID_LEVELS)) == (
            "PyramidalSequence(levels=((1, 1), (2,)))"
        )

    def test_trapezoid(self):
        assert repr(prefix_to_trapezoid((4, 5), 5)) == (
            "TrapezoidalSequence(levels=((1, 1, 1, 1), (1, 1, 2), (1, 1)))"
        )

    def test_move(self):
        assert repr(RigidShiftMove(3, -2)) == "RigidShiftMove(height=3, offset=-2)"

    def test_report(self):
        assert repr(bruteforce_ss_partition(3)) == (
            "ClassPartitionReport(n=3, class_count=2, size_histogram={1: 1, 2: 1}, "
            "classes=((b'\\x01\\x00\\x01\\x01\\x00', 4, (1, 2, 3)), "
            "(b'\\x02\\x00\\x01\\x01\\x00', 2, (2, 1, 3))))"
        )
        assert isinstance(bruteforce_ss_partition(3), ClassPartitionReport)

    def test_report_ignores_row_order(self):
        # the orbit BFS hands its rows in its own order: the report must not show it
        rows = sweep_block(5, 0, 120)
        shuffled = list(rows)
        random.Random(5).shuffle(shuffled)
        forward = _finish_report(5, list(rows))
        assert len(forward.size_histogram) > 1
        assert repr(_finish_report(5, rows[::-1])) == repr(forward)
        assert repr(_finish_report(5, shuffled)) == repr(forward)


def test_moves_sort_by_height_then_offset():
    moves = [RigidShiftMove(3, 1), RigidShiftMove(1, 2), RigidShiftMove(3, -2),
             RigidShiftMove(1, -1)]
    assert sorted(moves) == [RigidShiftMove(1, -1), RigidShiftMove(1, 2),
                             RigidShiftMove(3, -2), RigidShiftMove(3, 1)]
    assert max(moves) == RigidShiftMove(3, 1)


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda: PyramidalSequence(((1, 1), (3,))), InvalidPyramid),
        (lambda: PyramidalSequence(((1, 1, 1), (2, 1))), InvalidPyramid),
        (lambda: PyramidalSequence(levels=()), InvalidPyramid),
        (lambda: TrapezoidalSequence(((1, 1, 1, 1), (1, 1, 1), (1, 1))), InvalidTrapezoid),
        (lambda: TrapezoidalSequence(((1, 1, 1), (1, 2))), InvalidTrapezoid),
        (lambda: RigidShiftMove(0, 1), InvalidMove),
        (lambda: RigidShiftMove(2, 0), InvalidMove),
        (lambda: RigidShiftMove(height=2, offset=None), InvalidMove),
    ],
)
def test_constructors_still_check(make, error):
    with pytest.raises(error):
        make()
