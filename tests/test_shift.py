import pytest

from sswilf.errors import InvalidMove, SizeMismatch
from sswilf.pyramid import is_ss_equivalent, pyramidal_sequence
from sswilf.shift import (
    RigidShiftMove,
    apply_rigid_shift,
    enumerate_rigid_shifts,
    find_witness,
    is_shift_equivalent,
    is_strong_shift_equivalent,
    reversal_invariant_members,
    shift_class,
    strong_shift_class,
)
from sswilf.words import identity, reversal

from conftest import brute_class_map, symmetric_group


class TestApply:
    def test_worked_example(self):
        assert apply_rigid_shift((3, 2, 4, 1, 5), RigidShiftMove(3, -2)) == (
            4, 2, 5, 1, 3,
        )

    def test_moves_are_reversible(self):
        u = (3, 2, 4, 1, 5)
        v = apply_rigid_shift(u, RigidShiftMove(3, -2))
        assert apply_rigid_shift(v, RigidShiftMove(3, 2)) == u

    def test_zero_offset_rejected_at_construction(self):
        with pytest.raises(InvalidMove):
            RigidShiftMove(3, 0)

    def test_bad_landing(self):
        # letter 5 would land on the column of height 1
        with pytest.raises(InvalidMove):
            apply_rigid_shift((3, 2, 4, 1, 5), RigidShiftMove(3, -1))

    def test_out_of_diagram(self):
        with pytest.raises(InvalidMove):
            apply_rigid_shift((3, 2, 4, 1, 5), RigidShiftMove(3, 1))

    def test_cut_above_everything_moves_nothing(self):
        u = (3, 2, 4, 1, 5)
        assert apply_rigid_shift(u, RigidShiftMove(5, 2)) == u

    def test_results_are_permutations(self):
        for u in symmetric_group(5):
            for _, r in enumerate_rigid_shifts(u):
                assert sorted(r) == [1, 2, 3, 4, 5]


class TestEnumerate:
    def test_includes_worked_move(self):
        found = dict(enumerate_rigid_shifts((3, 2, 4, 1, 5)))
        assert found[RigidShiftMove(3, -2)] == (4, 2, 5, 1, 3)

    def test_identity_has_moves_at_every_cut(self):
        moves = enumerate_rigid_shifts(identity(3))
        heights = {m.height for m, _ in moves}
        assert heights == {1, 2}

    def test_all_results_stay_in_the_class(self):
        for u in symmetric_group(5):
            for _, r in enumerate_rigid_shifts(u):
                assert is_ss_equivalent(u, r)

    def test_equals_a_scan_of_every_move(self):
        # every (height, offset) through apply_rigid_shift, in that order,
        # keeping the moves that do not raise and change something: a cut
        # below n moves a non-empty set of columns, which never lands on itself.
        # Both read one statement of each move rule, so they must agree both
        # ways: a listed move applies to its listed result, any other raises
        for n in range(1, 7):
            for u in symmetric_group(n):
                scanned = []
                for height in range(1, n + 1):
                    for offset in range(1 - n, n):
                        if offset == 0:
                            continue
                        move = RigidShiftMove(height, offset)
                        try:
                            r = apply_rigid_shift(u, move)
                        except InvalidMove:
                            continue
                        if r != u:
                            scanned.append((move, r))
                assert enumerate_rigid_shifts(u) == tuple(scanned)

    def test_mirror_takes_each_move_to_its_negated_offset(self):
        # the lemma the orbit oracle relies on, through its default limit S_7:
        # the moves of rev(u) are the moves (h, -d) of u, with results reversed
        for n in range(1, 8):
            for u in symmetric_group(n):
                mirrored = sorted(
                    (RigidShiftMove(h, -d), reversal(r))
                    for (h, d), r in enumerate_rigid_shifts(u)
                )
                assert enumerate_rigid_shifts(reversal(u)) == tuple(mirrored)


class TestStrongOrbit:
    def test_size_two(self):
        assert strong_shift_class((1, 2)) == {(1, 2), (2, 1)}

    def test_smallest_sizes(self):
        assert strong_shift_class((1,)) == shift_class((1,)) == {(1,)}
        for u in ((1, 2), (2, 1)):
            assert strong_shift_class(u) == shift_class(u) == {(1, 2), (2, 1)}

    def test_orbits_are_the_equivalence_classes(self):
        for n in range(2, 7):
            for levels, members in brute_class_map(n).items():
                orbit = strong_shift_class(members[0])
                assert orbit == set(members), levels

    def test_orbit_size_is_the_class_size(self):
        from sswilf.pyramid import class_size_exponent

        for u in symmetric_group(5):
            p = pyramidal_sequence(u)
            assert len(strong_shift_class(u)) == 2 ** class_size_exponent(p)


class TestShiftOrbit:
    def test_identity_class_is_mirror_closed(self):
        orbit = shift_class(identity(4))
        assert orbit == strong_shift_class(identity(4))
        assert len(orbit) == 8

    def test_number_of_orbits_of_s5(self):
        seen = set()
        count = 0
        for u in symmetric_group(5):
            if u in seen:
                continue
            seen |= shift_class(u)
            count += 1
        assert count == 21

    def test_exactly_two_reversal_invariant_classes(self):
        for n in range(3, 8):
            invariant = []
            for levels, members in brute_class_map(n).items():
                if {reversal(w) for w in members} == set(members):
                    invariant.append(members[0])
            assert len(invariant) == 2
            seeds = reversal_invariant_members(n)
            keys = {pyramidal_sequence(s) for s in seeds}
            assert {pyramidal_sequence(w) for w in invariant} == keys


class TestEquivalencePredicates:
    def test_worked_triple(self):
        assert is_shift_equivalent((3, 2, 4, 1, 5), (3, 1, 5, 2, 4))
        assert is_shift_equivalent((3, 2, 4, 1, 5), (4, 2, 5, 1, 3))
        assert not is_strong_shift_equivalent((3, 2, 4, 1, 5), (3, 1, 5, 2, 4))
        assert is_strong_shift_equivalent((3, 2, 4, 1, 5), (4, 2, 5, 1, 3))

    def test_reflexive(self):
        assert is_shift_equivalent((2, 1, 3), (2, 1, 3))

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            is_shift_equivalent((1, 2), (1, 2, 3))
        with pytest.raises(SizeMismatch):
            is_strong_shift_equivalent((1,), (1, 2))


class TestWitness:
    def test_single_move(self):
        path = find_witness((3, 2, 4, 1, 5), (4, 2, 5, 1, 3), with_reversals=False)
        u = (3, 2, 4, 1, 5)
        for move in path:
            u = apply_rigid_shift(u, move)
        assert u == (4, 2, 5, 1, 3)

    def test_reversal_step(self):
        path = find_witness((3, 2, 4, 1, 5), (3, 1, 5, 2, 4), with_reversals=True)
        u = (3, 2, 4, 1, 5)
        for move in path:
            u = reversal(u) if move == "reversal" else apply_rigid_shift(u, move)
        assert u == (3, 1, 5, 2, 4)

    def test_absent_witness(self):
        assert find_witness((1, 2, 3), (2, 1, 3), with_reversals=True) is None

    def test_empty_path(self):
        assert find_witness((2, 1, 3), (2, 1, 3), with_reversals=False) == []

    def test_every_witness_of_s5_replays(self):
        for with_reversals in (False, True):
            orbit = shift_class if with_reversals else strong_shift_class
            for u in symmetric_group(5):
                for v in orbit(u):
                    w = u
                    for move in find_witness(u, v, with_reversals):
                        w = reversal(w) if move == "reversal" else apply_rigid_shift(w, move)
                    assert w == v, (u, v, with_reversals)


def _distances_with_reversal_moves(u):
    """Plain breadth-first search in which the reversal is one more move:
    {member: distance from u}."""
    dist = {u: 0}
    level = [u]
    while level:
        deeper = []
        for x in level:
            for r in [r for _, r in enumerate_rigid_shifts(x)] + [reversal(x)]:
                if r not in dist:
                    dist[r] = dist[x] + 1
                    deeper.append(r)
        level = deeper
    return dist


class TestMirrorLemma:
    def test_orbits_predicates_and_witnesses_match_a_walk_that_reverses(self):
        # the walk never reverses; the lemma must make up for it exactly
        for n in range(2, 7):
            perms = list(symmetric_group(n))
            for u in perms:
                dist = _distances_with_reversal_moves(u)
                assert shift_class(u) == set(dist), u
                outside = [v for v in perms if v not in dist]
                for v in outside if n <= 4 else outside[:1]:
                    assert not is_shift_equivalent(u, v), (u, v)
                for v, d in dist.items():
                    assert is_shift_equivalent(u, v), (u, v)
                    path = find_witness(u, v, with_reversals=True)
                    assert len(path) == d, (u, v, path)
                    assert "reversal" not in path[:-1], (u, v, path)
                    w = u
                    for move in path:
                        w = reversal(w) if move == "reversal" else apply_rigid_shift(w, move)
                    assert w == v, (u, v, path)

    def test_reversal_of_a_large_class_costs_no_shift(self, monkeypatch):
        from sswilf import shift
        from sswilf.pyramid import class_size_exponent

        u = (2, 10, 9, 11, 12, 8, 7, 6, 5, 4, 3, 1)
        assert class_size_exponent(pyramidal_sequence(u)) == 9
        calls = []
        original = shift.enumerate_rigid_shifts
        monkeypatch.setattr(
            shift, "enumerate_rigid_shifts", lambda x: calls.append(x) or original(x)
        )
        assert find_witness(u, reversal(u), with_reversals=True) == ["reversal"]
        assert is_shift_equivalent(u, reversal(u))
        assert calls == []
