"""Each of the benchmark's output checks accepts a right answer and rejects a
corrupted one.

    PYTHONPATH=src python -m pytest -q perfbench
"""
from __future__ import annotations

import json
import sys
from itertools import permutations
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from sswilf import pyramid  # noqa: E402


def classes(n):
    """{pyramid: members} over S_n, by the reference pyramid."""
    groups = {}
    for u in permutations(range(1, n + 1)):
        groups.setdefault(ref.pyramid(u), []).append(u)
    return groups


def partition(n):
    groups = sorted(classes(n).values())
    reps = [g[0] for g in groups]
    sizes = [len(g) for g in groups]
    histogram = {}
    for size in sizes:
        j = size.bit_length() - 1
        histogram[j] = histogram.get(j, 0) + 1
    return len(groups), histogram, reps, sizes


def test_partition_check():
    count, histogram, reps, sizes = partition(5)
    assert ref.check_partition(5, count, histogram, reps, sizes) == []
    assert ref.check_partition(5, count + 1, histogram, reps, sizes)
    assert ref.check_partition(5, count, {**histogram, 1: histogram[1] - 1}, reps, sizes)
    assert ref.check_partition(5, count, histogram, reps, [sizes[1]] + sizes[1:])
    # a representative swapped for another member of a class already present
    members = classes(5)[ref.pyramid(reps[0])]
    assert ref.check_partition(5, count, histogram, [reps[0], members[-1]] + reps[2:], sizes)


def test_shift_partition_check():
    groups = classes(5)
    count, _, reps, sizes = partition(5)
    assert ref.check_shift_partition(5, False, count, reps, sizes) == []
    assert ref.check_shift_partition(5, False, count, reps, sizes[::-1])
    # with reversals each class joins its mirror class
    orbits = {}
    for p, members in groups.items():
        mirror = ref.pyramid(members[0][::-1])
        orbits.setdefault(min(p, mirror), set()).update(members, groups[mirror])
    merged = sorted(sorted(o) for o in orbits.values())
    reps = [o[0] for o in merged]
    sizes = [len(o) for o in merged]
    assert ref.check_shift_partition(5, True, len(merged), reps, sizes) == []
    assert ref.check_shift_partition(5, False, len(merged), reps, sizes)
    assert ref.check_shift_partition(5, True, len(merged), reps[:-1] + reps[:1], sizes)


def test_minimal_prefix_check():
    words = [w for w in permutations(range(1, 6), 2) if ref.is_minimal_prefix(w, 5)]
    assert words == [(2, 1), (2, 4), (4, 2), (4, 5)]
    assert ref.check_minimal_prefixes(2, 5, words) == []
    assert ref.check_minimal_prefixes(2, 5, words[1:])
    assert ref.check_minimal_prefixes(2, 5, words[:-1] + [(1, 2)])
    assert ref.check_minimal_prefixes(2, 5, words[:-1] + words[:1])


def test_orbit_and_witness_checks():
    u = (1, 2, 4, 3, 5)
    members = classes(5)[ref.pyramid(u)]
    assert ref.check_orbit(u, members) == []
    assert ref.check_orbit(u, members[1:])
    assert ref.check_orbit(u, members[:-1] + [(5, 4, 3, 2, 1)])
    assert ref.check_orbit(u, members, ref.exponent(ref.pyramid(u)) + 1)
    v = ref.rigid_shift((3, 2, 4, 1, 5), 3, -2)
    assert v == (4, 2, 5, 1, 3)
    assert ref.check_witness((3, 2, 4, 1, 5), v, [(3, -2)]) == []
    assert ref.check_witness((3, 2, 4, 1, 5), v, [(3, -1)])
    assert ref.check_witness((3, 2, 4, 1, 5), v[::-1], [(3, -2), "reversal"]) == []


def test_count_identities_check():
    by_exponent = {1: 6, 2: 1, 3: 1}
    assert ref.check_count_identities(4, 8, by_exponent) == []
    assert ref.check_count_identities(4, 9, by_exponent)
    assert ref.check_count_identities(4, 8, {1: 5, 2: 2, 3: 1})


# what a wrong library answer could look like, per query
CORRUPT = {
    "parse_permutation": lambda out: out[::-1],
    "pyramidal_sequence": lambda out: pyramid.pyramidal_sequence(
        tuple(range(1, out.n + 1))[::-1]),
    "class_size_exponent": lambda out: out + 1,
    "canonical_member": lambda out: out[::-1],
    "canonical_key": lambda out: pyramid.canonical_key(
        pyramid.pyramidal_sequence(tuple(range(1, len(out) + 1)))),
    "levels_from_key": lambda out: out[:-1] + ((out[-1][0] + 1,),),
    "is_ss_equivalent": lambda out: not out,
    "prefix_to_trapezoid": lambda out: SimpleNamespace(levels=out.levels[:-1]),
    "trapezoid_to_prefix": lambda out: out[::-1],
    "prefix_to_noninterval": lambda out: out[::-1],
    "noninterval_to_prefix": lambda out: out[::-1],
    "is_strong_shift_equivalent": lambda out: not out,
    "is_shift_equivalent": lambda out: not out,
    "find_witness": lambda out: (out or [])[:-1] if out else ["reversal"],
    "strong_shift_class": lambda out: sorted(out)[1:],
}


@pytest.fixture(scope="module")
def query_outputs():
    ops = workloads.query_ops(seed=5)
    return {op.label: (op, op.call(None)) for op in ops}


@pytest.mark.parametrize("label", sorted(CORRUPT))
def test_query_checks(query_outputs, label):
    op, out = query_outputs[label]
    assert op.check(out) == []
    assert op.check(CORRUPT[label](out))


def test_cli_checks():
    u = (5, 9, 2, 7, 3, 8, 1, 6, 4)
    levels = ref.pyramid(u)
    good = {"permutation": list(u), "levels": [list(v) for v in levels],
            "exponent": ref.exponent(levels), "class_size": 1 << ref.exponent(levels),
            "canonical_member": list(u)}
    check = workloads._check_pyramid(u)
    assert check(good) == []
    assert check({**good, "exponent": good["exponent"] + 1})
    assert check({**good, "canonical_member": list(u[::-1])})
    table = {"values": [{"i": i, "n": n, "value": v}
                        for (i, n), v in ref.CLASS_COUNTS_BY_EXPONENT.items()]}
    assert workloads._check_table(ref.CLASS_COUNTS_BY_EXPONENT)(table) == []
    table["values"][5]["value"] += 1
    assert workloads._check_table(ref.CLASS_COUNTS_BY_EXPONENT)(table)
    reps = sorted(g[0] for g in classes(8).values())
    assert workloads._check_reps({"members": reps}) == []
    assert workloads._check_reps({"members": reps[:-1] + reps[:1]})
    payload = workloads._payload(workloads._check_value(ref.CLASS_COUNTS[10]))
    assert payload(json.dumps({"value": ref.CLASS_COUNTS[10]}).encode()) == []
    assert payload(json.dumps({"value": ref.CLASS_COUNTS[10] + 2}).encode())
