"""Set-up of one workload, as a fresh interpreter pays it.

    python3 perfbench/probe.py <workload>     (with the repository's src on PYTHONPATH)

Imports the package and runs the workload's warm-up, then exits.  The
benchmark times whole runs of this script for ``setup_s`` and calls
``warm_up`` itself before its timed loop.  The warm-up inputs are fixed and
small: they load every code path the timed operations use, nothing more.
"""
from __future__ import annotations

import sys


def warm_up(workload: str) -> None:
    if workload == "sweep":
        from sswilf import oracle

        oracle.bruteforce_ss_partition(6)
        for i in range(1, 5):
            oracle.bruteforce_minimal_prefixes(i, 6)
        for with_reversals in (False, True):
            oracle.bruteforce_shift_partition(5, with_reversals)
    elif workload == "queries":
        from sswilf import pyramid, shift, trapezoid, words

        u = words.parse_permutation("592738164")
        p = pyramid.pyramidal_sequence(u)
        pyramid.class_size_exponent(p)
        pyramid.canonical_member(p)
        pyramid.levels_from_key(pyramid.canonical_key(p))
        v = (1, 2, 3, 4, 5, 6, 8, 7, 9)
        pyramid.is_ss_equivalent(u, v)
        trapezoid.trapezoid_to_prefix(trapezoid.prefix_to_trapezoid((4, 5), 5))
        trapezoid.noninterval_to_prefix(trapezoid.prefix_to_noninterval((4, 5), 5), 5)
        shift.is_strong_shift_equivalent(u, v)
        shift.is_shift_equivalent(u, v)
        w = (1, 2, 4, 3, 5)
        shift.find_witness(w, w[::-1], True)
        shift.strong_shift_class(w)
    elif workload == "cli":
        from sswilf import cli

        cli.build_parser()
    else:
        raise SystemExit(f"unknown workload {workload!r}")


if __name__ == "__main__":
    warm_up(sys.argv[1])
