"""Command-line interface.

Subcommands: pyramid, count, equiv, reps, prefixes, shift-orbit, oracle,
table.  All output is deterministic; ``--json`` switches every command to a
stable JSON rendering, which is built here and nowhere in the library.  Exit
codes: 0 success (or a true answer), 1 semantic mismatch (oracle
disagreement, or a false answer under ``--strict``), 2 usage or parse errors,
3 broken internal invariants.

One table, ``_FAMILIES``, gives each count family's function, row parameter
and table domain; ``count``, ``count --table`` and ``table 1``-``4`` all read
it.  The oracle's checks and their default limits come from ``oracle.LIMITS``.

Only the counting recurrences load with this module, since ``_FAMILIES``
binds them; every other command imports the library module it needs when it
runs, so starting ``wilf`` pays for that module alone.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import counting, words
from .errors import InternalError, UsageError

_DEFAULT_REPS_LIMIT = 9
# n = 10 lists at most 1,114,944 prefixes (i = 8), n = 11 up to 1.3e7 and n = 12 1.6e8
_DEFAULT_PREFIXES_LIMIT = 10


def _fmt(value: int, args) -> str:
    return f"{value:,}" if args.thousands else str(value)


def _emit_json(payload) -> None:
    # json.dumps renders the library's tuples as arrays, so payloads hold them
    print(json.dumps(payload, sort_keys=True))


def _emit_words(args, payload: dict, key: str, ws) -> None:
    """Print the words ``ws`` one per line, or with ``--json`` ``payload``
    with them under ``key``."""
    if args.json:
        _emit_json({**payload, key: ws})
    else:
        for w in ws:
            print(words.format_word(w))


# -- pyramid ------------------------------------------------------------------

def _cmd_pyramid(args) -> int:
    u = words.parse_permutation(args.perm)
    n = len(u)
    if n == 1:  # the single letter has no levels and a class of its own
        levels, j, member = (), 0, u
    else:
        from . import pyramid

        p = pyramid.pyramidal_sequence(u)
        levels, j = p.levels, pyramid.class_size_exponent(p)
        member = pyramid.canonical_member(p)
    if args.json:
        _emit_json(
            {
                "permutation": u,
                "levels": levels,
                "exponent": j,
                "class_size": 2**j,
                "canonical_member": member,
            },
        )
    elif n == 1:
        print("the single-letter permutation has an empty pyramid")
    else:
        print(f"pyramid of {words.format_word(u)} (size {n}):")
        for i in range(n - 1, 0, -1):
            gaps = ", ".join(str(e) for e in levels[i - 1])
            print(f"  level {i}: ({gaps})")
        print(f"class size: 2^{j} = {2**j}")
        print(f"canonical member: {words.format_word(member)}")
    return 0


# -- count --------------------------------------------------------------------

# family: (fn, row parameter, least n, first row, distance of the last row
# below n).  With a row parameter a cell is fn(row, n) for rows first..n-below;
# without one it is fn(n), and the last two entries are unused.
_FAMILIES = {
    "s": (counting.class_count, None, 1, 0, 0),
    "sh": (counting.shift_class_count, None, 1, 0, 0),
    "a": (counting.noninterval_count, None, 2, 0, 0),
    "d": (counting.minimal_prefix_count, "i", 3, 1, 2),
    "p": (counting.periodic_prefix_count, "i", 3, 0, 2),
    "sjn": (counting.class_count_by_exponent, "j", 2, 1, 1),
}


def _count_table(family: str, n_max: int, args) -> int:
    fn, row, least, first, below = _FAMILIES[family]
    n_max = words.as_size(n_max, "n_max", least)  # a table with no column shows nothing
    cols = range(least, n_max + 1)
    if row is None:
        rows = [family]
        cells = {(family, n): fn(n) for n in cols}
    else:
        rows = range(first, n_max - below + 1)
        cells = {(r, n): fn(r, n) for n in cols for r in range(first, n - below + 1)}
    if args.json:
        # every row parameter is keyed "i", which readers of the tables rely on
        _emit_json({"family": family, "values": [
            {"n": n, "value": v} if row is None else {"i": r, "n": n, "value": v}
            for (r, n), v in sorted(cells.items())
        ]})
        return 0
    lines = [["n" if row is None else row + "\\n"] + [str(n) for n in cols]]
    for r in rows:
        lines.append(
            [str(r)] + [_fmt(cells[r, n], args) if (r, n) in cells else "" for n in cols]
        )
    widths = [max(len(text) for text in column) for column in zip(*lines)]
    for line in lines:
        print("  ".join(text.rjust(w) for text, w in zip(line, widths)))
    return 0


def _cmd_count(args) -> int:
    family = args.family
    if args.table:
        return _count_table(family, args.n_max, args)
    fn, row = _FAMILIES[family][:2]
    if args.n is None:
        raise UsageError(f"count {family} needs --n")
    payload = {"family": family, "n": args.n}
    if row is None:
        value = fn(args.n)
    else:
        payload[row] = getattr(args, row)
        if payload[row] is None:
            raise UsageError(f"count {family} needs --{row}")
        value = fn(payload[row], args.n)
    if args.json:
        _emit_json({**payload, "value": value})
    else:
        print(_fmt(value, args))
    return 0


# -- equiv --------------------------------------------------------------------

def _cmd_equiv(args) -> int:
    u = words.parse_permutation(args.u)
    v = words.parse_permutation(args.v)
    relation = args.relation
    witness = None
    if relation == "ss":
        from . import pyramid

        answer = pyramid.is_ss_equivalent(u, v)
    else:
        from . import shift

        # one walk answers and, on request, gives the witness it found
        found = shift.find_witness(u, v, with_reversals=relation == "shift")
        answer = found is not None
        if args.witness:
            witness = found
    if args.json:
        payload = {
            "u": u,
            "v": v,
            "relation": relation,
            "equivalent": answer,
        }
        if witness is not None:
            payload["witness"] = [
                "reversal" if m == "reversal" else {"height": m.height, "offset": m.offset}
                for m in witness
            ]
        _emit_json(payload)
    else:
        print("true" if answer else "false")
        if witness is not None:
            for m in witness:
                if m == "reversal":
                    print("reversal")
                else:
                    print(f"cut {m.height} shift {m.offset:+d}")
    if args.strict and not answer:
        return 1
    return 0


# -- reps ---------------------------------------------------------------------

def _cmd_reps(args) -> int:
    from . import representatives

    n = args.n
    words.enforce_limit(n, args.limit, _DEFAULT_REPS_LIMIT)
    records = representatives.decompositions(n)
    members = [words._invert(w) if args.invert else w for w, _ in records]
    if not args.decompose:
        _emit_words(args, {"n": n}, "members", members)
    elif args.json:
        _emit_json({"n": n, "members": members, "decompositions": [
            {"i": i, "prefix": u, "pattern": tau} for _, (i, u, tau) in records
        ]})
    else:
        for member, (_, (i, u, tau)) in zip(members, records):
            if i:
                print(
                    f"{words.format_word(member)}  prefix={words.format_word(u)} "
                    f"tail={words.format_word(tau)} i={i}"
                )
            else:
                print(words.format_word(member))
    return 0


# -- prefixes -----------------------------------------------------------------

def _cmd_prefixes(args) -> int:
    from . import trapezoid

    words.enforce_limit(args.n, args.limit, _DEFAULT_PREFIXES_LIMIT)
    members = trapezoid.minimal_prefixes(args.i, args.n)
    _emit_words(args, {"i": args.i, "n": args.n}, "members", members)
    return 0


# -- shift-orbit --------------------------------------------------------------

def _cmd_shift_orbit(args) -> int:
    from . import shift

    u = words.parse_permutation(args.perm)
    orbit = (
        shift.shift_class(u) if args.with_reversals else shift.strong_shift_class(u)
    )
    payload = {"permutation": u, "with_reversals": args.with_reversals}
    _emit_words(args, payload, "orbit", sorted(orbit))
    return 0


# -- oracle -------------------------------------------------------------------

def _cmd_oracle(args) -> int:
    from . import oracle

    if args.check == "all":
        checks = tuple(oracle.LIMITS)
    elif args.check in oracle.LIMITS:
        checks = (args.check,)
    else:
        names = ", ".join((*oracle.LIMITS, "all"))
        raise UsageError(f"unknown check {args.check!r}; choose from {names}")
    mismatches: list[str] = []
    for check in checks:  # refuse a size out of range before sweeping anything
        oracle._check_sizes(check, args.n_max, args.limit)
    for check in checks:
        if check == "ss":
            found = oracle.check_ss(args.n_max, workers=args.workers, limit=args.limit)
        elif check == "prefixes":
            found = oracle.check_prefixes(args.n_max, limit=args.limit)
        else:
            found = oracle.check_shift(args.n_max, limit=args.limit)
        mismatches.extend(f"{check}: {m}" for m in found)
        if not args.json:
            status = "ok" if not found else f"{len(found)} mismatches"
            print(f"check {check} up to n={args.n_max}: {status}")
    if args.json:
        _emit_json(
            {
                "checks": checks,
                "n_max": args.n_max,
                "mismatches": mismatches,
            },
        )
    else:
        for m in mismatches:
            print(f"MISMATCH {m}")
    return 1 if mismatches else 0


# -- table --------------------------------------------------------------------

def _cmd_table(args) -> int:
    k = args.which
    if k <= 4:
        family = ("d", "s", "sh", "sjn")[k - 1]
        return _count_table(family, 12 if args.n_max is None else args.n_max, args)
    from . import representatives

    n_max = words.as_size(6 if args.n_max is None else args.n_max, "n_max", 3)
    words.enforce_limit(n_max, None, _DEFAULT_REPS_LIMIT)
    if args.json:
        _emit_json(
            {
                "table": 5,
                "sets": {
                    str(n): representatives.inverse_representatives(n)
                    for n in range(3, n_max + 1)
                },
            },
        )
        return 0
    for n in range(3, n_max + 1):
        print(f"n={n}:")
        for w in representatives.inverse_representatives(n):
            print(f"  {words.format_word(w)}")
    return 0


# -- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON")
    common.add_argument(
        "--thousands", action="store_true", help="group digits of large numbers"
    )

    parser = argparse.ArgumentParser(
        prog="wilf",
        description="Equivalence classes of permutations: invariants, counts, "
        "representatives, shift orbits, and brute-force cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pyramid", parents=[common], help="pyramid of a permutation")
    p.add_argument("perm", help="permutation text, e.g. 592738164 or '5 9 2 ...'")
    p.set_defaults(func=_cmd_pyramid)

    p = sub.add_parser("count", parents=[common], help="exact counts")
    p.add_argument("family", choices=sorted(_FAMILIES))
    p.add_argument("--n", type=int)
    p.add_argument("--i", type=int)
    p.add_argument("--j", type=int)
    p.add_argument("--table", action="store_true", help="print the whole table")
    p.add_argument("--n-max", type=int, default=12, dest="n_max")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("equiv", parents=[common], help="test an equivalence")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument(
        "--relation", choices=("ss", "strong-shift", "shift"), required=True
    )
    p.add_argument("--witness", action="store_true", help="print a move sequence")
    p.add_argument("--strict", action="store_true", help="exit 1 on false")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("reps", parents=[common], help="class representatives")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--invert", action="store_true", help="print the inverses")
    p.add_argument("--decompose", action="store_true", help="annotate the assembly")
    p.add_argument("--limit", type=int, help="raise the size guard")
    p.set_defaults(func=_cmd_reps)

    p = sub.add_parser(
        "prefixes", parents=[common], help="minimal periodic-complement prefixes"
    )
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--limit", type=int, help="raise the size guard")
    p.set_defaults(func=_cmd_prefixes)

    p = sub.add_parser(
        "shift-orbit", parents=[common], help="orbit under rigid shifts"
    )
    p.add_argument("perm")
    p.add_argument(
        "--with-reversals",
        action="store_true",
        dest="with_reversals",
        help="also close under reversal",
    )
    p.set_defaults(func=_cmd_shift_orbit)

    p = sub.add_parser(
        "oracle", parents=[common], help="brute force vs recurrences"
    )
    # checked against oracle.LIMITS when the command runs, not on every start
    p.add_argument("--check", default="all", help="the cross-check to run (default: all)")
    p.add_argument("--n-max", type=int, default=7, dest="n_max")
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="sweep S_n in this many blocks on a process pool (default: 1); "
        "on 2 CPUs more than 1 is slower, as the parent merges every block",
    )
    p.add_argument("--limit", type=int, help="raise the sweep size guard")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("table", parents=[common], help="print a whole table")
    p.add_argument("which", type=int, choices=(1, 2, 3, 4, 5))
    p.add_argument(
        "--n-max", type=int, dest="n_max", help="largest size (12; 6 for table 5)"
    )
    p.set_defaults(func=_cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
