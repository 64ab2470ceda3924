import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sswilf
from sswilf.cli import main


# What the count, table and listing commands print, byte for byte; a JSON
# payload is printed as json.dumps(payload, sort_keys=True).
GOLDEN_TEXT = {
    "count s --table --n-max 5": (
        "n  1  2  3  4   5\n"
        "s  1  1  2  8  40\n"
    ),
    "count sh --table --n-max 5": (
        " n  1  2  3  4   5\n"
        "sh  1  1  2  5  21\n"
    ),
    "count a --table --n-max 5": (
        "n  2  3  4   5\n"
        "a  2  2  8  44\n"
    ),
    "count d --table --n-max 5": (
        "i\\n  3  4   5\n"
        "  1  3  2   2\n"
        "  2     6   4\n"
        "  3        24\n"
    ),
    "count p --table --n-max 5": (
        "i\\n  3   4   5\n"
        "  0  1   1   1\n"
        "  1  3   2   2\n"
        "  2     12   8\n"
        "  3         60\n"
    ),
    "count sjn --table --n-max 5": (
        "j\\n  2  3  4   5\n"
        "  1  1  1  6  28\n"
        "  2     1  1  10\n"
        "  3        1   1\n"
        "  4            1\n"
    ),
    "count s --n 7": "1860\n",
    "count sh --n 7": "931\n",
    "count a --n 7": "2312\n",
    "count d --i 3 --n 7": "14\n",
    "count p --i 2 --n 7": "6\n",
    "count sjn --j 3 --n 7": "62\n",
    "table 1 --n-max 6": (
        "i\\n  3  4   5    6\n"
        "  1  3  2   2    2\n"
        "  2     6   4    2\n"
        "  3        24   16\n"
        "  4            168\n"
    ),
    "table 2 --n-max 6": (
        "n  1  2  3  4   5    6\n"
        "s  1  1  2  8  40  256\n"
    ),
    "table 3 --n-max 6": (
        " n  1  2  3  4   5    6\n"
        "sh  1  1  2  5  21  129\n"
    ),
    "table 4 --n-max 6": (
        "j\\n  2  3  4   5    6\n"
        "  1  1  1  6  28  196\n"
        "  2     1  1  10   46\n"
        "  3        1   1   12\n"
        "  4            1    1\n"
        "  5                 1\n"
    ),
    "pyramid 592738164": (
        "pyramid of 592738164 (size 9):\n"
        "  level 8: (4)\n"
        "  level 7: (2, 2)\n"
        "  level 6: (2, 2, 2)\n"
        "  level 5: (1, 2, 2, 2)\n"
        "  level 4: (1, 2, 2, 2, 1)\n"
        "  level 3: (1, 2, 1, 1, 2, 1)\n"
        "  level 2: (1, 1, 1, 1, 1, 2, 1)\n"
        "  level 1: (1, 1, 1, 1, 1, 1, 1, 1)\n"
        "class size: 2^2 = 4\n"
        "canonical member: 562837194\n"
    ),
    "pyramid 1": "the single-letter permutation has an empty pyramid\n",
    "equiv 32415 42513 --relation shift --witness": "true\ncut 3 shift -2\n",
    "reps --n 4 --decompose": (
        "1234  prefix=1 tail=123 i=1\n"
        "1324  prefix=1 tail=213 i=1\n"
        "2134  prefix=21 tail=12 i=2\n"
        "2314  prefix=23 tail=12 i=2\n"
        "2413  prefix=24 tail=12 i=2\n"
        "3124  prefix=31 tail=12 i=2\n"
        "3214  prefix=32 tail=12 i=2\n"
        "3412  prefix=34 tail=12 i=2\n"
    ),
    "reps --n 4 --invert": "1234\n1324\n2134\n3124\n3142\n2314\n3214\n3412\n",
    "prefixes --i 2 --n 5": "21\n24\n42\n45\n",
    "shift-orbit 32415 --with-reversals": (
        "31425\n31524\n32415\n32514\n41523\n42513\n51423\n52413\n"
    ),
    "table 5 --n-max 4": (
        "n=3:\n  123\n  213\n"
        "n=4:\n  1234\n  1324\n  2134\n  2314\n  2413\n  3124\n  3214\n  3412\n"
    ),
    "oracle --check all --n-max 4": (
        "check ss up to n=4: ok\n"
        "check prefixes up to n=4: ok\n"
        "check shift up to n=4: ok\n"
    ),
}
GOLDEN_JSON = {
    "count s --table --n-max 5": {"family": "s", "values": [
        {"n": 1, "value": 1}, {"n": 2, "value": 1}, {"n": 3, "value": 2},
        {"n": 4, "value": 8}, {"n": 5, "value": 40},
    ]},
    "count sh --table --n-max 5": {"family": "sh", "values": [
        {"n": 1, "value": 1}, {"n": 2, "value": 1}, {"n": 3, "value": 2},
        {"n": 4, "value": 5}, {"n": 5, "value": 21},
    ]},
    "count a --table --n-max 5": {"family": "a", "values": [
        {"n": 2, "value": 2}, {"n": 3, "value": 2}, {"n": 4, "value": 8},
        {"n": 5, "value": 44},
    ]},
    "count d --table --n-max 5": {"family": "d", "values": [
        {"i": 1, "n": 3, "value": 3}, {"i": 1, "n": 4, "value": 2},
        {"i": 1, "n": 5, "value": 2}, {"i": 2, "n": 4, "value": 6},
        {"i": 2, "n": 5, "value": 4}, {"i": 3, "n": 5, "value": 24},
    ]},
    "count p --table --n-max 5": {"family": "p", "values": [
        {"i": 0, "n": 3, "value": 1}, {"i": 0, "n": 4, "value": 1},
        {"i": 0, "n": 5, "value": 1}, {"i": 1, "n": 3, "value": 3},
        {"i": 1, "n": 4, "value": 2}, {"i": 1, "n": 5, "value": 2},
        {"i": 2, "n": 4, "value": 12}, {"i": 2, "n": 5, "value": 8},
        {"i": 3, "n": 5, "value": 60},
    ]},
    # rows keyed "i", not "j": perfbench/workloads.py::_check_table reads c["i"]
    "count sjn --table --n-max 5": {"family": "sjn", "values": [
        {"i": 1, "n": 2, "value": 1}, {"i": 1, "n": 3, "value": 1},
        {"i": 1, "n": 4, "value": 6}, {"i": 1, "n": 5, "value": 28},
        {"i": 2, "n": 3, "value": 1}, {"i": 2, "n": 4, "value": 1},
        {"i": 2, "n": 5, "value": 10}, {"i": 3, "n": 4, "value": 1},
        {"i": 3, "n": 5, "value": 1}, {"i": 4, "n": 5, "value": 1},
    ]},
    "count s --n 7": {"family": "s", "n": 7, "value": 1860},
    "count sh --n 7": {"family": "sh", "n": 7, "value": 931},
    "count a --n 7": {"family": "a", "n": 7, "value": 2312},
    "count d --i 3 --n 7": {"family": "d", "i": 3, "n": 7, "value": 14},
    "count p --i 2 --n 7": {"family": "p", "i": 2, "n": 7, "value": 6},
    "count sjn --j 3 --n 7": {"family": "sjn", "j": 3, "n": 7, "value": 62},
    "table 1 --n-max 6": {"family": "d", "values": [
        {"i": 1, "n": 3, "value": 3}, {"i": 1, "n": 4, "value": 2},
        {"i": 1, "n": 5, "value": 2}, {"i": 1, "n": 6, "value": 2},
        {"i": 2, "n": 4, "value": 6}, {"i": 2, "n": 5, "value": 4},
        {"i": 2, "n": 6, "value": 2}, {"i": 3, "n": 5, "value": 24},
        {"i": 3, "n": 6, "value": 16}, {"i": 4, "n": 6, "value": 168},
    ]},
    "table 2 --n-max 6": {"family": "s", "values": [
        {"n": 1, "value": 1}, {"n": 2, "value": 1}, {"n": 3, "value": 2},
        {"n": 4, "value": 8}, {"n": 5, "value": 40}, {"n": 6, "value": 256},
    ]},
    "table 3 --n-max 6": {"family": "sh", "values": [
        {"n": 1, "value": 1}, {"n": 2, "value": 1}, {"n": 3, "value": 2},
        {"n": 4, "value": 5}, {"n": 5, "value": 21}, {"n": 6, "value": 129},
    ]},
    "table 4 --n-max 6": {"family": "sjn", "values": [
        {"i": 1, "n": 2, "value": 1}, {"i": 1, "n": 3, "value": 1},
        {"i": 1, "n": 4, "value": 6}, {"i": 1, "n": 5, "value": 28},
        {"i": 1, "n": 6, "value": 196}, {"i": 2, "n": 3, "value": 1},
        {"i": 2, "n": 4, "value": 1}, {"i": 2, "n": 5, "value": 10},
        {"i": 2, "n": 6, "value": 46}, {"i": 3, "n": 4, "value": 1},
        {"i": 3, "n": 5, "value": 1}, {"i": 3, "n": 6, "value": 12},
        {"i": 4, "n": 5, "value": 1}, {"i": 4, "n": 6, "value": 1},
        {"i": 5, "n": 6, "value": 1},
    ]},
    "pyramid 592738164": {
        "permutation": [5, 9, 2, 7, 3, 8, 1, 6, 4],
        "levels": [
            [1, 1, 1, 1, 1, 1, 1, 1], [1, 1, 1, 1, 1, 2, 1], [1, 2, 1, 1, 2, 1],
            [1, 2, 2, 2, 1], [1, 2, 2, 2], [2, 2, 2], [2, 2], [4],
        ],
        "exponent": 2, "class_size": 4,
        "canonical_member": [5, 6, 2, 8, 3, 7, 1, 9, 4],
    },
    "pyramid 1": {
        "permutation": [1], "levels": [], "exponent": 0, "class_size": 1,
        "canonical_member": [1],
    },
    "equiv 32415 42513 --relation shift --witness": {
        "u": [3, 2, 4, 1, 5], "v": [4, 2, 5, 1, 3], "relation": "shift",
        "equivalent": True, "witness": [{"height": 3, "offset": -2}],
    },
    "reps --n 4 --decompose": {
        "n": 4,
        "members": [
            [1, 2, 3, 4], [1, 3, 2, 4], [2, 1, 3, 4], [2, 3, 1, 4],
            [2, 4, 1, 3], [3, 1, 2, 4], [3, 2, 1, 4], [3, 4, 1, 2],
        ],
        "decompositions": [
            {"i": 1, "prefix": [1], "pattern": [1, 2, 3]},
            {"i": 1, "prefix": [1], "pattern": [2, 1, 3]},
            {"i": 2, "prefix": [2, 1], "pattern": [1, 2]},
            {"i": 2, "prefix": [2, 3], "pattern": [1, 2]},
            {"i": 2, "prefix": [2, 4], "pattern": [1, 2]},
            {"i": 2, "prefix": [3, 1], "pattern": [1, 2]},
            {"i": 2, "prefix": [3, 2], "pattern": [1, 2]},
            {"i": 2, "prefix": [3, 4], "pattern": [1, 2]},
        ],
    },
    "reps --n 4 --invert": {"n": 4, "members": [
        [1, 2, 3, 4], [1, 3, 2, 4], [2, 1, 3, 4], [3, 1, 2, 4],
        [3, 1, 4, 2], [2, 3, 1, 4], [3, 2, 1, 4], [3, 4, 1, 2],
    ]},
    "prefixes --i 2 --n 5": {
        "i": 2, "n": 5, "members": [[2, 1], [2, 4], [4, 2], [4, 5]],
    },
    "shift-orbit 32415 --with-reversals": {
        "permutation": [3, 2, 4, 1, 5], "with_reversals": True,
        "orbit": [
            [3, 1, 4, 2, 5], [3, 1, 5, 2, 4], [3, 2, 4, 1, 5], [3, 2, 5, 1, 4],
            [4, 1, 5, 2, 3], [4, 2, 5, 1, 3], [5, 1, 4, 2, 3], [5, 2, 4, 1, 3],
        ],
    },
    "table 5 --n-max 4": {"table": 5, "sets": {
        "3": [[1, 2, 3], [2, 1, 3]],
        "4": [
            [1, 2, 3, 4], [1, 3, 2, 4], [2, 1, 3, 4], [2, 3, 1, 4],
            [2, 4, 1, 3], [3, 1, 2, 4], [3, 2, 1, 4], [3, 4, 1, 2],
        ],
    }},
    "oracle --check all --n-max 4": {
        "checks": ["ss", "prefixes", "shift"], "n_max": 4, "mismatches": [],
    },
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPyramidCommand:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "pyramid", "592738164")
        assert code == 0
        lines = out.splitlines()
        assert lines[1].strip() == "level 8: (4)"
        assert lines[-2] == "class size: 2^2 = 4"
        assert lines[-1] == "canonical member: 562837194"

    def test_singleton_notice(self, capsys):
        code, out, _ = run(capsys, "pyramid", "1")
        assert code == 0 and "empty pyramid" in out

    def test_parse_failure_exits_two(self, capsys):
        # "²", "³" and "٢" pass str.isdigit() but are not ASCII digits;
        # int() would read "٢", "1_0" and "+2"
        for text in ("122", "²", "³21", "٢,١", "1_0 1 2 3 4 5 6 7 8 9", "+2 1"):
            code, _, err = run(capsys, "pyramid", text)
            assert code == 2 and "error" in err, text

    def test_json_levels_start_at_the_base(self, capsys):
        code, out, _ = run(capsys, "pyramid", "1324", "--json")
        payload = json.loads(out)
        assert payload["levels"] == [[1, 1, 1], [1, 1], [2]]
        assert payload["class_size"] == 4

    def test_json_singleton(self, capsys):
        code, out, _ = run(capsys, "pyramid", "1", "--json")
        assert code == 0
        assert json.loads(out) == {
            "permutation": [1], "levels": [], "exponent": 0, "class_size": 1,
            "canonical_member": [1],
        }


class TestCountCommand:
    def test_single_value(self, capsys):
        code, out, _ = run(capsys, "count", "s", "--n", "10")
        assert code == 0 and out.strip() == "1490564"

    def test_thousands(self, capsys):
        code, out, _ = run(capsys, "count", "s", "--n", "10", "--thousands")
        assert out.strip() == "1,490,564"

    def test_prefix_cell(self, capsys):
        code, out, _ = run(capsys, "count", "d", "--i", "5", "--n", "10")
        assert out.strip() == "488"

    def test_table_layout(self, capsys):
        code, out, _ = run(capsys, "count", "d", "--table", "--n-max", "6")
        rows = [line.split() for line in out.splitlines()]
        assert rows[0] == ["i\\n", "3", "4", "5", "6"]
        assert rows[1] == ["1", "3", "2", "2", "2"]
        assert rows[4][0] == "4" and rows[4][-1] == "168"

    def test_out_of_range_exits_two(self, capsys):
        code, _, err = run(capsys, "count", "d", "--i", "9", "--n", "5")
        assert code == 2

    def test_missing_parameter_exits_two(self, capsys):
        for argv, option in (
            (("s",), "--n"), (("d", "--n", "5"), "--i"), (("p", "--n", "5"), "--i"),
            (("sjn", "--n", "5"), "--j"), (("sjn", "--j", "2"), "--n"),
        ):
            code, out, err = run(capsys, "count", *argv)
            assert (code, out) == (2, "") and err.endswith(f"needs {option}\n"), argv

    def test_json_single(self, capsys):
        code, out, _ = run(capsys, "count", "sh", "--n", "5", "--json")
        assert json.loads(out) == {"family": "sh", "n": 5, "value": 21}

    def test_json_sequence_table(self, capsys):
        code, out, _ = run(capsys, "count", "s", "--table", "--n-max", "4", "--json")
        payload = json.loads(out)
        assert payload["values"][-1] == {"n": 4, "value": 8}


@pytest.mark.parametrize("command", GOLDEN_TEXT)
def test_golden_text(capsys, command):
    assert run(capsys, *command.split()) == (0, GOLDEN_TEXT[command], "")


@pytest.mark.parametrize("command", GOLDEN_JSON)
def test_golden_json(capsys, command):
    printed = json.dumps(GOLDEN_JSON[command], sort_keys=True) + "\n"
    assert run(capsys, *command.split(), "--json") == (0, printed, "")


class TestEquivCommand:
    def test_shift_pair(self, capsys):
        code, out, _ = run(capsys, "equiv", "32415", "42513", "--relation", "shift")
        assert code == 0 and out.strip() == "true"

    def test_ss_pair_false(self, capsys):
        code, out, _ = run(capsys, "equiv", "123", "213", "--relation", "ss")
        assert code == 0 and out.strip() == "false"

    def test_strict_false_exits_one(self, capsys):
        code, out, _ = run(
            capsys, "equiv", "123", "213", "--relation", "ss", "--strict"
        )
        assert code == 1

    def test_reversal_only_pair(self, capsys):
        code, out, _ = run(
            capsys, "equiv", "32415", "31524", "--relation", "strong-shift"
        )
        assert out.strip() == "false"
        code, out, _ = run(capsys, "equiv", "32415", "31524", "--relation", "shift")
        assert out.strip() == "true"

    def test_witness_moves_replay(self, capsys):
        code, out, _ = run(
            capsys, "equiv", "32415", "42513", "--relation", "strong-shift",
            "--witness",
        )
        lines = out.splitlines()
        assert lines[0] == "true"
        assert any(line.startswith("cut ") for line in lines[1:])

    def test_size_mismatch_exits_two(self, capsys):
        code, _, err = run(capsys, "equiv", "12", "123", "--relation", "ss")
        assert code == 2

    def test_witness_walks_the_orbit_once(self, capsys, monkeypatch):
        from sswilf import shift

        walks = []
        closure = shift._closure
        monkeypatch.setattr(shift, "_closure", lambda *a: walks.append(a) or closure(*a))
        code, out, _ = run(
            capsys, "equiv", "32415", "42513", "--relation", "shift", "--witness"
        )
        assert code == 0 and out.splitlines()[0] == "true" and len(walks) == 1


class TestRepsCommand:
    def test_size_three(self, capsys):
        code, out, _ = run(capsys, "reps", "--n", "3")
        assert out.splitlines() == ["123", "213"]

    def test_size_six_has_256_lines(self, capsys):
        code, out, _ = run(capsys, "reps", "--n", "6")
        assert len(out.splitlines()) == 256

    def test_decompose_marks_prefixes(self, capsys):
        code, out, _ = run(capsys, "reps", "--n", "5", "--decompose")
        lines = out.splitlines()
        assert len(lines) == 40
        assert any("prefix=21 " in line for line in lines)

    def test_invert(self, capsys):
        code, out, _ = run(capsys, "reps", "--n", "4", "--invert", "--json")
        members = {tuple(m) for m in json.loads(out)["members"]}
        assert (3, 1, 2, 4) in members  # inverse of 2314

    def test_limit_exits_two(self, capsys):
        code, _, err = run(capsys, "reps", "--n", "10")
        assert code == 2


class TestPrefixesCommand:
    def test_pairs_over_five(self, capsys):
        code, out, _ = run(capsys, "prefixes", "--i", "2", "--n", "5")
        assert out.splitlines() == ["21", "24", "42", "45"]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "prefixes", "--i", "1", "--n", "5", "--json")
        assert json.loads(out)["members"] == [[1], [5]]

    def test_limit_exits_two_before_listing(self, capsys):
        code, out, err = run(capsys, "prefixes", "--i", "1", "--n", "11")
        assert code == 2 and out == "" and "limit 10" in err

    def test_limit_flag_raises_the_guard(self, capsys):
        code, out, _ = run(capsys, "prefixes", "--i", "1", "--n", "11", "--limit", "11")
        assert code == 0 and out.splitlines() == ["1", "11"]


class TestShiftOrbitCommand:
    def test_plain_orbit(self, capsys):
        code, out, _ = run(capsys, "shift-orbit", "12")
        assert out.splitlines() == ["12", "21"]

    def test_with_reversals_is_larger(self, capsys):
        _, plain, _ = run(capsys, "shift-orbit", "32415")
        _, mirrored, _ = run(capsys, "shift-orbit", "32415", "--with-reversals")
        assert set(plain.splitlines()) < set(mirrored.splitlines())


class TestOracleCommand:
    def test_all_checks_small(self, capsys):
        code, out, _ = run(capsys, "oracle", "--check", "all", "--n-max", "5")
        assert code == 0
        assert "MISMATCH" not in out

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--check", "ss", "--n-max", "4", "--json"
        )
        payload = json.loads(out)
        assert payload["mismatches"] == [] and code == 0

    def test_limit_exits_two(self, capsys):
        code, _, err = run(capsys, "oracle", "--check", "ss", "--n-max", "11")
        assert code == 2

    def test_size_past_the_kernel_refused_before_any_sweep(self, capsys, monkeypatch):
        from sswilf import kernel, oracle

        def sweep(*args, **kwargs):
            raise AssertionError("no size may be swept")

        monkeypatch.setattr(oracle, "bruteforce_ss_partition", sweep)
        n = str(kernel.MAX_N + 1)
        code, out, err = run(capsys, "oracle", "--check", "ss", "--n-max", n, "--limit", n)
        assert code == 2 and out == "" and "error" in err

    def test_workers_is_an_unknown_argument(self, capsys):
        # the sweep is one serial run; there is no pool to size
        with pytest.raises(SystemExit) as excinfo:
            main(["oracle", "--check", "ss", "--n-max", "5", "--workers", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    def test_limit_refused_before_any_check_runs(self, capsys):
        # prefixes and ss fit n = 8; shift does not, so nothing may run
        code, out, err = run(capsys, "oracle", "--check", "all", "--n-max", "8")
        assert code == 2 and out == "" and "error" in err

    def test_size_below_every_check_exits_two(self, capsys):
        # n_max 1 checks nothing at all, so it may not report success
        code, out, err = run(capsys, "oracle", "--n-max", "1")
        assert code == 2 and out == "" and "error" in err
        code, out, _ = run(
            capsys, "oracle", "--n-max", "-3", "--check", "prefixes", "--json"
        )
        assert code == 2 and out == ""

    def test_size_below_one_check_refused_before_any_check_runs(self, capsys):
        # ss and shift start at n = 2, prefixes at n = 3
        code, out, err = run(capsys, "oracle", "--check", "all", "--n-max", "2")
        assert code == 2 and out == "" and "prefixes" in err
        code, out, _ = run(capsys, "oracle", "--check", "shift", "--n-max", "2")
        assert code == 0 and "ok" in out

    def test_unknown_check_exits_two(self, capsys, monkeypatch):
        from sswilf import oracle

        for check in oracle.CHECKS:
            monkeypatch.setattr(oracle, f"check_{check}", None)  # running one would raise
        code, out, err = run(capsys, "oracle", "--check", "bogus")
        assert code == 2 and out == "" and "bogus" in err
        assert all(check in err for check in oracle.CHECKS)

    def test_disagreement_exits_one(self, capsys, monkeypatch):
        from sswilf import oracle

        monkeypatch.setattr(
            oracle, "check_ss", lambda n_max, limit: ["n=4: fake"]
        )
        code, out, _ = run(capsys, "oracle", "--check", "ss", "--n-max", "4")
        assert code == 1 and "MISMATCH" in out


class TestExitCodes:
    def test_internal_invariant_violation_exits_three(self, capsys, monkeypatch):
        from sswilf import cli

        monkeypatch.setattr(cli.counting, "class_count", lambda n: 41)
        code, _, err = run(capsys, "count", "sh", "--n", "5")
        assert code == 3 and "internal" in err


class TestTableCommand:
    def test_table_two(self, capsys):
        code, out, _ = run(capsys, "table", "2")
        cells = out.splitlines()[1].split()
        assert cells[0] == "s" and cells[1] == "1" and cells[10] == "1490564"

    def test_table_five_counts(self, capsys):
        code, out, _ = run(capsys, "table", "5")
        members = [line.strip() for line in out.splitlines() if not line.startswith("n=")]
        assert len(members) == 2 + 8 + 40 + 256

    def test_table_five_honours_explicit_n_max(self, capsys):
        code, _, err = run(capsys, "table", "5", "--n-max", "12")
        assert code == 2 and "error" in err
        code, out, _ = run(capsys, "table", "5", "--n-max", "4")
        assert code == 0
        assert [line for line in out.splitlines() if line.startswith("n=")] == [
            "n=3:", "n=4:"
        ]

    def test_n_max_below_the_first_column_exits_two(self, capsys):
        # a table with no column shows nothing, so it may not report success
        for argv in (
            "table 4 --n-max 1",
            "table 2 --n-max 0",
            "count d --table --n-max 2",
            "table 5 --n-max 2",
        ):
            code, out, err = run(capsys, *argv.split())
            assert code == 2 and out == "" and "n_max" in err, argv

    def test_n_max_at_the_first_column_prints_it(self, capsys):
        for argv in (
            "table 1 --n-max 3",
            "table 4 --n-max 2",
            "table 2 --n-max 1",
            "table 5 --n-max 3",
        ):
            code, out, _ = run(capsys, *argv.split())
            assert code == 0 and out.strip(), argv


class TestDeterminism:
    def test_byte_identical_output(self, capsys):
        _, first, _ = run(capsys, "count", "sjn", "--table", "--n-max", "9")
        _, second, _ = run(capsys, "count", "sjn", "--table", "--n-max", "9")
        assert first == second

    def test_json_round_trips_through_parser(self, capsys):
        from sswilf.words import as_permutation

        _, out, _ = run(capsys, "pyramid", "592738164", "--json")
        payload = json.loads(out)
        u = as_permutation(payload["permutation"])
        member = as_permutation(payload["canonical_member"])
        assert len(u) == len(member) == 9


LOADED_BY = """
import json, sys
before = set(sys.modules)
import sswilf.cli
loaded = {"import": sorted(set(sys.modules) - before)}
for argv in (["pyramid", "213"], ["count", "s", "--n", "5"],
             ["equiv", "213", "123", "--relation", "ss"]):
    before = set(sys.modules)
    sswilf.cli.main(argv)
    loaded[argv[0]] = sorted(set(sys.modules) - before)
print(json.dumps(loaded))
"""


def test_import_leaves_out_the_process_pool():
    # no command runs a process pool, and start-up loads none of these modules.
    # Each command loads the library module it runs, and nothing else.
    done = subprocess.run(
        [sys.executable, "-c", LOADED_BY], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(Path(sswilf.__file__).parents[1])),
    )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])  # after the commands' own output
    started = set(loaded["import"])
    assert not started & {"concurrent.futures", "multiprocessing", "dataclasses", "inspect"}
    assert {m for m in started if m.startswith("sswilf")} == {
        "sswilf", "sswilf.cli", "sswilf.counting", "sswilf.errors", "sswilf.words",
    }
    ours = {cmd: [m for m in mods if m.startswith("sswilf")] for cmd, mods in loaded.items()}
    assert ours["pyramid"] == ["sswilf.pyramid"]
    assert ours["count"] == []
    assert "sswilf.shift" not in ours["equiv"]
    # nor does any command, later, pay for dataclasses and the inspect it loads
    for path in Path(sswilf.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            assert "dataclasses" not in names, path.name
