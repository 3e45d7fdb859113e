import collections
import dataclasses
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mpdr import (ConnectionSpec, Digraph, FiniteGroup, FormatError, MCayleyDigraph,
                  VerificationReport, automorphisms, cyclic_2pdr, search,
                  trivial_aut_3regular_search)
from mpdr.cli import main, parse_group_text
from mpdr.groups import CLOSURE_CAP
from mpdr.perms import Permutation
from test_sweep_pin import RECORD_DIGESTS

# Whole CLI documents, keyed by case name: the exit code and the JSON report
# with its elapsed_seconds dropped and input paths cut to their basenames.
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())
GOLDEN_ARGV = {
    "verify-true": ["verify", "--group", "z5", "--spec", "fig"],
    "verify-false": ["verify", "--group", "z3", "--spec", "allg"],
    "aut-search": ["aut", "--group", "z5", "--spec", "fig"],
    "aut-oracle": ["aut", "--digraph", "tri", "--oracle"],
    "search-rigid3": ["search", "--problem", "rigid3", "--m", "5"],
    "search-drr2-z5": ["search", "--problem", "drr2", "--group", "z5"],
    "search-drr2-q8": ["search", "--problem", "drr2", "--group", "q8"],
    "search-exhaust-negative": ["search", "--problem", "exhaust-negative", "--n", "4"],
}


@pytest.fixture()
def files(tmp_path):
    paths = {}
    paths["z5"] = tmp_path / "z5.grp"
    paths["z5"].write_text("cyclic 5\n")
    paths["z3"] = tmp_path / "z3.grp"
    paths["z3"].write_text("cyclic 3\n")
    paths["s3"] = tmp_path / "s3.grp"
    paths["s3"].write_text("perm 3\n(0 1 2)\n(0 1)\n")
    paths["allg"] = tmp_path / "allg.spec"
    paths["allg"].write_text(json.dumps({
        "m": 2, "n": 3,
        "sets": [{"i": 0, "j": 1, "elements": [0, 1, 2]},
                 {"i": 1, "j": 0, "elements": [0, 1, 2]}],
    }))
    paths["q8"] = tmp_path / "q8.grp"
    paths["q8"].write_text("perm 8\n(0 2 1 3)(4 7 5 6)\n(0 4 1 5)(2 6 3 7)\n")
    paths["fig"] = tmp_path / "fig.spec"
    paths["fig"].write_text(cyclic_2pdr(5).to_json())
    paths["tri"] = tmp_path / "tri.dg"
    paths["tri"].write_text("n 3\n0 1\n1 2\n2 0\n")
    paths["tmp"] = tmp_path
    return paths


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def _normalized(node):
    if isinstance(node, dict):
        return {k: Path(v).name if k == "path" else _normalized(v)
                for k, v in node.items() if k != "elapsed_seconds"}
    if isinstance(node, list):
        return [_normalized(v) for v in node]
    return node


@pytest.mark.parametrize("case", sorted(GOLDEN_ARGV))
def test_golden_documents(capsys, files, case):
    argv = [str(files[a]) if a in files else a for a in GOLDEN_ARGV[case]]
    code, doc = run_json(capsys, argv)
    assert {"exit": code, "doc": _normalized(doc)} == GOLDEN[case]


def _keys(node):
    """Every key of every object in a JSON value, repeats included."""
    if isinstance(node, dict):
        yield from node
        node = list(node.values())
    if isinstance(node, list):
        for v in node:
            yield from _keys(v)


@pytest.mark.parametrize("case", sorted(GOLDEN_ARGV))
def test_report_document_contract(capsys, files, case):
    """verify, aut (search and oracle) and every search problem write exactly
    one timing key, a non-negative top-level elapsed_seconds (the golden
    documents, which drop it, pin every other key)."""
    argv = [str(files[a]) if a in files else a for a in GOLDEN_ARGV[case]]
    _, doc = run_json(capsys, argv)
    keys = collections.Counter(_keys(doc))
    assert (keys["elapsed_seconds"], keys["wall_time"]) == (1, 0)
    assert isinstance(doc["elapsed_seconds"], float) and doc["elapsed_seconds"] >= 0


# The CLI contract, one row per case: the argv, in which "{name}" is the path
# of a file holding CLI_FILES[name], the exit code, and a check.  A row that
# exits 2 or 3 prints nothing on stdout, and its check is its one stderr line
# ("{name}" as in the argv).  Any other row prints nothing on stderr, and its
# check is None, a test of its stdout, or the name of a row that prints the
# same bytes.  Adding a CLI check means adding a row.
CLI_FILES = {
    "z5": "cyclic 5\n",
    "z7": "cyclic 7\n",
    "c5": cyclic_2pdr(5).to_json(),
    "c7": cyclic_2pdr(7).to_json(),
    "k5": "n 5\n" + "".join(f"{u} {v}\n" for u in range(5) for v in range(5) if u != v),
    "loop": "n 3\n0 0\n0 1\n1 2\n2 0\n",  # a loop is an arc like any other
    "d4": "perm 4\n(0 1 2 3)\n(0 2)\n",
    "a5": "perm 5\n(0 1 2 3 4)\n(0 1 2)\n",
    "a5_repeat": "perm 5\n(0 1 2 3 4)\n(0 1 2 3 4)\n(0 1 2)\n",
    "point_twice": "perm 3\n(0 1)(0 2)\n",
    "underscore_dg": "n 1_0\n0 1\n",
    "underscore_grp": "cyclic 1_0\n",
    "ideographic": "n 2\n0\u30001\n",  # only ASCII space and tab separate fields
    "deep": "[" * 200_000,  # nested past the interpreter's recursion limit
    "long_point": "perm 5\n(0 " + "9" * 5000 + ")\n",  # more digits than int() reads
    "c5_top_key": cyclic_2pdr(5).to_json().replace('{', '{"junk": 1, ', 1),
    "c5_entry_key": cyclic_2pdr(5).to_json().replace('"elements"', '"weight": 2, "elements"', 1),
    "z1000": "cyclic 1000\n",
    "c1000": cyclic_2pdr(1000).to_json(),  # the benchmark's 2,000-vertex verify input
}


def _aut_orders(out):
    return collections.Counter(r["aut_order"] for r in json.loads(out)["records"])


CLI_CASES = {
    "construct-c7": ("construct --family cyclic-2pdr --n 7", 0,
                     lambda out: out == CLI_FILES["c7"]),
    "construct-c5000": ("construct --family cyclic-2pdr --n 5000", 0,
                        lambda out: json.loads(out)["n"] == 5000),
    "verify-z7": ("verify --group {z7} --spec {c7}", 0,
                  lambda out: json.loads(out)["report"]["aut_order"] == "7"),
    "verify-z1000": ("verify --group {z1000} --spec {c1000}", 0,  # seeded with R(G)
                     lambda out: (json.loads(out)["report"]["aut_order"],
                                  json.loads(out)["report"]["search_nodes"]) == ("1000", 3)),
    "export-z5": ("export --group {z5} --spec {c5}", 0,  # 10 digons, 20 "->" lines
                  lambda out: (out.count("dir=none"), out.count("->")) == (10, 20)),
    "aut-k5-oracle": ("aut --digraph {k5} --oracle", 0,
                      lambda out: json.loads(out)["aut"]["order"] == "120"),
    "aut-loop": ("aut --digraph {loop}", 0,
                 lambda out: json.loads(out)["aut"]["order"] == "1"),
    "rigid3-m7-oriented": ("search --problem rigid3 --m 7 --oriented", 0,
                           lambda out: json.loads(out)["nodes_explored"] == 2640),
    "exhaust-z8": ("search --problem exhaust-negative --n 8", 0,
                   lambda out: _aut_orders(out) == {8: 2240, 16: 544, 32: 160, 64: 64,
                                                    96: 32, 128: 80, 512: 8, 4608: 8}),
    "exhaust-d4": ("search --problem exhaust-negative --group {d4}", 0,
                   lambda out: _aut_orders(out) == {8: 2048, 16: 576, 32: 256, 96: 64,
                                                    128: 112, 512: 56, 4608: 24}),
    "two-gen-a5": ("construct --family two-gen-mpdr --m 3 --group {a5}", 0, None),
    # m past the vertex cap is refused unbuilt, for every group; m at the cap builds
    "cyclic-mpdr-m-2048": ("construct --family cyclic-mpdr --n 3 --m 2048", 0,
                           lambda out: json.loads(out)["m"] == 2048),
    "cyclic-mpdr-m-2049": ("construct --family cyclic-mpdr --n 3 --m 2049", 2,
                           "refused: part count 2049 exceeds the automorphism search's "
                           "cap of 2048 vertices"),
    "two-gen-a5-m-2048": ("construct --family two-gen-mpdr --m 2048 --group {a5}", 0,
                          lambda out: json.loads(out)["m"] == 2048),
    "two-gen-a5-m-2049": ("construct --family two-gen-mpdr --m 2049 --group {a5}", 2,
                          "refused: part count 2049 exceeds the automorphism search's "
                          "cap of 2048 vertices"),
    "two-gen-a5-repeated-line": ("construct --family two-gen-mpdr --m 3 --group {a5_repeat}",
                                 0, "two-gen-a5"),
    "drr2-unread-m": ("search --problem drr2 --group {z5} --m 3", 3,
                      "input error: drr2 does not take --m"),
    "cyclic-2pdr-unread-m": ("construct --family cyclic-2pdr --n 5 --m 3", 3,
                             "input error: cyclic-2pdr does not take --m"),
    "rigid3-jobs-2": ("search --problem rigid3 --m 5 --jobs 2", 2,
                      "refused: rigid3 runs one sequential scan: jobs must be 1, got 2"),
    "point-repeated-across-cycles": ("search --problem drr2 --group {point_twice}", 3,
                                     "input error: repeated point in cycle notation: "
                                     "'(0 1)(0 2)'"),
    "digraph-header-underscore": ("aut --digraph {underscore_dg}", 3,
                                  "input error: bad vertex count line: 'n 1_0'"),
    "group-header-underscore": ("search --problem drr2 --group {underscore_grp}", 3,
                                "input error: bad cyclic order line: 'cyclic 1_0'"),
    "arc-line-ideographic-space": ("aut --digraph {ideographic}", 3,
                                   "input error: bad arc line: '0\\u30001'"),
    "construct-out-directory": ("construct --family cyclic-2pdr --n 5 --out .", 3,
                                "input error: cannot write .: [Errno 21] Is a directory: '.'"),
    "verify-out-unwritable": ("verify --group {z7} --spec {c7} --out {c7}/report.json", 3,
                              "input error: cannot write {c7}/report.json: "
                              "[Errno 20] Not a directory: '{c7}/report.json'"),
    "spec-nested-too-deeply": ("verify --group {z5} --spec {deep}", 3,
                               "input error: connection spec is not valid JSON: "
                               "nested too deeply"),
    "group-point-too-long": ("search --problem drr2 --group {long_point}", 3,
                             "input error: point with too many digits for degree 5"),
    "spec-unknown-top-key": ("verify --group {z5} --spec {c5_top_key}", 3,
                             'input error: malformed connection spec document: '
                             'unknown key "junk" at the top level'),
    "spec-unknown-entry-key": ("verify --group {z5} --spec {c5_entry_key}", 3,
                               'input error: malformed connection spec document: '
                               'unknown key "weight" in a sets entry'),
}


def _run_row(capsys, tmp_path, argv):
    """Write the files ``argv`` names into ``tmp_path`` and run it: the exit
    code, stdout, stderr and each name's path."""
    paths = {name: tmp_path / name for name in re.findall(r"\{(\w+)\}", argv)}
    for name, path in paths.items():
        path.write_bytes(CLI_FILES[name].encode())
    code = main(argv.format(**paths).split())
    return code, *capsys.readouterr(), paths


@pytest.mark.parametrize("case", CLI_CASES)
def test_cli_case(capsys, tmp_path, case):
    argv, code, check = CLI_CASES[case]
    got, out, err, paths = _run_row(capsys, tmp_path, argv)
    if code >= 2:
        assert (got, out, err) == (code, "", check.format(**paths) + "\n")
    else:
        assert (got, err) == (code, "")
        if isinstance(check, str):
            assert out == _run_row(capsys, tmp_path, CLI_CASES[check][0])[1]
        elif check is not None:
            assert check(out)


def test_parse_group_text_cyclic():
    assert parse_group_text("cyclic 6\n").order == 6


def test_parse_group_text_perm():
    g = parse_group_text("perm 3\n(0 1 2)\n(0 1)\n")
    assert g.order == 6
    assert g.designated_generators == (1, 2)


def test_parse_group_text_comments_and_errors():
    assert parse_group_text("# symmetric\nperm 3\n(0 1 2)\n(0 1)\n").order == 6
    for bad in ("", "ring 4\n", "cyclic x\n", "cyclic 4\n(0 1)\n", "perm 3\n",
                # an integer is ASCII -?[0-9]+: no sign, underscore or other digits
                "cyclic 1_0\n", "cyclic \u0661\u0660\n", "cyclic +5\n",
                "perm +3\n(0 1 2)\n", "perm \uff13\n(0 1 2)\n",
                "perm 3\n(\u0660 \u0661 \u0662)\n"):
        with pytest.raises(FormatError):
            parse_group_text(bad)


# A valid group file and digraph file, each with a command whose stdout holds
# no input hash, so a copy that reads alike prints the same bytes.
TEXT_INPUTS = {
    "group": ("perm 3\n(0 1 2)\n(0 1)\n",
              ["construct", "--family", "two-gen-mpdr", "--m", "3", "--group"]),
    "digraph": ("n 3\n0 1\n1 2\n2 0\n", ["export", "--digraph"]),
}
# Each Unicode blank c at the end of the group header, a generator line, the
# digraph header and an arc line, and, but for U+2028 (which ended a line
# there), between the fields of each but the digraph header (which already
# needed an ASCII space): Unicode-aware splitting read each copy as its original.
UNICODE_BLANK_COPIES = [
    (kind, copy.format(c=c))
    for c in ("\u3000", "\u00a0", "\u2028")
    for kind, copy in [("group", "perm 3{c}\n(0 1 2)\n(0 1)\n"),
                       ("group", "perm 3\n(0 1 2){c}\n(0 1)\n"),
                       ("digraph", "n 3{c}\n0 1\n1 2\n2 0\n"),
                       ("digraph", "n 3\n0 1{c}\n1 2\n2 0\n")]
    + ([] if c == "\u2028" else [("group", "perm{c}3\n(0 1 2)\n(0 1)\n"),
                                ("group", "perm 3\n(0{c}1 2)\n(0 1)\n"),
                                ("digraph", "n 3\n0{c}1\n1 2\n2 0\n")])
]


@pytest.mark.parametrize("kind, copy, reads_alike", [
    ("group", "perm\t3\n(0\t1 2)\n(0 \t 1)\n", True),
    ("group", "perm 3\r\n(0 1 2)\r\n(0 1)  # a transposition\r\n", True),
    ("digraph", "n\t3\n0\t1\n1 \t2\n2 0\n", True),
    ("digraph", "n 3\r\n0 1\r\n\r\n1 2\r\n2\t0\r\n", True),
] + [(kind, copy, False) for kind, copy in UNICODE_BLANK_COPIES])
def test_text_inputs_read_by_one_line_and_field_rule(capsys, tmp_path, kind, copy,
                                                     reads_alike):
    """Lines end at \\n or \\r\\n and fields are separated by ASCII spaces and
    tabs only: tab and CRLF copies print what the original prints, and a copy
    with any other blank exits 3 with nothing on stdout."""
    original, argv = TEXT_INPUTS[kind]
    outputs = []
    for name, text in (("original", original), ("copy", copy)):
        path = tmp_path / name
        path.write_bytes(text.encode())
        code = main(argv + [str(path)])
        outputs.append((code, capsys.readouterr()))
    (code, expected), (copy_code, got) = outputs
    assert code == 0 and expected.err == ""
    if reads_alike:
        assert (copy_code, got.out, got.err) == (0, expected.out, "")
    else:
        assert (copy_code, got.out) == (3, "")
        assert got.err.startswith("input error:") and got.err.count("\n") == 1


def test_perm_degree_above_cap_refused_before_generators(capsys, tmp_path, monkeypatch):
    """A group within CLOSURE_CAP acts regularly on at most that many points,
    so a larger degree is refused from the header, no generator parsed."""
    monkeypatch.setattr(Permutation, "from_cycles", classmethod(
        lambda cls, text, degree: pytest.fail(f"generator parsed at degree {degree}")))
    path = tmp_path / "big.grp"
    path.write_text(f"perm {CLOSURE_CAP + 1}\n(0 1)\n")
    assert main(["search", "--problem", "drr2", "--group", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"refused: permutation degree {CLOSURE_CAP + 1} exceeds cap "
                            f"of {CLOSURE_CAP} points\n")
    monkeypatch.undo()
    path.write_text(f"perm {CLOSURE_CAP}\n(0 1)\n")
    code, doc = run_json(capsys, ["search", "--problem", "drr2", "--group", str(path)])
    assert code == 0 and doc["parameters"]["group_order"] == 2


def test_repeated_generator_lines_read_once(monkeypatch):
    """A generator line repeated around a second one is read once: the group
    is that of the file without the repeats, element for element, and the
    closure multiplies each element by each distinct generator once."""
    plain = parse_group_text("perm 6\n(0 1 2 3 4 5)\n(0 5)(1 4)(2 3)\n")
    products = collections.Counter()
    mul = Permutation.__mul__

    def counted(p, q):
        products[q.cycle_string()] += 1
        return mul(p, q)

    monkeypatch.setattr(Permutation, "__mul__", counted)
    repeated = parse_group_text("perm 6\n(0 1 2 3 4 5)\n(0 5)(1 4)(2 3)\n"
                                "(0 1 2 3 4 5)\n(0 5)(1 4)(2 3)\n(0 1 2 3 4 5)\n")
    monkeypatch.undo()
    assert products == {"(0 1 2 3 4 5)": 12, "(0 5)(1 4)(2 3)": 12}
    assert repeated.order == plain.order == 12
    assert [repeated.row(a) for a in range(12)] == [plain.row(a) for a in range(12)]
    assert ([repeated.label(a) for a in range(12)]
            == [plain.label(a) for a in range(12)])
    assert repeated.designated_generators == plain.designated_generators == (1, 2)


def test_perm_closure_stops_past_command_cap(capsys, monkeypatch, tmp_path):
    """drr2 searches Cayley digraphs on |G| vertices, at most 2048: the
    closure of a 5000-cycle stops by its 2049th element, not at 5000."""
    products = 0
    mul = Permutation.__mul__

    def counted(p, q):
        nonlocal products
        products += 1
        if products > 2049:
            pytest.fail("the closure ran past 2049 elements")
        return mul(p, q)

    path = tmp_path / "c5000.grp"
    path.write_text("perm 5000\n(" + " ".join(map(str, range(5000))) + ")\n")
    monkeypatch.setattr(Permutation, "__mul__", counted)
    assert main(["search", "--problem", "drr2", "--group", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "refused: group closure exceeds cap of 2048 elements\n"


def test_construct_to_stdout(capsys, files):
    code = main(["construct", "--family", "cyclic-2pdr", "--n", "5"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["m"] == 2 and doc["n"] == 5


def test_construct_exception_exit_2(capsys, files):
    assert main(["construct", "--family", "cyclic-2pdr", "--n", "3"]) == 2
    assert main(["construct", "--family", "cyclic-mpdr", "--n", "2", "--m", "3"]) == 2


def test_construct_rejects_order_below_one(capsys):
    assert main(["construct", "--family", "cyclic-2pdr", "--n", "0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be at least 1" in captured.err


def test_search_refuses_order_above_cap(capsys):
    assert main(["search", "--problem", "exhaust-negative", "--n", "5001"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("refused:")
    assert "5000 elements" in captured.err


@pytest.mark.parametrize("n", [9, 2000])
def test_search_refuses_sweep_order_before_building_group(capsys, monkeypatch, n):
    def unbuilt(order):
        raise AssertionError(f"cyclic({order}) built for a refused sweep")

    monkeypatch.setattr(FiniteGroup, "cyclic", unbuilt)
    assert main(["search", "--problem", "exhaust-negative", "--n", str(n)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"refused: exhaustive 2-part sweep capped at order "
                            f"{search.EXHAUST_ORDER_CAP}, got {n}\n")


@pytest.mark.parametrize("source", ["--n 1", "--n 2", "cyclic 2 file"])
def test_search_refuses_sweep_without_a_3_subset(capsys, files, source):
    """A group of order 1 or 2 has no 3-subset, so no spec to sweep: the
    sweep is refused rather than printing no records and a vacuous
    ``all_exceed_group_order``."""
    if source.startswith("--n"):
        argv, n = source.split(), source[-1]
    else:
        n = "2"
        files["tmp"].joinpath("z2.grp").write_text("cyclic 2\n")
        argv = ["--group", str(files["tmp"] / "z2.grp")]
    assert main(["search", "--problem", "exhaust-negative", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"refused: exhaustive 2-part sweep needs a group of order "
                            f"at least 3, got {n}\n")


def test_construct_two_gen_from_group_file(capsys, files):
    out = files["tmp"] / "spec.json"
    code = main(["construct", "--family", "two-gen-mpdr", "--group", str(files["s3"]),
                 "--m", "3", "--out", str(out)])
    assert code == 0
    assert out.exists()
    doc = json.loads(out.read_text())
    assert doc["m"] == 3 and doc["n"] == 6
    # a permutation group file is checked against the spec after its closure
    capsys.readouterr()
    code, doc = run_json(capsys, ["verify", "--group", str(files["s3"]), "--spec", str(out)])
    assert code == 0 and doc["report"]["vertex_count"] == 18
    code, doc = run_json(capsys, ["aut", "--group", str(files["s3"]), "--spec", str(out)])
    assert code == 0 and doc["aut"]["order"] == "6"


def test_construct_drr_extend(capsys, files):
    z7 = files["tmp"] / "z7.grp"
    z7.write_text("cyclic 7\n")
    code, doc = run_json(capsys, ["construct", "--family", "drr-extend",
                                  "--group", str(z7), "--r", "1,3"])
    assert code == 0
    assert doc["m"] == 2
    # the --out summary counts the distinct elements of R: k of them give a
    # valency-k DRR and a valency-(k+1) spec
    out = files["tmp"] / "ext.spec"
    for r, k in [("1", 1), ("1,3", 2), ("1,1,3", 2)]:
        assert main(["construct", "--family", "drr-extend", "--group", str(z7),
                     "--r", r, "--out", str(out)]) == 0
        r_set = sorted(set(int(t) for t in r.split(",")))
        assert capsys.readouterr().out == (
            f"2-part valency-{k + 1} extension of the valency-{k} DRR {r_set}\n"
            f"wrote {out}\n")
        spec = ConnectionSpec.from_json(out.read_text())
        x = MCayleyDigraph(FiniteGroup.cyclic(7), spec)
        assert x.digraph.regular_valency() == k + 1


def test_verify_true_exit_0(capsys, files):
    spec = files["tmp"] / "fig.spec"
    main(["construct", "--family", "cyclic-2pdr", "--n", "5", "--out", str(spec)])
    capsys.readouterr()
    code, doc = run_json(capsys, ["verify", "--group", str(files["z5"]),
                                  "--spec", str(spec)])
    assert code == 0
    assert set(doc["report"]) == {f.name for f in dataclasses.fields(VerificationReport)}
    assert (doc["report"]["is_pdr"], doc["report"]["aut_order"], doc["report"]["valency"],
            doc["report"]["color_blind"]) == (True, "5", 3, True)
    assert doc["tool"]["name"] == "mpdr"
    assert doc["tool"]["version"]
    assert set(doc["inputs"]) == {"group", "spec"}
    assert len(doc["inputs"]["group"]["sha256"]) == 64


def test_verify_false_exit_1_with_witness(capsys, files):
    code, doc = run_json(capsys, ["verify", "--group", str(files["z3"]),
                                  "--spec", str(files["allg"])])
    assert code == 1
    assert doc["report"]["is_pdr"] is False
    witness = doc["report"]["extra_automorphism_witness"]
    assert Permutation.from_cycles(witness, 6).cycle_string() == witness


def test_verify_parts_as_colors_crosscheck(capsys, files):
    spec = files["tmp"] / "fig.spec"
    main(["construct", "--family", "cyclic-2pdr", "--n", "5", "--out", str(spec)])
    capsys.readouterr()
    code, doc = run_json(capsys, ["verify", "--group", str(files["z5"]),
                                  "--spec", str(spec), "--parts-as-colors"])
    assert code == 0
    assert doc["report"]["color_blind"] is False
    assert doc["report"]["aut_order"] == "5"


def test_verify_malformed_spec_exit_3(capsys, files):
    bad = files["tmp"] / "bad.spec"
    bad.write_text("{ not json")
    assert main(["verify", "--group", str(files["z3"]), "--spec", str(bad)]) == 3
    missing = files["tmp"] / "nope.spec"
    assert main(["verify", "--group", str(files["z3"]), "--spec", str(missing)]) == 3
    capsys.readouterr()
    # numbers must be JSON integers and lists JSON lists: nothing is coerced
    z6 = files["tmp"] / "z6.grp"
    z6.write_text("cyclic 6\n")
    good = {"m": "2", "n": "6", "e01": "[1, 2, 4]", "e10": "[0, 1, 3]"}
    template = ('{{"m": {m}, "n": {n}, "sets": [{{"i": 0, "j": 1, "elements": {e01}}},'
                ' {{"i": 1, "j": 0, "elements": {e10}}}]}}')
    bad.write_text(template.format(**good))
    assert main(["verify", "--group", str(z6), "--spec", str(bad)]) == 1
    capsys.readouterr()
    for key, value in [("m", "1e400"), ("m", "2.7"), ("m", '"2"'), ("m", "true"),
                       ("m", "2.0"), ("n", "6.0"), ("e01", "[1, 2, 4.9]"),
                       ("e01", '"124"'), ("e01", "[1, 2, false]"), ("e01", "{}")]:
        bad.write_text(template.format(**{**good, key: value}))
        assert main(["verify", "--group", str(z6), "--spec", str(bad)]) == 3, (key, value)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: malformed connection spec document:")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:  # an integer too long for json to read
        bad.write_text(template.format(**{**good, "m": "1" + "0" * limit}))
        assert main(["verify", "--group", str(z6), "--spec", str(bad)]) == 3
        assert capsys.readouterr().err.startswith("input error: connection spec is not valid JSON:")


def test_non_utf8_input_exit_3(capsys, files):
    bad = files["tmp"] / "bad.grp"
    bad.write_bytes(b"\xff\xfe")
    assert main(["search", "--problem", "drr2", "--group", str(bad)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:")


@pytest.mark.parametrize("module,argv", [
    ("mpdr.verify", ["verify", "--group", "z5", "--spec", "fig"]),
    ("mpdr.cli", ["aut", "--digraph", "tri"]),
])
def test_memory_error_exit_2(capsys, monkeypatch, files, module, argv):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(f"{module}.automorphisms", exhausted)
    argv = [str(files[a]) if a in files else a for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "refused: out of memory\n"


def test_aut_digraph(capsys, files):
    code, doc = run_json(capsys, ["aut", "--digraph", str(files["tri"])])
    assert code == 0
    assert doc["aut"] == {"degree": 3, "order": "3", "generators": ["(0 1 2)"]}


def test_aut_oracle_agrees(capsys, files):
    _, fast = run_json(capsys, ["aut", "--digraph", str(files["tri"])])
    _, oracle = run_json(capsys, ["aut", "--digraph", str(files["tri"]), "--oracle"])
    assert fast["aut"]["order"] == oracle["aut"]["order"]
    assert oracle["mode"] == "oracle"


def test_aut_digraph_reads_loops(capsys, files):
    """aut --digraph reads back the loop lines Digraph.to_text writes for a
    spec with the identity on the diagonal, and reports the order the search
    gives the built digraph; export draws each loop."""
    spec = ConnectionSpec.from_sets(2, 3, {(0, 0): (0, 1), (1, 0): (1,)})
    x = MCayleyDigraph(FiniteGroup.cyclic(3), spec)
    path = files["tmp"] / "looped.dg"
    path.write_text(x.digraph.to_text())
    code, doc = run_json(capsys, ["aut", "--digraph", str(path)])
    assert code == 0
    assert doc["aut"]["order"] == str(automorphisms(x.digraph).order)
    assert main(["export", "--digraph", str(path)]) == 0
    dot = capsys.readouterr().out
    assert all(f"  {v} -> {v};" in dot for v in x.part(0))


def test_aut_from_group_and_spec(capsys, files):
    spec = files["tmp"] / "fig.spec"
    main(["construct", "--family", "cyclic-2pdr", "--n", "5", "--out", str(spec)])
    capsys.readouterr()
    code, doc = run_json(capsys, ["aut", "--group", str(files["z5"]),
                                  "--spec", str(spec)])
    assert code == 0
    assert doc["aut"]["order"] == "5"


@pytest.mark.parametrize("argv, code, order, nodes", [
    (["aut"], 0, "24", 10),
    (["verify"], 1, "48", 10),
    (["verify", "--parts-as-colors"], 1, "24", 7),
])
def test_readme_color_example(capsys, files, argv, code, order, nodes):
    """README's example: over Z6 with T01 = {1, 2, 4} and T10 = {0, 1, 3},
    the part swap doubles the part-preserving group of order 24, which
    ``aut --group --spec`` and ``verify --parts-as-colors`` report.  The
    two search the same digraph for the same group, but ``verify`` starts
    from R(G), so it reports fewer nodes."""
    z6 = files["tmp"] / "z6.grp"
    z6.write_text("cyclic 6\n")
    spec = files["tmp"] / "z6.spec"
    spec.write_text(json.dumps({"m": 2, "n": 6,
                                "sets": [{"i": 0, "j": 1, "elements": [1, 2, 4]},
                                         {"i": 1, "j": 0, "elements": [0, 1, 3]}]}))
    got, doc = run_json(capsys, [argv[0], "--group", str(z6), "--spec", str(spec),
                                 *argv[1:]])
    if argv[0] == "aut":
        result = (doc["aut"]["order"], doc["nodes_explored"])
    else:
        result = (doc["report"]["aut_order"], doc["report"]["search_nodes"])
    assert (got, *result) == (code, order, nodes)


@pytest.mark.parametrize("command", ["aut", "export"])
@pytest.mark.parametrize("flags, unread", [
    (["--group", "z5"], "--group"),
    (["--spec", "missing"], "--spec"),
    (["--group", "z5", "--spec", "missing"], "--group, --spec"),
])
def test_digraph_with_group_or_spec_refused(capsys, monkeypatch, files, command,
                                            flags, unread):
    """--digraph is not combined with --group or --spec: the other flags
    are refused, before any file is read, not dropped."""
    read = []
    monkeypatch.setattr("mpdr.cli._read", lambda path, *a: read.append(path))
    paths = {**files, "missing": files["tmp"] / "missing.spec"}
    argv = [str(paths.get(a, a)) for a in flags]
    assert main([command, "--digraph", str(files["tri"]), *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and read == []
    assert captured.err == f"input error: --digraph does not take {unread}\n"


def test_export_dot_digon_rendering(capsys, files):
    z2 = files["tmp"] / "z2.grp"
    z2.write_text("cyclic 2\n")
    spec = files["tmp"] / "fig3.spec"
    main(["construct", "--family", "cyclic-mpdr", "--n", "2", "--m", "4",
          "--out", str(spec)])
    capsys.readouterr()
    code = main(["export", "--group", str(z2), "--spec", str(spec)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("dir=none") == 10  # digon count of the built digraph
    assert 'label="x_3"' in out
    arrows = [ln for ln in out.splitlines()
              if "->" in ln and "dir=none" not in ln and "label" not in ln]
    assert len(arrows) == 24 - 2 * 10  # one-way arcs


# export of a two-part spec over the S3 group file: each vertex is named by
# its element's cycle string and its part.
S3_DOT = """digraph {
  0 [label="()_0"];
  1 [label="(0 1 2)_0"];
  2 [label="(0 1)_0"];
  3 [label="(0 2 1)_0"];
  4 [label="(1 2)_0"];
  5 [label="(0 2)_0"];
  6 [label="()_1"];
  7 [label="(0 1 2)_1"];
  8 [label="(0 1)_1"];
  9 [label="(0 2 1)_1"];
  10 [label="(1 2)_1"];
  11 [label="(0 2)_1"];
  0 -> 6 [dir=none];
  1 -> 7 [dir=none];
  2 -> 8 [dir=none];
  3 -> 9 [dir=none];
  4 -> 10 [dir=none];
  5 -> 11 [dir=none];
  0 -> 7;
  0 -> 8;
  1 -> 9;
  1 -> 11;
  2 -> 6;
  2 -> 10;
  3 -> 6;
  3 -> 10;
  4 -> 9;
  4 -> 11;
  5 -> 7;
  5 -> 8;
  6 -> 4;
  7 -> 2;
  8 -> 1;
  9 -> 5;
  10 -> 0;
  11 -> 3;
}
"""


def test_export_format_flag_refused(capsys, files):
    """export writes DOT only and takes no --format: the flag exits 3."""
    assert main(["export", "--format", "dot", "--group", str(files["z5"]),
                 "--spec", str(files["fig"])]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --format dot" in captured.err


def test_export_dot_over_perm_group_pinned(capsys, files):
    spec = files["tmp"] / "s3.spec"
    spec.write_text(json.dumps({"m": 2, "n": 6,
                                "sets": [{"i": 0, "j": 1, "elements": [0, 1, 2]},
                                         {"i": 1, "j": 0, "elements": [0, 4]}]}))
    assert main(["export", "--group", str(files["s3"]), "--spec", str(spec)]) == 0
    assert capsys.readouterr().out == S3_DOT


def test_search_exhaust_negative(capsys, files):
    code, doc = run_json(capsys, ["search", "--problem", "exhaust-negative",
                                  "--n", "4"])
    assert code == 0
    assert len(doc["records"]) == 16
    assert doc["all_exceed_group_order"] is True
    assert all(r["aut_order"] > 4 for r in doc["records"])
    assert all(r["shift_exponent"] is not None for r in doc["records"])


# sha256 of the JSON ``records`` list (keys sorted, shift_exponent included)
# of exhaust-negative over the Q8 group file.
Q8_EXHAUST_RECORDS_DIGEST = "1dc6b8307294278225c174b28fc1e548a158911157f67fe4843c3d8d1912e310"


def test_search_exhaust_negative_nonabelian_group_file(capsys, files):
    code, doc = run_json(capsys, ["search", "--problem", "exhaust-negative",
                                  "--group", str(files["q8"])])
    assert code == 0
    assert doc["parameters"] == {"group_order": 8}
    assert doc["all_exceed_group_order"] is False
    records = doc["records"]
    assert len(records) == 56 ** 2
    rows = [[r["t01"], r["t10"], r["aut_order"]] for r in records]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == RECORD_DIGESTS["q8"]
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == Q8_EXHAUST_RECORDS_DIGEST


def test_search_rigid3(capsys, files):
    code, doc = run_json(capsys, ["search", "--problem", "rigid3", "--m", "4"])
    assert code == 0
    assert doc["verdict"] == "none-exists"
    # every SearchVerdict field is already a JSON value, written as it is
    verdict = vars(trivial_aut_3regular_search(4))
    assert {k: doc[k] for k in verdict} == verdict


def test_search_rigid3_readme_example(capsys):
    code, doc = run_json(capsys, ["search", "--problem", "rigid3", "--m", "12",
                                  "--mode", "randomized", "--budget", "5000",
                                  "--oriented"])
    assert code == 0
    assert doc["verdict"] == "witness-found"
    g = Digraph(12, [tuple(a) for a in doc["witness"]["arcs"]])
    assert g.regular_valency() == 3 and not any(g.digon_adj)
    assert automorphisms(g).group.order == 1


def test_search_rigid3_randomized_too_few_vertices(capsys):
    """No 3-regular digraph has fewer than 4 vertices, so randomized mode
    would test nothing: it refuses (exit 2) and points to exhaustive mode."""
    for m in ("1", "2", "3"):
        assert main(["search", "--problem", "rigid3", "--m", m,
                     "--mode", "randomized"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("refused:") and captured.err.count("\n") == 1
        assert "exhaustive mode answers none-exists" in captured.err


def test_search_drr2(capsys, files):
    code, doc = run_json(capsys, ["search", "--problem", "drr2",
                                  "--group", str(files["z5"])])
    assert code == 0
    assert doc["verdict"] == "witness-found"
    assert doc["witness"]["pair"] == [1, 2]


@pytest.mark.parametrize("argv", [
    ["--m", "6", "--jobs", "0"],
    ["--m", "6", "--jobs", "-3"],
    ["--m", "12", "--mode", "randomized", "--budget", "-5"],
    ["--m", "0"],
    ["--m", "-1"],
    ["--n", "0"],
    ["--n", "-2"],
    ["--m", "12", "--mode", "randomized", "--budget", "0"],
    ["--m", "1_0"],
    ["--m", "\uff15"],
    ["--m", "+5"],
    ["--n", "1_0"],
    ["--m", "6", "--jobs", "+1"],
    ["--m", "12", "--mode", "randomized", "--seed", "1_0"],
    ["--m", "12", "--mode", "randomized", "--budget", " 5"],
])
def test_search_rejects_bad_jobs_and_budget(capsys, argv):
    assert main(["search", "--problem", "rigid3", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    # an integer is ASCII -?[0-9]+; one below the flag's minimum says so
    message = ("must be at least" if re.fullmatch(r"-?[0-9]+", argv[-1])
               else "invalid integer value")
    assert message in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["verify", "aut"])
def test_oversized_spec_refused_before_build(capsys, monkeypatch, files, command):
    """m = 200000 parts over Z5 is 10^6 vertices: refused from the spec's
    header, before the digraph is built."""
    def unbuilt(*args, **kwargs):
        raise AssertionError("the digraph was built")

    monkeypatch.setattr(MCayleyDigraph, "__init__", unbuilt)
    big = files["tmp"] / "big.spec"
    big.write_text(json.dumps({"m": 200000, "n": 5,
                               "sets": [{"i": 0, "j": 1, "elements": [0, 1, 2]}]}))
    start = time.perf_counter()
    assert main([command, "--group", str(files["z5"]), "--spec", str(big)]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("refused:") and captured.err.count("\n") == 1
    assert "1000000" in captured.err


@pytest.mark.parametrize("vertices, oracle, inputs, cap", [
    (200000, False, "digraph", "2048"),
    (200000, True, "digraph", "brute force"),
    (10, True, "digraph", "brute force"),
    (10, True, "spec", "brute force"),
])
def test_oversized_digraph_refused_before_build(capsys, monkeypatch, files,
                                                vertices, oracle, inputs, cap):
    """aut refuses a digraph file from its ``n`` header, and with --oracle
    anything over the brute force's cap, before the digraph is built."""
    def unbuilt(*args, **kwargs):
        raise AssertionError("the digraph was built")

    monkeypatch.setattr("mpdr.digraphs.Digraph.__init__", unbuilt)
    monkeypatch.setattr(MCayleyDigraph, "__init__", unbuilt)
    if inputs == "digraph":
        big = files["tmp"] / "big.dg"
        big.write_text(f"n {vertices}\n0 1\n")
        argv = ["aut", "--digraph", str(big)]
    else:
        argv = ["aut", "--group", str(files["z5"]), "--spec", str(files["fig"])]
    start = time.perf_counter()
    assert main(argv + ["--oracle"] * oracle) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("refused:") and captured.err.count("\n") == 1
    assert cap in captured.err


@pytest.mark.parametrize("command", ["verify", "aut", "drr2"])
def test_oversized_cyclic_group_refused_before_build(capsys, monkeypatch, files, command):
    """cyclic 5000 with a 2-part spec is 10,000 vertices, and each Cayley
    digraph drr2 searches has 5000: refused from the group's header, before
    its 5000 x 5000 table is built."""
    def unbuilt(*args, **kwargs):
        raise AssertionError("the group table was built")

    monkeypatch.setattr("mpdr.groups.FiniteGroup.cyclic", unbuilt)
    group = files["tmp"] / "z5000.grp"
    group.write_text("cyclic 5000\n")
    spec = files["tmp"] / "c5000.spec"
    spec.write_text(json.dumps({"m": 2, "n": 5000,
                                "sets": [{"i": 0, "j": 1, "elements": [0, 1, 2]}]}))
    if command == "drr2":
        argv, vertices = ["search", "--problem", "drr2", "--group", str(group)], 5000
    else:
        argv, vertices = [command, "--group", str(group), "--spec", str(spec)], 10000
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("refused: automorphism search capped at 2048 vertices, "
                            f"got {vertices}\n")


def test_verify_reads_the_spec_before_the_group(capsys, files):
    """--spec is read first, so a malformed spec beside a group over the
    order cap exits 3 for the spec, before the group file is parsed."""
    group = files["tmp"] / "z9999.grp"
    group.write_text("cyclic 9999\n")
    spec = files["tmp"] / "bad.spec"
    spec.write_text('{"m": 2, "n": 9999, "sets": [')
    assert main(["verify", "--group", str(group), "--spec", str(spec)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: connection spec is not valid JSON")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, refusal", [
    (["search", "--problem", "exhaust-negative"],
     "exhaustive 2-part sweep capped at order 8, got 5000"),
    (["construct", "--family", "drr-extend", "--r", "1,2"],
     "automorphism search capped at 2048 vertices, got 10000"),
], ids=["exhaust-negative", "drr-extend"])
def test_oversized_group_refused_by_command_cap_before_build(capsys, monkeypatch, files,
                                                            argv, refusal):
    """exhaust-negative sweeps orders up to 8, and every drr-extend candidate
    is a 2-part digraph on 2|G| vertices: a cyclic 5000 file is refused by
    that cap from its header, before its 5000 x 5000 table is built."""
    def unbuilt(*args, **kwargs):
        raise AssertionError("the group table was built")

    monkeypatch.setattr("mpdr.groups.FiniteGroup.cyclic", unbuilt)
    group = files["tmp"] / "z5000.grp"
    group.write_text("cyclic 5000\n")
    start = time.perf_counter()
    assert main(argv + ["--group", str(group)]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"refused: {refusal}\n"


@pytest.mark.parametrize("flags, bad", [
    (["--family", "two-gen-mpdr", "--m", "3", "--x", "99", "--y", "1"], "--x element 99"),
    (["--family", "two-gen-mpdr", "--m", "3", "--x", "-1", "--y", "1"], "--x element -1"),
    (["--family", "two-gen-mpdr", "--m", "3", "--x", "1", "--y", "6"], "--y element 6"),
    (["--family", "drr-extend", "--r", "1,99"], "--r element 99"),
    (["--family", "drr-extend", "--r", "1,-2"], "--r element -2"),
])
def test_construct_element_flag_out_of_range_exit_3(capsys, files, flags, bad):
    """An element index outside 0..|G|-1 is a bad flag value (exit 3), as the
    same index in a spec file is."""
    z6 = files["tmp"] / "z6.grp"
    z6.write_text("cyclic 6\n")
    assert main(["construct", *flags, "--group", str(z6)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {bad} out of range for group order 6\n"


@pytest.mark.parametrize("flags, bad", [
    (["--family", "two-gen-mpdr", "--m", "3", "--x", "1_0", "--y", "1"],
     "argument --x: invalid integer value: '1_0'"),
    (["--family", "two-gen-mpdr", "--m", "3", "--x", "1", "--y", "+2"],
     "argument --y: invalid integer value: '+2'"),
    (["--family", "two-gen-mpdr", "--m", "\uff15"],
     "argument --m: invalid integer value: '\uff15'"),
    (["--family", "drr-extend", "--r", " 1,+3"], "input error: bad --r list: ' 1,+3'"),
    (["--family", "drr-extend", "--r", "1,\u0663"], "input error: bad --r list: '1,\u0663'"),
], ids=["x-underscore", "y-sign", "m-fullwidth", "r-blank-and-sign", "r-arabic-indic"])
def test_construct_refuses_integers_that_are_not_ascii_digits(capsys, files, flags, bad):
    """``int`` would read ``1_0``, ``+2``, padded and non-ASCII digits; a
    flag value reads only ASCII -?[0-9]+ and exits 3 otherwise."""
    z6 = files["tmp"] / "z6.grp"
    z6.write_text("cyclic 6\n")
    assert main(["construct", *flags, "--group", str(z6)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert bad in captured.err


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_envelope_hashes_piped_input(capsys, files):
    """A pipe can be read once: the reported hash is of the bytes parsed."""
    text = b"cyclic 5\n"
    read_fd, write_fd = os.pipe()
    try:
        os.write(write_fd, text)
        os.close(write_fd)
        code, doc = run_json(capsys, ["verify", "--group", f"/dev/fd/{read_fd}",
                                      "--spec", str(files["fig"])])
    finally:
        os.close(read_fd)
    assert code == 0
    assert doc["inputs"]["group"]["sha256"] == hashlib.sha256(text).hexdigest()
    assert doc["inputs"]["spec"]["sha256"] == \
        hashlib.sha256(files["fig"].read_bytes()).hexdigest()


def test_verify_color_blind_flag_rejected(capsys, files):
    assert main(["verify", "--group", str(files["z5"]), "--spec", str(files["fig"]),
                 "--color-blind"]) == 3
    assert "--color-blind" in capsys.readouterr().err


def test_exhaust_negative_n_and_group_rejected(capsys, files):
    # the group file would be swept and --n dropped without a word
    assert main(["search", "--problem", "exhaust-negative", "--n", "4",
                 "--group", str(files["z5"])]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:")
    assert "--n" in captured.err and "--group" in captured.err


@pytest.mark.parametrize("argv, unread", [
    (["rigid3", "--m", "5", "--n", "4", "--group", "z5"], ["--n", "--group"]),
    (["rigid3", "--m", "5", "--budget", "10"], ["--budget"]),
    (["rigid3", "--m", "5", "--seed", "3"], ["--seed"]),
    (["rigid3", "--m", "5", "--mode", "randomized", "--jobs", "2"], ["--jobs"]),
    (["drr2", "--group", "z5", "--m", "3", "--oriented", "--jobs", "4"],
     ["--m", "--oriented", "--jobs"]),
    (["drr2", "--group", "z5", "--n", "4", "--mode", "randomized"], ["--mode", "--n"]),
    (["exhaust-negative", "--n", "4", "--m", "2", "--seed", "1"], ["--m", "--seed"]),
])
def test_search_rejects_unread_flags(capsys, files, argv, unread):
    """A flag the problem (and rigid3 mode) does not read is named, not dropped."""
    argv = [str(files[a]) if a == "z5" else a for a in argv]
    assert main(["search", "--problem", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:") and captured.err.count("\n") == 1
    assert all(flag in captured.err for flag in unread)


@pytest.mark.parametrize("argv, unread", [
    (["cyclic-2pdr", "--n", "5", "--m", "3", "--x", "1", "--r", "1,2"],
     ["--m", "--x", "--r"]),
    (["cyclic-mpdr", "--n", "3", "--m", "3", "--group", "z5"], ["--group"]),
    (["two-gen-mpdr", "--group", "s3", "--m", "3", "--n", "6", "--r", "1"],
     ["--n", "--r"]),
    (["drr-extend", "--group", "z5", "--r", "1", "--m", "2", "--y", "2"],
     ["--m", "--y"]),
])
def test_construct_rejects_unread_flags(capsys, files, argv, unread):
    """A flag the family does not read is named, not dropped."""
    argv = [str(files[a]) if a in ("z5", "s3") else a for a in argv]
    assert main(["construct", "--family", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {argv[0]} does not take {', '.join(unread)}\n"


@pytest.mark.parametrize("argv", [
    ["rigid3", "--m", "4", "--budget", "1000", "--seed", "0"],
    ["rigid3", "--m", "4", "--mode", "randomized", "--jobs", "1"],
    ["drr2", "--group", "z5", "--mode", "exhaustive"],
])
def test_search_accepts_unread_flags_at_default(capsys, files, argv):
    argv = [str(files[a]) if a == "z5" else a for a in argv]
    assert main(["search", "--problem", *argv]) == 0


def test_search_missing_args(capsys, files):
    assert main(["search", "--problem", "rigid3"]) == 3
    assert main(["search", "--problem", "exhaust-negative"]) == 3


@pytest.mark.parametrize("argv, needs", [
    (["construct", "--family", "cyclic-2pdr"], "cyclic-2pdr needs --n"),
    (["construct", "--family", "cyclic-mpdr", "--n", "5"], "cyclic-mpdr needs --n and --m"),
    (["construct", "--family", "two-gen-mpdr", "--group", "z5"],
     "two-gen-mpdr needs --group and --m"),
    (["construct", "--family", "two-gen-mpdr", "--group=", "--m", "3"],
     "two-gen-mpdr needs --group and --m"),
    (["construct", "--family", "drr-extend", "--group", "z5"],
     "drr-extend needs --group and --r"),
    (["construct", "--family", "drr-extend", "--group", "z5", "--r="],
     "drr-extend needs --group and --r"),
    (["search", "--problem", "rigid3", "--mode", "randomized"], "rigid3 needs --m"),
    (["search", "--problem", "drr2"], "drr2 needs --group"),
    (["search", "--problem", "drr2", "--group="], "drr2 needs --group"),
], ids=["cyclic-2pdr", "cyclic-mpdr", "two-gen-mpdr", "two-gen-mpdr-empty-group",
        "drr-extend", "drr-extend-empty-r", "rigid3", "drr2", "drr2-empty-group"])
def test_missing_or_empty_needed_flag_refused(capsys, files, argv, needs):
    """A family or problem left without a flag it needs, or given it empty,
    names every flag it needs, in order, and writes nothing."""
    assert main([str(files[a]) if a == "z5" else a for a in argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {needs}\n"


@pytest.mark.parametrize("argv, group, code, err", [
    (["search", "--problem", "drr2"], "cyclic 0\n", 3,
     "input error: cyclic order must be at least 1"),
    (["search", "--problem", "drr2"], "perm 0\n()\n", 3,
     "input error: degree must be at least 1, got 0"),
    (["aut"], None, 3, "input error: need either --digraph or both --group and --spec"),
    (["export"], None, 3, "input error: need either --digraph or both --group and --spec"),
    (["construct", "--family", "two-gen-mpdr", "--m", "3", "--x", "1"], "cyclic 5\n", 3,
     "input error: two-gen-mpdr needs both --x and --y, or neither"),
    (["construct", "--family", "two-gen-mpdr", "--m", "3"], "cyclic 5\n", 2,
     "refused: two-gen-mpdr needs two generators; pass --x and --y or use a group "
     "file with at least two generator lines"),
], ids=["cyclic-0", "perm-0", "aut-no-input", "export-no-input", "x-without-y",
        "one-generator"])
def test_group_file_and_either_or_refusals(capsys, tmp_path, argv, group, code, err):
    """Refusals of a group file's header and of the flags that come in pairs
    or as alternatives: one line on stderr, nothing on stdout."""
    if group is not None:
        path = tmp_path / "g.grp"
        path.write_text(group)
        argv = [*argv, "--group", str(path)]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{err}\n"


def test_console_entry_point(files):
    proc = subprocess.run(
        [sys.executable, "-m", "mpdr", "aut", "--digraph", str(files["tri"])],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["aut"]["order"] == "3"


def test_bad_subcommand_exit_3():
    assert main(["frobnicate"]) == 3


# Small valid inputs for the contract test below, and the commands that read
# them; "{name}" stands for the path of file ``name``.  rigid3 keeps its --m
# and --budget, so that no mutated case runs long.
CONTRACT_FILES = {
    "cyclic": "cyclic 5\n",
    "perm": "perm 3\n(0 1 2)\n(0 1)\n",
    "spec": cyclic_2pdr(5).to_json(),
    "digraph": "n 3\n0 1\n1 2\n2 0\n",
}
CONTRACT_ARGVS = [
    ["verify", "--group", "{cyclic}", "--spec", "{spec}"],
    ["aut", "--digraph", "{digraph}"],
    ["aut", "--digraph", "{digraph}", "--oracle"],
    ["aut", "--group", "{cyclic}", "--spec", "{spec}"],
    ["export", "--digraph", "{digraph}"],
    ["export", "--group", "{cyclic}", "--spec", "{spec}"],
    ["construct", "--family", "cyclic-2pdr", "--n", "5"],
    ["construct", "--family", "cyclic-mpdr", "--n", "4", "--m", "3"],
    ["construct", "--family", "two-gen-mpdr", "--m", "3", "--group", "{perm}"],
    ["construct", "--family", "two-gen-mpdr", "--m", "3", "--group", "{perm}",
     "--x", "1", "--y", "2"],
    ["construct", "--family", "drr-extend", "--group", "{cyclic}", "--r", "1,2"],
    ["search", "--problem", "drr2", "--group", "{perm}"],
    ["search", "--problem", "exhaust-negative", "--n", "4"],
    ["search", "--problem", "exhaust-negative", "--group", "{perm}"],
    ["search", "--problem", "rigid3", "--m", "5", "--jobs", "1"],
    ["search", "--problem", "rigid3", "--m", "8", "--mode", "randomized",
     "--budget", "20", "--seed", "3"],
]
CONTRACT_MUTABLE_FLAGS = ("--n", "--m", "--x", "--y", "--r", "--jobs", "--seed")
CONTRACT_ALPHABET = ("#", "\r", "-", "_", "7", "\u3000", "\u00a0")


def _mutated(rng, text):
    """``text`` with one character deleted, duplicated or swapped with the
    next, or one character of CONTRACT_ALPHABET inserted."""
    i = rng.randrange(len(text))
    move = rng.randrange(4)
    if move == 0:
        return text[:i] + text[i + 1:]
    if move == 1:
        return text[:i] + text[i] + text[i:]
    if move == 2:
        return text[:i] + text[i + 1:i + 2] + text[i] + text[i + 2:]
    return text[:i] + rng.choice(CONTRACT_ALPHABET) + text[i:]


def test_mutated_inputs_keep_the_exit_code_contract(capsys, tmp_path):
    """One mutated input file or integer flag value per case: every command
    returns 0, 1, 2 or 3 and lets no exception escape."""
    rng = random.Random(26)
    for case in range(300):
        argv = rng.choice(CONTRACT_ARGVS)
        texts = dict(CONTRACT_FILES)
        files = [a[1:-1] for a in argv if a.startswith("{")]
        flags = [i + 1 for i, a in enumerate(argv)
                 if a in CONTRACT_MUTABLE_FLAGS and not (a == "--m" and "rigid3" in argv)]
        argv = list(argv)
        target = rng.choice(files + flags)
        if isinstance(target, int):
            argv[target] = _mutated(rng, argv[target])
        else:
            texts[target] = _mutated(rng, texts[target])
        for name, text in texts.items():
            (tmp_path / name).write_text(text, newline="")
        argv = [str(tmp_path / a[1:-1]) if a.startswith("{") else a for a in argv]
        assert main(argv) in (0, 1, 2, 3), (case, argv, texts)
        capsys.readouterr()
