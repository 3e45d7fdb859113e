import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mpdr import (Digraph, FiniteGroup, FormatError, automorphism_group, cyclic_2pdr,
                  search)
from mpdr.cli import main, parse_group_text

# Whole CLI documents, keyed by case name: the exit code and the JSON report
# with wall times dropped and input paths cut to their basenames.
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
                for k, v in node.items() if k not in ("wall_time", "elapsed_seconds")}
    if isinstance(node, list):
        return [_normalized(v) for v in node]
    return node


@pytest.mark.parametrize("case", sorted(GOLDEN_ARGV))
def test_golden_documents(capsys, files, case):
    argv = [str(files[a]) if a in files else a for a in GOLDEN_ARGV[case]]
    code, doc = run_json(capsys, argv)
    assert {"exit": code, "doc": _normalized(doc)} == GOLDEN[case]


def test_parse_group_text_cyclic():
    assert parse_group_text("cyclic 6\n").order == 6


def test_parse_group_text_perm():
    g = parse_group_text("perm 3\n(0 1 2)\n(0 1)\n")
    assert g.order == 6
    assert g.designated_generators == (1, 2)


def test_parse_group_text_comments_and_errors():
    assert parse_group_text("# symmetric\nperm 3\n(0 1 2)\n(0 1)\n").order == 6
    for bad in ("", "ring 4\n", "cyclic x\n", "cyclic 4\n(0 1)\n", "perm 3\n"):
        with pytest.raises(FormatError):
            parse_group_text(bad)


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


def test_construct_two_gen_from_group_file(capsys, files):
    out = files["tmp"] / "spec.json"
    code = main(["construct", "--family", "two-gen-mpdr", "--group", str(files["s3"]),
                 "--m", "3", "--out", str(out)])
    assert code == 0
    assert out.exists()
    doc = json.loads(out.read_text())
    assert doc["m"] == 3 and doc["n"] == 6


def test_construct_drr_extend(capsys, files):
    z7 = files["tmp"] / "z7.grp"
    z7.write_text("cyclic 7\n")
    code, doc = run_json(capsys, ["construct", "--family", "drr-extend",
                                  "--group", str(z7), "--r", "1,3"])
    assert code == 0
    assert doc["m"] == 2


def test_verify_true_exit_0(capsys, files):
    spec = files["tmp"] / "fig.spec"
    main(["construct", "--family", "cyclic-2pdr", "--n", "5", "--out", str(spec)])
    capsys.readouterr()
    code, doc = run_json(capsys, ["verify", "--group", str(files["z5"]),
                                  "--spec", str(spec)])
    assert code == 0
    assert doc["report"]["is_pdr"] is True
    assert doc["report"]["aut_order"] == "5"
    assert doc["tool"]["name"] == "mpdr"
    assert doc["tool"]["version"]
    assert set(doc["inputs"]) == {"group", "spec"}
    assert len(doc["inputs"]["group"]["sha256"]) == 64


def test_verify_false_exit_1_with_witness(capsys, files):
    code, doc = run_json(capsys, ["verify", "--group", str(files["z3"]),
                                  "--spec", str(files["allg"])])
    assert code == 1
    assert doc["report"]["is_pdr"] is False
    assert doc["report"]["extra_automorphism_witness"]


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
    assert doc["aut"]["order"] == "3"
    assert doc["aut"]["degree"] == 3


def test_aut_oracle_agrees(capsys, files):
    _, fast = run_json(capsys, ["aut", "--digraph", str(files["tri"])])
    _, oracle = run_json(capsys, ["aut", "--digraph", str(files["tri"]), "--oracle"])
    assert fast["aut"]["order"] == oracle["aut"]["order"]
    assert oracle["mode"] == "oracle"


def test_aut_from_group_and_spec(capsys, files):
    spec = files["tmp"] / "fig.spec"
    main(["construct", "--family", "cyclic-2pdr", "--n", "5", "--out", str(spec)])
    capsys.readouterr()
    code, doc = run_json(capsys, ["aut", "--group", str(files["z5"]),
                                  "--spec", str(spec)])
    assert code == 0
    assert doc["aut"]["order"] == "5"


def test_export_dot_digon_rendering(capsys, files):
    z2 = files["tmp"] / "z2.grp"
    z2.write_text("cyclic 2\n")
    spec = files["tmp"] / "fig3.spec"
    main(["construct", "--family", "cyclic-mpdr", "--n", "2", "--m", "4",
          "--out", str(spec)])
    capsys.readouterr()
    code = main(["export", "--format", "dot", "--group", str(z2), "--spec", str(spec)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("dir=none") == 10  # digon count of the built digraph
    assert 'label="x_3"' in out
    arrows = [ln for ln in out.splitlines()
              if "->" in ln and "dir=none" not in ln and "label" not in ln]
    assert len(arrows) == 24 - 2 * 10  # one-way arcs


def test_search_exhaust_negative(capsys, files):
    code, doc = run_json(capsys, ["search", "--problem", "exhaust-negative",
                                  "--n", "4"])
    assert code == 0
    assert len(doc["records"]) == 16
    assert doc["all_exceed_group_order"] is True
    assert all(r["aut_order"] > 4 for r in doc["records"])
    assert all(r["shift_exponent"] is not None for r in doc["records"])


def test_search_rigid3(capsys, files):
    code, doc = run_json(capsys, ["search", "--problem", "rigid3", "--m", "4"])
    assert code == 0
    assert doc["verdict"] == "none-exists"


def test_search_rigid3_readme_example(capsys):
    code, doc = run_json(capsys, ["search", "--problem", "rigid3", "--m", "12",
                                  "--mode", "randomized", "--budget", "5000",
                                  "--oriented"])
    assert code == 0
    assert doc["verdict"] == "witness-found"
    g = Digraph(12, [tuple(a) for a in doc["witness"]["arcs"]])
    assert g.is_k_regular(3) and g.is_oriented()
    assert automorphism_group(g).order == 1


def test_search_rigid3_randomized_too_few_vertices(capsys):
    code, doc = run_json(capsys, ["search", "--problem", "rigid3", "--m", "2",
                                  "--mode", "randomized"])
    assert code == 0
    assert (doc["verdict"], doc["nodes_explored"]) == ("inconclusive", 0)
    assert capsys.readouterr().err == ""


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
])
def test_search_rejects_bad_jobs_and_budget(capsys, argv):
    assert main(["search", "--problem", "rigid3", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be at least" in captured.err
    assert "Traceback" not in captured.err


def test_search_rigid3_jobs_above_one_refused(capsys):
    # exhaustive rigid3 is one sequential scan; a pool size is not accepted
    assert main(["search", "--problem", "rigid3", "--m", "5", "--jobs", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("refused:") and captured.err.count("\n") == 1
    assert "jobs must be 1" in captured.err


@pytest.mark.parametrize("command", ["verify", "aut"])
def test_oversized_spec_refused_before_build(capsys, monkeypatch, files, command):
    """m = 200000 parts over Z5 is 10^6 vertices: refused from the spec's
    header, before the digraph is built."""
    def unbuilt(*args, **kwargs):
        raise AssertionError("the digraph was built")

    monkeypatch.setattr("mpdr.cli.build_m_cayley", unbuilt)
    monkeypatch.setattr("mpdr.verify.build_m_cayley", unbuilt)
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


def test_console_entry_point(files):
    proc = subprocess.run(
        [sys.executable, "-m", "mpdr", "aut", "--digraph", str(files["tri"])],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["aut"]["order"] == "3"


def test_bad_subcommand_exit_3():
    assert main(["frobnicate"]) == 3
