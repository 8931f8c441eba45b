"""End-to-end tests for the command-line interface.

``cli.main`` is exercised in-process so exit codes and stdout/stderr can be
checked directly.  The byte-for-byte cases compare against the frozen files
under data/golden/, which scripts/make_goldens.py regenerates.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hsforge
from helpers import fuzz_partitions, sym_ladder_partition
from hsforge import cli
from hsforge.theorems import analyze

ROOT = Path(__file__).resolve().parents[1]
MIXED = str(ROOT / "data" / "ex_two_four_four.partition")
NORMAL = str(ROOT / "data" / "ex_two_normal_four.partition")
THREES = str(ROOT / "data" / "ex_three_threes.partition")
GOLDEN = ROOT / "data" / "golden"
# GAP leaves the coset of ab in no block; the two blocks of OVERLAP coincide.
GAP = ("rank 2\n"
       "sub H = b, aa, abA\n"
       "sub K = b, aa, abba, abaaba, abababa\n"
       "coset H rep 1\n"
       "coset K rep a\n")
OVERLAP = ("rank 2\n"
           "sub H = b, aa, abA\n"
           "coset H rep 1\n"
           "coset H rep 1\n")

# The cases scripts/make_goldens.py writes: every bundled example validates
# and reproduces its golden report byte-for-byte, plus the renderer cases.
_spec = importlib.util.spec_from_file_location(
    "make_goldens", ROOT / "scripts" / "make_goldens.py")
make_goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_goldens)
GOLDEN_CASES = make_goldens.cases()


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name,expected_code,argv", GOLDEN_CASES,
                         ids=[case[0] for case in GOLDEN_CASES])
def test_golden_output(capsys, name, expected_code, argv):
    code, out, _ = run_cli(capsys, argv)
    assert code == expected_code
    assert out == (GOLDEN / name).read_text()


def test_every_golden_file_is_replayed():
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(
        name for name, _, _ in GOLDEN_CASES)


def test_validate_text_mode(capsys):
    code, out, err = run_cli(capsys, ["validate", MIXED])
    assert code == 0
    assert err == ""
    assert out.splitlines() == ["valid: True", "indices: [2, 4, 4]"]


def test_validate_gap_exits_one(capsys, tmp_path):
    target = tmp_path / "gap.partition"
    target.write_text(GAP)
    code, out, _ = run_cli(capsys, ["validate", str(target), "--json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["gap_witness"] == "ab"
    assert payload["overlap_witness"] is None

    code, out, _ = run_cli(capsys, ["validate", str(target)])
    assert code == 1
    assert "gap witness: ab" in out.splitlines()


def test_validate_overlap_exits_one(capsys, tmp_path):
    target = tmp_path / "overlap.partition"
    target.write_text(OVERLAP)
    code, out, _ = run_cli(capsys, ["validate", str(target), "--json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["overlap_witness"] == {"word": "1", "blocks": [0, 1]}


def test_missing_file_exits_one(capsys, tmp_path):
    code, out, err = run_cli(capsys, ["validate", str(tmp_path / "nope")])
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_analyze_restricts_loop_words(capsys):
    code, out, _ = run_cli(capsys, ["analyze", MIXED, "--json",
                                    "--words", "ab, aa"])
    assert code == 0
    payload = json.loads(out)
    assert [check["word"] for check in payload["loop_checks"]] == ["ab", "aa"]


def test_analyze_rejects_bad_word(capsys):
    code, out, err = run_cli(capsys, ["analyze", MIXED, "--words", "ac"])
    assert code == 1
    assert out == ""
    assert "exceeds rank" in err


def test_cap_env_makes_analysis_unknown(capsys, monkeypatch):
    monkeypatch.setenv("HSFORGE_CAP", "1")
    code, out, err = run_cli(capsys, ["analyze", MIXED])
    assert code == 3
    assert err.startswith("unknown:")


def test_cap_env_must_be_positive_integer(capsys, monkeypatch):
    for bad in ("zero", "0", "-3"):
        monkeypatch.setenv("HSFORGE_CAP", bad)
        code, _, err = run_cli(capsys, ["validate", MIXED])
        assert code == 1
        assert "HSFORGE_CAP" in err


def test_cap_flags_override_environment(capsys, monkeypatch):
    monkeypatch.setenv("HSFORGE_CAP", "1")
    code, out, _ = run_cli(capsys, ["analyze", MIXED, "--json",
                                    "--cap-states", "100"])
    assert code == 0
    assert json.loads(out)["unknown"] is False


def test_usage_errors_exit_with_invalid_code(capsys):
    for argv in (["analyze", MIXED, "--cap-states", "0"],
                 ["bogus"],
                 ["graph", MIXED]):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 1
        capsys.readouterr()


def test_flags_no_command_reads_are_usage_errors(capsys):
    # zcheck and metric take no caps, no command takes a second cap besides
    # --cap-states, and graph prints no JSON
    for argv in (["zcheck", "2:0,4:1,4:3", "--cap-states", "5"],
                 ["zcheck", "2:0,4:1,4:3", "--cap-group", "5"],
                 ["metric", MIXED, NORMAL, "--cap-states", "5"],
                 ["metric", MIXED, NORMAL, "--cap-group", "5"],
                 ["validate", MIXED, "--cap-group", "5"],
                 ["analyze", MIXED, "--cap-group", "5"],
                 ["graph", MIXED, "--target", "hs", "--cap-group", "5"],
                 ["graph", MIXED, "--target", "sub", "--json"]):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err


def test_graph_sub_three_cosets_draws_three_nodes(capsys):
    code, out, _ = run_cli(capsys, ["graph", THREES, "--target", "sub"])
    assert code == 0
    assert out.count("digraph") == 1  # one distinct subgroup across the blocks
    assert len(re.findall(r"^  v\d+ \[label", out, re.M)) == 3
    assert len(re.findall(r"^  v\d+ -> v\d+", out, re.M)) == 6


def test_graph_hs_default_word_gives_self_loops(capsys):
    code, out, _ = run_cli(capsys, ["graph", MIXED, "--target", "hs"])
    assert code == 0
    edges = re.findall(r"(v\d+) -> (v\d+)", out)
    assert len(edges) == 8
    assert all(src == dst for src, dst in edges)


def test_graph_dot_dir_writes_files(capsys, tmp_path):
    code, out, _ = run_cli(capsys, ["graph", MIXED, "--target", "sub",
                                    "--dot-dir", str(tmp_path)])
    assert code == 0
    # Two distinct subgroups among the three blocks, hence two drawings.
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "block_0.dot", "block_1.dot"]
    assert out.splitlines() == [f"wrote {tmp_path / 'block_0.dot'}",
                                f"wrote {tmp_path / 'block_1.dot'}"]
    assert (tmp_path / "block_0.dot").read_text().startswith("digraph block_0 {")

    code, out, _ = run_cli(capsys, ["graph", MIXED, "--target", "hs",
                                    "--word", "ab", "--dot-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "hs_ab.dot").read_text() == (
        GOLDEN / "graph_hs_mixed.dot").read_text()


def test_graph_dot_dir_that_is_a_file_exits_one(capsys, tmp_path):
    target = tmp_path / "taken"
    target.write_text("")
    code, out, err = run_cli(capsys, ["graph", MIXED, "--target", "sub",
                                      "--dot-dir", str(target)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and str(target) in err
    assert "Traceback" not in err
    assert target.read_text() == ""


def test_graph_hs_on_invalid_partition_exits_one(capsys, tmp_path):
    for name, text, message in (
            ("gap", GAP, "coset of ab lies in 0 blocks"),
            ("overlap", OVERLAP, "coset of 1 lies in 2 blocks")):
        target = tmp_path / f"{name}.partition"
        target.write_text(text)
        code, out, err = run_cli(capsys, ["graph", str(target), "--target", "hs"])
        assert code == 1
        assert out == ""
        assert err == f"error: {message}; partition invalid\n"


def test_graph_rejects_bad_word(capsys):
    code, out, err = run_cli(capsys, ["graph", MIXED, "--target", "hs",
                                      "--word", "a-b"])
    assert code == 1
    assert err.startswith("error:")


def test_failed_cycle_bound_self_check_exits_two(capsys, monkeypatch):
    # no k-cycle through the marked vertex, though the census found one
    monkeypatch.setattr("hsforge.theorems.has_k_cycle_at", lambda *args: None)
    code, out, err = run_cli(capsys, ["analyze", MIXED])
    assert code == 2
    assert out == ""
    assert err == ("unsound: block 1: a 4-cycle exists but none passes the "
                   "marked vertex of a transitive group\n")


def test_failed_loop_graph_self_check_exits_two(capsys, monkeypatch):
    monkeypatch.setattr("hsforge.hsgraph.lcm", lambda *args: 0)
    code, out, err = run_cli(capsys, ["graph", MIXED, "--target", "hs",
                                      "--word", "ab"])
    assert code == 2
    assert out == ""
    assert err == ("unsound: order of w modulo N is 4 but blockwise lcm is 0\n")


def test_zcheck_text_mode(capsys):
    code, out, _ = run_cli(capsys, ["zcheck", "2:0,4:1,4:3"])
    assert code == 0
    assert out.splitlines() == [
        "valid: True",
        "o_max: 4 (x2)",
        "not_pairwise_coprime: True",
        "o_max_repeats: True",
        "every_modulus_divides_another: True",
        "non_divisors_repeat: True",
    ]

    code, out, _ = run_cli(capsys, ["zcheck", "2:0,2:0"])
    assert code == 1
    assert out.splitlines() == ["valid: False", "witness: 0"]


def test_zcheck_parse_error(capsys):
    code, _, err = run_cli(capsys, ["zcheck", "2:5"])
    assert code == 1
    assert err.startswith("error:")


def test_zcheck_past_any_period_scan_exits_one(capsys):
    code, out, err = run_cli(capsys, ["zcheck", "99999999999999:0", "--json"])
    assert code == 1
    assert json.loads(out) == {"valid": False, "witness": 1}
    assert err == ""
    # 40 disjoint classes whose first gap is 2**40 - 1
    chain = ",".join(f"{2 ** k}:{2 ** (k - 1) - 1}" for k in range(1, 41))
    code, out, err = run_cli(capsys, ["zcheck", chain, "--json"])
    assert code == 1
    assert json.loads(out) == {"valid": False, "witness": 1099511627775}
    assert err == ""


def test_metric_same_file_is_zero(capsys):
    code, out, _ = run_cli(capsys, ["metric", MIXED, MIXED])
    assert code == 0
    assert out == "rho = 0\n"


def test_metric_rejects_mixed_ranks(capsys, tmp_path):
    rank3 = tmp_path / "rank3.partition"
    rank3.write_text("rank 3\nsub F = a, b, c\ncoset F rep 1\n")
    code, out, err = run_cli(capsys, ["metric", THREES, str(rank3)])
    assert code == 1
    assert out == ""
    assert err == "error: partitions must share one rank\n"


def test_entrypoint_raises_systemexit(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["hsforge", "validate", MIXED])
    with pytest.raises(SystemExit) as excinfo:
        cli.entrypoint()
    assert excinfo.value.code == 0
    capsys.readouterr()


def test_parser_is_built_once_per_process():
    assert cli._parser() is cli._parser()


def test_repeated_calls_in_one_process(capsys, monkeypatch):
    # a cached parser keeps no state between calls: the output mode, a
    # usage error and the environment's cap are each read afresh
    code, out, _ = run_cli(capsys, ["analyze", MIXED, "--json"])
    assert code == 0
    assert out == (GOLDEN / "analyze_two_four_four.json").read_text()
    code, out, _ = run_cli(capsys, ["analyze", MIXED])
    assert code == 0
    assert out == (GOLDEN / "analyze_two_four_four.txt").read_text()

    with pytest.raises(SystemExit) as excinfo:
        cli.main(["zcheck"])
    assert excinfo.value.code == 1
    assert capsys.readouterr().err.startswith("usage: hsforge zcheck")
    code, out, _ = run_cli(capsys, ["zcheck", "2:0,4:1,4:3", "--json"])
    assert code == 0
    assert out == (GOLDEN / "zcheck_cover.json").read_text()

    monkeypatch.delenv("HSFORGE_CAP", raising=False)
    assert run_cli(capsys, ["analyze", MIXED])[0] == 0
    monkeypatch.setenv("HSFORGE_CAP", "1")
    code, _, err = run_cli(capsys, ["analyze", MIXED])
    assert code == 3
    assert err.startswith("unknown:")


def test_module_entry_point_in_a_fresh_interpreter():
    src = str(Path(hsforge.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    env.pop("HSFORGE_CAP", None)
    child = subprocess.run(
        [sys.executable, "-m", "hsforge.cli", "zcheck", "2:0,4:1,4:3", "--json"],
        capture_output=True, text=True, env=env, timeout=60)
    assert child.returncode == 0
    assert child.stdout == (GOLDEN / "zcheck_cover.json").read_text()


# Line fragments for the malformed-input test, valid and broken, some with
# sizes and ranks far past any cap; they are inserted into valid files.
LINES = [
    "rank 2", "rank 1", "rank 0", "rank x", "rank", "rank 1000000000000000000",
    "# a comment", "", "frobnicate H",
    "sub H = b, aa, abA", "sub F = a, b", "sub H = b", "sub = a", "sub H a",
    "sub H = z", "sub H = a,,b",
    "table M = 2; 0:a->1", "table M = 0;", "table M = x; 0:a->0", "table M = 3",
    "table M = 2; 0:a->5", "table M = 2; 0:a->1, 0:a->0", "table M = 2; 0:ab->1",
    "table M = 1; 0:a→0, 0:b→0", "table M = 1000000000000000000; 0:a->0",
    "coset H rep 1", "coset H rep a", "coset F rep 1", "coset Q rep a",
    "coset H rep", "coset H rep q", "coset H ref a",
]
FILES = [path.read_text(encoding="utf-8")
         for path in sorted((ROOT / "data").glob("*.partition"))] + [GAP, OVERLAP]


def _insert(text: str, edits: list[tuple[int, str]]) -> str:
    lines = text.splitlines()
    for position, line in edits:
        lines.insert(position, line)
    return "\n".join(lines)


partition_texts = st.builds(
    _insert, st.sampled_from(FILES),
    st.lists(st.tuples(st.integers(0, 12), st.sampled_from(LINES)), max_size=2))
numbers = st.integers(-2, 10**18)
zclass_texts = st.one_of(
    st.builds(lambda o, r, reduce: f"{o}:{r % o if reduce and o > 0 else r}",
              numbers, numbers, st.booleans()),
    st.sampled_from(["", "x", "3", ":", "2:", ":1", "a:b", "2:0:1"]))
zcheck_texts = st.one_of(
    st.sampled_from(["2:0,4:1,4:3", "1:0", "2:0,3:1"]),
    st.lists(zclass_texts, min_size=1, max_size=6).map(",".join))


def _exit_code(argv: list[str]) -> int:
    """The exit code of `hsforge ARGV`, also when argparse rejects the
    arguments (a class list that starts with '-' reads as an option)."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as done:
            return done.code


@settings(max_examples=40)
@given(partition_texts, zcheck_texts)
def test_malformed_input_gets_a_clean_exit_code(text, classes):
    # every command on every input exits 0, 1 or 3, never with a traceback
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "input.partition")
        Path(path).write_text(text, encoding="utf-8")
        hs = ["graph", path, "--target", "hs", "--word", "ab"]
        runs = [["validate", path], ["validate", path, "--cap-states", "5"],
                ["analyze", path, "--json"], ["analyze", path, "--cap-states", "5"],
                ["graph", path, "--target", "sub"], hs, hs + ["--cap-states", "5"],
                ["metric", path, MIXED], ["zcheck", classes]]
        for argv in runs:
            assert _exit_code(argv) in (0, 1, 3), argv


# Strings that the encoder must escape: quotes, backslashes, control and
# non-ASCII characters (an astral one takes a surrogate pair).
json_texts = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028é€😀'),
                               st.characters()))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2**200, 2**200)
    | st.floats(allow_nan=False, allow_infinity=False) | json_texts,
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(json_texts, children)),
    max_leaves=40)


def _stdlib(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


@given(json_values)
def test_the_writer_matches_the_stdlib_byte_for_byte(value):
    assert cli.dumps(value) == _stdlib(value)


def _keys_are_str(value) -> bool:
    if isinstance(value, dict):
        return all(type(key) is str and _keys_are_str(item)
                   for key, item in value.items())
    if isinstance(value, (list, tuple)):
        return all(map(_keys_are_str, value))
    return True


def test_the_writer_matches_the_stdlib_on_analyze_payloads():
    partitions = [*fuzz_partitions(60), *map(sym_ladder_partition, range(5, 8))]
    for p in partitions:
        payload = analyze(p).to_json()
        assert _keys_are_str(payload)
        assert cli.dumps(payload) == _stdlib(payload)


def test_the_writer_rejects_a_key_that_is_not_a_str():
    for value in ({1: "a"}, {"a": [{None: 0}]}, {"a": 0, 2.5: 1}):
        with pytest.raises(TypeError):
            cli.dumps(value)
