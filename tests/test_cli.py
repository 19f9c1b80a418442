from __future__ import annotations

import contextlib
import hashlib
import io
import json
from math import factorial
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from hyperstrata import checks, cli, spectral
from hyperstrata.checks import run_checks
from hyperstrata.errors import FormatError, OutOfRange, TooLarge
from hyperstrata.graphs import canonical_form
from hyperstrata.lie import MAX_EXPR_LETTERS, dimension, normalize
from hyperstrata.serialize import (
    annotated_from_json,
    annotated_to_json,
    dumps,
    graph_from_json,
    graph_to_json,
    lie_vector_from_text,
    lie_vector_to_text,
    parse_alphabet,
    parse_bracket_expr,
)
from hyperstrata.spectral import AB
from hyperstrata.trees import (
    annotate,
    build_T_lg,
    enumerate_trees,
    unnumbered_classes,
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_orbits(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "5", "--orbits")
    assert code == 0
    payload = json.loads(out)
    assert payload["format"] == 1
    assert [(c["edge_count"], c["orbit_size"])
            for c in payload["classes"]] == [(0, 1), (1, 10), (2, 15)]


def test_enumerate_numbered_counts(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "4")
    assert code == 0
    assert len(json.loads(out)["classes"]) == 4


@pytest.mark.parametrize("n, edges, orbits, good", [
    (6, None, False, False), (7, None, True, False), (8, None, False, True),
    (8, 3, False, True),    # no good (0, 8) tree has three edges
])
def test_enumerate_writes_what_dumps_would(capsys, tmp_path, n, edges,
                                           orbits, good):
    if orbits or good:
        classes = [{"graph": graph_to_json(c.representative),
                    "edge_count": c.edge_count, "orbit_size": c.orbit_size}
                   for c in unnumbered_classes(n, edges, only_good=good)]
    else:
        classes = [{"graph": graph_to_json(t)}
                   for t in enumerate_trees(n, edges)]
    expected = dumps({"format": 1, "n": n, "orbits": orbits or good,
                      "classes": classes})
    assert ('"classes": []' in expected) == (edges == 3)
    argv = ["enumerate", "--n", str(n)]
    argv += ["--edges", str(edges)] * (edges is not None)
    argv += ["--orbits"] * orbits + ["--good"] * good
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == expected
    path = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text(encoding="utf-8") == expected


def test_enumerate_good_filter(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "6", "--good")
    assert code == 0
    payload = json.loads(out)
    assert [(c["edge_count"], c["orbit_size"])
            for c in payload["classes"]] == [(0, 1), (1, 15), (1, 10)]


def test_certify_cli(capsys):
    code, out, err = run_cli(capsys, "certify", "--genus", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["d1_omega"] == "2·aabab"
    assert payload["d1d1_zero"] is True
    assert payload["good_stratum_check"] is True
    assert payload["f1_cell_empty"] is True
    assert "nonvanishing certified" in err


def test_pushforward_tlg(capsys):
    code, out, err = run_cli(capsys, "pushforward", "--tlg", "2,4")
    assert code == 0
    payload = json.loads(out)
    assert payload["graph_genus"] == 4
    assert payload["genus"] == [2]
    assert len(payload["involution"]) == 2      # two loops
    assert "stabilize" in err


def test_pushforward_trace_is_pinned(capsys, tmp_path):
    # stderr and the JSON trace of every star tree with g <= 5 and every
    # (0, 8) class, whose trees include rho = 0 vertices and splices
    runs = [("--tlg", f"{l},{g}") for g in range(2, 6) for l in range(g + 1)]
    for i, c in enumerate(unnumbered_classes(8)):
        path = tmp_path / f"class{i}.json"
        path.write_text(json.dumps(graph_to_json(c.representative)))
        runs.append(("--tree", str(path)))
    digest, lines = hashlib.sha256(), []
    for flag, value in runs:
        code, out, err = run_cli(capsys, "pushforward", flag, value)
        trace = json.loads(out)["trace"]
        assert code == 0 and err == "".join(f"{x}\n" for x in trace)
        digest.update(f"{err}\0{json.dumps(trace)}\0".encode())
        lines += trace
    assert any("rho=0" in x for x in lines)
    assert any(x.startswith("stabilize:") for x in lines)
    assert digest.hexdigest() == (
        "4687ba7e1ef32c1aee392deb4a65bcc4c755510ceb2b854a6efed00d52676ad4")


def test_pushforward_roundtrip_through_file(capsys, tmp_path):
    tree = build_T_lg(1, 2).tree
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(graph_to_json(tree)))
    code, out, _ = run_cli(capsys, "pushforward", "--tree", str(path))
    assert code == 0
    assert json.loads(out)["graph_genus"] == 2


def test_annotate_cli(capsys, tmp_path):
    tree = enumerate_trees(6, 1)[0]
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(graph_to_json(tree)))
    code, out, _ = run_cli(capsys, "annotate", "--tree", str(path))
    assert code == 0
    payload = json.loads(out)
    assert "parity" in payload and "rho" in payload


def test_normalize_cli(capsys):
    code, out, _ = run_cli(capsys, "normalize", "--expr", "[[a,a],[a,b]]")
    assert code == 0
    assert out.strip() == "2·aaab"


def test_lyndon_cli(capsys):
    code, out, _ = run_cli(capsys, "lyndon", "--degree", "3,2",
                           "--alphabet", "a:odd,b:even")
    assert code == 0
    assert out.splitlines()[:2] == ["aaabb", "aabab"]
    code, out, _ = run_cli(capsys, "lyndon", "--degree", "2,2")
    assert "(ab)^[2]" in out


@pytest.mark.parametrize("alphabet,degree", [
    ("a:odd,b:even", "3,2"), ("a:odd,b:even", "2,2"),
    ("a:odd,b:even", "4,2"), ("a:odd,b:even", "2,0"),
    ("a:odd,b:even", "0,2"), ("a:odd,b:odd", "2,2"),
    ("a:even,b:odd,c:odd", "2,2,2"), ("a:odd,b:even", "4,4"),
])
def test_lyndon_cli_dimension_counts_the_printed_basis(capsys, alphabet,
                                                       degree):
    code, out, _ = run_cli(capsys, "lyndon", "--degree", degree,
                           "--alphabet", alphabet)
    *basis, last = out.splitlines()
    md = tuple(int(c) for c in degree.split(","))
    expected = dimension(parse_alphabet(alphabet), md)
    assert code == 0
    assert last == f"# dimension {expected}"
    assert len([w for w in basis if w]) == expected


def test_d1_cli(capsys):
    code, out, _ = run_cli(capsys, "d1", "--genus", "2")
    assert code == 0 and out.strip() == "2·aaab"


@pytest.mark.parametrize("word", [None, "a" + "b" * 61])
@pytest.mark.parametrize("genus", [spectral.MAX_D1_GENUS + 1, 10 ** 18])
def test_d1_refuses_a_large_genus_before_any_lie_work(capsys, monkeypatch,
                                                      genus, word):
    def no_lie_work(*args):
        raise AssertionError("Lie work before the genus was refused")

    for name in ("d1", "basis_vector"):
        monkeypatch.setattr(cli, name, no_lie_work)
    argv = ["d1", "--genus", str(genus)] + ["--word", word] * bool(word)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"genus {genus} exceeds {spectral.MAX_D1_GENUS}" in err
    with pytest.raises(TooLarge):
        spectral.VSpaceElement(genus, 1, normalize(("a", "b"), AB))


@pytest.mark.parametrize("word, message", [
    ("a" + "b" * 100000, "level 100000 outside 0..3"),
    ("a" * 100000 + "b", "multidegree (100000, 1), expected (5, 1)"),
], ids=["b-heavy", "a-heavy"])
def test_d1_checks_the_word_size_before_the_lyndon_test(capsys, word,
                                                        message):
    start = perf_counter()
    code, out, err = run_cli(capsys, "d1", "--genus", "3", "--word", word)
    assert perf_counter() - start < 1
    assert code == 2 and out == "" and "Traceback" not in err
    assert message in err


def test_normalize_refuses_a_deep_chain(capsys):
    # [[...[a,b],b]...,b] 1,200 deep ended in RecursionError
    chain = "[" * 1200 + "a" + ",b]" * 1200
    code, out, err = run_cli(capsys, "normalize", "--expr", chain)
    assert code == 2 and out == "" and "Traceback" not in err
    assert f"1201 letters exceeds {MAX_EXPR_LETTERS}" in err
    depth = MAX_EXPR_LETTERS - 1
    code, out, _ = run_cli(capsys, "normalize", "--expr",
                           "[" * depth + "a" + ",b]" * depth)
    assert code == 0 and out == "1·a" + "b" * depth + "\n"


def test_tables_cli(capsys):
    code, out, _ = run_cli(capsys, "tables", "--kind", "e1", "--n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,q,dim,strata"
    cells = {tuple(map(int, row.split(",")[:2])): int(row.split(",")[2])
             for row in lines[1:]}
    assert cells == {(-1, 1): 3, (0, 1): 2, (0, 2): 1}
    code, out, _ = run_cli(capsys, "tables", "--kind", "f1", "--genus", "2")
    assert code == 0 and len(out.strip().splitlines()) > 1


def test_check_cli_quick(capsys):
    code, out, _ = run_cli(capsys, "check", "--level", "quick")
    assert code == 0
    assert all(line.startswith("PASS") for line in out.strip().splitlines())


def test_check_stdout_is_the_same_from_run_to_run(capsys):
    # The per-audit seconds go to stderr; the results alone go to stdout.
    first = run_cli(capsys, "check", "--level", "quick")
    second = run_cli(capsys, "check", "--level", "quick")
    assert first[0] == second[0] == 0 and first[1] == second[1]
    assert "s)" not in first[1]
    names = [line.split()[1] for line in first[1].splitlines()[:-1]]
    assert [line.split()[0] for line in first[2].splitlines()] == names
    assert all(line.endswith("s") for line in first[2].splitlines())


def test_check_cli_fails_under_a_planted_fault(capsys, monkeypatch):
    genus = checks.genus
    monkeypatch.setattr(checks, "genus", lambda g: genus(g) + 1)
    code, out, err = run_cli(capsys, "check", "--level", "quick")
    lines = out.strip().splitlines()
    assert code == 1
    assert [line.split()[1] for line in lines if line.startswith("FAIL")] \
        == ["genus-preservation", "overall:"]
    assert lines[-1].startswith("FAIL overall")
    assert "Traceback" not in out + err


def test_certify_cli_fails_with_an_offender(capsys, monkeypatch):
    monkeypatch.setattr(spectral, "good_classes",
                        lambda g, edge_count=None: ["offender"])
    code, out, err = run_cli(capsys, "certify", "--genus", "3")
    payload = json.loads(out)
    assert code == 1
    assert payload["passed"] is False and payload["f1_cell_empty"] is False
    assert "FAILED" in err and "Traceback" not in err


@pytest.mark.parametrize("level", ["Quick", "fast", "FULL", ""])
def test_run_checks_rejects_unknown_levels(level):
    with pytest.raises(OutOfRange):
        run_checks(level)


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["enumerate"])          # missing --n
    assert exc.value.code == 2
    code, _, err = run_cli(capsys, "tables", "--kind", "e1")   # missing --n
    assert code == 2 and "hint" in err


def test_e1_table_beyond_max_leaves_exits_two(capsys):
    code, out, err = run_cli(capsys, "tables", "--kind", "e1", "--n", "13")
    assert code == 2 and out == ""
    assert "Traceback" not in err and "4 <= m <= 12" in err


@pytest.mark.parametrize("argv", [
    ("pushforward", "--tlg", "2"),
    ("pushforward", "--tlg", "a,b"),
    ("pushforward",),
    ("lyndon", "--degree", "x"),
    ("lyndon", "--degree", "0,0"),
    ("lyndon", "--degree", "3,2,1"),
    ("lyndon", "--degree=-1,3"),
    ("normalize", "--expr", "[a,c]"),
    ("d1", "--genus", "3", "--word", "abc"),
    ("pushforward", "--tree", "."),
    ("certify", "--genus", "2", "--out", "."),
    ("enumerate", "--n", "10"),
    ("tables", "--kind", "f1", "--genus", "11"),
    ("certify", "--genus", "11"),
    ("lyndon", "--degree", "40,40"),
    ("lyndon", "--degree", "1000000,1000000"),
    ("lyndon", "--degree", "0,1000000000"),
    ("d1", "--genus", "100000"),
    ("pushforward", "--tlg", "1,1000000000000"),
    ("d1", "--genus", "3", "--word", "baaab"),
])
def test_bad_input_exits_two_without_traceback(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "Traceback" not in err and "hint" in err


def test_bad_tree_file_exits_two_without_traceback(capsys, tmp_path):
    numbered = graph_to_json(build_T_lg(1, 2).tree)
    contents = {"text.json": "not json", "list.json": "[1, 2]",
                "numbering.json": json.dumps({**numbered,
                                              "leaf_numbering": [1, 2]})}
    for name, text in contents.items():
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run_cli(capsys, "annotate", "--tree", str(path))
        assert code == 2 and out == "", name
        assert "Traceback" not in err and "hint" in err, name


def test_deeply_nested_tree_file_exits_two(capsys, tmp_path):
    # json recurses once per bracket, so this file raises RecursionError.
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    for command in ("annotate", "pushforward"):
        code, out, err = run_cli(capsys, command, "--tree", str(path))
        assert code == 2 and out == "", command
        assert "Traceback" not in err and "not JSON" in err, command


def test_tree_with_positive_genus_label_exits_two(capsys, tmp_path):
    tree = {"format": 1, "flags": list(range(1, 9)), "involution": [[7, 8]],
            "vertices": [[1, 2, 3, 7], [4, 5, 6, 8]], "genus": [1, 0],
            "leaf_numbering": {str(k): k for k in range(1, 7)}}
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(tree))
    for command in ("annotate", "pushforward"):
        code, out, err = run_cli(capsys, command, "--tree", str(path))
        assert code == 2 and out == "", command
        assert "Traceback" not in err and "genus 0" in err, command


def test_leafless_tree_exits_two(capsys, tmp_path):
    # Two vertices joined by one edge, no leaves: the cover is two sheets.
    tree = {"format": 1, "flags": [1, 2], "involution": [[1, 2]],
            "vertices": [[1], [2]], "genus": [0, 0], "leaf_numbering": {}}
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(tree))
    code, out, err = run_cli(capsys, "pushforward", "--tree", str(path))
    assert code == 2 and out == ""
    assert "Traceback" not in err and "two sheets" in err


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "certify", "--genus", "2",
                           "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["passed"] is True


# --------------------------------------------------------------------------
# Random command lines.
# --------------------------------------------------------------------------

# Integers for size flags: small values around every range's ends, and
# out-of-range and huge ones.  Valid sizes that are expensive are left out for
# cost only, never for a fault: numbered `enumerate --n` 8 and 9 (4 s and
# 170 s), `enumerate --good --n` past 18, `tables --kind f1 --genus` 8 to 10,
# `d1 --genus` 31 to 60 (up to 0.6 s each), `lyndon` past 10^5 letters
# written, `check --level full` (1.6 s) and bracket expressions of 9 to
# `MAX_EXPR_LETTERS` letters, whose cost grows with their multidegree (28 s
# at 25 letters).  Expressions past the bound are drawn: they must exit 2.
_INT = st.one_of(st.integers(-3, 24),
                 st.sampled_from([10 ** 6, 10 ** 12, 10 ** 18, -10 ** 18]))
_TEXT = st.text(alphabet="abcxyz019[],:- ", max_size=10)


def _ints(values):
    return st.one_of(st.lists(values, min_size=1, max_size=4).map(
        lambda xs: ",".join(map(str, xs))), _TEXT)


def _alphabet():
    item = st.tuples(st.sampled_from("abcxy1"),
                     st.sampled_from(["odd", "even", "0", "1", "strange"]))
    return st.one_of(st.lists(item, min_size=1, max_size=4).map(
        lambda items: ",".join(f"{x}:{p}" for x, p in items)), _TEXT)


def _expression():
    letter = st.sampled_from("abcx")
    tree = st.recursive(letter, lambda c: st.tuples(c, c), max_leaves=8)

    def text(node):
        if isinstance(node, str):
            return node
        return f"[{text(node[0])},{text(node[1])}]"

    return st.one_of(tree.map(text), _wrapped(), _TEXT)


@st.composite
def _wrapped(draw):
    """An expression of more than MAX_EXPR_LETTERS letters: a letter wrapped
    at least MAX_EXPR_LETTERS times, each time on a drawn side and with a
    drawn letter, written without recursion."""
    core = draw(st.sampled_from("abcx"))
    wraps = draw(st.lists(st.tuples(st.booleans(), st.sampled_from("abcx")),
                          min_size=1, max_size=8))
    times = draw(st.integers(MAX_EXPR_LETTERS, 3000))
    opens, closes = [], []
    for i in range(times):
        left, y = wraps[i % len(wraps)]
        opens.append("[" if left else f"[{y},")
        closes.append(f",{y}]" if left else "]")
    return "".join(reversed(opens)) + core + "".join(closes)


def _over_bound(argv) -> bool:
    flags = dict(zip(argv, argv[1:]))
    return argv[0] == "normalize" and \
        flags.get("--expr", "").count("[") >= MAX_EXPR_LETTERS


def _letters_written(counts) -> int:
    """The letters `lyndon` writes for counts in 0..24."""
    words = factorial(sum(counts))
    for c in counts:
        words //= factorial(c)
    return sum(counts) * words


def _cheap(argv) -> bool:
    """False for the valid but expensive sizes named above."""
    flags = dict(zip(argv, argv[1:]))

    def number(flag):
        try:
            return int(flags[flag])
        except (KeyError, ValueError):
            return None

    command, n, g = argv[0], number("--n"), number("--genus")
    if command == "enumerate":
        if "--good" in argv:
            return n is None or not 19 <= n <= 22
        return "--orbits" in argv or n not in (8, 9)
    if command == "tables":
        return "f1" not in argv or g is None or not 8 <= g <= 10
    if command == "d1":
        return g is None or not 31 <= g <= 60
    if command == "lyndon":
        try:
            counts = [int(c) for c in flags["--degree"].split(",")]
        except (KeyError, ValueError):
            return True
        # a huge count is refused, or is the only letter and one word
        return not (all(0 <= c <= 24 for c in counts) and
                    10 ** 5 < _letters_written(counts) <= 5 * 10 ** 7)
    return True


@st.composite
def _command_line(draw, tree_paths, out_paths):
    def flag(name, values):
        return [name, str(draw(values))] if draw(st.booleans()) else []

    command = draw(st.sampled_from(
        ["enumerate", "annotate", "pushforward", "lyndon", "normalize", "d1",
         "certify", "tables", "check", "bogus"]))
    paths = st.sampled_from(tree_paths)
    argv = [command]
    if command == "enumerate":
        argv += flag("--n", _INT) + flag("--edges", _INT)
        argv += draw(st.sampled_from([[], ["--orbits"], ["--good"]]))
    elif command in ("annotate", "pushforward"):
        argv += flag("--tree", paths)
        if command == "pushforward":
            argv += flag("--tlg", _ints(_INT))
    elif command == "lyndon":
        argv += flag("--degree", _ints(_INT)) + flag("--alphabet", _alphabet())
    elif command == "normalize":
        argv += flag("--expr", _expression())
        argv += flag("--alphabet", _alphabet())
    elif command == "d1":
        argv += flag("--genus", _INT) + flag("--word", _TEXT)
    elif command == "certify":
        argv += flag("--genus", _INT)
    elif command == "tables":
        argv += flag("--kind", st.sampled_from(["e1", "f1", "x"]))
        argv += flag("--n", _INT) + flag("--genus", _INT)
    elif command == "check":
        argv += flag("--level", st.sampled_from(["quick", "Quick", ""]))
    argv += flag("--out", st.sampled_from(out_paths))
    argv += draw(st.lists(_TEXT, max_size=2))
    return argv


def _tree_files(root) -> list[str]:
    """Tree JSON files, valid and malformed, and paths that are no file."""
    good = graph_to_json(build_T_lg(1, 2).tree)
    payloads = {
        "tree": good, "graph": graph_to_json(build_T_lg(1, 2).graph),
        "format": {**good, "format": 2}, "list": [1, 2], "empty": {},
        "flags": {**good, "flags": "abc"},
        "involution": {**good, "involution": [[1, 99]]},
        "vertices": {**good, "vertices": [[1, 2, 3]]},
        "genus": {**good, "genus": [1, -1, "x"]},
        "numbering": {**good, "leaf_numbering": {"1": 1}},
    }
    paths = [str(root), str(root / "missing.json")]
    for name, payload in payloads.items():
        (root / f"{name}.json").write_text(json.dumps(payload))
        paths.append(str(root / f"{name}.json"))
    (root / "text.json").write_text("not json")
    return paths + [str(root / "text.json")]


def test_random_command_lines_exit_cleanly(tmp_path):
    # No traceback and an exit code in {0, 1, 2}, with 1 only where a
    # certificate or check failed
    tree_paths = _tree_files(tmp_path)
    out_paths = [str(tmp_path / "out.txt"), str(tmp_path),
                 str(tmp_path / "missing" / "out.txt")]

    @settings(max_examples=300, deadline=None)
    @given(argv=_command_line(tree_paths, out_paths).filter(_cheap))
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), argv
        assert code == 2 or not _over_bound(argv), argv
        assert code != 1 or argv[0] in ("certify", "check"), argv
        assert "Traceback" not in err.getvalue(), argv

    run()


# --------------------------------------------------------------------------
# Serialization round-trips.
# --------------------------------------------------------------------------

def test_lyndon_long_word_exits_zero(capsys):
    # 1,201 words of 1,201 letters: past the recursion limit, were the
    # permutations generated by one recursive call per letter
    code, out, err = run_cli(capsys, "lyndon", "--degree", "1,1200")
    assert code == 0 and "Traceback" not in err
    assert out == "a" + "b" * 1200 + "\n# dimension 1\n"


def test_graph_json_reads_the_involution_only():
    for t in enumerate_trees(6, 3)[:5]:
        a = annotate(t)
        graph_to_json(t)
        annotated_to_json(a)


def test_graph_json_roundtrip():
    for t in enumerate_trees(5):
        payload = graph_to_json(t)
        back = graph_from_json(json.loads(json.dumps(payload)))
        assert canonical_form(back) == canonical_form(t)
        bare = graph_from_json(graph_to_json(t.graph))
        assert canonical_form(bare) == canonical_form(t.graph)


def test_annotated_json_roundtrip():
    for l, g in [(0, 2), (2, 3), (3, 3)]:
        t = build_T_lg(l, g)
        payload = annotated_to_json(t)
        back = annotated_from_json(payload)
        assert canonical_form(back.tree) == canonical_form(t.tree)
        assert annotated_to_json(back) == payload
        assert sorted(back.rho) == sorted(t.rho)


def test_annotated_json_rejects_tampering():
    payload = annotated_to_json(build_T_lg(2, 3))
    payload["rho"] = [0] * len(payload["rho"])
    with pytest.raises(FormatError):
        annotated_from_json(payload)


def _edgeless_tree(**changes) -> dict:
    """A numbered edgeless (0, 6) tree's payload, with fields replaced."""
    return {"format": 1, "flags": list(range(1, 7)), "involution": [],
            "vertices": [list(range(1, 7))], "genus": [0],
            "leaf_numbering": {str(k): k for k in range(1, 7)}, **changes}


def test_graph_json_refuses_an_involution_pair_off_the_flags():
    # Graph's constructor would drop the pair and read the edgeless tree.
    assert graph_from_json(_edgeless_tree()).graph.edge_count == 0
    with pytest.raises(FormatError):
        graph_from_json(_edgeless_tree(involution=[[7, 8]]))


def test_graph_json_refuses_numbers_that_are_not_integers():
    # int() would truncate 4.9 to flag 4 and read True as 1.
    for changes in ({"flags": [1, 2, 3, 4.9, 5, 6]},
                    {"vertices": [[1, 2, 3, 4.0, 5, 6]]},
                    {"genus": [False]},
                    {"leaf_numbering": {**{str(k): k for k in range(1, 6)},
                                        "6": 6.0}},
                    {"format": True}):
        with pytest.raises(FormatError):
            graph_from_json(_edgeless_tree(**changes))


def test_graph_json_refuses_a_flag_repeated_in_a_part():
    # Graph's constructor would merge [1, 1, 2, 3, 4] into [1, 2, 3, 4].
    payload = _edgeless_tree(flags=[1, 2, 3, 4], vertices=[[1, 1, 2, 3, 4]],
                             leaf_numbering={str(k): k for k in range(1, 5)})
    with pytest.raises(FormatError):
        graph_from_json(payload)
    with pytest.raises(FormatError):
        graph_from_json(_edgeless_tree(flags=[1, 1, 2, 3, 4, 5, 6]))


def test_annotated_json_refuses_a_wrong_internal_list():
    payload = annotated_to_json(build_T_lg(2, 3))
    assert annotated_from_json(payload)
    payload["internal"] = [not x for x in payload["internal"]]
    with pytest.raises(FormatError):
        annotated_from_json(payload)


def test_lie_vector_text_refuses_what_is_not_a_basis_term():
    # 1/0 is no number; ba is not Lyndon, and the square of the even word b
    # is zero, so neither is a basis term.
    for text in ("1/0·ab", "1·ba", "1·(b)^[2]", "1·(ab", "1·", "1·ac"):
        with pytest.raises(FormatError):
            lie_vector_from_text(text, AB)
    assert lie_vector_to_text(lie_vector_from_text("2·(a)^[2]", AB)) == \
        "2·(a)^[2]"


def test_lie_vector_text_roundtrip():
    samples = [
        normalize((("a", "a"), ("a", "b")), AB),
        normalize(("b", "a"), AB),
        normalize(("a", "a"), AB),
        normalize(("b", "b"), AB),
    ]
    for v in samples:
        assert lie_vector_from_text(lie_vector_to_text(v), AB) == v


def test_bracket_expr_parser():
    assert parse_bracket_expr("[[a,b],[a,a]]") == (("a", "b"), ("a", "a"))
    assert parse_bracket_expr("a") == "a"
    with pytest.raises(FormatError):
        parse_bracket_expr("[a,b")
    with pytest.raises(FormatError):
        parse_bracket_expr("[a,b]]")


def test_alphabet_parser():
    alpha = parse_alphabet("x:odd,y:even,z:odd")
    assert alpha.letters == ("x", "y", "z")
    assert alpha.degrees == (1, 0, 1)
    with pytest.raises(FormatError):
        parse_alphabet("x:strange")
