import contextlib
import copy
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shardorder.cli import SUITES, _indecomposable_count, main
from shardorder.perms import Permutation, all_permutations
from shardorder.preorders import Preorder, lam, mu, preorder_from_json, preorder_to_json

from oracles import is_indecomposable


SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_map_figure3(capsys):
    code, out, _ = run(capsys, "map", "26314758")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "n": 8,
        "blocks": [[2], [1, 3, 6], [4], [5, 7], [8]],
        "less": [[0, 1], [1, 2], [1, 3]],
    }


def test_unmap_figure5(capsys):
    fig5 = {
        "n": 9,
        "blocks": [[2], [1, 3], [7, 9], [4, 8], [5], [6]],
        "less": [[0, 1], [2, 3], [3, 4], [3, 5]],
    }
    code, out, _ = run(capsys, "unmap", json.dumps(fig5))
    assert code == 0
    assert out.strip() == "231978456"


def test_unmap_map_roundtrip(capsys):
    for word in ("1", "4312", "26314758", "3,1,2,10,9,4,5,6,7,8"):
        p = Permutation.parse(word)
        code, out, _ = run(capsys, "map", word, "--force")
        assert code == 0
        code, out, _ = run(capsys, "unmap", out.strip(), "--force")
        assert code == 0
        assert Permutation.parse(out.strip()) == p


def test_unmap_from_file(tmp_path, capsys):
    path = tmp_path / "pre.json"
    path.write_text(json.dumps(preorder_to_json(mu(Permutation.parse("4312")))))
    code, out, _ = run(capsys, "unmap", str(path))
    assert code == 0 and out.strip() == "4312"


def test_unmap_reports_axiom_violation(capsys):
    bad = {"n": 4, "blocks": [[1, 3], [2, 4]], "less": []}
    code, out, err = run(capsys, "unmap", json.dumps(bad))
    assert code == 2
    assert "P1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("unmap", '{"n":3,"blocks":[[1],[2],[3]],"less":[[0,7]]}'),
        ("unmap", '{"blocks":[[1],[2],[3]],"less":[]}'),
        ("unmap", '{"n":"3","blocks":[[1],[2],[3]],"less":[]}'),
        ("unmap", '{"n":3,"blocks":[[1],[2],[3]],"less":[[0,0]]}'),
        ("unmap", '{"n":3,"blocks":[[1],[2],[3]],"less":[[0]]}'),
        ("unmap", '{"n":3,"blocks":[[1],[2],["3"]],"less":[]}'),
        ("unmap", '{"n":3,"blocks":[[1],[2],[3]],"less":{"0":1}}'),
        ("unmap", '{"n":3,"blocks":[[0],[1,2],[3]],"less":[]}'),
        ("unmap", '{"n":1000,"blocks":[],"less":[]}'),
        ("noncrossing", '{"n":4,"blocks":[[1,4],[2,3]]}'),
        ("noncrossing", '{"n":4,"coxeter":["1",2,3],"blocks":[[1,4],[2,3]]}'),
        ("noncrossing", '{"n":4,"coxeter":[1,2,3],"blocks":[[1,4],[2,3],[2]]}'),
        ("noncrossing", '{"n":3,"coxeter":[1,2],"blocks":[[1,1],[2,3]]}'),
        ("noncrossing", '{"n":3,"coxeter":[1,2],"blocks":[[1,3],[2]]}', "--coxeter", "2,1"),
        ("unmap", '{"n":' + "[" * 100_000),
        ("unmap", "[]"),
        ("noncrossing", '  [{"n":4}]'),
    ],
)
def test_bad_json_input_is_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    assert "No such file" not in err  # inline JSON is never read as a path


@pytest.mark.parametrize(
    "argv, what",
    [
        (("map", "1,2,x"), "permutation from '1,2,x'"),
        (("sortable", "--n", "3", "--coxeter", "12a"), "Coxeter word from '12a'"),
    ],
)
def test_bad_word_token_is_one_error_line_naming_the_input(capsys, argv, what):
    assert run(capsys, *argv) == (2, "", f"error: cannot parse {what}\n")


def _set(key, value):
    def edit(data):
        data[key] = value

    return edit


def _set_block(k, block):
    def edit(data):
        data["blocks"][k] = block

    return edit


def _append(k, value):
    def edit(data):
        data["blocks"][k].append(value)

    return edit


# One fault each on a valid input, as (name, fields it conflicts on,
# position in the order the checks run, edit, error message).  The shape
# comes first, then the partition block by block (in a block: empty, then
# a value out of range, then a repeated or overlapping value), then the
# cover of [1,n], the closure and the axioms.
_FAULTS = [
    ("no n", {"n"}, (0,), lambda data: data.pop("n"), "JSON input must be an object with keys n, blocks"),
    ("bad n", {"n"}, (1,), _set("n", 0), '"n" must be a positive integer, got 0'),
    ("float in a later block", {"b4"}, (2,), _set_block(4, [6.0]), '"blocks" must be a list of lists of integers'),
    ("bad coxeter", {"coxeter"}, (3,), _set("coxeter", ["1"]), '"coxeter" must be a list of integers'),
    ("less not a list", {"less"}, (4,), _set("less", {"0": 1}), '"less" must be a list of index pairs'),
    ("less out of range", {"less"}, (5,), _set("less", [[0, 1], [0, 5]]),
     '"less" entry [0, 5] is not a pair of indices into the blocks'),
    ("less self-pair", {"less"}, (5,), _set("less", [[0, 1], [2, 2]]), '"less" entry [2, 2] relates a block to itself'),
    ("repeat in block 0", {"b0"}, (6, 0, 2), _append(0, 2), "blocks are not disjoint"),
    ("overlap in block 1", {"b1"}, (6, 1, 2), _append(1, 2), "blocks are not disjoint"),
    ("out of range in block 2", {"n"}, (6, 2, 1), _append(2, 7), "blocks do not partition [1,6]"),
    ("repeat in block 2", set(), (6, 2, 2), _append(2, 4), "blocks are not disjoint"),
    ("empty block 3", {"b3"}, (6, 3, 0), _set_block(3, []), "empty block"),
    ("value missing", {"n"}, (7,), _set("n", 7), "blocks do not partition [1,7]"),
    ("collapse", {"less"}, (8,), _set("less", [[0, 1], [1, 0]]), "order relations collapse the given blocks"),
    ("P1", {"less"}, (9,), _set("less", []), "P1: blocks B[1,3]{1,3} and B[2,2]{2} overlap but are incomparable"),
]


def test_the_first_of_two_faults_is_reported(capsys):
    # every pair of faults on separate fields of one valid input, whose
    # blocks are {2} < {1,3} and the isolated {4}, {5}, {6}, reports the
    # fault checked first, in the library and as the CLI's one error line
    valid = {"n": 6, "blocks": [[2], [1, 3], [4], [5], [6]], "less": [[0, 1]]}
    assert lam(preorder_from_json(copy.deepcopy(valid))) == Permutation.parse("231456")
    for first, second in itertools.combinations(_FAULTS, 2):
        if first[1] & second[1]:
            continue
        data = copy.deepcopy(valid)
        first[3](data)
        second[3](data)
        want = min(first, second, key=lambda fault: fault[2])[4]
        with pytest.raises(ValueError) as raised:
            preorder_from_json(copy.deepcopy(data))
        assert str(raised.value) == want, (first[0], second[0])
        assert run(capsys, "unmap", json.dumps(data)) == (2, "", f"error: {want}\n"), (first[0], second[0])


def test_unmap_checks_the_cap_before_building(capsys):
    # a malformed partition above the cap reports the cap, not the partition
    code, _, err = run(capsys, "unmap", '{"n":10,"blocks":[[1]],"less":[]}')
    assert code == 2 and "capped" in err


def test_hasse_json(capsys):
    from shardorder.lattice import covers_up
    from shardorder.perms import all_permutations

    code, out, _ = run(capsys, "hasse", "--n", "4")
    assert code == 0
    data = json.loads(out)
    assert len(data["nodes"]) == 24
    assert data["nodes"][0] == "1234"
    assert len(data["edges"]) == sum(
        len(covers_up(mu(p))) for p in all_permutations(4)
    )
    code, out2, _ = run(capsys, "hasse", "--n", "4")
    assert out == out2  # bit-stable
    code, out, _ = run(capsys, "hasse", "--n", "1")
    data = json.loads(out)
    assert data == {"n": 1, "nodes": ["1"], "edges": []}


def test_hasse_dot(capsys, tmp_path):
    out_path = tmp_path / "h.dot"
    code, out, _ = run(capsys, "hasse", "--n", "3", "--format", "dot", "--out", str(out_path))
    assert code == 0 and out == ""
    text = out_path.read_text()
    assert text.startswith("digraph hasse {")
    assert '"123" -> "213";' in text


def test_hasse_cap(capsys):
    code, _, err = run(capsys, "hasse", "--n", "9")
    assert code == 2
    assert "capped" in err


def test_shards_text_and_json(capsys):
    code, out, _ = run(capsys, "shards", "--n", "4")
    lines = out.strip().splitlines()
    assert len(lines) == 11
    assert "H(1,4)[+-]" in lines
    code, out, _ = run(capsys, "shards", "--n", "4", "--format", "json")
    data = json.loads(out)
    assert data["count"] == 11 and len(data["shards"]) == 11


def test_mobius_command(capsys):
    code, out, _ = run(capsys, "mobius", "--n", "4")
    assert code == 0
    data = json.loads(out)
    assert data["mobius"] == -13 and data["decreasing_chains"] == 13
    code, out, _ = run(capsys, "mobius", "--n", "4", "--bottom", "1234", "--top", "3214")
    data = json.loads(out)
    assert data["mobius"] == 3  # four atoms between: 1 - 4 + ... = 3


def test_indecomposable_recursion_matches_the_filter():
    # the mobius suite's reference count, against the definition over S_n
    for n in range(1, 8):
        assert _indecomposable_count(n) == sum(map(is_indecomposable, all_permutations(n))), n


def test_mobius_sub_interval_above_the_cap(capsys):
    argv = ("mobius", "--n", "8", "--bottom", "12345678", "--top", "43215678")
    code, _, err = run(capsys, *argv)
    assert code == 2 and "capped" in err
    code, out, _ = run(capsys, *argv, "--force")
    assert code == 0 and json.loads(out)["mobius"] == -13


def test_mobius_incomparable_endpoints(capsys):
    code, _, err = run(capsys, "mobius", "--n", "4", "--bottom", "2134", "--top", "1324")
    assert code == 2 and "below" in err


def test_chains_command(capsys):
    code, out, _ = run(capsys, "chains", "--n", "4")
    assert code == 0
    data = json.loads(out)
    assert data["interval"] == ["1234", "4321"]
    assert data["increasing"] == [2, 2, 2]
    assert data["decreasing_count"] == 13
    assert data["mobius"] == -13


def test_sortable_command(capsys):
    code, out, _ = run(capsys, "sortable", "--n", "4", "--coxeter", "1,2,3")
    assert code == 0
    assert len(out.strip().splitlines()) == 14
    code, out, _ = run(capsys, "sortable", "--n", "4", "--coxeter", "3,2,1", "--format", "json")
    data = json.loads(out)
    assert data["count"] == 14 and len(data["sortable"]) == 14


def test_sortable_cap_is_the_element_cap(capsys):
    code, out, _ = run(capsys, "sortable", "--n", "9", "--coxeter", "1,2,3,4,5,6,7,8")
    assert code == 0 and len(out.splitlines()) == 4862
    code, out, err = run(capsys, "sortable", "--n", "10", "--coxeter", "1,2,3,4,5,6,7,8,9")
    assert code == 2 and out == "" and "capped at n=9" in err


def test_noncrossing_enumeration(capsys):
    code, out, _ = run(capsys, "noncrossing", "--n", "4", "--coxeter", "2,1,3")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 14 and len(data["noncrossing"]) == 14


def test_noncrossing_cap_is_the_element_cap(capsys):
    code, out, _ = run(capsys, "noncrossing", "--n", "8", "--coxeter", "1,2,3,4,5,6,7")
    assert code == 0 and json.loads(out)["count"] == 1430
    code, out, err = run(capsys, "noncrossing", "--n", "10", "--coxeter", "1,2,3,4,5,6,7,8,9")
    assert code == 2 and out == "" and "capped at n=9" in err


def test_noncrossing_partition_mode(capsys):
    arg = json.dumps({"n": 4, "coxeter": [1, 2, 3], "blocks": [[1, 4], [2, 3]]})
    code, out, _ = run(capsys, "noncrossing", arg)
    assert code == 0
    data = json.loads(out)
    assert data["blocks"] == [[2, 3], [1, 4]]
    crossing = json.dumps({"n": 4, "coxeter": [1, 2, 3], "blocks": [[1, 3], [2, 4]]})
    code, _, err = run(capsys, "noncrossing", crossing)
    assert code == 2 and "interleave" in err


def test_noncrossing_partition_mode_checks_less(capsys):
    # its own output, with the word added, is accepted and reproduced
    code, out, _ = run(capsys, "noncrossing", json.dumps({"n": 4, "coxeter": [1, 2, 3], "blocks": [[1, 4], [2, 3]]}))
    assert code == 0
    again = run(capsys, "noncrossing", json.dumps({**json.loads(out), "coxeter": [1, 2, 3]}))
    assert again == (0, out, "")
    # a pair the constructed order does not hold is an input error
    for data, pair in [
        ({"n": 3, "coxeter": [1, 2], "blocks": [[1], [2], [3]], "less": [[0, 1]]}, "[0, 1]"),
        ({"n": 4, "coxeter": [1, 2, 3], "blocks": [[2, 3], [1, 4]], "less": [[1, 0]]}, "[1, 0]"),
    ]:
        code, out, err = run(capsys, "noncrossing", json.dumps(data))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("error:") and f"pair {pair}" in err


def test_verify_suites(capsys):
    code, out, _ = run(capsys, "verify", "--n", "4", "--suite", "el")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    result = data["results"][0]
    assert result["increasing_chains"] == 1
    assert result["decreasing_chains"] == 13
    code, out, _ = run(capsys, "verify", "--n", "4", "--suite", "geometry")
    assert json.loads(out)["results"][0]["agreements"] == 24
    code, out, _ = run(capsys, "verify", "--n", "4", "--suite", "mobius")
    assert json.loads(out)["results"][0]["mobius"] == -13
    code, out, _ = run(capsys, "verify", "--n", "3", "--suite", "all")
    data = json.loads(out)
    assert code == 0 and data["pass"] is True
    assert [r["suite"] for r in data["results"]] == [
        "roundtrip",
        "geometry",
        "el",
        "mobius",
        "sortable",
        "covers",
    ]


def test_verify_covers_suite(capsys, monkeypatch):
    from shardorder import cli

    code, out, _ = run(capsys, "verify", "--n", "4", "--suite", "covers")
    assert code == 0
    assert json.loads(out)["results"] == [
        {"suite": "covers", "n": 4, "pass": True, "elements": 24, "edges": 56}
    ]
    # a missing cover, one outside the lattice and covers out of index order
    real = cli.covers_up
    for broken in (
        lambda q: real(q)[1:],
        lambda q: real(q) + [Preorder.from_pairs(4, [(1, 4)])],
        lambda q: real(q)[::-1],
    ):
        monkeypatch.setattr(cli, "covers_up", broken)
        code, out, _ = run(capsys, "verify", "--n", "4", "--suite", "covers")
        assert code == 1
        assert json.loads(out)["results"][0] == {
            "suite": "covers",
            "n": 4,
            "pass": False,
            "failed_at": "1234",
        }


def test_verify_roundtrip_scans_the_bits_of_mu(capsys, monkeypatch):
    # a mu whose carried state is right but whose bits are a non-element
    # ({1} < {4} a cover with no overlap: (P2)) still inverts through lam,
    # which reads the state; the full scan reads the bits and fails it
    from shardorder import cli
    from shardorder.preorders import _carry, checked_state

    real = cli.mu

    def broken(p):
        bad = Preorder.from_rows(p.n, [1 << (p.n - 1)] + [0] * (p.n - 1))
        return _carry(bad, checked_state(real(p)))

    monkeypatch.setattr(cli, "mu", broken)
    code, out, _ = run(capsys, "verify", "--n", "4", "--suite", "roundtrip")
    assert code == 1
    assert json.loads(out)["results"][0] == {"suite": "roundtrip", "n": 4, "pass": False, "failed_at": "1234"}


def test_verify_sortable_suite_fails_on_a_bad_partition_constructor(capsys, monkeypatch):
    # Reading's theorem is checked through the partition constructor: one
    # that raises or builds another element fails the suite at the first
    # word of the barring (exit 1, not the exit 2 of an error)
    from shardorder import cli
    from shardorder.errors import CrossingPartitionError, InvariantError

    code, out, _ = run(capsys, "verify", "--n", "4", "--suite", "sortable")
    assert code == 0
    assert json.loads(out)["results"] == [
        {"suite": "sortable", "n": 4, "pass": True, "words": 6, "count_per_word": 14}
    ]

    def raising(error):
        def build(masks, bar):
            raise error("broken")

        return build

    for broken in (
        raising(CrossingPartitionError),
        raising(InvariantError),
        lambda masks, bar: Preorder.discrete(bar.n),
    ):
        monkeypatch.setattr(cli, "_order_of_partition", broken)
        code, out, _ = run(capsys, "verify", "--n", "4", "--suite", "sortable")
        assert code == 1
        assert json.loads(out)["results"][0] == {"suite": "sortable", "n": 4, "pass": False, "failed_at": "1,2,3"}


def test_verify_builds_the_lattice_once(capsys, monkeypatch):
    from shardorder import cli

    built = []
    real = cli.build_lattice
    monkeypatch.setattr(cli, "build_lattice", lambda n, force: built.append(n) or real(n, force))
    code, _, _ = run(capsys, "verify", "--n", "4", "--suite", "all")
    assert code == 0 and built == [4]
    code, _, _ = run(capsys, "verify", "--n", "4", "--suite", "roundtrip")
    assert code == 0 and built == [4]


def test_el_verify_alias(capsys):
    code, out, _ = run(capsys, "el-verify", "--n", "4")
    assert code == 0
    data = json.loads(out)
    assert data["results"][0]["suite"] == "el"


def test_invalid_permutation_string(capsys):
    code, _, err = run(capsys, "map", "1weird")
    assert code == 2 and "error" in err


def python(*args, optimize=False):
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    argv = [sys.executable, *(["-O"] if optimize else []), *args]
    return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)


@pytest.mark.parametrize("argv", [("chains", "--n", "5"), ("verify", "--n", "5", "--suite", "el")])
def test_invariant_checks_run_under_python_O(argv):
    plain = python("-m", "shardorder", *argv)
    optimized = python("-m", "shardorder", *argv, optimize=True)
    assert plain.returncode == optimized.returncode == 0, optimized.stderr
    assert optimized.stdout == plain.stdout


def test_forced_invariant_failure_under_python_O_exits_2():
    # two pairs of blocks share the larger placement, so the greedy EL choice
    # is not unique; the check is an InvariantError, not an assert -O drops
    forced = (
        "import sys; from shardorder import cli, shelling; "
        "shelling.combinable_slots = lambda state, top: iter([(0, 2), (1, 2)]); "
        "sys.exit(cli.main(['chains', '--n', '4']))"
    )
    result = python("-c", forced, optimize=True)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == ["error: minimal larger placement must be unique"]


# Sizes are at most 5 or above every cap, so no generated command does more
# than a moment's work; there is no --force and no --out.
SIZES = st.one_of(
    st.integers(-2, 5).map(str),
    st.integers(10, 10**6).map(str),
    st.sampled_from(["", "x", "5.0", "1e3", "0x5", "\u0663"]),  # the last is an Arabic-Indic 3
)
WORDS = st.one_of(
    st.integers(1, 5).flatmap(lambda n: st.permutations(range(1, n + 1))).map(
        lambda w: "".join(map(str, w))
    ),
    st.integers(10, 12).flatmap(lambda n: st.permutations(range(1, n + 1))).map(
        lambda w: ",".join(map(str, w))
    ),
    st.text(alphabet="0123456789,- x", max_size=8),
)
COXETER = st.one_of(
    st.integers(1, 5).flatmap(lambda n: st.permutations(range(1, n))).map(
        lambda w: ",".join(map(str, w))
    ),
    st.text(alphabet="0123456789,- ", max_size=8),
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "blocks", "less", "coxeter", "x"]), inner, max_size=5),
    max_leaves=12,
)
SHAPED = st.fixed_dictionaries(
    {
        "n": st.one_of(st.integers(-1, 5), st.integers(10, 10**9)),
        "blocks": st.lists(st.lists(st.integers(-1, 6), max_size=4), max_size=5),
    },
    optional={
        "less": st.lists(st.lists(st.integers(-1, 5), max_size=3), max_size=4),
        "coxeter": st.lists(st.integers(-1, 5), max_size=5),
    },
)
JSON_TEXT = st.one_of(JSON_VALUES.map(json.dumps), SHAPED.map(json.dumps)).flatmap(
    lambda text: st.sampled_from([text, " " + text, text[: len(text) // 2]])
)
FORMATS = st.sampled_from(["json", "dot", "text", "csv"])
JSON_ARG = st.one_of(JSON_TEXT, st.just("-"))  # "-" reads the drawn stdin text


def seq(*parts):
    """An argv fragment: a str is a fixed token, a strategy draws one token."""
    return st.tuples(*(st.just(p) if isinstance(p, str) else p for p in parts)).map(list)


def maybe(*parts):
    return st.one_of(st.just([]), seq(*parts))


def joined(*fragments):
    return st.tuples(*fragments).map(lambda fs: [tok for f in fs for tok in f])


# Each subcommand in its own shape, so most draws get past argparse, plus a
# stray token now and then
ARGV = joined(
    st.one_of(
        seq("map", WORDS),
        seq("unmap", JSON_ARG),
        joined(seq(st.sampled_from(["hasse", "shards"]), "--n", SIZES), maybe("--format", FORMATS)),
        joined(
            seq(st.sampled_from(["mobius", "chains"]), "--n", SIZES),
            maybe("--bottom", WORDS),
            maybe("--top", WORDS),
        ),
        joined(seq("verify", "--n", SIZES), maybe("--suite", st.sampled_from([*SUITES, "all", "none"]))),
        seq("el-verify", "--n", SIZES),
        joined(seq("sortable", "--n", SIZES, "--coxeter", COXETER), maybe("--format", FORMATS)),
        joined(seq("noncrossing", JSON_ARG), maybe("--n", SIZES)),
        seq("noncrossing", "--n", SIZES, "--coxeter", COXETER),
    ),
    st.sampled_from([[]] * 4 + [["-h"], ["--bogus"], ["--n"]]),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(ARGV, JSON_TEXT)
def test_fuzzed_argv_exits_0_1_or_2(argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with mock.patch("sys.stdin", io.StringIO(stdin_text)):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: a usage error (2) or --help (0)
                assert exc.code in (0, 2), argv
                return
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out.getvalue() == "", argv
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("error: "), argv
