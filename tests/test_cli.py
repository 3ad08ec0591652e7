import json
import subprocess
import sys

import pytest

BASE = [sys.executable, "-m", "operahedra.cli"]


def run(*argv):
    return subprocess.run(
        BASE + list(argv), capture_output=True, text=True, check=False
    )


def out_json(result):
    return json.loads(result.stdout)


def test_gen_linear4_reports_f_vector():
    r = run("gen", "--linear", "4")
    assert r.returncode == 0
    data = out_json(r)
    assert data["f_vector"] == [5, 5, 1]
    assert data["shapes"]["pentagon"] == 1


def test_gen_corolla3():
    r = run("gen", "--corolla-children", "3")
    assert out_json(r)["f_vector"] == [6, 6, 1]


def test_gen_fixture_outgoingpoly():
    r = run("gen", "--fixture", "outgoingpoly")
    data = out_json(r)
    assert [data["vertices"], data["edges"], data["cells"]] == [16, 24, 9]


def test_gen_parse_error_is_exit_2():
    assert run("gen", "--tree", "/nonexistent.json").returncode == 2
    assert run("gen", "--linear", "3", "--corolla-children", "2").returncode == 2
    assert run("check", "coherence", "--expr", "k:", "--w1", "", "--w2", "").returncode == 2


def test_check_morse_linear5_certified():
    r = run("check", "morse", "--linear", "5")
    assert r.returncode == 0
    assert out_json(r)["certified"] is True


def test_check_morse_fixture_samples_counterexample():
    r = run(
        "check", "morse", "--fixture", "outgoingpoly", "--samples", "3", "--seed", "9"
    )
    assert r.returncode == 1
    data = out_json(r)
    assert data["all_counterexamples"] is True
    assert all(s["condition"] == "disconnected_link" for s in data["samples"])


def test_check_homology_fixture_and_control(tmp_path):
    r = run("check", "homology", "--fixture", "outgoingpoly")
    assert r.returncode == 0
    assert out_json(r)["betti"] == [1, 0, 0]
    cycle = {
        "schema": "v1",
        "vertices": 5,
        "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]],
        "cells": [],
    }
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(cycle))
    r = run("check", "homology", "--complex", str(path))
    assert r.returncode == 1
    assert out_json(r)["betti"][1] == 1


def test_check_confluence():
    r = run("check", "confluence", "--linear", "5", "--strategies", "10", "--seed", "3")
    assert r.returncode == 0
    data = out_json(r)
    assert data["all_joinable"] is True
    assert data["results"][0]["by_shape"] == {"pentagon": 6, "square": 3}


def test_coherence_witness_verify_round_trip(tmp_path):
    pent = tmp_path / "pent.json"
    cert = tmp_path / "cert.json"
    r = run("gen", "--linear", "4", "--complex-out", str(pent))
    assert r.returncode == 0
    r = run(
        "witness",
        "--expr",
        "(((k:1 o1 t:1) o1 m:1) o1 n:1)",
        "--w1",
        "beta@0.1.2 beta@0.1",
        "--w2",
        "beta@0.1 beta@0.1.2 beta@1.2",
        "--emit-cert",
        str(cert),
    )
    assert r.returncode == 0
    assert out_json(r)["equal"] is True
    r = run("check", "verify", "--complex", str(pent), "--cert", str(cert))
    assert r.returncode == 0

    # corrupt the certificate: verification must exit 3
    data = json.loads(cert.read_text())
    for move in data["moves"]:
        if move["op"] == "face":
            move["offset"] = (move["offset"] + 1) % 5
            break
    cert.write_text(json.dumps(data))
    r = run("check", "verify", "--complex", str(pent), "--cert", str(cert))
    assert r.returncode == 3


def test_check_coherence_maclane():
    r = run(
        "check",
        "coherence",
        "--maclane",
        "((ab)c)d",
        "--w1",
        "beta@0.1.2 beta@0.1",
        "--w2",
        "beta@0.1 beta@0.1.2 beta@1.2",
    )
    assert r.returncode == 0
    assert out_json(r)["equal"] is True


def test_geom_orient():
    r = run("geom", "orient", "--linear", "4", "--vec", "2,1,0")
    assert r.returncode == 0
    data = out_json(r)
    assert data["matches_rewrite_orientation"] is True
    assert data["morse_certified"] is True


def test_geom_orient_not_generic_exit_1():
    r = run("geom", "orient", "--linear", "4", "--vec", "1,1,1")
    assert r.returncode == 1


def test_normalize():
    r = run("normalize", "--expr", "((a:1 o1 b:1) o1 c:1)")
    assert out_json(r)["normal_form"] == "(a:1 o1 (b:1 o1 c:1))"
    r = run("normalize", "--maclane", "((ab)c)d")
    assert out_json(r)["normal_form"] == "(a:1 o1 (b:1 o1 (c:1 o1 d:1)))"


def test_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run("--report", str(a), "gen", "--linear", "5")
    run("--report", str(b), "gen", "--linear", "5")
    assert a.read_bytes() == b.read_bytes()

    c1, c2 = tmp_path / "c1.json", tmp_path / "c2.json"
    run("gen", "--linear", "5", "--complex-out", str(c1))
    run("gen", "--linear", "5", "--complex-out", str(c2))
    assert c1.read_bytes() == c2.read_bytes()


def test_check_morse_all_trees_with_jobs():
    r = run("check", "morse", "--all-trees", "4", "--jobs", "2")
    assert r.returncode == 0
    assert out_json(r)["all_certified"] is True


def test_zero_sized_tree_reports_the_real_error():
    r = run("gen", "--linear", "0")
    assert r.returncode == 2
    assert "error: p must be >= 1" in r.stderr
    r = run("gen", "--corolla-children", "0")
    assert r.returncode == 2
    assert "error: need at least one child" in r.stderr


FIVE_CYCLE = {
    "schema": "v1",
    "vertices": 5,
    "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]],
    "cells": [],
}

# Counterexample reports as the CLI printed them: the witnesses hold
# tuples of edge ids and dicts of vertex lists.
CYCLE_LINK_REPORT = """{
  "certified": false,
  "command": "check.morse",
  "counterexample": {
    "condition": "disconnected_link",
    "witness": {
      "components": [
        [
          0
        ],
        [
          4
        ]
      ],
      "vertex": 0
    }
  },
  "inputs": {
    "complex": "4ebff1e78cb39772"
  },
  "schema": "v1"
}
"""

PENTAGON_FACE_REPORT = """{
  "certified": false,
  "command": "check.morse",
  "counterexample": {
    "condition": "face_not_two_arcs",
    "witness": {
      "cell": 0,
      "sinks": [
        0,
        2
      ],
      "sources": [
        4,
        3
      ]
    }
  },
  "inputs": {
    "tree": "e7e612dda7b42de0"
  },
  "schema": "v1"
}
"""


def test_counterexample_reports_are_pinned(capsys, tmp_path):
    from operahedra import cli

    complex_path, orientation_path = tmp_path / "c.json", tmp_path / "o.json"
    complex_path.write_text(json.dumps(FIVE_CYCLE))
    orientation_path.write_text(json.dumps([0, 0, 0, 0, 0]))
    code = cli.main(["check", "morse", "--complex", str(complex_path),
                     "--orientation", str(orientation_path)])
    assert (code, capsys.readouterr().out) == (1, CYCLE_LINK_REPORT)

    orientation_path.write_text(json.dumps(
        [1, 1, 0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 0, 1, 0]
    ))
    code = cli.main(["check", "morse", "--linear", "5",
                     "--orientation", str(orientation_path)])
    assert (code, capsys.readouterr().out) == (1, PENTAGON_FACE_REPORT)


@pytest.mark.parametrize("argv", [[], ["--expr", "k:1", "--maclane", "ab"]])
def test_normalize_needs_exactly_one_object(argv):
    r = run("normalize", *argv)
    assert r.returncode == 2
    assert "error: choose exactly one of --expr, --maclane" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "homology", "--linear", "3", "--fixture", "outgoingpoly"],
        ["check", "homology"],
        ["check", "morse", "--complex", "c.json", "--fixture", "outgoingpoly"],
        ["check", "morse", "--all-trees", "3", "--linear", "3"],
        ["check", "confluence", "--all-trees", "3", "--corolla-children", "3"],
        ["gen", "--fixture", "outgoingpoly", "--expr", "k:1"],
    ],
)
def test_one_input_source_per_command(argv):
    r = run(*argv)
    assert r.returncode == 2
    assert "error: choose exactly one of --linear, " in r.stderr
    assert "Traceback" not in r.stderr


def test_unknown_fixture_exits_2():
    for argv in (["gen"], ["check", "morse", "--samples", "2"]):
        r = run(*argv, "--fixture", "nosuch")
        assert r.returncode == 2
        assert "error: unknown fixture 'nosuch'" in r.stderr


def test_negative_samples_exit_2():
    r = run("check", "morse", "--fixture", "outgoingpoly", "--samples", "-1")
    assert r.returncode == 2
    assert "error: --samples must be at least 0" in r.stderr


def test_negative_strategies_exit_2():
    r = run("check", "confluence", "--linear", "4", "--strategies", "-1")
    assert r.returncode == 2
    assert "error: --strategies must be at least 0" in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--linear", "3", "--samples", "5"], "--samples applies only with --fixture"),
        (["--all-trees", "3", "--orientation", "/nonexistent"],
         "--orientation does not apply with --all-trees"),
    ],
)
def test_check_morse_refuses_flags_that_do_not_apply(argv, message):
    r = run("check", "morse", *argv)
    assert r.returncode == 2
    assert f"error: {message}" in r.stderr
    assert "Traceback" not in r.stderr and r.stdout == ""


def test_deep_maclane_word_is_a_parse_error():
    r = run("normalize", "--maclane", "(" * 1200 + "a")
    assert r.returncode == 2
    assert "error: column 1201: unexpected end of word" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("depth", [21, 1200])
def test_tree_past_twenty_vertices_exits_2(depth):
    """A tree too large for its operahedron to be built is refused before
    its maximal nestings are enumerated, however deep it is."""
    expr = "(" * (depth - 1) + "a:1" + " o1 b:1)" * (depth - 1)
    r = run("normalize", "--expr", expr)
    assert r.returncode == 2
    assert f"error: a tree with {depth} vertices is too large" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("command", [["check", "morse"], ["check", "confluence"]])
def test_zero_all_trees_exits_2(command):
    r = run(*command, "--all-trees", "0")
    assert r.returncode == 2
    assert "error: --all-trees must be at least 1" in r.stderr


PENTAGON_EXPR = "(((k:1 o1 t:1) o1 m:1) o1 n:1)"


def test_rejected_generated_certificate_exits_3(monkeypatch, capsys, tmp_path):
    from operahedra import cli, coherence
    from operahedra.homotopy import VerifyResult

    monkeypatch.setattr(
        coherence, "verify_certificate", lambda c, cert: VerifyResult(False, 0, "forced")
    )
    code = cli.main(
        [
            "witness",
            "--expr",
            PENTAGON_EXPR,
            "--w1",
            "beta@0.1.2 beta@0.1",
            "--w2",
            "beta@0.1 beta@0.1.2 beta@1.2",
            "--emit-cert",
            str(tmp_path / "cert.json"),
        ]
    )
    assert code == 3
    assert "error: generated certificate rejected" in capsys.readouterr().err


def test_generator_failure_exits_4(monkeypatch, capsys):
    from operahedra import cli
    from operahedra.errors import GeneratorError
    from operahedra.homotopy import HomotopyBuilder

    def fail(self, p1, p2):
        raise GeneratorError("outgoing link of 0 does not join 1 and 2")

    monkeypatch.setattr(HomotopyBuilder, "general", fail)
    code = cli.main(
        ["check", "coherence", "--expr", PENTAGON_EXPR,
         "--w1", "beta@0.1.2 beta@0.1", "--w2", "beta@0.1 beta@0.1.2 beta@1.2"]
    )
    assert code == 4
    assert "error: outgoing link of 0 does not join 1 and 2" in capsys.readouterr().err


@pytest.mark.parametrize("cpus, expected", [(8, [4]), (2, [2]), (None, [])])
def test_check_morse_jobs_are_capped(monkeypatch, capsys, cpus, expected):
    from operahedra import cli

    workers = []

    class Recorder:
        """Stands in for the process pool and runs the batch in-process."""

        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Recorder)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    # four trees with p <= 3
    assert cli.main(["check", "morse", "--all-trees", "3", "--jobs", "64"]) == 0
    assert workers == expected
    assert json.loads(capsys.readouterr().out)["trees"] == 4


def _drop_object(docs):
    del docs["word"]["object"]


def _drop_remove(docs):
    del docs["word"]["moves"][0]["remove"]


def _drop_cert_moves(docs):
    del docs["cert"]["moves"]


def _step_out_of_range(docs):
    docs["complex"]["cells"][0][1] = len(docs["complex"]["edges"]) + 1


def _drop_vertices(docs):
    del docs["complex"]["vertices"]


def _null_step(docs):
    docs["complex"]["cells"][0][1] = None


def _string_position(docs):
    docs["cert"]["moves"][0]["position"] = "x"


def _bool_position(docs):
    docs["cert"]["moves"][0]["position"] = True


def _non_list_step(docs):
    docs["cert"]["source"]["steps"][0] = 5


def _negative_edge_path(docs):
    # read as edge 0 run backwards when edge ids are not checked
    docs["cert"]["source"] = docs["cert"]["target"] = {"start": 1, "steps": [[-2, 1]]}
    docs["cert"]["moves"] = []


def _negative_edge_insert(docs):
    docs["cert"]["moves"][:0] = [
        {"op": "insert", "position": 0, "edge": -2, "sign": 1},
        {"op": "delete", "position": 0},
    ]


def _zero_sign(docs):
    docs["cert"]["source"]["steps"][0][1] = 0


def _sign_seven(docs):
    docs["cert"]["source"]["steps"][1][1] = 7


def _string_reverse(docs):
    docs["cert"]["moves"][0]["reverse"] = "false"


def _float_ids(docs):
    docs["word"]["moves"][0]["remove"] = [0.9, 1.2, 2.0]


def _string_and_bool_ids(docs):
    docs["word"]["moves"][0]["remove"] = ["0", True, 2]


def _float_added_ids(docs):
    docs["word"]["moves"][0]["add"] = [1.0, 2, 3]


def _string_sign(docs):
    docs["word"]["moves"][0]["sign"] = "1"


@pytest.mark.parametrize(
    "spoil, command",
    [
        (_drop_object, "coherence"),
        (_drop_remove, "coherence"),
        (_drop_cert_moves, "verify"),
        (_step_out_of_range, "verify"),
        (_drop_vertices, "verify"),
        (_null_step, "verify"),
        (_string_position, "verify"),
        (_bool_position, "verify"),
        (_non_list_step, "verify"),
        (_negative_edge_path, "verify"),
        (_negative_edge_insert, "verify"),
        (_zero_sign, "verify"),
        (_sign_seven, "verify"),
        (_string_reverse, "verify"),
        (_float_ids, "coherence"),
        (_string_and_bool_ids, "coherence"),
        (_float_added_ids, "coherence"),
        (_string_sign, "coherence"),
    ],
)
def test_malformed_json_inputs_exit_2(spoil, command, tmp_path):
    files = {name: tmp_path / f"{name}.json" for name in ("complex", "cert", "word")}
    assert run("gen", "--linear", "4", "--complex-out", str(files["complex"])).returncode == 0
    r = run("witness", "--expr", PENTAGON_EXPR, "--w1", "beta@0.1.2 beta@0.1",
            "--w2", "beta@0.1 beta@0.1.2 beta@1.2", "--emit-cert", str(files["cert"]))
    assert r.returncode == 0
    docs = {name: json.loads(f.read_text()) for name, f in files.items() if f.exists()}
    docs["word"] = {"object": PENTAGON_EXPR, "moves": [{"remove": [0, 1, 2]}]}
    spoil(docs)
    for name, doc in docs.items():
        files[name].write_text(json.dumps(doc))

    if command == "coherence":
        r = run("check", "coherence", "--linear", "4",
                "--w1", str(files["word"]), "--w2", str(files["word"]))
    else:
        r = run("check", "verify", "--complex", str(files["complex"]),
                "--cert", str(files["cert"]))
    assert r.returncode == 2
    assert "error:" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("paths, reason", [
    ({"source": {"start": 0, "steps": [[99, 1]]}, "target": {"start": 0, "steps": []}},
     "source path references a bad edge"),
    ({"source": {"start": 0, "steps": []}, "target": {"start": 0, "steps": [[99, 1]]}},
     "target path references a bad edge"),
    ({"source": {"start": 99, "steps": []}, "target": {"start": 99, "steps": []}},
     "paths start outside the complex"),
])
def test_verify_refuses_paths_outside_the_complex(paths, reason, tmp_path):
    """A step or start outside the complex is a rejected certificate (exit
    3 with its reason), neither a traceback nor an accepted empty replay."""
    pent, cert = tmp_path / "pent.json", tmp_path / "cert.json"
    assert run("gen", "--linear", "4", "--complex-out", str(pent)).returncode == 0
    cert.write_text(json.dumps({**paths, "moves": []}))
    r = run("check", "verify", "--complex", str(pent), "--cert", str(cert))
    assert r.returncode == 3
    assert out_json(r)["ok"] is False and out_json(r)["reason"] == reason
    assert "Traceback" not in r.stderr


def _word_file(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"object": PENTAGON_EXPR, "moves": [{"remove": [0, 1, 2]}]}))
    return str(path)


def test_word_files_unfold_their_object_once(monkeypatch, capsys, tmp_path):
    """Each word file is unfolded by the replay that reads it; the check
    that it lives on the given tree reads the tree off the word's walk."""
    from operahedra import cli, trees

    unfold = trees.expression_to_nesting
    calls = []

    def counted(expr):
        calls.append(expr)
        return unfold(expr)

    monkeypatch.setattr(trees, "expression_to_nesting", counted)
    word = _word_file(tmp_path)
    code = cli.main(["check", "coherence", "--linear", "4", "--w1", word, "--w2", word])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["equal"] is True
    assert len(calls) == 2


@pytest.mark.parametrize("word_file", [False, True])
def test_sugared_words_unfold_the_object_once_each(monkeypatch, capsys, tmp_path, word_file):
    """With --maclane or --expr, the object is unfolded by each word's
    replay only: a word file is checked against the tree of the sugared
    word's walk, not against a separate unfolding."""
    from operahedra import cli, trees

    unfold = trees.expression_to_nesting
    calls = []

    def counted(expr):
        calls.append(expr)
        return unfold(expr)

    monkeypatch.setattr(trees, "expression_to_nesting", counted)
    if word_file:
        argv = ["--expr", PENTAGON_EXPR, "--w1", "beta@0.1.2", "--w2", _word_file(tmp_path)]
    else:
        argv = ["--maclane", "((ab)c)d",
                "--w1", "beta@0.1.2 beta@0.1", "--w2", "beta@0.1 beta@0.1.2 beta@1.2"]
    assert cli.main(["check", "coherence"] + argv) == 0
    assert json.loads(capsys.readouterr().out)["equal"] is True
    assert len(calls) == 2


@pytest.mark.parametrize("second", ["text", "file"])
def test_word_file_first_with_expr_unfolds_once_per_word(monkeypatch, capsys, tmp_path,
                                                        second):
    """A word file read before any sugared word, whose object is --expr
    itself, lives on the object's tree: only each word's replay unfolds."""
    from operahedra import cli, trees

    unfold = trees.expression_to_nesting
    calls = []

    def counted(expr):
        calls.append(expr)
        return unfold(expr)

    monkeypatch.setattr(trees, "expression_to_nesting", counted)
    word = _word_file(tmp_path)
    w2 = "beta@0.1.2" if second == "text" else word
    argv = ["--expr", PENTAGON_EXPR, "--w1", word, "--w2", w2]
    assert cli.main(["check", "coherence"] + argv) == 0
    assert json.loads(capsys.readouterr().out)["equal"] is True
    assert len(calls) == 2


def test_word_file_on_another_expr_exits_2(capsys, tmp_path):
    from operahedra import cli

    word = _word_file(tmp_path)
    code = cli.main(["check", "coherence", "--expr", "((k:1 o1 t:1) o1 m:1)",
                     "--w1", word, "--w2", "beta@0.1"])
    assert code == 2
    assert "does not live on the given tree" in capsys.readouterr().err


@pytest.mark.parametrize("form", ["text", "json"])
@pytest.mark.parametrize("vertex", [-1, 4, 99999999999])
def test_nest_ids_out_of_range_are_absent_nests(capsys, tmp_path, form, vertex):
    """Ids outside 0..p-1 are refused before they become bit shifts, with
    the message and exit code of any absent nest.  A sugared token cannot
    spell a negative id, so that one is a bad token."""
    from operahedra import cli

    if form == "text":
        w1 = f"beta@0.1.2 beta@0.{vertex}"
    else:
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"object": PENTAGON_EXPR, "moves": [
            {"remove": [0, 1, 2]}, {"remove": [0, vertex]}]}))
        w1 = str(path)
    code = cli.main(["check", "coherence", "--expr", PENTAGON_EXPR,
                     "--w1", w1, "--w2", ""])
    err = capsys.readouterr().err
    assert code == 2
    if form == "text" and vertex < 0:
        assert f"error: move 1: bad token 'beta@0.{vertex}'" in err
    else:
        assert f"error: move 1: nest {sorted([0, vertex])} is not present" in err
    assert "Traceback" not in err


def test_word_file_on_another_tree_exits_2(capsys, tmp_path):
    from operahedra import cli

    word = _word_file(tmp_path)
    code = cli.main(["check", "coherence", "--linear", "5", "--w1", word, "--w2", word])
    assert code == 2
    assert "does not live on the given tree" in capsys.readouterr().err
