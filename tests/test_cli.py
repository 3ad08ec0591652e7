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


def test_word_file_on_another_tree_exits_2(capsys, tmp_path):
    from operahedra import cli

    word = _word_file(tmp_path)
    code = cli.main(["check", "coherence", "--linear", "5", "--w1", word, "--w2", word])
    assert code == 2
    assert "does not live on the given tree" in capsys.readouterr().err
