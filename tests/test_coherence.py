import random

import pytest

import oracles
from operahedra import coherence as co
from operahedra.errors import IllegalMoveError, NotParallelError, ParseError
from operahedra.homotopy import Path, validate_path, verify_certificate
from operahedra.skeleton import build_skeleton, classify_flip, flip_nest
from operahedra.trees import (
    PlanarTree,
    enumerate_nests,
    enumerate_ordered_trees,
    expression_to_nesting,
    nesting_to_expression,
    parse_expression,
)


def arc_words(tree, face_index=0):
    """The two boundary arcs of a 2-face as morphism words from its source."""
    sk = build_skeleton(tree)
    builder = sk.homotopy_builder()
    src = sk.morse().face_source_sink[face_index][0]
    arcs = sorted(builder.face_arcs(face_index).items())
    expr = sk.expression_of(src)
    w1 = co.MorphismWord(expr, co.moves_from_steps(sk, arcs[0][1]))
    w2 = co.MorphismWord(expr, co.moves_from_steps(sk, arcs[1][1]))
    return sk, w1, w2


# ---------------------------------------------------------------------------
# Words and paths


def test_pentagon_loop_is_closed_path_of_length_5():
    sk, w1, w2 = arc_words(PlanarTree.linear(4))
    # leg1 then leg2 reversed is the pentagon loop
    inverse = tuple((ad, rm, -sg) for rm, ad, sg in reversed(w2.moves))
    loop = co.MorphismWord(w1.expr, w1.moves + inverse)
    sk2, path = co.word_to_path(loop)
    assert len(path.steps) == 5
    assert validate_path(sk2.complex, path) == path.start


def test_empty_word_is_empty_path():
    expr = parse_expression("((a:1 o1 b:1) o1 c:1)")
    sk, path = co.word_to_path(co.MorphismWord(expr, ()))
    assert path.steps == ()


def test_illegal_move_reports_index():
    expr = parse_expression("((a:1 o1 b:1) o1 c:1)")
    bad = co.MorphismWord(
        expr, (((frozenset({1, 2})), frozenset({0, 1}), 1),)
    )
    with pytest.raises(IllegalMoveError) as err:
        co.word_to_path(bad)
    assert err.value.index == 0


def test_wrong_sign_is_illegal():
    expr = parse_expression("((a:1 o1 b:1) o1 c:1)")
    # {0,1} -> {1,2} is the beta forward direction; sign -1 must be rejected
    bad = co.MorphismWord(expr, ((frozenset({0, 1}), frozenset({1, 2}), -1),))
    with pytest.raises(IllegalMoveError):
        co.word_to_path(bad)


def test_word_path_round_trip():
    rng = random.Random(17)
    tree = PlanarTree.linear(5)
    sk = build_skeleton(tree)
    adj = [[] for _ in range(sk.complex.vertex_count)]
    for e, (a, b) in enumerate(sk.complex.edges):
        adj[a].append(e + 1)
        adj[b].append(-(e + 1))
    for _ in range(25):
        start = rng.randrange(sk.complex.vertex_count)
        steps = []
        at = start
        for _ in range(rng.randrange(0, 30)):
            s = rng.choice(adj[at])
            steps.append(s)
            at = sk.complex.step_ends(s)[1]
        expr = sk.expression_of(start)
        word = co.MorphismWord(expr, co.moves_from_steps(sk, steps))
        sk2, path = co.word_to_path(word)
        assert path == Path(start, tuple(steps))


# ---------------------------------------------------------------------------
# decide_coherence


def test_pentagon_legs_certified_equal():
    _, w1, w2 = arc_words(PlanarTree.linear(4))
    verdict = co.decide_coherence(w1, w2)
    assert verdict.equal
    assert verdict.statistics["face_substitutions"] == 1
    assert verdict.statistics["faces_by_shape"] == {"pentagon": 1}


def test_hexagon_legs_certified_equal():
    _, w1, w2 = arc_words(PlanarTree.corolla(3))
    verdict = co.decide_coherence(w1, w2)
    assert verdict.equal
    assert sorted(verdict.statistics["word_lengths"]) == [3, 3]
    assert verdict.statistics["faces_by_shape"].get("hexagon", 0) >= 1


def test_not_parallel_different_codomain():
    expr = parse_expression("((a:1 o1 b:1) o1 c:1)")
    tree, nesting = expression_to_nesting(expr)
    move = (frozenset({0, 1}), frozenset({1, 2}), 1)
    w1 = co.MorphismWord(expr, (move,))
    w2 = co.MorphismWord(expr, ())
    with pytest.raises(NotParallelError):
        co.decide_coherence(w1, w2)


def test_not_parallel_different_domain():
    w1 = co.MorphismWord(parse_expression("(a:1 o1 b:1)"), ())
    w2 = co.MorphismWord(parse_expression("(x:1 o1 y:1)"), ())
    with pytest.raises(NotParallelError):
        co.decide_coherence(w1, w2)


def test_certificates_verify_on_their_skeleton():
    rng = random.Random(23)
    for tree in [PlanarTree.linear(5), PlanarTree.corolla(4)]:
        sk = build_skeleton(tree)
        c = sk.complex
        adj = [[] for _ in range(c.vertex_count)]
        for e, (a, b) in enumerate(c.edges):
            adj[a].append(e + 1)
            adj[b].append(-(e + 1))
        for _ in range(10):
            start = rng.randrange(c.vertex_count)
            s1, at = [], start
            for _ in range(rng.randrange(0, 15)):
                s = rng.choice(adj[at])
                s1.append(s)
                at = c.step_ends(s)[1]
            expr = sk.expression_of(start)
            w1 = co.MorphismWord(expr, co.moves_from_steps(sk, s1))
            # second leg: the canonical normal-form route via descents
            from collections import deque

            prev = {start: None}
            q = deque([start])
            while q:
                v = q.popleft()
                if v == at:
                    break
                for s in adj[v]:
                    w = c.step_ends(s)[1]
                    if w not in prev:
                        prev[w] = (v, s)
                        q.append(w)
            s2 = []
            node = at
            while node != start:
                v, s = prev[node]
                s2.append(s)
                node = v
            s2.reverse()
            w2 = co.MorphismWord(expr, co.moves_from_steps(sk, s2))
            verdict = co.decide_coherence(w1, w2)
            assert verdict.equal
            assert verify_certificate(c, verdict.certificate).ok


# ---------------------------------------------------------------------------
# Normal forms and confluence


def test_normal_form_linear():
    sink, word = co.normal_form(parse_expression("((a:1 o1 b:1) o1 c:1)"))
    assert str(sink) == "(a:1 o1 (b:1 o1 c:1))"
    assert all(sign == 1 for *_, sign in word.moves)


def test_normal_form_theta_prefers_larger_slot():
    sink, _ = co.normal_form(parse_expression("((k:2 o1 a:1) o2 b:1)"))
    assert str(sink) == "((k:2 o2 b:1) o1 a:1)"


def test_normal_form_fixed_point():
    expr = parse_expression("(a:1 o1 (b:1 o1 c:1))")
    sink, word = co.normal_form(expr)
    assert sink == expr and word.moves == ()


def test_normal_form_strategy_independent():
    rng = random.Random(31)
    for tree in enumerate_ordered_trees(5):
        expr = nesting_to_expression(
            tree, build_skeleton(tree).vertices[0]
        )
        sink, _ = co.normal_form(expr)
        for _ in range(10):
            assert co.random_normal_form(expr, rng) == sink


def test_local_confluence_reports():
    rep = co.check_local_confluence(PlanarTree.linear(4))
    assert rep.faces == 1 and rep.all_joinable
    assert rep.by_shape == {"pentagon": 1}
    rep = co.check_local_confluence(PlanarTree.linear(5))
    assert rep.faces == 9 and rep.all_joinable
    assert rep.by_shape == {"pentagon": 6, "square": 3}
    rep = co.check_local_confluence(PlanarTree.corolla(3))
    assert rep.faces == 1 and rep.by_shape == {"hexagon": 1}


# ---------------------------------------------------------------------------
# MacLane mode


def test_maclane_two_letters():
    assert str(co.maclane_parse("(ab)")) == "(a:1 o1 b:1)"


def test_maclane_left_comb():
    expr = co.maclane_parse("((ab)c)d")
    tree, nesting = expression_to_nesting(expr)
    assert tree.p == 4
    assert str(expr) == "(((a:1 o1 b:1) o1 c:1) o1 d:1)"


def test_maclane_rejects_out_of_order_letters():
    with pytest.raises(ParseError):
        co.maclane_parse("((ab)c)(ed)")


def test_maclane_rejects_unparenthesised():
    with pytest.raises(ParseError):
        co.maclane_parse("abc")
    with pytest.raises(ParseError):
        co.maclane_parse("((ab)c")


def test_maclane_tamari_graph_counts():
    for n in range(2, 8):
        sk = build_skeleton(PlanarTree.linear(n))
        nodes, arcs = oracles.tamari_digraph(n)
        assert len(sk.vertices) == oracles.catalan(n - 1) == len(nodes)
        assert len(sk.edges) == len(arcs)


def test_maclane_pentagon_legs():
    expr = co.maclane_parse("((ab)c)d")
    tree, nesting = expression_to_nesting(expr)
    sk, w1, w2 = arc_words(tree)
    verdict = co.decide_coherence(w1, w2)
    assert verdict.equal


# ---------------------------------------------------------------------------
# Sugared syntax and JSON


def test_parse_word_text_pentagon_leg():
    expr = parse_expression("(((k:1 o1 t:1) o1 m:1) o1 n:1)")
    word = co.parse_word_text(expr, "beta@0.1.2 beta@0.1")
    assert len(word.moves) == 2
    sk, path = co.word_to_path(word)
    assert len(path.steps) == 2


def test_parse_word_text_inverse_marker():
    expr = parse_expression("(((k:1 o1 t:1) o1 m:1) o1 n:1)")
    # undoing beta@0.1.2 removes the nest it added, flagged as an inverse
    word = co.parse_word_text(expr, "beta@0.1.2 -beta@2.3")
    assert word.moves[1][2] == -1
    sk, path = co.word_to_path(word)
    assert path.steps[1] == -path.steps[0]


def test_parse_word_text_kind_mismatch():
    expr = parse_expression("(((k:1 o1 t:1) o1 m:1) o1 n:1)")
    with pytest.raises(IllegalMoveError):
        co.parse_word_text(expr, "theta@0.1.2")


def test_word_json_round_trip():
    expr = parse_expression("(((k:1 o1 t:1) o1 m:1) o1 n:1)")
    word = co.parse_word_text(expr, "beta@0.1.2 beta@0.1")
    data = word.to_json()
    back = co.word_from_json(data)
    assert back.moves == word.moves
    assert str(back.expr) == str(word.expr)


# ---------------------------------------------------------------------------
# The front ends agree: text, JSON and MorphismWord all feed one replay


def _token(removed, sign, kind):
    return f"{'-' if sign < 0 else ''}{kind}@{'.'.join(map(str, sorted(removed)))}"


def test_front_ends_agree_on_random_walks():
    rng = random.Random(23)
    for p in range(1, 6):
        for tree in enumerate_ordered_trees(p):
            sk = build_skeleton(tree)
            adj = [[] for _ in sk.vertices]
            for e, (a, b) in enumerate(sk.complex.edges):
                adj[a].append(e + 1)
                adj[b].append(-(e + 1))
            for _ in range(4):
                start = at = rng.randrange(len(sk.vertices))
                steps, tokens = [], []
                for _ in range(rng.randrange(0, 12) if adj[at] else 0):
                    s = rng.choice(adj[at])
                    edge = sk.edges[abs(s) - 1]
                    removed = edge.removed if s > 0 else edge.added
                    sign = 1 if edge.forward == (s > 0) else -1
                    tokens.append(_token(removed, sign, edge.kind))
                    steps.append(s)
                    at = sk.complex.step_ends(s)[1]
                expr = sk.expression_of(start)
                text_word = co.parse_word_text(expr, " ".join(tokens))
                json_word = co.word_from_json(text_word.to_json())
                assert json_word.moves == text_word.moves
                assert json_word.moves == co.moves_from_steps(sk, steps)
                assert str(json_word.expr) == str(expr)
                path = Path(start, tuple(steps))
                assert co.word_to_path(text_word)[1] == path
                assert co.word_to_path(json_word)[1] == path


def test_illegal_moves_report_one_index_from_every_front_end():
    expr = parse_expression("(((k:1 o1 t:1) o1 m:1) o1 n:1)")
    prefix = co.replay(
        expr, [({0, 1, 2}, None, 1, "beta"), ({0, 1}, None, 1, "beta")]
    )
    sk, path = prefix.walk
    tree = sk.tree
    current = sk.vertices[validate_path(sk.complex, path)]
    full = frozenset(range(tree.p))
    nest = min(current - {full}, key=sorted)
    _, partner = flip_nest(tree, current, nest)
    kind, forward = classify_flip(tree, nest, partner)
    sign = 1 if forward else -1
    other_kind = "theta" if kind == "beta" else "beta"
    absent = next(n for n in enumerate_nests(tree) if n not in current)
    # (removed, added, sign, kind), the front ends that can state it, and
    # the reason each must give
    cases = [
        ((absent, None, 1, "beta"), "text json word", "is not present"),
        ((full, None, 1, "beta"), "text json word", "full nest cannot be flipped"),
        ((nest, nest, sign, None), "json word", "does not complete"),
        ((nest, None, sign, other_kind), "text", f"move is {kind}"),
        ((nest, partner, -sign, kind), "text json word", "contradicts"),
    ]
    text = " ".join(_token(rm, sg, "beta") for rm, _, sg in prefix.moves)
    for (removed, added, sg, knd), front_ends, reason in cases:
        attempts = [lambda: co.replay(expr, [m + (None,) for m in prefix.moves]
                                      + [(removed, added, sg, knd)])]
        if "text" in front_ends:
            attempts.append(
                lambda: co.parse_word_text(expr, f"{text} {_token(removed, sg, knd)}")
            )
        if "json" in front_ends:
            data = prefix.to_json()
            data["moves"].append({"remove": sorted(removed), "sign": sg})
            if added is not None:
                data["moves"][-1]["add"] = sorted(added)
            attempts.append(lambda: co.word_from_json(data))
        if "word" in front_ends:
            move = (removed, added if added is not None else frozenset(), sg)
            attempts.append(
                lambda: co.word_to_path(co.MorphismWord(expr, prefix.moves + (move,)))
            )
        for attempt in attempts:
            with pytest.raises(IllegalMoveError) as err:
                attempt()
            assert err.value.index == 2
            assert reason in str(err.value)


def test_full_nest_move_is_illegal_under_python_O():
    import subprocess
    import sys

    r = subprocess.run(
        [sys.executable, "-O", "-m", "operahedra.cli", "check", "coherence",
         "--expr", "(((k:1 o1 t:1) o1 m:1) o1 n:1)",
         "--w1", "beta@0.1.2 beta@0.1.2.3", "--w2", ""],
        capture_output=True, text=True, check=False,
    )
    assert r.returncode == 2
    assert "error: move 1: the full nest cannot be flipped" in r.stderr


# ---------------------------------------------------------------------------
# word_to_path reads the step table and replays nothing


def test_word_to_path_follows_replay_on_random_walks():
    rng = random.Random(61)
    for p in range(1, 7):
        for tree in enumerate_ordered_trees(p):
            sk = build_skeleton(tree)
            full = frozenset(range(tree.p))
            for _ in range(3):
                start = rng.randrange(len(sk.vertices))
                current, moves = sk.vertices[start], []
                visited = [current]
                for _ in range(rng.randrange(0, 15) if p > 2 else 0):
                    nest = rng.choice(sorted(current - {full}, key=sorted))
                    current, _ = flip_nest(tree, current, nest)
                    moves.append((nest, None, None, None))
                    visited.append(current)
                expr = sk.expression_of(start)
                word = co.replay(expr, moves)
                sk2, path = co.word_to_path(word)
                at = [path.start]
                for s in path.steps:
                    tail, head = sk2.complex.step_ends(s)
                    assert tail == at[-1]
                    at.append(head)
                assert at == [sk2.index[m] for m in visited]


def test_word_to_path_and_decide_do_not_flip_nests(monkeypatch):
    from operahedra import skeleton

    expr = parse_expression("(((k:1 o1 t:1) o1 m:1) o1 n:1)")
    w1 = co.parse_word_text(expr, "beta@0.1.2 beta@0.1")
    w2 = co.parse_word_text(expr, "beta@0.1 beta@0.1.2 beta@1.2")
    sk = build_skeleton(expression_to_nesting(expr)[0])
    sk.homotopy_builder()
    before = (co.word_to_path(w1)[1], co.decide_coherence(w1, w2))

    def refuse(*args):
        raise RuntimeError("flip_nest called")

    monkeypatch.setattr(skeleton, "flip_nest", refuse)
    assert not hasattr(co, "flip_nest")
    start = sk.index[expression_to_nesting(expr)[1]]
    step = sk.out_step[start][frozenset({0, 1})]
    word = co.parse_word_text(expr, "beta@0.1")
    assert co.word_to_path(word) == (sk, Path(start, (step,)))
    with pytest.raises(RuntimeError):  # the patch is live: building flips
        skeleton.Skeleton(PlanarTree.linear(4))
    assert (co.word_to_path(w1)[1], co.decide_coherence(w1, w2)) == before


def test_one_unfold_and_no_flip_per_word(monkeypatch):
    from operahedra import skeleton, trees

    expr = parse_expression("(((k:1 o1 t:1) o1 m:1) o1 n:1)")
    build_skeleton(expression_to_nesting(expr)[0]).homotopy_builder()
    calls = {"unfold": 0, "flip": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(trees, "expression_to_nesting",
                        counting("unfold", trees.expression_to_nesting))
    monkeypatch.setattr(skeleton, "flip_nest", counting("flip", skeleton.flip_nest))
    w1 = co.parse_word_text(expr, "beta@0.1.2 beta@0.1")
    assert calls == {"unfold": 1, "flip": 0}
    w2 = co.word_from_json(co.parse_word_text(expr, "beta@0.1 beta@0.1.2 beta@1.2").to_json())
    assert calls == {"unfold": 3, "flip": 0}  # the text word, then the JSON word
    verdict = co.decide_coherence(w1, w2)
    assert verdict.equal
    assert calls == {"unfold": 3, "flip": 0}
    # a word built by hand is walked once, by the same replay
    co.decide_coherence(co.MorphismWord(expr, w1.moves), w2)
    assert calls == {"unfold": 4, "flip": 0}
    # the counters are live: a new skeleton flips every edge once
    skeleton.Skeleton(PlanarTree.linear(4))
    assert calls["flip"] == 5


def test_replayed_words_compare_by_expression_and_moves():
    expr = parse_expression("(((k:1 o1 t:1) o1 m:1) o1 n:1)")
    word = co.parse_word_text(expr, "beta@0.1.2 beta@0.1")
    plain = co.MorphismWord(expr, word.moves)
    assert word == plain and hash(word) == hash(plain)
    assert tuple(word) == (expr, word.moves)
    assert co.word_to_path(plain) == co.word_to_path(word)
    # a copy with other moves carries no stale walk
    shorter = word._replace(moves=word.moves[:1])
    assert co.word_to_path(shorter)[1].steps == co.word_to_path(word)[1].steps[:1]
