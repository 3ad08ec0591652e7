"""Acceptance suite: one test per criterion, one printed verdict line each.

Expected values are either frozen golden files generated by the brute-force
oracle in oracles.py, recomputed oracle values, or exact structural checks.
Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
"""

import json
import os
import random
from collections import deque

import oracles
from operahedra import complexes as cx
from operahedra import coherence as co
from operahedra import geometry as geo
from operahedra.homotopy import verify_certificate
from operahedra.skeleton import build_skeleton
from operahedra.trees import PlanarTree, enumerate_ordered_trees

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "skeletons.json")
SEED = 20260808


def verdict(number, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {text}")
    assert ok, f"criterion {number}: {text}"


def all_trees(max_p=6):
    out = []
    for p in range(1, max_p + 1):
        out.extend(enumerate_ordered_trees(p))
    return out


def step_adjacency(c):
    adj = [[] for _ in range(c.vertex_count)]
    for e, (a, b) in enumerate(c.edges):
        adj[a].append(e + 1)
        adj[b].append(-(e + 1))
    return adj


def test_criterion_1_face_census():
    trees = all_trees(6)
    faces = 0
    for tree in trees:
        sk = build_skeleton(tree)
        for f in sk.faces:
            assert len(f.steps) in (4, 5, 6)
            faces += 1
    verdict(
        1,
        True,
        f"face census: {len(trees)} trees (p <= 6), {faces} 2-faces, "
        "every boundary length in {4, 5, 6}",
    )


def test_criterion_2_known_skeletons():
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    named = {
        "linear4": PlanarTree.linear(4),
        "linear5": PlanarTree.linear(5),
        "corolla3": PlanarTree.corolla(3),
        "corolla4": PlanarTree.corolla(4),
    }
    ok = True
    for name, tree in sorted(named.items()):
        sk = build_skeleton(tree)
        ok = ok and list(sk.f_vector()) == golden[name]["f_vector"]
        ok = ok and sk.shape_counts() == golden[name]["shapes"]
        # the golden file itself restates the oracle; recheck it live
        v, e, lengths = oracles.skeleton_counts_brute(tree)
        ok = ok and golden[name]["f_vector"] == [v, e, sum(lengths.values())]
    verdict(
        2,
        ok,
        "known skeletons match golden files and the live oracle: "
        "(5,5,1) 1 pentagon; (14,21,9) 6+3; (6,6,1) hexagon; (24,36,14) 8+6",
    )


def test_criterion_3_morse_suite():
    trees = all_trees(6)
    checked = 0
    for tree in trees:
        sk = build_skeleton(tree)
        result = cx.morse_certificate(sk.complex, sk.orientation)
        assert isinstance(result, cx.MorseCertificate), (tree.shape_string(), result)
        ok, reason = cx.check_morse_certificate(sk.complex, sk.orientation, result)
        assert ok, reason
        checked += 1
    verdict(
        3,
        True,
        f"Morse suite: forward orientation certified on all {checked} trees "
        "(acyclic, unique sink, two-arc faces, connected links)",
    )


def test_criterion_4_homology_suite():
    for tree in all_trees(6):
        rep = cx.homology(build_skeleton(tree).complex)
        assert rep.betti0 == 1 and rep.betti1 == 0 and not rep.torsion1
    cycle = cx.Complex2(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], [])
    assert cx.homology(cycle).betti1 == 1
    fixture, _ = cx.outgoingpoly()
    rep = cx.homology(fixture)
    assert rep.betti1 == 0 and not rep.torsion1
    verdict(
        4,
        True,
        "homology suite: b0=1, b1=0, torsion-free on every skeleton; "
        "5-cycle control b1=1; fixture b1=0",
    )


def test_criterion_5_counterexample_fixture():
    c, points = cx.outgoingpoly()
    rng = random.Random(SEED)
    hits = 0
    for _ in range(16):
        vec = geo.random_generic_vector(c, points, rng)
        orientation = geo.induced_orientation(c, points, vec)
        disconnected = [
            x
            for x in range(c.vertex_count)
            if cx.link_spanning_tree(cx.outgoing_link(c, orientation, x)) is None
        ]
        assert disconnected, f"direction {vec} left every link connected"
        result = cx.morse_certificate(c, orientation)
        assert result.condition == "disconnected_link"
        hits += 1
    verdict(
        5,
        hits == 16,
        "counterexample fixture: 16/16 sampled generic directions produce a "
        "disconnected outgoing link",
    )


def _random_parallel_words(sk, rng, max_len=30):
    c = sk.complex
    adj = step_adjacency(c)
    start = rng.randrange(c.vertex_count)
    if not c.edges:
        empty = co.MorphismWord(sk.expression_of(start), ())
        return empty, empty
    s1, at = [], start
    for _ in range(rng.randrange(0, max_len - 8)):
        s = rng.choice(adj[at])
        s1.append(s)
        at = c.step_ends(s)[1]
    s2, mid = [], start
    for _ in range(rng.randrange(0, max_len - 12)):
        s = rng.choice(adj[mid])
        s2.append(s)
        mid = c.step_ends(s)[1]
    prev = {mid: None}
    q = deque([mid])
    while q:
        v = q.popleft()
        if v == at:
            break
        for s in adj[v]:
            w = c.step_ends(s)[1]
            if w not in prev:
                prev[w] = (v, s)
                q.append(w)
    joiner = []
    node = at
    while node != mid:
        v, s = prev[node]
        joiner.append(s)
        node = v
    joiner.reverse()
    s2 += joiner
    expr = sk.expression_of(start)
    w1 = co.MorphismWord(expr, co.moves_from_steps(sk, s1))
    w2 = co.MorphismWord(expr, co.moves_from_steps(sk, s2))
    return w1, w2


def test_criterion_6_randomized_coherence():
    rng = random.Random(SEED)
    pairs = 0
    for tree in all_trees(6):
        sk = build_skeleton(tree)
        for _ in range(100):
            w1, w2 = _random_parallel_words(sk, rng)
            assert max(len(w1.moves), len(w2.moves)) <= 30
            result = co.decide_coherence(w1, w2)
            assert result.equal
            check = verify_certificate(sk.complex, result.certificate)
            assert check.ok, check
            pairs += 1
    verdict(
        6,
        True,
        f"randomized coherence: {pairs} seeded parallel word pairs certified "
        "equal, every certificate accepted by the independent verifier",
    )


def test_criterion_7_confluence():
    rng = random.Random(SEED)
    for tree in all_trees(6):
        rep = co.check_local_confluence(tree)
        assert rep.all_joinable, tree.shape_string()
        if tree.p >= 2:
            expr = co.trees.nesting_to_expression(
                tree, build_skeleton(tree).vertices[0]
            )
            sink, _ = co.normal_form(expr)
            for _ in range(50):
                assert co.random_normal_form(expr, rng) == sink
    verdict(
        7,
        True,
        "confluence: every critical pair joinable on all 65 trees; 50 random "
        "strategies per tree reach one normal form",
    )


def test_criterion_8_geometry_cross_validation():
    rng = random.Random(SEED)
    certified = 0
    for p in range(2, 7):
        sk = build_skeleton(PlanarTree.linear(p))
        points = geo.realize_linear(sk)
        vec = geo.decreasing_vector(p - 1)
        assert geo.induced_orientation(sk.complex, points, vec) == sk.orientation
        for _ in range(100):
            sample = geo.random_generic_vector(sk.complex, points, rng)
            result = geo.polytope_morse_check(sk.complex, points, sample)
            assert isinstance(result, cx.MorseCertificate)
            certified += 1
    verdict(
        8,
        True,
        "geometry: decreasing vectors reproduce the rewrite orientation "
        f"edge-for-edge (linear p <= 6); {certified} random generic vectors "
        "all carried Morse certificates",
    )


def test_criterion_9_maclane_mode():
    for n in range(2, 8):
        sk = build_skeleton(PlanarTree.linear(n))
        nodes, arcs = oracles.tamari_digraph(n)
        assert len(sk.vertices) == oracles.catalan(n - 1) == len(nodes)
        assert len(sk.edges) == len(arcs)
        sets = [frozenset(map(oracles.vertex_set, m)) for m in sk.vertices]
        directed = set()
        for e in sk.edges:
            src, dst = (e.a, e.b) if e.forward else (e.b, e.a)
            directed.add((sets[src], sets[dst]))
        assert directed == arcs
    expr = co.maclane_parse("((ab)c)d")
    tree, nesting = co.trees.expression_to_nesting(expr)
    sk = build_skeleton(tree)
    builder = sk.homotopy_builder()
    src = sk.morse().face_source_sink[0][0]
    assert sk.index[nesting] == src  # ((ab)c)d is the pentagon source
    arcs_by_edge = sorted(builder.face_arcs(0).items())
    w1 = co.MorphismWord(expr, co.moves_from_steps(sk, arcs_by_edge[0][1]))
    w2 = co.MorphismWord(expr, co.moves_from_steps(sk, arcs_by_edge[1][1]))
    result = co.decide_coherence(w1, w2)
    assert result.equal and verify_certificate(sk.complex, result.certificate).ok
    verdict(
        9,
        True,
        "MacLane mode: rotation graphs match for n <= 7 letters "
        "(1, 2, 5, 14, 42, 132 vertices, arcs equal); pentagon legs on "
        "((ab)c)d certified equal",
    )
