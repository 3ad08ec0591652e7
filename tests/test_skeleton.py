import json
import os

import pytest

import oracles
from operahedra import complexes, trees
from operahedra.errors import MalformedEdgeError
from operahedra.skeleton import (
    BETA,
    THETA,
    TwoFace,
    build_skeleton,
    classify_edge,
    classify_flip,
)
from operahedra.trees import PlanarTree, enumerate_ordered_trees, nest_mask

with open(os.path.join(os.path.dirname(__file__), "golden", "skeletons.json")) as fh:
    GOLDEN = json.load(fh)

NAMED = {
    "linear4": PlanarTree.linear(4),
    "linear5": PlanarTree.linear(5),
    "corolla3": PlanarTree.corolla(3),
    "corolla4": PlanarTree.corolla(4),
}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_golden_f_vectors(name):
    sk = build_skeleton(NAMED[name])
    assert list(sk.f_vector()) == GOLDEN[name]["f_vector"]
    assert sk.shape_counts() == GOLDEN[name]["shapes"]


@pytest.mark.parametrize("name", sorted(NAMED))
def test_golden_matches_brute_force(name):
    v, e, lengths = oracles.skeleton_counts_brute(NAMED[name])
    assert GOLDEN[name]["f_vector"] == [v, e, sum(lengths.values())]
    assert GOLDEN[name]["shapes"] == {
        "square": lengths.get(4, 0),
        "pentagon": lengths.get(5, 0),
        "hexagon": lengths.get(6, 0),
    }


def test_beta_classification_on_chain():
    # ((ab)c) -> (a(bc)): remove {a,b}, add {b,c}
    tree = PlanarTree.linear(3)
    kind, forward = classify_flip(tree, nest_mask({0, 1}, 3), nest_mask({1, 2}, 3))
    assert kind == BETA and forward
    kind, forward = classify_flip(tree, nest_mask({1, 2}, 3), nest_mask({0, 1}, 3))
    assert kind == BETA and not forward


def test_theta_classification_on_corolla():
    # root 0 with children 1 (first slot) and 2 (second): {0,1} -> {0,2}
    tree = PlanarTree.corolla(2)
    kind, forward = classify_flip(tree, nest_mask({0, 1}, 3), nest_mask({0, 2}, 3))
    assert kind == THETA and forward
    kind, forward = classify_flip(tree, nest_mask({0, 2}, 3), nest_mask({0, 1}, 3))
    assert kind == THETA and not forward


def test_classify_edge_rejects_two_nest_difference():
    tree = PlanarTree.linear(4)
    sk = build_skeleton(tree)
    a = sk.vertices[0]
    b = next(m for m in sk.vertices if len(a & m) < tree.p - 2)
    with pytest.raises(MalformedEdgeError):
        classify_edge(tree, a, b)


def test_classify_edge_matches_stored_edges():
    for tree in enumerate_ordered_trees(5):
        sk = build_skeleton(tree)
        for e in sk.edges:
            kind, forward = classify_edge(
                tree, sk.vertices[e.a], sk.vertices[e.b]
            )
            assert (kind, forward) == (e.kind, e.forward)


def test_flip_is_an_involution():
    for tree in enumerate_ordered_trees(5):
        for m in build_skeleton(tree).vertices:
            for nest in m:
                if nest == trees.full_nest(tree):
                    continue
                flipped, added = oracles.flip_nest(tree, m, nest)
                back, re_added = oracles.flip_nest(tree, flipped, added)
                assert back == m and re_added == nest


def test_edges_share_all_but_one_nest():
    for name in NAMED.values():
        sk = build_skeleton(name)
        for e in sk.edges:
            a, b = sk.vertices[e.a], sk.vertices[e.b]
            assert len(a & b) == name.p - 2
            assert a - b == {nest_mask(e.removed, name.p)}
            assert b - a == {nest_mask(e.added, name.p)}


def test_face_boundaries_are_4_5_or_6_everywhere():
    for p in range(1, 7):
        for tree in enumerate_ordered_trees(p):
            sk = build_skeleton(tree)
            for f in sk.faces:
                assert len(f.steps) in (4, 5, 6)
                assert len(f.steps) == {"square": 4, "pentagon": 5, "hexagon": 6}[f.shape]


def test_faces_are_the_complex_cells():
    """A face holds its boundary walk as the complex's own cell, and its
    shape; its nesting and vertex cycle are read off the skeleton."""
    assert TwoFace._fields == ("steps", "shape")
    for tree in [PlanarTree.linear(5), PlanarTree.corolla(4), PlanarTree.linear(6)]:
        sk = build_skeleton(tree)
        assert len(sk.faces) == len(sk.complex.cells)
        for i, f in enumerate(sk.faces):
            assert f.steps is sk.complex.cells[i]
            cycle, nesting = oracles.face_cycle_nesting(sk, f)
            assert cycle == sk.complex.cell_vertices(f.steps)
            assert len(nesting) == tree.p - 3


def first_template(tree):
    """The oracle's template for the first face of ``tree``'s skeleton."""
    sk = build_skeleton(tree)
    return oracles.face_shape(tree, oracles.face_cycle_nesting(sk, sk.faces[0])[1])[1]


def test_face_templates():
    assert first_template(PlanarTree.linear(4)) == "pentagon.1"
    assert first_template(PlanarTree.corolla(3)) == "hexagon.2"
    # chain of two with a fork on top: the other hexagon
    tree = PlanarTree(children=[(1,), (2, 3), (), ()])
    assert first_template(tree) == "hexagon.1"
    # the two mirrored pentagons with one branch
    left_deep = PlanarTree(children=[(1, 3), (2,), (), ()])
    assert first_template(left_deep) == "pentagon.2"
    right_deep = PlanarTree(children=[(1, 2), (), (3,), ()])
    assert first_template(right_deep) == "pentagon.3"


def square_templates(tree):
    sk = build_skeleton(tree)
    return {
        oracles.face_shape(tree, oracles.face_cycle_nesting(sk, f)[1])[1]
        for f in sk.faces if f.shape == "square"
    }


def test_square_templates_disjoint_and_nested():
    # at p = 5 one of the two commuting supports is always the full nest
    assert square_templates(PlanarTree.linear(5)) == {"square.nested"}
    # at p = 6 two disjoint 3-vertex supports fit, e.g. two 2-chain branches
    templates = square_templates(PlanarTree.linear(6))
    assert "square.disjoint" in templates and "square.nested" in templates


SHAPE_ORACLE_TREES = [
    PlanarTree.linear(7),
    PlanarTree.corolla(5),
    PlanarTree.corolla(6),
    PlanarTree([[1, 4], [2, 3], [], [], [5], [6], []]),  # mixed_a of test_corner_index
    PlanarTree([[1, 5, 6], [2], [3, 4], [], [], [], []]),  # mixed_b of test_corner_index
]


def test_boundary_length_shape_matches_piece_classifier():
    """The shape read off each face's boundary length equals the one the
    piece decomposition of its nesting gives."""
    small = [t for p in range(1, 7) for t in enumerate_ordered_trees(p)]
    checked = 0
    for tree in small + SHAPE_ORACLE_TREES:
        sk = build_skeleton(tree)
        for f in sk.faces:
            assert f.shape == oracles.face_shape(tree, oracles.face_cycle_nesting(sk, f)[1])[0]
            checked += 1
    assert checked > 6000


def test_face_shape_census_matches_independent_classifier():
    """Count faces per shape two ways: stored classification vs a recount of
    the boundary cycle lengths found by the brute-force oracle."""
    for p in range(4, 7):
        for tree in enumerate_ordered_trees(p):
            sk = build_skeleton(tree)
            _, _, lengths = oracles.skeleton_counts_brute(tree)
            counts = sk.shape_counts()
            assert lengths.get(4, 0) == counts["square"]
            assert lengths.get(5, 0) == counts["pentagon"]
            assert lengths.get(6, 0) == counts["hexagon"]


def test_orientation_is_total_and_acyclic_with_unique_sink_and_source():
    for p in range(2, 7):
        for tree in enumerate_ordered_trees(p):
            sk = build_skeleton(tree)
            assert len(sk.orientation) == len(sk.edges)
            result = complexes.morse_certificate(sk.complex, sk.orientation)
            assert isinstance(result, complexes.MorseCertificate)
            indeg = [0] * len(sk.vertices)
            for e in range(len(sk.edges)):
                _, dst = complexes.directed_ends(sk.complex, sk.orientation, e)
                indeg[dst] += 1
            sources = [v for v, d in enumerate(indeg) if d == 0]
            assert len(sources) == 1  # monitored invariant: unique global source


def test_tamari_digraph_matches_rotation_oracle():
    for p in range(2, 7):
        tree = PlanarTree.linear(p)
        sk = build_skeleton(tree)
        nodes, arcs = oracles.tamari_digraph(p)
        sets = [frozenset(map(oracles.vertex_set, m)) for m in sk.vertices]
        assert set(sets) == nodes
        ours = set()
        for e in sk.edges:
            src, dst = (e.a, e.b) if e.forward else (e.b, e.a)
            ours.add((sets[src], sets[dst]))
        assert ours == arcs


def test_tamari_sink_is_right_comb_source_left_comb():
    tree = PlanarTree.linear(5, labels=list("abcde"))
    sk = build_skeleton(tree)
    cert = sk.morse()
    assert str(sk.expression_of(cert.global_sink)) == (
        "(a:1 o1 (b:1 o1 (c:1 o1 (d:1 o1 e:1))))"
    )
    outdeg = [0] * len(sk.vertices)
    indeg = [0] * len(sk.vertices)
    for e in range(len(sk.edges)):
        src, dst = complexes.directed_ends(sk.complex, sk.orientation, e)
        outdeg[src] += 1
        indeg[dst] += 1
    source = indeg.index(0)
    assert str(sk.expression_of(source)) == (
        "((((a:1 o1 b:1) o1 c:1) o1 d:1) o1 e:1)"
    )


def test_linear_trees_are_all_beta():
    sk = build_skeleton(PlanarTree.linear(6))
    assert all(e.kind == BETA for e in sk.edges)


def test_corollas_are_all_theta():
    sk = build_skeleton(PlanarTree.corolla(4))
    assert all(e.kind == THETA for e in sk.edges)


def test_point_and_segment_skeletons():
    sk1 = build_skeleton(PlanarTree.linear(1))
    assert sk1.f_vector() == (1, 0, 0)
    sk2 = build_skeleton(PlanarTree.linear(2))
    assert sk2.f_vector() == (1, 0, 0)
    sk3 = build_skeleton(PlanarTree.linear(3))
    assert sk3.f_vector() == (2, 1, 0)


def test_dot_export_mentions_both_kinds():
    dot = build_skeleton(PlanarTree.corolla(2)).to_dot()
    assert "theta" in dot and "digraph" in dot
    dot = build_skeleton(PlanarTree.linear(3)).to_dot()
    assert "beta" in dot


def test_pieces_sweep_matches_pairwise_definition():
    """One sweep by decreasing size finds the same pieces as comparing every
    pair, for every nest of every vertex and face nesting with p <= 6."""
    checked = 0
    for p in range(1, 7):
        for tree in enumerate_ordered_trees(p):
            sk = build_skeleton(tree)
            faces = [oracles.face_cycle_nesting(sk, f)[1] for f in sk.faces]
            for nesting in list(sk.vertices) + faces:
                sets = frozenset(map(oracles.vertex_set, nesting))
                for nest in nesting:
                    got = list(map(oracles.vertex_set, trees.pieces(nesting, nest)))
                    assert got == oracles.pieces_pairwise(sets, oracles.vertex_set(nest))
                    checked += 1
    assert checked > 10000


def test_step_table_matches_edges():
    """out_step[i][nest] leaves vertex i across the edge that flips nest."""
    mixed = PlanarTree([(1, 3), (2,), (), ()])
    for tree in [PlanarTree.linear(5), PlanarTree.corolla(4), mixed]:
        sk = build_skeleton(tree)
        full = trees.full_nest(tree)
        for i, m in enumerate(sk.vertices):
            assert set(sk.out_step[i]) == m - {full}
            for nest, s in sk.out_step[i].items():
                tail, head = sk.complex.step_ends(s)
                assert tail == i
                e = sk.edges[abs(s) - 1]
                assert nest_mask(e.removed if s > 0 else e.added, tree.p) == nest
