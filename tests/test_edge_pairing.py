"""Skeleton edges read off facet pairs, against the nest-flipping oracle.

An edge of the operahedron is a nesting of size p - 2 and lies in exactly
two maximal nestings, so the skeleton pairs the vertices that reach the same
nesting less one nest.  The digest below was taken while the skeleton still
flipped nests one at a time: it pins vertices, edges, the step table rows in
their order, cells and Morse certificates byte for byte."""

import hashlib
import json
import random

import pytest

import oracles
from operahedra import complexes as cx
from operahedra import trees
from operahedra.errors import EngineError
from operahedra.skeleton import Skeleton, build_skeleton
from operahedra.trees import PlanarTree, enumerate_ordered_trees, nesting_to_json
from test_closed_forms import random_tree


def pinned_trees():
    """Every tree with p <= 7, linear p = 8 and the 6-child corolla."""
    shapes = [t for p in range(1, 8) for t in enumerate_ordered_trees(p)]
    return shapes + [PlanarTree.linear(8), PlanarTree.corolla(6)]


def seeded_trees():
    """The seeded p = 8-10 trees of test_closed_forms whose operahedra it
    builds: at most 3000 vertices."""
    rng = random.Random(2026)
    found = []
    for p in (8, 9, 10):
        for _ in range(8):
            tree = random_tree(p, rng)
            if oracles.construct_f_vector(tree)[0] <= 3000:
                found.append(tree)
    return found


def skeleton_record(sk):
    cert = cx.morse_certificate(sk.complex, sk.orientation)
    return [
        [nesting_to_json(m) for m in sk.vertices],
        [[e.a, e.b, sorted(e.removed), sorted(e.added), e.kind, e.forward]
         for e in sk.edges],
        [list(row.items()) for row in sk.out_step],
        [list(cell) for cell in sk.complex.cells],
        list(cert),
    ]


PINNED_DIGEST = "bf9b0941f11dd9f57aab220118ab7f4494d76db7d638f811dabd8881d086c65e"


def test_pinned_skeleton_digest():
    h = hashlib.sha256()
    shapes = pinned_trees()
    assert len(shapes) == 199
    for tree in shapes:
        record = skeleton_record(Skeleton(tree))
        h.update(json.dumps(record, separators=(",", ":")).encode())
    assert h.hexdigest() == PINNED_DIGEST


def assert_edges_are_flips(sk):
    tree, vertices = sk.tree, sk.vertices
    for e in sk.edges:
        removed = trees.nest_mask(e.removed, tree.p)
        added = trees.nest_mask(e.added, tree.p)
        assert oracles.flip_nest(tree, vertices[e.a], removed) == (vertices[e.b], added)
        assert oracles.flip_nest(tree, vertices[e.b], added) == (vertices[e.a], removed)


@pytest.mark.parametrize("which", ["pinned", "seeded"])
def test_each_edge_is_a_nest_flip_both_ways(which):
    for tree in pinned_trees() if which == "pinned" else seeded_trees():
        assert_edges_are_flips(build_skeleton(tree))


@pytest.mark.parametrize("tree", [PlanarTree.linear(1), PlanarTree.linear(5),
                                  PlanarTree.corolla(4),
                                  PlanarTree([[1, 4], [2, 3], [], [], [5], [6], []])])
def test_trusted_complex_equals_the_converted_one(tree):
    c = build_skeleton(tree).complex
    again = cx.Complex2(c.vertex_count, c.edges, c.cells)
    assert again == c and hash(again) == hash(c)
    assert type(c.edges) is tuple and type(c.cells) is tuple


def test_an_edge_nesting_in_one_vertex_only_is_an_engine_error(monkeypatch):
    """Dropping a vertex leaves the edge nestings around it unpaired."""
    full = trees.enumerate_maximal_nestings
    monkeypatch.setattr(trees, "enumerate_maximal_nestings", lambda t: full(t)[1:])
    with pytest.raises(EngineError, match="edge nestings lie in a single maximal"):
        Skeleton(PlanarTree.linear(4))
