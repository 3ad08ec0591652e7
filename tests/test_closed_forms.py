"""Closed-form f-vectors: the associahedron for linear trees and the
permutohedron for corollas, checked against the brute-force oracle where it
reaches and then used to check the engine past it; and the construct
recurrence of the line graph, which gives the f-vector of every tree."""

import math
import random

import pytest

import oracles
from operahedra import complexes as cx
from operahedra.skeleton import Skeleton, build_skeleton
from operahedra.trees import PlanarTree, enumerate_ordered_trees


def brute_f_vector(tree):
    v, e, lengths = oracles.skeleton_counts_brute(tree)
    return v, e, sum(lengths.values())


@pytest.mark.parametrize("p", range(2, 7))
def test_kirkman_cayley_matches_brute_force(p):
    assert oracles.linear_f_vector(p) == brute_f_vector(PlanarTree.linear(p))


@pytest.mark.parametrize("k", range(2, 6))
def test_permutohedron_matches_brute_force(k):
    assert oracles.corolla_f_vector(k) == brute_f_vector(PlanarTree.corolla(k))


@pytest.mark.parametrize("p", range(1, 7))
def test_construct_recurrence_matches_brute_force(p):
    for tree in enumerate_ordered_trees(p):
        assert oracles.construct_f_vector(tree) == brute_f_vector(tree)


def test_construct_recurrence_matches_closed_forms():
    for p in range(2, 9):
        tree = PlanarTree.linear(p)
        assert oracles.construct_f_vector(tree) == oracles.linear_f_vector(p)
    for k in range(2, 7):
        tree = PlanarTree.corolla(k)
        assert oracles.construct_f_vector(tree) == oracles.corolla_f_vector(k)


def test_every_tree_with_p7_matches_construct_recurrence():
    """Every skeleton at p = 7 against the recurrence, and the simple
    polytope identities of a (p - 2)-dimensional operahedron: each vertex
    lies on p - 2 edges and on C(p - 2, 2) 2-faces."""
    p = 7
    shapes = enumerate_ordered_trees(p)
    assert len(shapes) == 132
    for tree in shapes:
        sk = Skeleton(tree)
        v, e, f = sk.f_vector()
        assert (v, e, f) == oracles.construct_f_vector(tree)
        assert 2 * e == v * (p - 2)
        assert sum(len(face.steps) for face in sk.faces) == v * math.comb(p - 2, 2)


def random_tree(p, rng):
    """A seeded random planar tree with ids in pre-order: each new vertex
    hangs from a vertex of the rightmost path so far, half the time the
    last one, which keeps some trees long and their operahedra small."""
    children = [[] for _ in range(p)]
    path = [0]
    for v in range(1, p):
        k = len(path) - 1 if rng.random() < 0.5 else rng.randrange(len(path))
        children[path[k]].append(v)
        del path[k + 1 :]
        path.append(v)
    return PlanarTree(children)


def test_seeded_random_trees_p8_to_10_match_construct_recurrence():
    """Random trees with p = 8, 9 and 10 whose operahedron has at most
    3000 vertices, by the recurrence, against the skeleton, with the
    identities of the p = 7 test.  The associahedron has the fewest
    vertices of all operahedra of a size, and at p = 10 it already has
    Catalan(9) = 4862, so the cap leaves every p = 10 tree to the
    recurrence alone."""
    rng = random.Random(2026)
    checked = {8: 0, 9: 0, 10: 0}
    for p in (8, 9, 10):
        for _ in range(8):
            tree = random_tree(p, rng)
            v, e, f = oracles.construct_f_vector(tree)
            assert v >= oracles.catalan(p - 1)
            if v > 3000:
                continue
            sk = Skeleton(tree)
            assert sk.f_vector() == (v, e, f)
            assert 2 * e == v * (p - 2)
            assert sum(len(face.steps) for face in sk.faces) == v * math.comb(p - 2, 2)
            checked[p] += 1
    assert checked[8] >= 4 and checked[9] >= 1 and checked[10] == 0


def test_stirling_numbers():
    assert [oracles.stirling2(5, k) for k in range(6)] == [0, 1, 15, 25, 10, 1]
    assert oracles.stirling2(0, 0) == 1


BEYOND = [
    ("linear", 7, PlanarTree.linear(7), oracles.linear_f_vector(7)),
    ("linear", 8, PlanarTree.linear(8), oracles.linear_f_vector(8)),
    ("corolla", 5, PlanarTree.corolla(5), oracles.corolla_f_vector(5)),
    ("corolla", 6, PlanarTree.corolla(6), oracles.corolla_f_vector(6)),
]


@pytest.mark.parametrize(
    "tree,expected", [(t, f) for _, _, t, f in BEYOND],
    ids=[f"{kind}{n}" for kind, n, _, _ in BEYOND],
)
def test_skeleton_and_morse_beyond_brute_force(tree, expected):
    sk = build_skeleton(tree)
    assert sk.f_vector() == expected
    cert = cx.morse_certificate(sk.complex, sk.orientation)
    assert isinstance(cert, cx.MorseCertificate)
    ok, reason = cx.check_morse_certificate(sk.complex, sk.orientation, cert)
    assert ok, reason
