"""The engine's corner index against exhaustive corner scans, and frozen
digests of skeletons and Morse certificates.

The digests were taken from the engine as it was before the corner index
and the nest-walking face construction: any change to face order, boundary
rotation or certificate witnesses shows up here."""

import hashlib
import json
import random

import pytest

import oracles
from operahedra import coherence as co
from operahedra import complexes as cx
from operahedra.homotopy import HomotopyBuilder
from operahedra.skeleton import build_skeleton
from operahedra.trees import PlanarTree, enumerate_ordered_trees, nesting_to_json


def all_trees(max_p=6):
    return [t for p in range(1, max_p + 1) for t in enumerate_ordered_trees(p)]


def small_complexes():
    """The hand-made complexes of the test suite and two small skeletons."""
    pentagon = cx.Complex2(
        5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], [(1, 2, 3, 4, -5)]
    )
    square = cx.Complex2(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [(1, 2, 3, -4)])
    triangle = cx.Complex2(3, [(0, 1), (1, 2), (0, 2)], [(1, 2, -3)])
    cycle = cx.Complex2(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], [])
    spiked, _ = cx.outgoingpoly()
    skeletons = [build_skeleton(t).complex for t in
                 (PlanarTree.linear(4), PlanarTree.corolla(3), PlanarTree.linear(5))]
    return [pentagon, square, triangle, cycle, spiked] + skeletons


def assert_index_matches_scans(c, o):
    index = cx.CornerIndex(c, o)
    for x in range(c.vertex_count):
        link = index.outgoing_link(x)
        assert (link.vertex, link.nodes, link.links) == (
            x, *oracles.outgoing_link_brute(c, o, x)
        )
    if c.vertex_count:
        assert cx.outgoing_link(c, o, 0) == index.outgoing_link(0)
    for ci, cell in enumerate(c.cells):
        expected = oracles.cell_sources_sinks_brute(c, o, cell)
        assert index.sources_sinks(ci) == expected
        assert cx.cell_sources_sinks(c, o, cell) == expected
    assert tuple(cx.morse_certificate(c, o)) == oracles.morse_brute(c, o)


@pytest.mark.parametrize("p", range(1, 7))
def test_forward_orientation_matches_scans(p):
    for tree in enumerate_ordered_trees(p):
        sk = build_skeleton(tree)
        assert_index_matches_scans(sk.complex, sk.orientation)


def test_random_orientations_match_scans():
    rng = random.Random(2302)
    conditions = set()
    for c in small_complexes():
        for _ in range(40):
            o = tuple(rng.randint(0, 1) for _ in c.edges)
            assert_index_matches_scans(c, o)
            result = cx.morse_certificate(c, o)
            conditions.add(getattr(result, "condition", "certified"))
    assert conditions == {
        "certified", "cycle", "disconnected_link", "sink_not_unique", "face_not_two_arcs"
    }


def test_cell_at_first_cell_wins():
    """Two cells with their source at the same corner: the first one is kept."""
    c = cx.Complex2(
        4, [(0, 1), (1, 3), (0, 2), (2, 3)], [(1, 2, -4, -3), (3, 4, -2, -1)]
    )
    o = (0, 0, 0, 0)
    index = cx.CornerIndex(c, o)
    assert index.cell_at(0, 0, 2) == 0
    assert index.cell_at(0, 2, 0) == 0
    assert index.cell_at(0, 0, 1) is None
    assert index.cell_at(3, 1, 3) is None


def test_builder_pairs_follow_the_index():
    sk = build_skeleton(PlanarTree.corolla(4))
    builder = HomotopyBuilder(sk.complex, sk.orientation, sk.morse())
    for x in range(sk.complex.vertex_count):
        _, links = oracles.outgoing_link_brute(sk.complex, sk.orientation, x)
        first = {}
        for e1, e2, ci in links:
            first.setdefault(frozenset((e1, e2)), ci)
        for pair, ci in first.items():
            assert builder.corners.cell_at(x, *pair) == ci


def test_confluence_counts_match_scans():
    for tree in all_trees(5):
        sk = build_skeleton(tree)
        joinable = sum(
            1 for face in sk.faces
            if [len(side) for side in oracles.cell_sources_sinks_brute(
                sk.complex, sk.orientation, face.steps)] == [1, 1]
        )
        rep = co.check_local_confluence(tree)
        assert (rep.faces, rep.joinable) == (len(sk.faces), joinable)


def sha256(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


DIGESTS = {
    "linear7": (
        PlanarTree.linear(7),
        (132, 330, 300),
        "1530f02ba7ee32ac6eb5a6a2baffc4f950e47a1eaa36bff356d0955c90cc3987",
        "28971cb39cc02984cf78ea26694ae9bef0f15298303302a8dd71aaaa046f2943",
        "0a63f6f8affb462beb40bddcc0b3d0231833de5def753e7793d52358173e24cc",
    ),
    "corolla5": (
        PlanarTree.corolla(5),
        (120, 240, 150),
        "177b0111a150a34623003602267ffd96c5692183d75982ac55d0fba0897ff8a8",
        "64a6c724a0f66806f327e86fea8f88b834d9872664e1790bfde1c57e997fbe37",
        "c7258926e3fbc28cd992d5f392e26dfa4f2c5e301914d9146eb8921c8d549721",
    ),
    "mixed_a": (
        PlanarTree([[1, 4], [2, 3], [], [], [5], [6], []]),
        (180, 450, 404),
        "b377d86359883b1c5ab75c881a36f5a3b0eae030a24abec7cf1559901d1a9253",
        "9b53bfa39ac3bdf3acd4f75562e8f41d055d2b8b007b1e10116b45365322fc60",
        "7b4cdf13e0b9c063d4b980b0d18ae3913ddc4e522fbeccf2c09f3a672173c6ae",
    ),
    "mixed_b": (
        PlanarTree([[1, 5, 6], [2], [3, 4], [], [], [], []]),
        (248, 620, 550),
        "9a0f36573286f1545566fc8e64103fb471e34057da39cf416988409e5776aaec",
        "a61abac02144f29738a53fb0b8d8fbdd21684c7f1b7856e91c1a1ef56b2bfb0f",
        "a56201d24e5182a3d4b18d8ce1a7ae1d61b79f0b612ed524e5b28ac47baed054",
    ),
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_frozen_digests(name):
    tree, f_vector, complex_digest, morse_digest, faces_digest = DIGESTS[name]
    sk = build_skeleton(tree)
    assert sk.f_vector() == f_vector
    assert sha256(sk.complex.to_json()) == complex_digest
    cert = cx.morse_certificate(sk.complex, sk.orientation)
    assert sha256(list(cert)) == morse_digest
    # The template column comes from the piece-based oracle, which was the
    # engine's classifier when these digests were taken.
    faces = []
    for f in sk.faces:
        cycle, nesting = oracles.face_cycle_nesting(sk, f)
        faces.append([nesting_to_json(nesting), list(cycle),
                      list(f.steps), f.shape, oracles.face_shape(tree, nesting)[1]])
    assert sha256(faces) == faces_digest
