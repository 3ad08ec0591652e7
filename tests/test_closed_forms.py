"""Closed-form f-vectors: the associahedron for linear trees and the
permutohedron for corollas, checked against the brute-force oracle where it
reaches and then used to check the engine past it."""

import pytest

import oracles
from operahedra import complexes as cx
from operahedra.skeleton import build_skeleton
from operahedra.trees import PlanarTree


def brute_f_vector(tree):
    v, e, lengths = oracles.skeleton_counts_brute(tree)
    return v, e, sum(lengths.values())


@pytest.mark.parametrize("p", range(2, 7))
def test_kirkman_cayley_matches_brute_force(p):
    assert oracles.linear_f_vector(p) == brute_f_vector(PlanarTree.linear(p))


@pytest.mark.parametrize("k", range(2, 6))
def test_permutohedron_matches_brute_force(k):
    assert oracles.corolla_f_vector(k) == brute_f_vector(PlanarTree.corolla(k))


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
