import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from operahedra import complexes as cx
from operahedra.errors import DanglingReferenceError, HomologyRankError, NonRegularError
from operahedra.geometry import induced_orientation, random_generic_vector
from operahedra.skeleton import build_skeleton
from operahedra.trees import PlanarTree


def pentagon_disk():
    return cx.Complex2(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], [(1, 2, 3, 4, -5)])


def five_cycle():
    return cx.Complex2(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], [])


def test_validate_pentagon_disk():
    assert cx.validate(pentagon_disk())


def test_validate_rejects_walk_not_incident():
    c = cx.Complex2(4, [(0, 1), (2, 3)], [(1, 2)])
    with pytest.raises(DanglingReferenceError):
        cx.validate(c)


def test_validate_rejects_repeated_vertex():
    # figure-eight through vertex 0
    c = cx.Complex2(
        5,
        [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)],
        [(1, 2, 3, 4, 5, 6)],
    )
    with pytest.raises(NonRegularError):
        cx.validate(c)


def test_validate_rejects_loops_and_bad_ids():
    with pytest.raises(NonRegularError):
        cx.validate(cx.Complex2(2, [(1, 1)], []))
    with pytest.raises(DanglingReferenceError):
        cx.validate(cx.Complex2(2, [(0, 5)], []))
    with pytest.raises(DanglingReferenceError):
        cx.validate(cx.Complex2(2, [(0, 1)], [(2,)]))


def test_json_round_trip_and_vertex_check():
    c = pentagon_disk()
    data = c.to_json()
    assert cx.Complex2.from_json(data) == c
    data["cells"][0][0] = 3  # corrupt a stated vertex
    with pytest.raises(DanglingReferenceError):
        cx.Complex2.from_json(data)


def test_outgoing_link_pentagon_source():
    c = pentagon_disk()
    o = (0, 0, 0, 0, 0)  # 0->1->2->3->4 and 0->4
    link = cx.outgoing_link(c, o, 0)
    assert link.nodes == (0, 4)
    assert len(link.links) == 1 and link.links[0][2] == 0
    assert cx.link_spanning_tree(link) is not None
    sink_link = cx.outgoing_link(c, o, 4)
    assert sink_link.nodes == () and cx.link_spanning_tree(sink_link) == ()


def test_morse_pentagon_and_checker():
    c = pentagon_disk()
    o = (0, 0, 0, 0, 0)
    cert = cx.morse_certificate(c, o)
    assert isinstance(cert, cx.MorseCertificate)
    assert cert.global_sink == 4
    assert cert.face_source_sink == ((0, 4),)
    ok, reason = cx.check_morse_certificate(c, o, cert)
    assert ok, reason


def test_morse_two_sink_square():
    c = cx.Complex2(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [(1, 2, 3, -4)])
    result = cx.morse_certificate(c, (0, 1, 0, 0))  # sinks at 1 and 3
    assert isinstance(result, cx.CounterexampleReport)
    assert result.condition == "sink_not_unique"
    assert result.witness == [1, 3]


def test_morse_cycle_detection():
    c = cx.Complex2(3, [(0, 1), (1, 2), (0, 2)], [])
    result = cx.morse_certificate(c, (0, 0, 1))  # 0->1->2->0
    assert result.condition == "cycle"
    assert sorted(result.witness) == [0, 1, 2]


def test_morse_cycle_found_past_a_dead_end():
    # vertex 0's first out-edge leads to 3, which is left over but on no cycle
    c = cx.Complex2(4, [(0, 3), (0, 1), (1, 2), (2, 0)], [])
    result = cx.morse_certificate(c, (0, 0, 0, 0))
    assert result == cx.CounterexampleReport("cycle", [0, 1, 2])


def test_checker_rejects_forged_certificates():
    c = pentagon_disk()
    o = (0, 0, 0, 0, 0)
    cert = cx.morse_certificate(c, o)
    bad = cert._replace(global_sink=3)
    assert not cx.check_morse_certificate(c, o, bad)[0]
    bad = cert._replace(order=tuple(reversed(cert.order)))
    assert not cx.check_morse_certificate(c, o, bad)[0]
    bad = cert._replace(link_witness=((),) * 5)
    assert not cx.check_morse_certificate(c, o, bad)[0]
    bad = cert._replace(face_source_sink=((0, 3),))
    assert not cx.check_morse_certificate(c, o, bad)[0]


def test_outgoingpoly_fixture_shape():
    c, points = cx.outgoingpoly()
    assert cx.validate(c)
    assert (c.vertex_count, len(c.edges), len(c.cells)) == (16, 24, 9)
    assert len(points) == 16
    rep = cx.homology(c)
    assert (rep.betti0, rep.betti1, rep.betti2) == (1, 0, 0)
    assert not rep.torsion1


def test_outgoingpoly_disconnected_link_on_samples():
    c, points = cx.outgoingpoly()
    rng = random.Random(5)
    for _ in range(8):
        vec = random_generic_vector(c, points, rng)
        o = induced_orientation(c, points, vec)
        disconnected = [
            x
            for x in range(c.vertex_count)
            if cx.link_spanning_tree(cx.outgoing_link(c, o, x)) is None
        ]
        assert disconnected, "every generic direction must disconnect some link"
        result = cx.morse_certificate(c, o)
        assert result.condition == "disconnected_link"
        two_isolated = cx.link_components(
            cx.outgoing_link(c, o, result.witness["vertex"])
        )
        assert len(two_isolated) >= 2


def test_homology_examples():
    assert cx.homology(pentagon_disk()) == cx.HomologyReport(1, 0, 0, (), 1)
    rep = cx.homology(five_cycle())
    assert rep.betti1 == 1 and rep.betti0 == 1


def test_homology_torus_like_torsion():
    # projective-plane square: both edge pairs identified; H1 = Z/2
    c = cx.Complex2(2, [(0, 1), (0, 1)], [(1, -2, 1, -2)])
    rep = cx.homology(c)
    assert rep.torsion1 == (2,)
    assert rep.betti1 == 0


def test_homology_rejects_a_wrong_diagonal(monkeypatch):
    real = cx.smith_normal_form_diagonal
    # one divisor too many per matrix: rank 2 for a boundary map of rank 1
    monkeypatch.setattr(cx, "smith_normal_form_diagonal", lambda m: real(m) + [1])
    c = cx.Complex2(2, [(0, 1)], [])
    with pytest.raises(HomologyRankError):
        cx.homology(c)


def test_homology_disjoint_components():
    c = cx.Complex2(4, [(0, 1), (2, 3)], [])
    assert cx.homology(c).betti0 == 2


def test_euler_consistency_on_operahedra():
    for tree in [PlanarTree.linear(5), PlanarTree.corolla(4)]:
        sk = build_skeleton(tree)
        rep = cx.homology(sk.complex)
        assert rep.betti0 - rep.betti1 + rep.betti2 == rep.euler
        assert rep.betti0 == 1 and rep.betti1 == 0 and not rep.torsion1


def test_snf_against_rational_rank():
    rng = random.Random(11)
    for _ in range(30):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        assert len(cx.smith_normal_form_diagonal(m)) == oracles.rational_rank(m)


def test_snf_divisibility_chain():
    rng = random.Random(13)
    for _ in range(30):
        m = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(4)]
        divs = cx.smith_normal_form_diagonal(m)
        assert all(divs[i + 1] % divs[i] == 0 for i in range(len(divs) - 1))
        assert all(d > 0 for d in divs)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30), st.integers(2, 5), st.integers(2, 5))
def test_snf_invariant_under_shuffles(seed, rows, cols):
    rng = random.Random(seed)
    m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
    base = cx.smith_normal_form_diagonal(m)
    perm_rows = m[:]
    rng.shuffle(perm_rows)
    order = list(range(cols))
    rng.shuffle(order)
    shuffled = [[row[j] for j in order] for row in perm_rows]
    assert cx.smith_normal_form_diagonal(shuffled) == base


def test_boundary_matrices_compose_to_zero():
    for tree in [PlanarTree.linear(4), PlanarTree.corolla(3)]:
        c = build_skeleton(tree).complex
        d1, d2 = cx.boundary_matrices(c)
        F = len(c.cells)
        for i in range(c.vertex_count):
            for j in range(F):
                entry = sum(d1[i][e] * d2[e][j] for e in range(len(c.edges)))
                assert entry == 0


def test_certify_simply_connected_verdicts():
    sk = build_skeleton(PlanarTree.linear(4))
    result = cx.certify_simply_connected(sk.complex, [sk.orientation])
    assert result.verdict == "certified"
    assert cx.certify_simply_connected(five_cycle()).verdict == "refuted"
    c, _ = cx.outgoingpoly()
    # no orientation supplied: homology passes but no Morse witness
    assert cx.certify_simply_connected(c).verdict == "inconclusive"


def test_certify_brute_force_small():
    square = cx.Complex2(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [(1, 2, 3, -4)])
    result = cx.certify_simply_connected(square, brute_force=True)
    assert result.verdict == "certified"


def test_morse_point_complex():
    c = cx.Complex2(1, [], [])
    cert = cx.morse_certificate(c, ())
    assert isinstance(cert, cx.MorseCertificate) and cert.global_sink == 0


def test_five_cycle_has_no_morse_certificate_at_all():
    """No orientation of a bare cycle meets the hypotheses, so homotopy
    generation has no certificate to build on (the other arc of a cycle is
    genuinely not reachable by these moves)."""
    c = five_cycle()
    for mask in range(1 << 5):
        o = tuple((mask >> e) & 1 for e in range(5))
        assert isinstance(cx.morse_certificate(c, o), cx.CounterexampleReport)
    from operahedra.homotopy import HomotopyBuilder

    with pytest.raises(ValueError):
        HomotopyBuilder(c, (0,) * 5, cx.morse_certificate(c, (0,) * 5))
