import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from operahedra import complexes as cx
from operahedra.errors import (
    BrokenChainError,
    GeneratorError,
    NotOrientedError,
    NotParallelError,
)
from operahedra.homotopy import (
    BacktrackDelete,
    BacktrackInsert,
    Certificate,
    FaceSubstitute,
    HomotopyBuilder,
    Path,
    reduce_path,
    validate_path,
    verify_certificate,
)
from operahedra.skeleton import build_skeleton
from operahedra.trees import PlanarTree, enumerate_ordered_trees


def skeleton(tree):
    sk = build_skeleton(tree)
    return sk, sk.complex, sk.homotopy_builder()


def steps_at(c):
    out = [[] for _ in range(c.vertex_count)]
    for e, (a, b) in enumerate(c.edges):
        out[a].append(e + 1)
        out[b].append(-(e + 1))
    return out


def random_walk(c, adj, rng, start, length):
    steps = []
    at = start
    for _ in range(length):
        s = rng.choice(adj[at])
        steps.append(s)
        at = c.step_ends(s)[1]
    return steps, at


def bfs_steps(c, adj, src, dst):
    from collections import deque

    prev = {src: None}
    q = deque([src])
    while q:
        v = q.popleft()
        if v == dst:
            break
        for s in adj[v]:
            w = c.step_ends(s)[1]
            if w not in prev:
                prev[w] = (v, s)
                q.append(w)
    steps = []
    while dst != src:
        v, s = prev[dst]
        steps.append(s)
        dst = v
    steps.reverse()
    return steps


# ---------------------------------------------------------------------------
# Reduction


def test_reduce_simple_backtrack():
    _, c, _ = skeleton(PlanarTree.linear(3))
    assert reduce_path(c, Path(0, (1, -1))).steps == ()


def test_reduce_nested_cancellation():
    sk, c, _ = skeleton(PlanarTree.linear(4))
    # walk out two edges and straight back
    adj = steps_at(c)
    s1 = adj[0][0]
    mid = c.step_ends(s1)[1]
    s2 = next(s for s in adj[mid] if s != -s1)
    p = Path(0, (s1, s2, -s2, -s1))
    assert reduce_path(c, p).steps == ()


def test_reduce_is_idempotent_and_matches_stack_oracle():
    rng = random.Random(3)
    _, c, _ = skeleton(PlanarTree.linear(5))
    adj = steps_at(c)
    for _ in range(50):
        start = rng.randrange(c.vertex_count)
        steps, _ = random_walk(c, adj, rng, start, 50)
        reduced = reduce_path(c, Path(start, tuple(steps)))
        assert reduced.steps == oracles.stack_reduce(steps)
        assert reduce_path(c, reduced) == reduced


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30), st.integers(0, 40))
def test_reduce_random_words_property(seed, length):
    rng = random.Random(seed)
    sk, c, _ = skeleton(PlanarTree.corolla(3))
    adj = steps_at(c)
    start = rng.randrange(c.vertex_count)
    steps, end = random_walk(c, adj, rng, start, length)
    reduced = reduce_path(c, Path(start, tuple(steps)))
    assert reduced.steps == oracles.stack_reduce(steps)
    assert validate_path(c, reduced) == end


def test_reduce_rejects_broken_chain():
    _, c, _ = skeleton(PlanarTree.linear(4))
    with pytest.raises(BrokenChainError):
        reduce_path(c, Path(0, (1, 1)))


# ---------------------------------------------------------------------------
# Canonical descent


def test_descent_at_sink_is_empty():
    sk, c, b = skeleton(PlanarTree.linear(5))
    assert b.descent(sk.morse().global_sink) == ()


def test_descent_deterministic_least_edge():
    sk, c, b = skeleton(PlanarTree.linear(4))
    cert = sk.morse()
    out = cx.out_edges(c, sk.orientation)
    for v in range(c.vertex_count):
        d = b.descent(v)
        at = v
        for s in d:
            assert abs(s) - 1 == out[at][0]
            at = c.step_ends(s)[1]
        assert at == cert.global_sink


# ---------------------------------------------------------------------------
# Oriented homotopy


def test_pentagon_arcs_one_face_substitute():
    sk, c, b = skeleton(PlanarTree.linear(4))
    cert = sk.morse()
    src = cert.face_source_sink[0][0]
    arcs = sorted(b.face_arcs(0).items())
    p1 = Path(src, arcs[0][1])
    p2 = Path(src, arcs[1][1])
    result = b.oriented(p1, p2)
    assert len(result.moves) == 1
    assert isinstance(result.moves[0], FaceSubstitute)
    assert verify_certificate(c, result).ok


def test_generator_failures_raise_generator_error():
    sk, c, b = skeleton(PlanarTree.linear(4))
    arc = sorted(b.face_arcs(0).items())[0][1]
    x = sk.morse().face_source_sink[0][0]
    outside = next(e for e in range(len(c.edges)) if x not in c.edges[e])
    with pytest.raises(GeneratorError, match="does not join"):
        b._link_path(x, abs(arc[0]) - 1, outside)


def test_oriented_equal_paths_empty_certificate():
    sk, c, b = skeleton(PlanarTree.linear(5))
    d = b.descent(0)
    result = b.oriented(Path(0, d), Path(0, d))
    assert result.moves == ()


def test_oriented_rejects_unoriented_step():
    sk, c, b = skeleton(PlanarTree.linear(4))
    d = b.descent(0)
    # a chained loop with a descending step is parallel but not oriented
    loop = Path(0, (d[0], -d[0]))
    with pytest.raises(NotOrientedError):
        b.oriented(loop, Path(0, ()))
    with pytest.raises(NotParallelError):
        b.oriented(Path(0, d), Path(0, d[:-1]))


def test_oriented_homotopy_between_all_source_sink_path_pairs():
    """Every pair of maximal oriented chains is certified (small trees)."""
    for tree in [PlanarTree.linear(4), PlanarTree.corolla(3)]:
        sk, c, b = skeleton(tree)
        cert = sk.morse()
        out = cx.out_edges(c, sk.orientation)
        indeg = [0] * c.vertex_count
        for e in range(len(c.edges)):
            indeg[cx.directed_ends(c, sk.orientation, e)[1]] += 1
        source = indeg.index(0)

        chains = []

        def extend(v, acc):
            if not out[v]:
                chains.append(tuple(acc))
                return
            for e in out[v]:
                s = cx.step_from(c, sk.orientation, e)
                extend(c.step_ends(s)[1], acc + [s])

        extend(source, [])
        for g1 in chains:
            for g2 in chains:
                result = b.oriented(Path(source, g1), Path(source, g2))
                assert verify_certificate(c, result).ok


def test_oriented_homotopy_with_non_sink_target():
    sk, c, b = skeleton(PlanarTree.linear(5))
    # two parallel oriented paths ending strictly above the sink
    cert = sk.morse()
    out = cx.out_edges(c, sk.orientation)
    # pick a vertex two steps below the source along different routes
    indeg = [0] * c.vertex_count
    for e in range(len(c.edges)):
        indeg[cx.directed_ends(c, sk.orientation, e)[1]] += 1
    source = indeg.index(0)
    found = None
    seen = {}
    for e1 in out[source]:
        s1 = cx.step_from(c, sk.orientation, e1)
        v1 = c.step_ends(s1)[1]
        for e2 in out[v1]:
            s2 = cx.step_from(c, sk.orientation, e2)
            v2 = c.step_ends(s2)[1]
            if v2 in seen and seen[v2][0] != s1:
                found = (seen[v2], (s1, s2), v2)
                break
            seen[v2] = (s1, s2)
        if found:
            break
    assert found, "expected a diamond below the source"
    g1, g2, _ = found
    result = b.oriented(Path(source, g1), Path(source, g2))
    assert verify_certificate(c, result).ok


# ---------------------------------------------------------------------------
# General homotopy


def test_backtrack_loop_contracts_to_pure_deletes():
    sk, c, b = skeleton(PlanarTree.linear(4))
    cert = sk.morse()
    sink = cert.global_sink
    s = next(
        -(e + 1) if cx.directed_ends(c, sk.orientation, e)[1] == sink and c.edges[e][1] == sink else (e + 1)
        for e, (u, v) in enumerate(c.edges)
        if sink in (u, v)
    )
    # ensure s leaves the sink
    if c.step_ends(s)[0] != sink:
        s = -s
    loop = Path(sink, (s, -s))
    result = b.general(loop, Path(sink, ()))
    assert all(isinstance(m, BacktrackDelete) for m in result.moves)
    assert verify_certificate(c, result).ok


def test_general_homotopy_randomized_all_small_trees():
    rng = random.Random(99)
    for p in range(2, 6):
        for tree in enumerate_ordered_trees(p):
            sk, c, b = skeleton(tree)
            if not c.edges:
                continue
            adj = steps_at(c)
            for _ in range(5):
                start = rng.randrange(c.vertex_count)
                s1, end = random_walk(c, adj, rng, start, rng.randrange(0, 12))
                s2, mid = random_walk(c, adj, rng, start, rng.randrange(0, 8))
                s2 += bfs_steps(c, adj, mid, end)
                result = b.general(Path(start, tuple(s1)), Path(start, tuple(s2)))
                check = verify_certificate(c, result)
                assert check.ok, check


def test_general_rejects_not_parallel():
    sk, c, b = skeleton(PlanarTree.linear(4))
    adj = steps_at(c)
    s = adj[0][0]
    with pytest.raises(NotParallelError):
        b.general(Path(0, (s,)), Path(0, ()))


def test_vertex_disjoint_parallel_paths_on_pentagon():
    sk, c, b = skeleton(PlanarTree.linear(4))
    cert = sk.morse()
    src = cert.face_source_sink[0][0]
    arcs = sorted(b.face_arcs(0).items())
    result = b.general(Path(src, arcs[0][1]), Path(src, arcs[1][1]))
    assert verify_certificate(c, result).ok


# ---------------------------------------------------------------------------
# Verifier behaviour


def make_valid_certificate():
    sk, c, b = skeleton(PlanarTree.linear(5))
    rng = random.Random(4)
    adj = steps_at(c)
    start = 0
    s1, end = random_walk(c, adj, rng, start, 6)
    s2, mid = random_walk(c, adj, rng, start, 4)
    s2 += bfs_steps(c, adj, mid, end)
    cert = b.general(Path(start, tuple(s1)), Path(start, tuple(s2)))
    return c, cert


def test_verifier_accepts_generated():
    c, cert = make_valid_certificate()
    assert verify_certificate(c, cert).ok


def test_verifier_rejects_cell_swap():
    c, cert = make_valid_certificate()
    idx = next(
        i for i, m in enumerate(cert.moves) if isinstance(m, FaceSubstitute)
    )
    move = cert.moves[idx]
    other = (move.cell + 1) % len(c.cells)
    forged = cert._replace(
        moves=cert.moves[:idx] + (move._replace(cell=other),) + cert.moves[idx + 1 :]
    )
    result = verify_certificate(c, forged)
    assert not result.ok and result.reject_index == idx


def test_verifier_exhaustive_single_field_mutations():
    """Any single-field mutation either still replays to the target or is
    rejected; and semantic mutations of face moves are rejected in place."""
    c, cert = make_valid_certificate()
    for idx, move in enumerate(cert.moves):
        variants = []
        if isinstance(move, FaceSubstitute):
            n = len(c.cells[move.cell])
            variants += [
                move._replace(cell=(move.cell + 1) % len(c.cells)),
                move._replace(offset=(move.offset + 1) % n),
                move._replace(matched=(move.matched + 1) % (n + 1)),
                move._replace(reverse=not move.reverse),
                move._replace(position=move.position + 1),
            ]
        elif isinstance(move, BacktrackInsert):
            variants += [
                move._replace(step=-move.step),
                move._replace(position=move.position + 1),
            ]
        else:
            variants += [move._replace(position=move.position + 1)]
        for variant in variants:
            forged = cert._replace(
                moves=cert.moves[:idx] + (variant,) + cert.moves[idx + 1 :]
            )
            result = verify_certificate(c, forged)
            if result.ok:
                # mutation preserved semantics: replay must reach the target
                assert oracles.apply_moves(c, forged.source, forged.moves).steps == (
                    forged.target.steps
                )


def test_verifier_rejects_wrong_target():
    c, cert = make_valid_certificate()
    # a chained but different target: append a backtrack at its end
    end = cert.target.start
    for s in cert.target.steps:
        end = c.step_ends(s)[1]
    extra = next(
        (e + 1) if a == end else -(e + 1)
        for e, (a, b) in enumerate(c.edges)
        if end in (a, b)
    )
    forged = cert._replace(
        target=Path(cert.target.start, cert.target.steps + (extra, -extra))
    )
    result = verify_certificate(c, forged)
    assert not result.ok and result.reject_index == len(cert.moves)


def test_verifier_rejects_trailing_position():
    sk, c, b = skeleton(PlanarTree.linear(4))
    bad = Certificate(Path(0, ()), Path(0, ()), (BacktrackDelete(0),))
    assert not verify_certificate(c, bad).ok


def test_empty_certificate_on_equal_paths():
    sk, c, _ = skeleton(PlanarTree.linear(4))
    adj = steps_at(c)
    p = Path(0, (adj[0][0],))
    cert = Certificate(p, p, ())
    assert verify_certificate(c, cert).ok


def test_face_substitute_with_zero_match_inserts_boundary():
    sk, c, _ = skeleton(PlanarTree.linear(4))
    cell = c.cells[0]
    start = c.step_ends(cell[0])[0]
    move = FaceSubstitute(position=0, cell=0, matched=0, offset=0, reverse=False)
    cert = Certificate(
        Path(start, ()), Path(start, tuple(-s for s in reversed(cell))), (move,)
    )
    assert verify_certificate(c, cert).ok


def test_invert_moves_round_trip():
    c, cert = make_valid_certificate()
    inverse = oracles.invert_moves(c, cert.source, cert.moves)
    back = oracles.apply_moves(c, cert.target, inverse)
    assert back.steps == cert.source.steps


# ---------------------------------------------------------------------------
# The vertex-prefix verifier against the quadratic one it replaced: equal
# (ok, reject_index, reason) on generated certificates and seeded forgeries,
# and a number of step_ends calls linear in the size of the certificate


def _certificate(sk, rng, length):
    """A generated certificate between a random walk and a second walk that
    goes out, comes back and then follows the first."""
    c = sk.complex
    adj = steps_at(c)
    start = rng.randrange(c.vertex_count)
    s1, _ = random_walk(c, adj, rng, start, length)
    s2, _ = random_walk(c, adj, rng, start, length)
    s2 = s2 + [-s for s in reversed(s2)] + s1
    return sk.homotopy_builder().general(Path(start, tuple(s1)), Path(start, tuple(s2)))


def _forgeries(c, cert, rng, count):
    """Certificates with one move changed: a position shifted by one, a
    cell, offset or direction changed, a face move made to match nothing at
    another offset, or a move dropped or repeated."""
    out = []
    moves = cert.moves
    for _ in range(count):
        idx = rng.randrange(len(moves))
        m = moves[idx]
        fields = ["position+", "position-", "drop", "repeat"]
        if isinstance(m, FaceSubstitute):
            fields += ["cell", "offset", "reverse", "unmatched"]
        field = rng.choice(fields)
        if field == "drop":
            forged = moves[:idx] + moves[idx + 1 :]
        elif field == "repeat":
            forged = moves[: idx + 1] + moves[idx:]
        else:
            if field == "position+":
                m = m._replace(position=m.position + 1)
            elif field == "position-":
                m = m._replace(position=m.position - 1)
            elif field == "cell":
                m = m._replace(cell=rng.randrange(len(c.cells) + 1))
            elif field == "offset":
                m = m._replace(offset=rng.randrange(len(c.cells[m.cell]) + 1))
            elif field == "unmatched":
                m = m._replace(matched=0, offset=(m.offset + 1) % len(c.cells[m.cell]))
            else:
                m = m._replace(reverse=not m.reverse)
            forged = moves[:idx] + (m,) + moves[idx + 1 :]
        out.append(cert._replace(moves=forged))
    return out


def test_verifier_agrees_with_quadratic_oracle():
    rng = random.Random(41)
    outcomes = set()
    small = [t for p in range(1, 6) for t in enumerate_ordered_trees(p)]
    for tree in small + [PlanarTree.linear(6)]:
        sk = build_skeleton(tree)
        c = sk.complex
        if not c.edges:
            continue
        for length in (2, 6, 12):
            cert = _certificate(sk, rng, length)
            assert tuple(verify_certificate(c, cert)) == (True, -1, "")
            assert oracles.verify_certificate_quadratic(c, cert) == (True, -1, "")
            if not cert.moves:
                continue
            for forged in _forgeries(c, cert, rng, 15):
                got = tuple(verify_certificate(c, forged))
                assert got == oracles.verify_certificate_quadratic(c, forged)
                outcomes.add(got[2])
    # the forgeries reach accepted replays and the main rejection reasons
    for reason in (
        "",
        "matched subword differs from the cell",
        "face move anchored at the wrong vertex",
        "inserted backtrack does not chain",
        "deleted pair is not a backtrack",
        "replay does not end at the target word",
    ):
        assert reason in outcomes


@pytest.mark.parametrize("source, target, reason", [
    (Path(99, ()), Path(99, ()), "paths start outside the complex"),
    (Path(-1, ()), Path(-1, ()), "paths start outside the complex"),
    (Path(0, (99,)), Path(0, ()), "source path references a bad edge"),
    (Path(0, ()), Path(0, (-99,)), "target path references a bad edge"),
    (Path(0, (0,)), Path(0, ()), "source path references a bad edge"),
])
def test_paths_outside_the_complex_are_rejected(source, target, reason):
    """A start or a step outside the complex is a reason, not an index
    error, and an empty replay there is not accepted."""
    c = build_skeleton(PlanarTree.linear(4)).complex
    cert = Certificate(source, target, ())
    assert tuple(verify_certificate(c, cert)) == (False, -1, reason)
    assert oracles.verify_certificate_quadratic(c, cert) == (False, -1, reason)


class CountingComplex(cx.Complex2):
    """A Complex2 that counts its step_ends calls."""

    def __init__(self, c):
        super().__init__(c.vertex_count, c.edges, c.cells)
        self.calls = 0

    def step_ends(self, s):
        self.calls += 1
        return super().step_ends(s)


def test_verifier_step_lookups_are_linear_in_certificate_size():
    sk = build_skeleton(PlanarTree.linear(7))
    cert = _certificate(sk, random.Random(320), 320)
    assert len(cert.moves) >= 3000
    c = CountingComplex(sk.complex)
    assert verify_certificate(c, cert).ok
    size = len(cert.moves) + len(cert.source.steps) + len(cert.target.steps)
    assert c.calls <= 8 * size


# ---------------------------------------------------------------------------
# The generator inverts its own moves and reads face rotations off the arcs:
# seeded certificates are pinned by digest, their second half equals the
# inverse found by replay, and every face move equals the rotation search

PINNED_TREES = [t for p in range(1, 6) for t in enumerate_ordered_trees(p)] + [
    PlanarTree.linear(6),
    PlanarTree([[1, 4], [2, 3], [], [], [5], [6], []]),  # mixed_a of test_corner_index
    PlanarTree([[1, 5, 6], [2], [3, 4], [], [], [], []]),  # mixed_b of test_corner_index
]

PINNED_DIGEST = "d84b2fa01cd0fd3e4dceee8adefe83498c4259d5839adc26229d0230eeba14f7"


def _pinned_certificates():
    """(skeleton, p1, p2, certificate): for every pinned tree with an edge,
    a random walk against a second walk that ends with a shortest path to
    the first one's end, at three lengths."""
    rng = random.Random(808)
    for tree in PINNED_TREES:
        sk, c, b = skeleton(tree)
        if not c.edges:
            continue
        adj = steps_at(c)
        for length in (3, 8, 16):
            start = rng.randrange(c.vertex_count)
            s1, end = random_walk(c, adj, rng, start, length)
            s2, mid = random_walk(c, adj, rng, start, length)
            p1 = Path(start, tuple(s1))
            p2 = Path(start, tuple(s2 + bfs_steps(c, adj, mid, end)))
            yield sk, p1, p2, b.general(p1, p2)


def test_seeded_certificates_digest():
    h = hashlib.sha256()
    for sk, _, _, cert in _pinned_certificates():
        assert verify_certificate(sk.complex, cert).ok
        h.update(json.dumps(cert.to_json(), sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == PINNED_DIGEST


def test_general_second_half_is_the_replayed_inverse():
    for sk, p1, p2, cert in _pinned_certificates():
        b = sk.homotopy_builder()
        forward = tuple(b.to_canonical(p1))
        assert cert.moves[: len(forward)] == forward
        inverse = oracles.invert_moves(sk.complex, p2, b.to_canonical(p2))
        assert list(cert.moves[len(forward) :]) == inverse


def test_general_is_the_same_from_a_fresh_or_a_warmed_builder():
    """Per-step homotopies are cached on the builder: a certificate does
    not depend on the queries the builder answered before."""
    for sk, p1, p2, cert in _pinned_certificates():
        warmed = sk.homotopy_builder()
        warmed.general(p2, p1)
        assert warmed.general(p1, p2) == cert
        fresh = HomotopyBuilder(sk.complex, sk.orientation, sk.morse())
        assert fresh.general(p1, p2) == cert


def test_face_moves_equal_the_rotation_search():
    """Replaying each certificate, every face move is the one the search
    over boundary rotations finds for the subword it replaces and the
    subword it puts in."""
    faces = 0
    for sk, p1, _, cert in _pinned_certificates():
        c = sk.complex
        word = list(p1.steps)
        for m in cert.moves:
            before = tuple(word)
            oracles.apply_move(c, word, m)
            if isinstance(m, FaceSubstitute):
                faces += 1
                n = len(c.cells[m.cell])
                matched = before[m.position : m.position + m.matched]
                put_in = tuple(word[m.position : m.position + n - m.matched])
                assert oracles.face_move(c, m.cell, matched, put_in, m.position) == m
    assert faces > 0


def test_arc_face_moves_equal_the_rotation_search():
    """Across every cell of the pinned trees, from either arc to the other,
    the oriented certificate is the one face move the search finds."""
    for tree in PINNED_TREES:
        sk, c, b = skeleton(tree)
        for ci in range(len(c.cells)):
            src = sk.morse().face_source_sink[ci][0]
            for arc1, arc2 in itertools.permutations(b.face_arcs(ci).values()):
                cert = b.oriented(Path(src, arc1), Path(src, arc2))
                faces = [m for m in cert.moves if isinstance(m, FaceSubstitute)]
                assert faces == [oracles.face_move(c, ci, arc1, arc2, 0)]
