"""Combinatorial paths, elementary moves, and homotopy certificates.

A path is a start vertex plus a word of signed steps on a Complex2.  Two
parallel paths are related by a certificate: a sequence of elementary moves,
each inserting a backtrack, deleting one, or substituting a subword across a
2-cell boundary.  Certificates are generated by descending both paths to a
canonical form through the oriented 1-skeleton (the unique-sink induction).
The push of one step down to the sink depends on that step alone, so the
generator computes it once per signed step and emits it, shifted, wherever
the step occurs; it writes each move's inverse from the same moves, and
reads each face move's rotation off the face's two arcs, so it never
replays a word.
The verifier is the only code that replays a certificate; it re-checks
every move and shares nothing with the generator beyond these data types.
"""

from typing import NamedTuple

from .complexes import CornerIndex, MorseCertificate, step_ascends, step_from
from .errors import (
    BrokenChainError,
    GeneratorError,
    NotOrientedError,
    NotParallelError,
    ParseError,
)


def _json_int(value, field):
    """``value`` when it is an int and not a bool; raises ParseError."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{field} must be an integer, got {value!r}")
    return value


def _json_step(edge, sign):
    """The signed step of an edge id and a sign of +1 or -1; raises
    ParseError for a negative edge id or any other sign."""
    edge, sign = _json_int(edge, "edge"), _json_int(sign, "sign")
    if edge < 0:
        raise ParseError(f"edge must be non-negative, got {edge}")
    if sign not in (1, -1):
        raise ParseError(f"sign must be 1 or -1, got {sign}")
    return (edge + 1) * sign


# the integer fields of each certificate move op, in constructor order
_INT_FIELDS = {
    "insert": ("position", "edge", "sign"),
    "delete": ("position",),
    "face": ("position", "cell", "matched", "offset"),
}


class Path(NamedTuple):
    start: int
    steps: tuple

    def to_json(self):
        return {
            "schema": "v1",
            "start": self.start,
            "steps": [[abs(s) - 1, 1 if s > 0 else -1] for s in self.steps],
        }

    @classmethod
    def from_json(cls, data):
        steps = []
        for pair in data["steps"]:
            if not isinstance(pair, list) or len(pair) != 2:
                raise ParseError(f"a step must be an [edge, sign] pair, got {pair!r}")
            steps.append(_json_step(*pair))
        return cls(_json_int(data["start"], "start"), tuple(steps))


class BacktrackInsert(NamedTuple):
    position: int
    step: int  # inserts (step, -step) at position


class BacktrackDelete(NamedTuple):
    position: int  # deletes the backtrack pair at position


class FaceSubstitute(NamedTuple):
    position: int
    cell: int
    matched: int  # length of the replaced subword; may be 0
    offset: int  # rotation offset into the (possibly reversed) boundary
    reverse: bool  # match against the reversed-inverse boundary walk


class Certificate(NamedTuple):
    source: Path
    target: Path
    moves: tuple

    def to_json(self):
        out = []
        for m in self.moves:
            if isinstance(m, BacktrackInsert):
                out.append(
                    {
                        "op": "insert",
                        "position": m.position,
                        "edge": abs(m.step) - 1,
                        "sign": 1 if m.step > 0 else -1,
                    }
                )
            elif isinstance(m, BacktrackDelete):
                out.append({"op": "delete", "position": m.position})
            else:
                out.append(
                    {
                        "op": "face",
                        "position": m.position,
                        "cell": m.cell,
                        "matched": m.matched,
                        "offset": m.offset,
                        "reverse": bool(m.reverse),
                    }
                )
        return {
            "schema": "v1",
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "moves": out,
        }

    @classmethod
    def from_json(cls, data):
        try:
            moves = []
            for m in data["moves"]:
                op = m["op"]
                if op not in _INT_FIELDS:
                    raise ParseError(f"unknown move op {op!r}")
                ints = [_json_int(m[k], k) for k in _INT_FIELDS[op]]
                if op == "insert":
                    moves.append(BacktrackInsert(ints[0], _json_step(*ints[1:])))
                elif op == "delete":
                    moves.append(BacktrackDelete(*ints))
                elif isinstance(m["reverse"], bool):
                    moves.append(FaceSubstitute(*ints, m["reverse"]))
                else:
                    raise ParseError(f"reverse must be a boolean, got {m['reverse']!r}")
            source = Path.from_json(data["source"])
            target = Path.from_json(data["target"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad certificate document: {exc}") from exc
        return cls(source, target, tuple(moves))


def validate_path(c, path):
    """Check the steps chain endpoint-to-endpoint starting at path.start."""
    at = path.start
    if not 0 <= at < c.vertex_count:
        raise BrokenChainError(f"start vertex {at} out of range")
    for i, s in enumerate(path.steps):
        if s == 0 or abs(s) - 1 >= len(c.edges):
            raise BrokenChainError(f"step {i}: bad edge reference {s}")
        tail, head = c.step_ends(s)
        if tail != at:
            raise BrokenChainError(f"step {i}: expected to leave {at}, leaves {tail}")
        at = head
    return at


def reduce_path(c, path):
    """Free-groupoid normal form: cancel adjacent inverse pairs until none
    remain.  Idempotent; endpoint-preserving."""
    validate_path(c, path)
    word = list(path.steps)
    i = 0
    while i + 1 < len(word):
        if word[i + 1] == -word[i]:
            del word[i : i + 2]
            i = max(i - 1, 0)
        else:
            i += 1
    return Path(path.start, tuple(word))


# ---------------------------------------------------------------------------
# Certificate generation


class HomotopyBuilder:
    """Certificate generator for one oriented complex with Morse data.

    Caches, each filled on first use: canonical descents, face arcs, the
    sub-certificates of the unique-sink induction, and per signed step the
    homotopy that absorbs it, so that batches of queries on the same
    skeleton amortise their work.
    """

    def __init__(self, c, orientation, cert):
        if not isinstance(cert, MorseCertificate):
            raise ValueError("a MorseCertificate is required to build homotopies")
        self.c = c
        self.o = tuple(orientation)
        self.cert = cert
        self.sink = cert.global_sink
        self.corners = CornerIndex(c, self.o)
        # steps leaving each vertex along the orientation, by edge id
        self._out = [[step_from(c, self.o, e) for e in out] for out in self.corners.out]
        self._descent = {}
        self._arcs = {}
        self._memo = {}
        self._absorbed = {}

    # -- canonical structure ------------------------------------------------

    def descent(self, x):
        """Oriented path x -> global sink taking the least edge id each step."""
        if x in self._descent:
            return self._descent[x]
        steps = []
        at = x
        while at != self.sink:
            s = self._out[at][0]
            steps.append(s)
            at = self.c.step_ends(s)[1]
        word = tuple(steps)
        self._descent[x] = word
        return word

    def face_arcs(self, ci):
        """The two directed source->sink arcs of a cell, keyed by first edge."""
        if ci in self._arcs:
            return self._arcs[ci]
        cell = self.c.cells[ci]
        source, snk = self.cert.face_source_sink[ci]
        m = len(cell)
        k = next(i for i in range(m) if self.c.step_ends(cell[i])[0] == source)
        forward = []
        i, at = k, source
        while at != snk:
            s = cell[i % m]
            forward.append(s)
            at = self.c.step_ends(s)[1]
            i += 1
        backward = []
        i, at = k - 1, source
        while at != snk:
            s = -cell[i % m]
            backward.append(s)
            at = self.c.step_ends(s)[1]
            i -= 1
        arcs = {
            abs(forward[0]) - 1: tuple(forward),
            abs(backward[0]) - 1: tuple(backward),
        }
        self._arcs[ci] = arcs
        return arcs

    # -- the unique-sink induction ------------------------------------------

    def oriented_to_sink(self, x, g1, g2):
        """Moves transforming oriented word g1 into g2, both from x to the
        global sink.  Induction on the first steps: shared first edge
        recurses on the tails; co-facial first edges substitute across their
        face after aligning both tails on the canonical descent; otherwise a
        walk through the outgoing link chains the co-facial case.

        The moves are all face moves.  They come back as the memoised
        tuple, shared by every caller."""
        if g1 == g2:
            return ()
        key = (x, g1, g2)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        s1, s2 = g1[0], g2[0]
        if s1 == s2:
            nxt = self.c.step_ends(s1)[1]
            moves = [
                type(m)(m.position + 1, *m[1:])
                for m in self.oriented_to_sink(nxt, g1[1:], g2[1:])
            ]
        else:
            e1, e2 = abs(s1) - 1, abs(s2) - 1
            ci = self.corners.cell_at(x, e1, e2)
            if ci is not None:
                moves = self._across_face(x, ci, g1, g2)
            else:
                moves = self._across_link(x, g1, g2)
        hit = self._memo[key] = tuple(moves)
        return hit

    def _across_face(self, x, ci, g1, g2):
        arcs = self.face_arcs(ci)
        arc1 = arcs[abs(g1[0]) - 1]
        arc2 = arcs[abs(g2[0]) - 1]
        tail = self.descent(self.cert.face_source_sink[ci][1])
        d1 = arc1 + tail
        d2 = arc2 + tail
        moves = list(self.oriented_to_sink(x, g1, d1))
        # arc1 . arc2^-1 is the boundary read from arc1's first step: forward
        # when that step is on the boundary, else along its reversed inverse
        cell = self.c.cells[ci]
        if arc1[0] in cell:
            offset, reverse = cell.index(arc1[0]), False
        else:
            offset, reverse = len(cell) - 1 - cell.index(-arc1[0]), True
        moves.append(FaceSubstitute(0, ci, len(arc1), offset, reverse))
        moves += self.oriented_to_sink(x, d2, g2)
        return moves

    def _across_link(self, x, g1, g2):
        e1, e2 = abs(g1[0]) - 1, abs(g2[0]) - 1
        chain = self._link_path(x, e1, e2)
        seq = [g1]
        for e in chain[1:-1]:
            s = step_from(self.c, self.o, e)
            seq.append((s,) + self.descent(self.c.step_ends(s)[1]))
        seq.append(g2)
        moves = []
        for qa, qb in zip(seq, seq[1:]):
            moves += self.oriented_to_sink(x, qa, qb)
        return moves

    def _link_path(self, x, e1, e2):
        adj = {}
        for a, b, _ in self.cert.link_witness[x]:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        prev = {e1: None}
        queue = [e1]
        while queue:
            v = queue.pop(0)
            if v == e2:
                break
            for w in adj.get(v, ()):
                if w not in prev:
                    prev[w] = v
                    queue.append(w)
        if e2 not in prev:
            raise GeneratorError(f"outgoing link of {x} does not join {e1} and {e2}")
        path = [e2]
        while path[-1] != e1:
            path.append(prev[path[-1]])
        path.reverse()
        return path

    # -- public operations ---------------------------------------------------

    def _common_end(self, p1, p2):
        """The end vertex of two valid paths that share both endpoints."""
        end = validate_path(self.c, p1)
        if validate_path(self.c, p2) != end or p1.start != p2.start:
            raise NotParallelError("paths must share both endpoints")
        return end

    def oriented(self, p1, p2):
        """Certificate between parallel oriented paths (all steps ascending)."""
        end1 = self._common_end(p1, p2)
        for p in (p1, p2):
            for i, s in enumerate(p.steps):
                if not step_ascends(self.c, self.o, s):
                    raise NotOrientedError(f"step {i} runs against the orientation")
        moves = []
        if end1 == self.sink:
            moves = self.oriented_to_sink(p1.start, p1.steps, p2.steps)
        else:
            tail = self.descent(end1)
            k = len(tail)
            for idx, t in enumerate(tail):
                moves.append(BacktrackInsert(len(p1.steps) + idx, t))
            moves += self.oriented_to_sink(
                p1.start, p1.steps + tail, p2.steps + tail
            )
            for idx in reversed(range(k)):
                moves.append(BacktrackDelete(len(p2.steps) + idx))
        return Certificate(p1, p2, tuple(moves))

    def _absorb(self, s):
        """(moves, shift) for signed step s: the oriented homotopy that
        absorbs s into the descents of its two ends, with shift 0 when s
        ascends and 1 when it descends.  At position i of a word the moves
        apply shifted by i + shift, and a descending step's backtrack is
        then deleted at i.  Depends on s alone, so it is computed once."""
        hit = self._absorbed.get(s)
        if hit is None:
            tail, head = self.c.step_ends(s)
            if step_ascends(self.c, self.o, s):
                moves = self.oriented_to_sink(
                    tail, (s,) + self.descent(head), self.descent(tail)
                )
                hit = (moves, 0)
            else:
                moves = self.oriented_to_sink(
                    head, self.descent(head), (-s,) + self.descent(tail)
                )
                hit = (moves, 1)
            self._absorbed[s] = hit
        return hit

    def to_canonical(self, path):
        """Moves rewriting `path` into descent(start) . descent(end)^-1.

        Walks the word right to left; each step is absorbed into the descent
        of its tail vertex by its cached `_absorb` homotopy, plus a
        backtrack deletion for a descending step.
        """
        end = path.start
        for s in path.steps:
            end = self.c.step_ends(s)[1]
        return self._canonical(path.steps, end)

    def _canonical(self, steps, end):
        n = len(steps)
        moves = [BacktrackInsert(n + idx, t) for idx, t in enumerate(self.descent(end))]
        for i in reversed(range(n)):
            chunk, shift = self._absorb(steps[i])
            if chunk:
                d = i + shift
                moves += [type(m)(m.position + d, *m[1:]) for m in chunk]
            if shift:
                moves.append(BacktrackDelete(i))
        return moves

    def general(self, p1, p2):
        """Certificate between parallel paths with arbitrary step signs:
        p1's moves to the canonical form, then p2's undone in reverse.

        p2's undo is read off the same `_absorb` homotopies, step by step
        left to right, without building p2's list or replaying the word:
        a descending step's deleted backtrack is inserted back, each face
        move of its homotopy is undone, last first, by the rest of the
        same boundary read the other way, and the descent of the end is
        deleted last.
        """
        end = self._common_end(p1, p2)
        moves = self._canonical(p1.steps, end)
        cells = self.c.cells
        for i, s in enumerate(p2.steps):
            chunk, shift = self._absorb(s)
            if shift:
                moves.append(BacktrackInsert(i, s))
            d = i + shift
            for pos, ci, k, offset, reverse in reversed(chunk):
                n = len(cells[ci])
                moves.append(
                    FaceSubstitute(pos + d, ci, n - k, (n - offset) % n, not reverse)
                )
        n2 = len(p2.steps)
        moves += [BacktrackDelete(n2 + idx) for idx in reversed(range(len(self.descent(end))))]
        return Certificate(p1, p2, tuple(moves))


# ---------------------------------------------------------------------------
# Independent verification


class VerifyResult(NamedTuple):
    ok: bool
    reject_index: int  # -1 when ok; len(moves) flags a final-word mismatch
    reason: str


def verify_certificate(c, cert):
    """Replay a certificate move by move, validating everything from scratch.

    Deliberately independent of the generator: it keeps `verts`, where
    verts[i] is the vertex before position i of the current word, updates
    it at every splice, and re-derives each face substitution from the
    stored cell boundary.  Each move costs one lookup plus the length of
    what it splices in, so the replay is linear in the certificate.
    Returns ok, or the index of the first offending move.
    """

    def chain(start, word):
        """[start, head of word[0], ...], or None when the word breaks."""
        verts = [start]
        for s in word:
            tail, head = c.step_ends(s)
            if tail != verts[-1]:
                return None
            verts.append(head)
        return verts

    source, target, moves = cert.source, cert.target, cert.moves
    if source.start != target.start:
        return VerifyResult(False, -1, "source and target start at different vertices")
    if not 0 <= source.start < c.vertex_count:
        return VerifyResult(False, -1, "paths start outside the complex")
    for name, path in (("source", source), ("target", target)):
        if any(s == 0 or abs(s) > len(c.edges) for s in path.steps):
            return VerifyResult(False, -1, f"{name} path references a bad edge")
    verts = chain(source.start, source.steps)
    if verts is None:
        return VerifyResult(False, -1, "source path does not chain")
    if chain(target.start, target.steps) is None:
        return VerifyResult(False, -1, "target path does not chain")

    word = list(source.steps)
    for idx, m in enumerate(moves):
        if isinstance(m, BacktrackInsert):
            pos = m.position
            if not 0 <= pos <= len(word):
                return VerifyResult(False, idx, "insert position out of range")
            if m.step == 0 or abs(m.step) - 1 >= len(c.edges):
                return VerifyResult(False, idx, "insert references a bad edge")
            tail, head = c.step_ends(m.step)
            if tail != verts[pos]:
                return VerifyResult(False, idx, "inserted backtrack does not chain")
            word[pos:pos] = [m.step, -m.step]
            verts[pos + 1 : pos + 1] = [head, tail]
        elif isinstance(m, BacktrackDelete):
            pos = m.position
            if not 0 <= pos <= len(word) - 2:
                return VerifyResult(False, idx, "delete position out of range")
            if word[pos + 1] != -word[pos]:
                return VerifyResult(False, idx, "deleted pair is not a backtrack")
            del word[pos : pos + 2]
            del verts[pos + 1 : pos + 3]
        elif isinstance(m, FaceSubstitute):
            if not 0 <= m.cell < len(c.cells):
                return VerifyResult(False, idx, "face move references a bad cell")
            boundary = c.cells[m.cell]
            n, pos, k = len(boundary), m.position, m.matched
            if not (0 <= k <= n and 0 <= m.offset < n):
                return VerifyResult(False, idx, "face move parameters out of range")
            if not 0 <= pos <= len(word) - k:
                return VerifyResult(False, idx, "face position out of range")
            if m.reverse:
                boundary = tuple(-s for s in reversed(boundary))
            loop = boundary[m.offset :] + boundary[: m.offset]
            if tuple(word[pos : pos + k]) != loop[:k]:
                return VerifyResult(False, idx, "matched subword differs from the cell")
            if c.step_ends(loop[0])[0] != verts[pos]:
                return VerifyResult(False, idx, "face move anchored at the wrong vertex")
            replacement = [-s for s in reversed(loop[k:])]
            spliced = chain(verts[pos], replacement)
            if spliced is None or spliced[-1] != verts[pos + k]:
                return VerifyResult(False, idx, "face boundary does not chain")
            word[pos : pos + k] = replacement
            verts[pos + 1 : pos + k + 1] = spliced[1:]
        else:
            return VerifyResult(False, idx, f"unknown move {m!r}")

    if tuple(word) != target.steps:
        return VerifyResult(False, len(moves), "replay does not end at the target word")
    return VerifyResult(True, -1, "")
