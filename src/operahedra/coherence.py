"""Deciding coherence: words of moves, certificates, normal forms, confluence.

A morphism word is an expression together with a sequence of single-nest
replacements, each one a forward rewrite or the inverse of one.  Two parallel
words always bound a certificate of elementary homotopies on the operahedron
of their underlying tree; this module produces and packages it, computes the
unique rewrite normal form, checks local confluence at every 2-face, and
translates fully parenthesised monoidal words into the arity-one fragment.
"""

import re
from typing import NamedTuple

from . import complexes, trees
from .errors import (
    CertificateRejectedError,
    IllegalMoveError,
    NotParallelError,
    ParseError,
)
from .homotopy import (
    BacktrackDelete,
    BacktrackInsert,
    FaceSubstitute,
    Path,
    validate_path,
    verify_certificate,
)
from .skeleton import FULL_NEST_FLIP, build_skeleton


class MorphismWord(NamedTuple):
    expr: object  # the domain expression
    moves: tuple  # (removed, added, sign): replace removed by added; sign=+1
    # when that replacement is the forward rewrite, -1 when inverse

    def to_json(self):
        return {
            "schema": "v1",
            "object": str(self.expr),
            "moves": [
                {"remove": sorted(rm), "add": sorted(ad), "sign": sg}
                for rm, ad, sg in self.moves
            ],
        }


class _WalkedWord(MorphismWord):
    """A word made by `replay`; its `walk` is the (skeleton, path) it took."""


class CoherenceVerdict(NamedTuple):
    equal: bool
    certificate: object
    statistics: dict


def replay(expr, moves):
    """Walk moves from the nesting of ``expr``; return the word.

    Each move is (removed, added, sign, kind); added, sign and kind may be
    None.  The expression is unfolded once and each move is read off the
    skeleton's step table: stated fields must match the edge's far nest and
    its classification, and unstated ones are filled in from them.  The
    word carries the skeleton and path walked as its `walk`.  Raises
    IllegalMoveError.  This is the only word reader.
    """
    tree, nesting = trees.expression_to_nesting(expr)
    sk = build_skeleton(tree)
    at = start = sk.index[nesting]
    steps, word = [], []
    for k, move in enumerate(moves):
        removed = frozenset(move[0])
        s = sk.out_step[at].get(removed)
        if s is None:
            raise _unflippable(k, sk.vertices[at], removed)
        e = sk.edges[abs(s) - 1]
        at, partner = sk.cross(s)
        sign = _checked_sign(k, move, partner, e.kind, e.forward == (s > 0))
        word.append((removed, partner, sign))
        steps.append(s)
    walked = _WalkedWord(expr, tuple(word))
    walked.walk = (sk, Path(start, tuple(steps)))
    return walked


def _unflippable(k, nesting, removed):
    """The IllegalMoveError for move k when ``removed`` cannot be flipped at
    a maximal nesting: it is absent, or it is the full nest."""
    if removed in nesting:
        return IllegalMoveError(k, FULL_NEST_FLIP)
    return IllegalMoveError(k, f"nest {sorted(removed)} is not present")


def _checked_sign(k, move, partner, kind, forward):
    """The sign of move k = (removed, added, sign, kind) whose step adds
    ``partner`` with the classification (kind, forward); raises
    IllegalMoveError when a stated field disagrees."""
    _, added, sign, stated = move
    if added is not None and frozenset(added) != partner:
        raise IllegalMoveError(
            k, f"adding {sorted(added)} does not complete a maximal nesting"
        )
    if stated is not None and stated != kind:
        raise IllegalMoveError(k, f"move is {kind}, stated as {stated}")
    got = 1 if forward else -1
    if sign is not None and sign != got:
        raise IllegalMoveError(
            k, f"sign {sign} contradicts the {kind} forward direction"
        )
    return got


def word_to_path(word):
    """(skeleton, path) of the walk a word traces on its operahedron.

    A word made by `replay` carries it; a word built by hand is replayed
    once here.  Raises IllegalMoveError.
    """
    walk = getattr(word, "walk", None)  # a copy by `_replace` carries none
    if walk is None:
        walk = replay(word.expr, [(*move, None) for move in word.moves]).walk
    return walk


def moves_from_steps(sk, steps):
    """Rebuild word moves from a skeleton walk; inverse of word_to_path."""
    moves = []
    for s in steps:
        e = sk.edges[abs(s) - 1]
        if s > 0:
            removed, added = e.removed, e.added
            forward = e.forward
        else:
            removed, added = e.added, e.removed
            forward = not e.forward
        moves.append((removed, added, 1 if forward else -1))
    return tuple(moves)


def decide_coherence(w1, w2):
    """Certify that two parallel words are equal, with verified evidence.

    Raises NotParallelError when domains or codomains differ.  The verdict
    carries a homotopy certificate accepted by the independent verifier.
    """
    if w1.expr != w2.expr:
        raise NotParallelError("words have different domain objects")
    sk, p1 = word_to_path(w1)
    _, p2 = word_to_path(w2)
    if validate_path(sk.complex, p1) != validate_path(sk.complex, p2):
        raise NotParallelError("words have different codomain objects")
    builder = sk.homotopy_builder()
    cert = builder.general(p1, p2)
    check = verify_certificate(sk.complex, cert)
    if not check.ok:
        raise CertificateRejectedError(f"generated certificate rejected: {check}")
    stats = {
        "moves": len(cert.moves),
        "backtrack_inserts": sum(isinstance(m, BacktrackInsert) for m in cert.moves),
        "backtrack_deletes": sum(isinstance(m, BacktrackDelete) for m in cert.moves),
        "face_substitutions": sum(isinstance(m, FaceSubstitute) for m in cert.moves),
        "faces_by_shape": _face_usage(sk, cert.moves),
        "word_lengths": [len(w1.moves), len(w2.moves)],
    }
    return CoherenceVerdict(True, cert, stats)


def _face_usage(sk, moves):
    usage = {}
    for m in moves:
        if isinstance(m, FaceSubstitute):
            shape = sk.faces[m.cell].shape
            usage[shape] = usage.get(shape, 0) + 1
    return dict(sorted(usage.items()))


def normal_form(expr):
    """Rewrite an expression to the unique sink of its operahedron.

    Follows the least-edge forward strategy; confluence makes the endpoint
    strategy-independent.  Returns the sink expression and the trace word.
    """
    tree, nesting = trees.expression_to_nesting(expr)
    sk = build_skeleton(tree)
    builder = sk.homotopy_builder()
    at = sk.index[nesting]
    moves = moves_from_steps(sk, builder.descent(at))
    return sk.expression_of(builder.sink), MorphismWord(expr, moves)


def random_normal_form(expr, rng):
    """Sink expression via a random forward strategy (for Newman checks)."""
    tree, nesting = trees.expression_to_nesting(expr)
    sk = build_skeleton(tree)
    out = complexes.out_edges(sk.complex, sk.orientation)
    at = sk.index[nesting]
    while out[at]:
        e = rng.choice(out[at])
        at = complexes.directed_ends(sk.complex, sk.orientation, e)[1]
    return sk.expression_of(at)


class ConfluenceReport(NamedTuple):
    tree: object
    faces: int
    joinable: int
    by_shape: dict

    @property
    def all_joinable(self):
        return self.joinable == self.faces


def check_local_confluence(tree):
    """Check every critical pair: the two forward moves out of a face source
    must rejoin at the face sink along the two boundary arcs."""
    sk = build_skeleton(tree)
    corners = complexes.CornerIndex(sk.complex, sk.orientation)
    joinable = 0
    by_shape = {}
    for ci, face in enumerate(sk.faces):
        sources, sinks = corners.sources_sinks(ci)
        if len(sources) == 1 and len(sinks) == 1:
            joinable += 1
            by_shape[face.shape] = by_shape.get(face.shape, 0) + 1
    return ConfluenceReport(tree, len(sk.faces), joinable, dict(sorted(by_shape.items())))


# ---------------------------------------------------------------------------
# Monoidal (arity-one) words


def maclane_parse(word):
    """Fully parenthesised product of increasing distinct letters as an
    arity-one expression over a linear tree.

    Letters out of planar order signal the symmetric setting and are
    rejected.  ``(ab)`` becomes a o1 b; ``((ab)c)d`` the left comb on four.
    """
    text = word.strip()
    pos = 0

    def fail(msg):
        raise ParseError(f"column {pos}: {msg}")

    def item():
        nonlocal pos
        if pos >= len(text):
            fail("unexpected end of word")
        ch = text[pos]
        if ch == "(":
            pos += 1
            first = item()
            second = item()
            if pos >= len(text) or text[pos] != ")":
                fail("expected ')'")
            pos += 1
            return (first, second)
        if not ch.isalpha():
            fail(f"expected a letter or '(', found {ch!r}")
        pos += 1
        return ch

    first = item()
    if pos < len(text):
        second = item()
        if pos != len(text):
            fail("a product must pair exactly two fully parenthesised factors")
        tree = (first, second)
    else:
        tree = first

    letters = []

    def collect(t):
        if isinstance(t, tuple):
            collect(t[0])
            collect(t[1])
        else:
            letters.append(t)

    collect(tree)
    if len(set(letters)) != len(letters):
        raise ParseError("letters must be distinct")
    if letters != sorted(letters):
        raise ParseError(
            "letters out of planar order: the symmetric case is not supported"
        )

    def to_expr(t):
        if isinstance(t, tuple):
            return trees.Composition(to_expr(t[0]), to_expr(t[1]), 1)
        return trees.Generator(t, 1)

    return to_expr(tree)


_SUGAR_RE = re.compile(r"^(-?)(beta|theta)@([0-9]+(?:\.[0-9]+)*)$")


def parse_word_text(expr, text):
    """Sugared move syntax: whitespace-separated ``beta@0.1`` tokens.

    Each token flips the named nest out of the current nesting; the kind
    must match the classifier and a leading ``-`` marks an inverse
    traversal (sign -1).
    """
    moves = []
    for k, token in enumerate(text.split()):
        m = _SUGAR_RE.match(token)
        if not m:
            raise ParseError(f"move {k}: bad token {token!r}")
        inverse, kind, ids = m.groups()
        removed = frozenset(int(x) for x in ids.split("."))
        moves.append((removed, None, -1 if inverse else 1, kind))
    return replay(expr, moves)


def word_from_json(data, expr=None):
    """Word from JSON: {"object": "...", "moves": [{"remove": [...],
    "add": [...]?, "sign": n?}, ...]}; omitted fields are inferred."""
    try:
        if expr is None:
            expr = trees.parse_expression(data["object"])
        moves = [
            (frozenset(int(v) for v in mv["remove"]),
             frozenset(int(v) for v in mv["add"]) if "add" in mv else None,
             int(mv["sign"]) if "sign" in mv else None, None)
            for mv in data.get("moves", ())
        ]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad word document: {exc}") from exc
    return replay(expr, moves)
