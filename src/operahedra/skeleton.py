"""Operahedron skeletons: vertices, rewrite-classified edges, and 2-faces.

The operahedron of a planar tree has one face per nesting containing the
full nest; vertices are the maximal nestings, edges the pairs differing in a
single nest, and 2-faces the nestings of size p - 3.  Every edge is a single
nest replacement and is classified as a sequential move (the replaced and
replacing nests share no top vertex) or a parallel move (they share it);
the forward direction is the rewrite towards the unique normal form.
"""

from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from . import trees
from .complexes import Complex2
from .errors import MalformedEdgeError, NotMaximalError, ShapeError

BETA = "beta"
THETA = "theta"

SHAPE_BY_LENGTH = {4: "square", 5: "pentagon", 6: "hexagon"}

FULL_NEST_FLIP = "the full nest cannot be flipped"


class SkeletonEdge(NamedTuple):
    a: int
    b: int
    removed: frozenset  # the nest present at endpoint a only
    added: frozenset  # the nest present at endpoint b only
    kind: str  # BETA or THETA
    forward: bool  # True when a -> b is the forward rewrite


class TwoFace(NamedTuple):
    nesting: frozenset  # p - 3 nests including the full nest
    vertices: tuple  # boundary cycle as vertex indices
    steps: tuple  # boundary walk as signed edge steps
    shape: str  # "square" | "pentagon" | "hexagon", by boundary length


def classify_flip(tree, removed, added):
    """Classify a single-nest replacement and give its forward direction.

    The union of the two nests is connected with a unique topmost vertex r.
    The move is parallel (theta) when r lies in both nests, sequential
    (beta) otherwise.  Beta runs from the side whose nest contains r; theta
    from the side whose hanging piece sits at the smaller planar position.
    """
    removed = frozenset(removed)
    added = frozenset(added)
    if (
        not removed & added
        or removed <= added
        or added <= removed
    ):
        raise MalformedEdgeError("the two nests must overlap without nesting")
    r = min(removed | added)
    if r in removed and r in added:
        return THETA, min(removed - added) < min(added - removed)
    return BETA, r in removed


def classify_edge(tree, nesting_a, nesting_b):
    """(kind, forward) for the edge between two maximal nestings; raises
    MalformedEdgeError unless they differ in exactly one nest."""
    diff_a = nesting_a - nesting_b
    diff_b = nesting_b - nesting_a
    if len(diff_a) != 1 or len(diff_b) != 1:
        raise MalformedEdgeError(
            f"endpoints differ in {len(diff_a)} + {len(diff_b)} nests, expected 1 + 1"
        )
    return classify_flip(tree, next(iter(diff_a)), next(iter(diff_b)))


def flip_nest(tree, nesting, nest):
    """Replace ``nest`` in a maximal nesting by the unique alternative.

    Dropping a non-full nest leaves its parent with three immediate pieces;
    the quotient of those pieces is a three-vertex tree, so exactly two
    groupings are connected and the flip swaps one for the other.

    The nesting must be laminar, as `trees.pieces` requires.  One pass over
    it finds the parent (the smallest enclosing nest) and the members
    inside ``nest``; the three pieces are the two of ``nest`` and the rest
    of the parent, which must itself be a member or a single vertex.
    Raises MalformedEdgeError for the full nest and NotMaximalError when
    the nesting is not maximal around ``nest``.
    """
    parent = None
    inside = []
    for m in nesting:
        if nest < m:
            if parent is None or len(m) < len(parent):
                parent = m
        elif m < nest:
            inside.append(m)
    if parent is None:
        raise MalformedEdgeError(FULL_NEST_FLIP)
    parts = trees.pieces(inside, nest)
    sibling = parent - nest
    if len(parts) != 2 or not (len(sibling) == 1 or sibling in nesting):
        raise NotMaximalError("dropping one nest must leave a ternary parent")
    parts.append(sibling)
    parts.sort(key=min)
    top = parts[0]  # pieces are ordered by min id; the first holds the top
    x, y = parts[1], parts[2]
    hx, hy = _holder(tree, parts, x), _holder(tree, parts, y)
    if hx is top and hy is top:
        groupings = (top | x, top | y)
    elif hx is top and hy is x:
        groupings = (top | x, x | y)
    elif hy is top and hx is y:
        groupings = (top | y, x | y)
    else:
        raise NotMaximalError("pieces do not form a three-vertex quotient tree")
    if nest == groupings[0]:
        added = groupings[1]
    elif nest == groupings[1]:
        added = groupings[0]
    else:
        raise NotMaximalError("the dropped nest is not a grouping of the pieces")
    added = frozenset(added)
    return (nesting - {nest}) | {added}, added


def _holder(tree, parts, piece):
    """The piece holding the parent of a non-top piece's top vertex."""
    pv = tree.parent[min(piece)]
    return next(q for q in parts if pv in q)


class Skeleton:
    """The 2-skeleton of the operahedron of a planar tree.

    Vertices, edges and faces are kept in deterministic orders; `complex`
    exposes the same data as a plain Complex2 whose edge ids match, and
    `orientation` directs every edge along its forward rewrite.
    """

    def __init__(self, tree):
        self.tree = tree
        self.vertices = trees.enumerate_maximal_nestings(tree)
        self.index = {m: i for i, m in enumerate(self.vertices)}
        full = trees.full_nest(tree)

        # out_step[i][nest] is the signed step that leaves vertex i by
        # flipping nest.  Each edge is flipped once, from its smaller end, and
        # recorded at both; the row holds the vertex across until the edges
        # are numbered.
        out_step = [{} for _ in self.vertices]
        edge_map = {}
        for i, m in enumerate(self.vertices):
            for nest in m - {full}:
                if nest in out_step[i]:
                    continue
                flipped, added = flip_nest(tree, m, nest)
                j = self.index[flipped]
                out_step[i][nest] = j
                out_step[j][added] = i
                kind, forward = classify_flip(tree, nest, added)
                edge_map[(i, j)] = SkeletonEdge(i, j, nest, added, kind, forward)
        edge_index = {key: idx for idx, key in enumerate(sorted(edge_map))}
        self.edges = [edge_map[key] for key in edge_index]
        for i, row in enumerate(out_step):
            for nest, j in row.items():
                row[nest] = edge_index[(i, j)] + 1 if i < j else -edge_index[(j, i)] - 1
        self.out_step = out_step

        self.faces = self._build_faces()
        self.complex = Complex2(
            len(self.vertices),
            [(e.a, e.b) for e in self.edges],
            [f.steps for f in self.faces],
        )
        self.orientation = tuple(0 if e.forward else 1 for e in self.edges)
        self._morse = None
        self._builder = None

    # -- construction ---------------------------------------------------------

    def _build_faces(self):
        """Every 2-face, each once: a face nesting is a vertex's nesting less
        two of its non-full nests, and its boundary walks from the vertex
        across those two free nests alternately.  Each face is first met at
        its least vertex; its cycle starts there and runs towards the
        smaller of the two neighbours."""
        walks = {}
        for i, m in enumerate(self.vertices):
            row = self.out_step[i]
            for n1, n2 in combinations(row, 2):
                nesting = m - {n1, n2}
                if nesting in walks:
                    continue
                if self.cross(row[n2])[0] < self.cross(row[n1])[0]:
                    n1, n2 = n2, n1
                walks[nesting] = self._walk_face(i, n1, n2)
        faces = []
        for nesting in sorted(walks, key=trees.nesting_sort_key):
            cycle, steps = walks[nesting]
            faces.append(TwoFace(nesting, cycle, steps, SHAPE_BY_LENGTH[len(cycle)]))
        return faces

    def _walk_face(self, start, n1, n2):
        """The boundary cycle and steps from `start` crossing n1 first, then
        the two free nests in turn; a boundary is at most a hexagon."""
        cycle, steps = [start], []
        at, leave, other = start, n1, n2
        while True:
            s = self.out_step[at][leave]
            steps.append(s)
            at, added = self.cross(s)
            if at == start:
                return tuple(cycle), tuple(steps)
            if len(cycle) == 6:
                raise ShapeError("2-face boundary does not close within six steps")
            cycle.append(at)
            leave, other = other, added

    def cross(self, s):
        """(vertex, nest) that the signed step s arrives at and adds."""
        e = self.edges[abs(s) - 1]
        return (e.b, e.added) if s > 0 else (e.a, e.removed)

    # -- queries ---------------------------------------------------------------

    def expression_of(self, vid):
        return trees.nesting_to_expression(self.tree, self.vertices[vid])

    def f_vector(self):
        return (len(self.vertices), len(self.edges), len(self.faces))

    def shape_counts(self):
        counts = {"square": 0, "pentagon": 0, "hexagon": 0}
        for f in self.faces:
            counts[f.shape] += 1
        return counts

    def morse(self):
        """Morse certificate of the forward orientation (computed lazily)."""
        from . import complexes

        if self._morse is None:
            result = complexes.morse_certificate(self.complex, self.orientation)
            if not isinstance(result, complexes.MorseCertificate):
                raise ShapeError(
                    f"forward orientation failed Morse hypotheses: {result}"
                )
            self._morse = result
        return self._morse

    def homotopy_builder(self):
        from .homotopy import HomotopyBuilder

        if self._builder is None:
            self._builder = HomotopyBuilder(
                self.complex, self.orientation, self.morse()
            )
        return self._builder

    def to_dot(self):
        """DOT digraph with rewrite kinds and forward arrowheads."""
        lines = ["digraph skeleton {"]
        for i in range(len(self.vertices)):
            lines.append(f'  v{i} [label="{i}"];')
        for e in self.edges:
            src, dst = (e.a, e.b) if e.forward else (e.b, e.a)
            style = "solid" if e.kind == BETA else "dashed"
            lines.append(
                f'  v{src} -> v{dst} [label="{e.kind}", style="{style}"];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"


@lru_cache(maxsize=None)
def build_skeleton(tree):
    """Skeleton of the operahedron of ``tree``; cached per tree."""
    return Skeleton(tree)
