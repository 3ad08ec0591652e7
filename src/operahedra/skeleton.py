"""Operahedron skeletons: vertices, rewrite-classified edges, and 2-faces.

The operahedron of a planar tree has one face per nesting containing the
full nest; vertices are the maximal nestings, edges the nestings of size
p - 2 and 2-faces those of size p - 3.  An edge lies in exactly two maximal
nestings, its ends, so the edges are found by pairing the vertices that
reach the same nesting on dropping one non-full nest.  Every edge is a single
nest replacement and is classified as a sequential move (the replaced and
replacing nests share no top vertex) or a parallel move (they share it);
the forward direction is the rewrite towards the unique normal form.

Nests are vertex bitmasks and nestings frozensets of them, as in `trees`:
vertices, the step table `out_step` (one row per vertex, keyed by the mask
each step flips) and `index` are all spelled that way.  An edge's `removed`
and `added` nests are frozensets of vertex ids, one shared frozenset per
distinct nest, because words and their JSON name nests by ids; `cross`
gives the skeleton's own walks the added mask.

A 2-face is its boundary walk, the complex's own cell, and its shape; its
nesting is the intersection of its boundary vertices' nestings.
"""

from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from . import trees
from .complexes import Complex2
from .errors import EngineError, MalformedEdgeError, ShapeError

BETA = "beta"
THETA = "theta"

SHAPE_BY_LENGTH = {4: "square", 5: "pentagon", 6: "hexagon"}


class SkeletonEdge(NamedTuple):
    a: int
    b: int
    removed: frozenset  # vertex ids of the nest present at endpoint a only
    added: frozenset  # vertex ids of the nest present at endpoint b only
    kind: str  # BETA or THETA
    forward: bool  # True when a -> b is the forward rewrite


class TwoFace(NamedTuple):
    steps: tuple  # boundary walk as signed edge steps; complex.cells[i] itself
    shape: str  # "square" | "pentagon" | "hexagon", by boundary length


def classify_flip(tree, removed, added):
    """Classify a single-nest replacement and give its forward direction.

    The union of the two nests is connected with a unique topmost vertex r.
    The move is parallel (theta) when r lies in both nests, sequential
    (beta) otherwise.  Beta runs from the side whose nest contains r; theta
    from the side whose hanging piece sits at the smaller planar position.
    Nests are masks, and a lowest set bit is a least vertex.
    """
    common = removed & added
    if common in (0, removed, added):
        raise MalformedEdgeError("the two nests must overlap without nesting")
    union = removed | added
    r = union & -union
    if r & common:
        only_removed, only_added = removed ^ common, added ^ common
        return THETA, only_removed & -only_removed < only_added & -only_added
    return BETA, bool(r & removed)


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

        # An edge is a maximal nesting less one non-full nest and lies in
        # exactly two maximal nestings: the first vertex to reach it waits
        # under that key and the second closes the edge.  A vertex's waiting
        # edges close in increasing order of their other end, so each takes
        # the vertex's next free id and edges come out sorted by (a, b).
        # out_step[i][nest] is the signed step that leaves vertex i by
        # flipping nest; a row lists its edges to earlier vertices in their
        # order, then the nests it waits on in nesting order.
        out_step = []
        pairs = []  # per edge: (a, b, nest removed, nest added)
        next_step = []  # per vertex: the step its next closed edge takes
        waiting = {}  # nesting less one nest -> (vertex, nest) that reached it
        for i, m in enumerate(self.vertices):
            next_step.append(len(pairs) + 1)
            closed, opened = [], []
            for nest in m:
                if nest == full:
                    continue
                key = m - {nest}
                first = waiting.pop(key, None)
                if first is None:
                    waiting[key] = (i, nest)
                    opened.append(nest)
                    continue
                j, removed = first
                s = next_step[j]
                next_step[j] = s + 1
                pairs[s - 1] = (j, i, removed, nest)
                out_step[j][removed] = s
                closed.append((s, nest))
            closed.sort()
            row = {nest: -s for s, nest in closed}
            row.update(dict.fromkeys(opened))  # steps set when the edges close
            out_step.append(row)
            pairs.extend([None] * len(opened))
        if waiting:
            raise EngineError(
                f"{len(waiting)} edge nestings lie in a single maximal nesting"
            )
        self.out_step = out_step
        # one frozenset of vertex ids per distinct nest, shared by the edges
        ids = {}
        for nest in {n for _, _, removed, added in pairs for n in (removed, added)}:
            ids[nest] = frozenset(trees.nest_vertices(nest))
        self.edges = []
        self._arrivals = {}  # signed step -> (vertex, nest mask) it arrives at and adds
        for s, (a, b, removed, added) in enumerate(pairs, 1):
            kind, forward = classify_flip(tree, removed, added)
            self.edges.append(SkeletonEdge(a, b, ids[removed], ids[added], kind, forward))
            self._arrivals[s] = (b, added)
            self._arrivals[-s] = (a, removed)

        self.complex = Complex2._trusted(
            len(self.vertices),
            tuple((e.a, e.b) for e in self.edges),
            self._build_faces(),
        )
        self.faces = [
            TwoFace(steps, SHAPE_BY_LENGTH[len(steps)]) for steps in self.complex.cells
        ]
        self.orientation = tuple(0 if e.forward else 1 for e in self.edges)
        self._morse = None
        self._builder = None

    # -- construction ---------------------------------------------------------

    def _build_faces(self):
        """Every 2-face's boundary walk, each once: a face nesting is a
        vertex's nesting less two of its non-full nests, and its boundary
        walks from the vertex across those two free nests alternately.  Each
        face is walked from its least vertex only, towards the smaller of
        the two neighbours.  Faces sort as `trees.sort_nestings` sorts their
        nestings, by the vertex's nest ranks less the two free ones."""
        rank = trees.nest_ranks(self.vertices)
        found = []  # (sorted nest ranks of the face, boundary walk)
        for i, m in enumerate(self.vertices):
            across = [(self.cross(s)[0], nest) for nest, s in self.out_step[i].items()]
            ranks = sorted(map(rank.__getitem__, m))
            for (j1, n1), (j2, n2) in combinations(across, 2):
                if j1 < i or j2 < i:
                    continue
                if j2 < j1:
                    n1, n2 = n2, n1
                steps = self._walk_face(i, n1, n2)
                if steps is not None:
                    free = (rank[n1], rank[n2])
                    found.append(([r for r in ranks if r not in free], steps))
        found.sort(key=lambda face: face[0])
        return tuple(steps for _, steps in found)

    def _walk_face(self, start, n1, n2):
        """The boundary steps from `start` crossing n1 first, then the two
        free nests in turn; a boundary is at most a hexagon.  None when the
        walk meets a vertex below `start`, which is not then the face's
        least vertex."""
        steps = []
        at, leave, other = start, n1, n2
        while True:
            s = self.out_step[at][leave]
            steps.append(s)
            at, added = self.cross(s)
            if at == start:
                return tuple(steps)
            if at < start:
                return None
            if len(steps) == 6:
                raise ShapeError("2-face boundary does not close within six steps")
            leave, other = other, added

    def cross(self, s):
        """(vertex, nest mask) that the signed step s arrives at and adds."""
        return self._arrivals[s]

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


# a batch of queries cycles through a few trees, and a command uses one tree
# at a time, so a few dozen skeletons cover both
SKELETON_CACHE_SIZE = 32


@lru_cache(maxsize=SKELETON_CACHE_SIZE)
def build_skeleton(tree):
    """Skeleton of the operahedron of ``tree``; the last
    SKELETON_CACHE_SIZE trees asked for are cached."""
    return Skeleton(tree)
