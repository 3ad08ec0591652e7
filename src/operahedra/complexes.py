"""Abstract regular oriented 2-complexes.

A complex stores a vertex count, an edge list, and 2-cells as closed boundary
walks.  A walk is a tuple of signed steps: step ``s`` traverses edge
``abs(s) - 1``, forward (endpointA -> endpointB) when positive.  The first
vertex of a walk is the tail of its first step, so a step tuple determines
the whole vertex sequence.

An orientation is a bit per edge: 0 directs the edge endpointA -> endpointB,
1 the other way.  On top of an orientation the module computes face sources
and sinks, outgoing links, Morse certificates with an independent checker,
and integral homology through Smith normal form.

Engine code reads face sources, sinks and outgoing links from one
`CornerIndex` per complex and orientation, which keeps each cell's source
and sink corners and nothing else of its boundary.  `check_morse_certificate`
deliberately does not: it rescans each cell boundary it checks with its own
small helpers, so that the checker shares no code with the search it checks.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import NamedTuple

from .errors import (
    DanglingReferenceError,
    HomologyRankError,
    NonRegularError,
    ParseError,
)


class Complex2:
    """Immutable 2-complex; run validate() to check regularity."""

    __slots__ = ("vertex_count", "edges", "cells")

    def __init__(self, vertex_count, edges, cells):
        self.vertex_count = int(vertex_count)
        self.edges = tuple((int(a), int(b)) for a, b in edges)
        self.cells = tuple(tuple(int(s) for s in cell) for cell in cells)

    @classmethod
    def _trusted(cls, vertex_count, edges, cells):
        """A complex from fields already in normal form (an int, a tuple of
        int pairs, a tuple of int tuples), for builders that make them so;
        nothing is converted or checked."""
        c = cls.__new__(cls)
        c.vertex_count, c.edges, c.cells = vertex_count, edges, cells
        return c

    def __eq__(self, other):
        return (
            isinstance(other, Complex2)
            and self.vertex_count == other.vertex_count
            and self.edges == other.edges
            and self.cells == other.cells
        )

    def __hash__(self):
        return hash((self.vertex_count, self.edges, self.cells))

    def __repr__(self):
        return (
            f"Complex2(vertices={self.vertex_count}, edges={len(self.edges)}, "
            f"cells={len(self.cells)})"
        )

    def step_ends(self, s):
        a, b = self.edges[abs(s) - 1]
        return (a, b) if s > 0 else (b, a)

    def cell_vertices(self, cell):
        """Vertex sequence visited by a closed walk, one per step."""
        return tuple(self.step_ends(s)[0] for s in cell)

    def to_json(self):
        cells = []
        for cell in self.cells:
            walk = []
            for s in cell:
                walk.append(self.step_ends(s)[0])
                walk.append(s)
            cells.append(walk)
        return {
            "schema": "v1",
            "vertices": self.vertex_count,
            "edges": [list(e) for e in self.edges],
            "cells": cells,
        }

    @classmethod
    def from_json(cls, data):
        try:
            walks = data.get("cells", [])
            if any(len(walk) % 2 != 0 for walk in walks):
                raise DanglingReferenceError("cell walk must alternate vertex, edge")
            c = cls(data["vertices"], data["edges"], [walk[1::2] for walk in walks])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad complex document: {exc}") from exc
        # the redundant vertices in the alternating form must match the steps
        for ci, (walk, steps) in enumerate(zip(walks, c.cells)):
            if any(s == 0 or abs(s) > len(c.edges) for s in steps):
                raise DanglingReferenceError(f"cell {ci}: bad edge reference")
            stated = tuple(walk[0::2])
            if stated != c.cell_vertices(steps):
                raise DanglingReferenceError(
                    "cell walk vertices do not match its edges"
                )
        return c


def validate(c):
    """Check regularity; raises NonRegularError or DanglingReferenceError."""
    if c.vertex_count < 0:
        raise DanglingReferenceError("negative vertex count")
    for e, (a, b) in enumerate(c.edges):
        if not (0 <= a < c.vertex_count and 0 <= b < c.vertex_count):
            raise DanglingReferenceError(f"edge {e} endpoint out of range")
        if a == b:
            raise NonRegularError(f"edge {e} is a loop")
    for ci, cell in enumerate(c.cells):
        if not cell:
            raise NonRegularError(f"cell {ci} has an empty boundary")
        for s in cell:
            if s == 0 or not abs(s) - 1 < len(c.edges):
                raise DanglingReferenceError(f"cell {ci}: bad edge reference {s}")
        heads = [c.step_ends(s)[1] for s in cell]
        tails = [c.step_ends(s)[0] for s in cell]
        for k in range(len(cell)):
            if heads[k] != tails[(k + 1) % len(cell)]:
                raise DanglingReferenceError(
                    f"cell {ci}: step {k} not incident to the next vertex"
                )
        if len(set(tails)) != len(tails):
            raise NonRegularError(f"cell {ci}: boundary walk repeats a vertex")
        if len({abs(s) for s in cell}) != len(cell):
            raise NonRegularError(f"cell {ci}: boundary walk repeats an edge")
    return True


# ---------------------------------------------------------------------------
# Orientations


def check_orientation(c, orientation):
    orientation = tuple(int(x) for x in orientation)
    if len(orientation) != len(c.edges) or any(x not in (0, 1) for x in orientation):
        raise ValueError("orientation must assign 0 or 1 to every edge")
    return orientation


def directed_ends(c, orientation, e):
    a, b = c.edges[e]
    return (a, b) if orientation[e] == 0 else (b, a)


def step_ascends(c, orientation, s):
    """True when the step traverses its edge along the orientation."""
    return (s > 0) == (orientation[abs(s) - 1] == 0)


def out_edges(c, orientation):
    """For each vertex, the sorted list of edges directed away from it."""
    out = [[] for _ in range(c.vertex_count)]
    for e, (a, b) in enumerate(c.edges):
        out[b if orientation[e] else a].append(e)
    return out


def step_from(c, orientation, e):
    """Signed step traversing edge e along its orientation."""
    return (e + 1) if orientation[e] == 0 else -(e + 1)


def cell_sources_sinks(c, orientation, cell):
    """Local sources and sinks of a boundary walk under the orientation.

    Used by the independent checker only; engine code reads them from a
    CornerIndex."""
    m = len(cell)
    sources, sinks = [], []
    for k in range(m):
        v = c.step_ends(cell[k])[0]
        arriving = cell[(k - 1) % m]
        leaving = cell[k]
        arr_asc = step_ascends(c, orientation, arriving)
        leave_asc = step_ascends(c, orientation, leaving)
        if not arr_asc and leave_asc:
            sources.append(v)
        elif arr_asc and not leave_asc:
            sinks.append(v)
    return sources, sinks


class OutgoingLink(NamedTuple):
    vertex: int
    nodes: tuple  # edge ids directed away from the vertex
    links: tuple  # (edge, edge, cell) pairs joined on a co-face sourced here


class CornerIndex:
    """The source and sink corners of every 2-cell under one orientation.

    A corner of a boundary walk is a source when both its edges point away
    from its vertex and a sink when both point towards it.  One pass over
    the cells keeps, per vertex, its source corners as (arriving edge,
    leaving edge, cell) in cell order and then walk order (`sources_at`),
    and per cell its sources and sinks in walk order (`of_cell`), so a
    vertex's outgoing link, a cell's sources and sinks, and the cell
    sourced at a pair of edges are lookups proportional to a vertex or cell
    degree.  `out` lists the edges directed away from each vertex, ascending.
    """

    __slots__ = ("out", "sources_at", "of_cell")

    def __init__(self, c, orientation):
        orientation = check_orientation(c, orientation)
        self.out = out_edges(c, orientation)
        self.sources_at = [[] for _ in range(c.vertex_count)]
        self.of_cell = []
        for ci, cell in enumerate(c.cells):
            ids = [abs(s) - 1 for s in cell]
            ups = [(s > 0) == (orientation[e] == 0) for s, e in zip(cell, ids)]
            sources, sinks = [], []
            for k, s in enumerate(cell):
                if ups[k] == ups[k - 1]:
                    continue
                # a step's tail is endpoint A when it runs forward, else B
                v = c.edges[ids[k]][s < 0]
                if ups[k]:
                    sources.append(v)
                    self.sources_at[v].append((ids[k - 1], ids[k], ci))
                else:
                    sinks.append(v)
            self.of_cell.append((sources, sinks))

    def outgoing_link(self, x):
        return OutgoingLink(x, tuple(self.out[x]), tuple(self.sources_at[x]))

    def sources_sinks(self, ci):
        """Local sources and sinks of cell ci, in walk order."""
        return self.of_cell[ci]

    def cell_at(self, x, e1, e2):
        """The first cell, in cell order, whose source corner at x lies
        between edges e1 and e2; None when there is none."""
        for arriving, leaving, ci in self.sources_at[x]:
            if (arriving, leaving) in ((e1, e2), (e2, e1)):
                return ci
        return None


def outgoing_link(c, orientation, x):
    """Graph on the outgoing edges at x; two are joined when they are the two
    boundary edges of a 2-cell whose face source is x.

    Builds a CornerIndex for the one vertex; to visit many vertices, build
    the index once and call its `outgoing_link`."""
    return CornerIndex(c, orientation).outgoing_link(x)


def link_components(link):
    """Connected components of an outgoing link, as sorted tuples of edge ids."""
    parent = {e: e for e in link.nodes}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for e1, e2, _ in link.links:
        ra, rb = find(e1), find(e2)
        if ra != rb:
            parent[ra] = rb
    comps = {}
    for e in link.nodes:
        comps.setdefault(find(e), []).append(e)
    return sorted(tuple(sorted(v)) for v in comps.values())


def link_spanning_tree(link):
    """Witness edges spanning the link, or None if it is disconnected."""
    if len(link.nodes) <= 1:
        return ()
    adj = {e: [] for e in link.nodes}
    for e1, e2, ci in link.links:
        adj[e1].append((e2, (e1, e2, ci)))
        adj[e2].append((e1, (e1, e2, ci)))
    start = link.nodes[0]
    seen = {start}
    tree = []
    queue = [start]
    for v in queue:  # breadth first: the loop reaches what it appends
        for w, witness in sorted(adj[v]):
            if w not in seen:
                seen.add(w)
                tree.append(witness)
                queue.append(w)
    if len(seen) != len(link.nodes):
        return None
    return tuple(tree)


# ---------------------------------------------------------------------------
# Morse certificates


class MorseCertificate(NamedTuple):
    order: tuple  # vertex permutation; increases along every directed edge
    global_sink: int
    face_source_sink: tuple  # (source, sink) per cell
    link_witness: tuple  # per vertex: spanning-tree link edges (e1, e2, cell)


class CounterexampleReport(NamedTuple):
    condition: str
    witness: object


def morse_certificate(c, orientation):
    """Full Morse data for an oriented complex, or the first counterexample.

    Checks, in order: the directed 1-skeleton is acyclic; the outgoing link
    of every vertex is connected; there is exactly one vertex with no
    outgoing edge; every 2-cell has a unique source and a unique sink
    (equivalently its boundary is two directed arcs).  The corner index
    checks the orientation, and its outgoing edges give the directed graph.
    """
    corners = CornerIndex(c, orientation)
    V = c.vertex_count
    adj = []  # per vertex, the heads of its outgoing edges in edge order
    indeg = [0] * V
    for x, out in enumerate(corners.out):
        heads = [b if a == x else a for a, b in map(c.edges.__getitem__, out)]
        for w in heads:
            indeg[w] += 1
        adj.append(heads)

    heap = [v for v in range(V) if indeg[v] == 0]
    heapify(heap)
    order = []
    while heap:
        v = heappop(heap)
        order.append(v)
        for w in adj[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heappush(heap, w)
    if len(order) != V:
        return CounterexampleReport("cycle", _find_cycle(adj, indeg))

    witnesses = []
    for x in range(V):
        link = corners.outgoing_link(x)
        tree = link_spanning_tree(link)
        if tree is None:
            return CounterexampleReport(
                "disconnected_link",
                {"vertex": x, "components": link_components(link)},
            )
        witnesses.append(tree)

    sinks = [v for v in range(V) if not adj[v]]
    if len(sinks) != 1:
        return CounterexampleReport("sink_not_unique", sorted(sinks))

    face_data = []
    for ci in range(len(c.cells)):
        sources, snks = corners.sources_sinks(ci)
        if len(sources) != 1 or len(snks) != 1:
            return CounterexampleReport(
                "face_not_two_arcs",
                {"cell": ci, "sources": sources, "sinks": snks},
            )
        face_data.append((sources[0], snks[0]))

    return MorseCertificate(tuple(order), sinks[0], tuple(face_data), tuple(witnesses))


def _find_cycle(adj, indeg_left):
    """A directed cycle among the vertices the topological sort left over.

    Left-over vertices downstream of a cycle may lead nowhere, so those
    from which no cycle can be reached are peeled off first; the walk from
    the least vertex left, along first successors, then has to close up.
    """
    remaining = {v for v, d in enumerate(indeg_left) if d > 0}
    preds = {v: [] for v in remaining}
    outdeg = dict.fromkeys(remaining, 0)
    for v in remaining:
        for w in adj[v]:
            if w in remaining:
                outdeg[v] += 1
                preds[w].append(v)
    dead = [v for v in remaining if not outdeg[v]]
    while dead:
        v = dead.pop()
        remaining.discard(v)
        for u in preds[v]:
            outdeg[u] -= 1
            if not outdeg[u]:
                dead.append(u)
    v = min(remaining)
    path, seen = [], {}
    while v not in seen:
        seen[v] = len(path)
        path.append(v)
        v = next(w for w in adj[v] if w in remaining)
    return path[seen[v] :]


def check_morse_certificate(c, orientation, cert):
    """Independent re-check of a Morse certificate from its fields alone.

    Linear in the size of the complex; shares no state with the search.
    Returns (True, None) or (False, reason).
    """
    orientation = check_orientation(c, orientation)
    V = c.vertex_count
    if sorted(cert.order) != list(range(V)):
        return False, "order is not a vertex permutation"
    pos = [0] * V
    for i, v in enumerate(cert.order):
        pos[v] = i
    outgoing = [[] for _ in range(V)]
    for e in range(len(c.edges)):
        src, dst = directed_ends(c, orientation, e)
        if pos[src] >= pos[dst]:
            return False, f"order does not increase along edge {e}"
        outgoing[src].append(e)
    if outgoing[cert.global_sink]:
        return False, "stated sink has an outgoing edge"
    for v in range(V):
        if v != cert.global_sink and not outgoing[v]:
            return False, f"second sink {v}"
    if len(cert.face_source_sink) != len(c.cells):
        return False, "face data size mismatch"
    for ci, cell in enumerate(c.cells):
        sources, sinks = cell_sources_sinks(c, orientation, cell)
        if sources != [cert.face_source_sink[ci][0]] or sinks != [
            cert.face_source_sink[ci][1]
        ]:
            return False, f"cell {ci} is not two arcs with the stated source/sink"
    if len(cert.link_witness) != V:
        return False, "link witness size mismatch"
    for x in range(V):
        nodes = set(outgoing[x])
        parent = {e: e for e in nodes}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for e1, e2, ci in cert.link_witness[x]:
            if e1 not in nodes or e2 not in nodes:
                return False, f"vertex {x}: witness names a non-outgoing edge"
            if not _cofacial_at_source(c, orientation, x, e1, e2, ci):
                return False, f"vertex {x}: witness pair not cofacial at the source"
            parent[find(e1)] = find(e2)
        if nodes and len({find(e) for e in nodes}) != 1:
            return False, f"vertex {x}: witness does not span the outgoing link"
    return True, None


def _cofacial_at_source(c, orientation, x, e1, e2, ci):
    if not 0 <= ci < len(c.cells):
        return False
    cell = c.cells[ci]
    m = len(cell)
    for k in range(m):
        if c.step_ends(cell[k])[0] != x:
            continue
        arriving, leaving = cell[(k - 1) % m], cell[k]
        if step_ascends(c, orientation, leaving) and not step_ascends(
            c, orientation, arriving
        ):
            if {abs(arriving) - 1, abs(leaving) - 1} == {e1, e2}:
                return True
    return False


# ---------------------------------------------------------------------------
# Homology via Smith normal form


class HomologyReport(NamedTuple):
    betti0: int
    betti1: int
    betti2: int
    torsion1: tuple
    euler: int


def boundary_matrices(c):
    """(d1, d2) with d1 mapping edges to vertices and d2 cells to edges."""
    V, E, F = c.vertex_count, len(c.edges), len(c.cells)
    d1 = [[0] * E for _ in range(V)]
    for e, (a, b) in enumerate(c.edges):
        d1[a][e] -= 1
        d1[b][e] += 1
    d2 = [[0] * F for _ in range(E)]
    for ci, cell in enumerate(c.cells):
        for s in cell:
            d2[abs(s) - 1][ci] += 1 if s > 0 else -1
    return d1, d2


def smith_normal_form_diagonal(matrix):
    """Nonzero diagonal of the Smith normal form of an integer matrix.

    Exact unbounded integers; repeatedly pivots on a minimum-magnitude entry,
    which keeps intermediate growth tame at this scale.  The returned list
    d satisfies d[i] > 0 and d[i] | d[i+1].
    """
    A = [row[:] for row in matrix]
    m = len(A)
    n = len(A[0]) if m else 0
    divisors = []
    s = 0
    while s < min(m, n):
        # locate a minimum-magnitude nonzero pivot in the trailing block
        best = None
        for i in range(s, m):
            row = A[i]
            for j in range(s, n):
                v = row[j]
                if v and (best is None or abs(v) < abs(best[2])):
                    best = (i, j, v)
        if best is None:
            break
        bi, bj, _ = best
        A[s], A[bi] = A[bi], A[s]
        if bj != s:
            for row in A:
                row[s], row[bj] = row[bj], row[s]

        pivot = A[s][s]
        dirty = False
        for i in range(s + 1, m):
            if A[i][s]:
                q = A[i][s] // pivot
                if q:
                    for j in range(s, n):
                        A[i][j] -= q * A[s][j]
                if A[i][s]:
                    dirty = True
        for j in range(s + 1, n):
            if A[s][j]:
                q = A[s][j] // pivot
                if q:
                    for i in range(s, m):
                        A[i][j] -= q * A[i][s]
                if A[s][j]:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility d[s] | everything below-right
        stuck = None
        for i in range(s + 1, m):
            for j in range(s + 1, n):
                if A[i][j] % pivot:
                    stuck = i
                    break
            if stuck is not None:
                break
        if stuck is not None:
            for j in range(s, n):
                A[s][j] += A[stuck][j]
            continue
        divisors.append(abs(pivot))
        s += 1
    return divisors


def homology(c):
    """Betti numbers and H1 torsion of a validated 2-complex."""
    d1, d2 = boundary_matrices(c)
    div1 = smith_normal_form_diagonal(d1)
    div2 = smith_normal_form_diagonal(d2)
    r1, r2 = len(div1), len(div2)
    V, E, F = c.vertex_count, len(c.edges), len(c.cells)
    report = HomologyReport(
        betti0=V - r1,
        betti1=(E - r1) - r2,
        betti2=F - r2,
        torsion1=tuple(d for d in div2 if d > 1),
        euler=V - E + F,
    )
    # The alternating sum holds for any two ranks; a rank too large for
    # its matrices shows as a negative Betti number.
    betti = report[:3]
    if min(betti) < 0 or betti[0] - betti[1] + betti[2] != report.euler:
        raise HomologyRankError(
            f"Betti numbers {betti} do not fit the Euler characteristic "
            f"{report.euler}"
        )
    return report


class CertifyResult(NamedTuple):
    verdict: str  # "certified" | "refuted" | "inconclusive"
    certificate: object  # MorseCertificate or None
    homology: HomologyReport
    detail: str


def certify_simply_connected(c, orientations=(), brute_force=False):
    """Three-valued simple-connectedness verdict.

    Refuted when H1 is nonzero (over Z); certified when some orientation
    carries a full Morse certificate; inconclusive otherwise.  With
    brute_force=True all 2^E orientations are tried (capped at 20 edges).
    """
    rep = homology(c)
    if rep.betti1 > 0 or rep.torsion1:
        return CertifyResult("refuted", None, rep, "H1 is nonzero")
    tried = [check_orientation(c, o) for o in orientations]
    if brute_force:
        E = len(c.edges)
        if E > 20:
            raise ValueError("brute-force orientation search capped at 20 edges")
        tried.extend(
            tuple((mask >> e) & 1 for e in range(E)) for mask in range(1 << E)
        )
    for o in tried:
        result = morse_certificate(c, o)
        if isinstance(result, MorseCertificate):
            return CertifyResult("certified", result, rep, "Morse certificate found")
    return CertifyResult(
        "inconclusive", None, rep, "H1 = 0 but no Morse certificate found"
    )


# ---------------------------------------------------------------------------
# Built-in fixtures


def outgoingpoly():
    """Octagon with eight outward spikes: 16 vertices, 24 edges, 9 cells.

    Simply connected (it is a disk with fins), yet every generic direction
    leaves some corner with two isolated outgoing spike edges.  Returns the
    complex and exact rational coordinates; corners sit near the unit circle
    and each apex at three times the sum of its two corners, so the apexes
    tower over every corner in every direction.
    """
    a = Fraction(12, 17)
    corners = [
        (Fraction(1), Fraction(0)),
        (a, a),
        (Fraction(0), Fraction(1)),
        (-a, a),
        (Fraction(-1), Fraction(0)),
        (-a, -a),
        (Fraction(0), Fraction(-1)),
        (a, -a),
    ]
    apexes = [
        (3 * (corners[i][0] + corners[(i + 1) % 8][0]),
         3 * (corners[i][1] + corners[(i + 1) % 8][1]))
        for i in range(8)
    ]
    edges = []
    side = {}
    for i in range(8):
        side[i] = len(edges)
        edges.append((i, (i + 1) % 8))
    spike_lo, spike_hi = {}, {}
    for i in range(8):
        spike_lo[i] = len(edges)
        edges.append((i, 8 + i))
        spike_hi[i] = len(edges)
        edges.append((8 + i, (i + 1) % 8))
    cells = [tuple(side[i] + 1 for i in range(8))]
    for i in range(8):
        cells.append((spike_lo[i] + 1, spike_hi[i] + 1, -(side[i] + 1)))
    c = Complex2(16, edges, cells)
    points = {v: pt for v, pt in enumerate(corners + apexes)}
    return c, points


FIXTURES = {"outgoingpoly": outgoingpoly}
