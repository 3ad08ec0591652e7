"""Independent brute-force oracles for the test suite.

Everything here recomputes expected values from first principles with
different algorithms and different data representations than the package:
subset enumeration instead of recursive decomposition, explicit binary
trees instead of nestings, a stack instead of windowed cancellation, and
rational Gaussian elimination instead of integer Smith normal form.  The
cell-corner scans, the pairwise piece scan and the certificate verifier at
the end are the engine's original quadratic ones, kept as the references
for its corner index, its one-sweep pieces and its vertex-prefix verifier;
the f-vector closed forms and the construct recurrence of the line graph
carry the checks past the sizes the brute-force enumeration reaches.  The
certificate replay and the face-rotation search are the generator's
original ones, the references for its local move inversion and for its
reading of face moves off the arcs; they share only the move types.  The
recursive expression unfolding is the engine's original one, the
reference for its one-pass iterative unfolding, and the piece-based face
classifier is its original one, the reference for reading a face's shape
off its boundary length.
"""

import functools
import itertools
import math
from fractions import Fraction


def adjacency(tree):
    adj = {v: set() for v in range(tree.p)}
    for v, cs in enumerate(tree.children):
        for c in cs:
            adj[v].add(c)
            adj[c].add(v)
    return adj


def is_connected_brute(adj, subset):
    subset = set(subset)
    if not subset:
        return False
    seen = {min(subset)}
    frontier = [min(subset)]
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w in subset and w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen == subset


def nests_brute(tree):
    adj = adjacency(tree)
    return [
        frozenset(s)
        for r in range(2, tree.p + 1)
        for s in itertools.combinations(range(tree.p), r)
        if is_connected_brute(adj, s)
    ]


def compatible(a, b):
    return a <= b or b <= a or not (a & b)


def nestings_brute(tree):
    """All pairwise-compatible nest families, grouped by size."""
    nests = nests_brute(tree)
    out = []

    def rec(start, chosen):
        out.append(frozenset(chosen))
        for i in range(start, len(nests)):
            n = nests[i]
            if all(compatible(n, c) for c in chosen):
                rec(i + 1, chosen + [n])

    rec(0, [])
    return out


def maximal_nestings_brute(tree):
    """Inclusion-maximal nestings, found by the no-nest-addable criterion."""
    nests = nests_brute(tree)
    result = []
    for family in nestings_brute(tree):
        extendable = any(
            n not in family and all(compatible(n, c) for c in family) for n in nests
        )
        if not extendable:
            result.append(family)
    if tree.p == 1:
        return [frozenset()]
    return result


def skeleton_counts_brute(tree):
    """(vertex count, edge count, {boundary length: face count}) by brute force."""
    p = tree.p
    maxn = maximal_nestings_brute(tree)
    edges = 0
    for a, b in itertools.combinations(maxn, 2):
        if len(a & b) == p - 2:
            edges += 1
    full = frozenset(range(p))
    lengths = {}
    if p >= 4:
        for family in nestings_brute(tree):
            if len(family) == p - 3 and full in family:
                above = sum(1 for m in maxn if family <= m)
                lengths[above] = lengths.get(above, 0) + 1
    return len(maxn), edges, lengths


# ---------------------------------------------------------------------------
# Binary trees and the rotation order (for the linear family)


def binary_trees(n):
    """All binary combination trees with n leaves, as nested pairs of leaf
    indices; a leaf is an int, an internal node a pair."""
    def rec(lo, hi):
        if hi - lo == 1:
            return [lo]
        out = []
        for mid in range(lo + 1, hi):
            for left in rec(lo, mid):
                for right in rec(mid, hi):
                    out.append((left, right))
        return out

    return rec(0, n)


def tree_intervals(t):
    """Leaf interval of every internal node, as a frozenset of frozensets."""
    out = []

    def rec(t):
        if isinstance(t, int):
            return (t, t)
        llo, lhi = rec(t[0])
        rlo, rhi = rec(t[1])
        out.append(frozenset(range(llo, rhi + 1)))
        return llo, rhi

    rec(t)
    return frozenset(out)


def rotations_forward(t):
    """All trees one ((A,B),C) -> (A,(B,C)) rotation ahead of t."""
    results = []
    if isinstance(t, int):
        return results
    left, right = t
    if isinstance(left, tuple):
        a, b = left
        results.append((a, (b, right)))
    for sub in rotations_forward(left):
        results.append((sub, right))
    for sub in rotations_forward(right):
        results.append((left, sub))
    return results


def tamari_digraph(n):
    """Directed rotation graph on interval sets for n leaves."""
    nodes = [tree_intervals(t) for t in binary_trees(n)]
    arcs = set()
    for t in binary_trees(n):
        src = tree_intervals(t)
        for u in rotations_forward(t):
            arcs.add((src, tree_intervals(u)))
    return set(nodes), arcs


def catalan(n):
    c = 1
    for i in range(n):
        c = c * 2 * (2 * i + 1) // (i + 2)
    return c


# ---------------------------------------------------------------------------
# Word reduction and linear algebra


def stack_reduce(steps):
    stack = []
    for s in steps:
        if stack and stack[-1] == -s:
            stack.pop()
        else:
            stack.append(s)
    return tuple(stack)


def rational_rank(matrix):
    rows = [[Fraction(x) for x in row] for row in matrix]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


# ---------------------------------------------------------------------------
# Closed-form f-vectors


def kirkman_cayley(m, j):
    """Dissections of a convex m-gon by j non-crossing diagonals."""
    if j < 0:
        return 0
    return math.comb(m - 3, j) * math.comb(m + j - 1, j) // (j + 1)


def linear_f_vector(p):
    """The linear tree on p >= 2 vertices gives the associahedron of the
    (p+1)-gon: its k-faces are the dissections with m - 3 - k diagonals."""
    m = p + 1
    return tuple(kirkman_cayley(m, m - 3 - k) for k in range(3))


def stirling2(n, k):
    """Stirling number of the second kind, by the row recurrence."""
    row = [1] + [0] * k
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def corolla_f_vector(k):
    """The corolla with k >= 2 children gives the permutohedron of order k:
    k! vertices, k!(k-1)/2 edges and (k-2)! S(k, k-2) 2-faces."""
    f = math.factorial(k)
    return f, f * (k - 1) // 2, math.factorial(k - 2) * stirling2(k, k - 2)


def construct_f_vector(tree):
    """(V, E, F) of the operahedron of ``tree`` by the construct recurrence
    of its line graph, with no nestings and no flips.

    The operahedron is the graph associahedron of the line graph of the
    tree, whose vertices are the tree's edges.  Choosing a nonempty root
    set X of edges leaves the components of the tree minus X; the faces
    then multiply: F_T(x) = sum over X of x^(|X|-1) * prod F_K(x), over the
    components K that keep an edge.  The coefficient of x^k counts k-faces.
    """
    edges = frozenset(
        (v, c) for v, cs in enumerate(tree.children) for c in cs
    )
    return (_construct(edges) + (0, 0, 0))[:3]


def _edge_components(edges):
    """The edge sets of the connected components of a set of tree edges."""
    comps = []
    for e in edges:
        touching = [k for k in comps if any(set(e) & set(f) for f in k)]
        merged = {e}.union(*touching)
        comps = [k for k in comps if k not in touching] + [merged]
    return [frozenset(k) for k in comps]


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@functools.lru_cache(maxsize=None)
def _construct(edges):
    """Face polynomial coefficients of a tree given by its edge set."""
    if not edges:
        return (1,)
    total = [0] * len(edges)
    for r in range(1, len(edges) + 1):
        for roots in itertools.combinations(sorted(edges), r):
            term = [0] * (r - 1) + [1]
            for comp in _edge_components(edges - set(roots)):
                term = _poly_mul(term, _construct(comp))
            for k, c in enumerate(term):
                total[k] += c
    return tuple(total)


# ---------------------------------------------------------------------------
# Cell corners and Morse data by exhaustive scans


def _ascends(orientation, s):
    return (s > 0) == (orientation[abs(s) - 1] == 0)


def _tail(c, s):
    a, b = c.edges[abs(s) - 1]
    return a if s > 0 else b


def cell_sources_sinks_brute(c, orientation, cell):
    """Local sources and sinks of a boundary walk, in walk order."""
    sources, sinks = [], []
    for k in range(len(cell)):
        arr_asc = _ascends(orientation, cell[k - 1])
        leave_asc = _ascends(orientation, cell[k])
        if not arr_asc and leave_asc:
            sources.append(_tail(c, cell[k]))
        elif arr_asc and not leave_asc:
            sinks.append(_tail(c, cell[k]))
    return sources, sinks


def outgoing_link_brute(c, orientation, x):
    """(nodes, links) at x by scanning every edge and every cell corner:
    nodes are the edges leaving x, links the (arriving edge, leaving edge,
    cell) triples of the corners where a cell has its source at x."""
    nodes = tuple(
        e for e, (a, b) in enumerate(c.edges) if (a if orientation[e] == 0 else b) == x
    )
    links = []
    for ci, cell in enumerate(c.cells):
        for k in range(len(cell)):
            if _tail(c, cell[k]) != x:
                continue
            arriving, leaving = cell[k - 1], cell[k]
            if not _ascends(orientation, arriving) and _ascends(orientation, leaving):
                links.append((abs(arriving) - 1, abs(leaving) - 1, ci))
    return nodes, tuple(links)


def morse_brute(c, orientation):
    """Reference for ``morse_certificate``, as a plain tuple.

    The same checks in the same order and the same canonical witnesses: the
    least topological order, a cycle followed from the least vertex left
    over, link components, and breadth-first spanning trees from the least
    outgoing edge taking neighbours in sorted order.
    """
    V = c.vertex_count
    succ = [[] for _ in range(V)]
    for e, (a, b) in enumerate(c.edges):
        src, dst = (a, b) if orientation[e] == 0 else (b, a)
        succ[src].append(dst)
    preds = [0] * V
    for targets in succ:
        for w in targets:
            preds[w] += 1
    placed, order = set(), []
    while True:
        ready = next((v for v in range(V) if v not in placed and not preds[v]), None)
        if ready is None:
            break
        placed.add(ready)
        order.append(ready)
        for w in succ[ready]:
            preds[w] -= 1
    if len(order) != V:
        left = [v for v in range(V) if v not in placed]
        reach = {}
        for v in left:
            seen, stack = set(), [v]
            while stack:
                for w in succ[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            reach[v] = seen
        # the walk starts at the least vertex from which a cycle is reachable
        # and keeps to the first successor from which one still is
        cyclic = {v for v in left if v in reach[v]}
        leads = {v for v in left if v in cyclic or reach[v] & cyclic}
        path, seen, v = [], {}, min(leads)
        while v not in seen:
            seen[v] = len(path)
            path.append(v)
            v = next(w for w in succ[v] if w in leads)
        return ("cycle", path[seen[v]:])

    witnesses = []
    for x in range(V):
        nodes, links = outgoing_link_brute(c, orientation, x)
        near = {e: sorted(
            [(b, t) for a, b, ci in links for t in [(a, b, ci)] if a == e]
            + [(a, t) for a, b, ci in links for t in [(a, b, ci)] if b == e]
        ) for e in nodes}
        tree, seen, queue = [], set(nodes[:1]), list(nodes[:1])
        for v in queue:
            for w, t in near[v]:
                if w not in seen:
                    seen.add(w)
                    tree.append(t)
                    queue.append(w)
        if len(seen) != len(nodes):
            comps, done = [], set()
            for e in nodes:
                if e in done:
                    continue
                comp, stack = {e}, [e]
                while stack:
                    for w, _ in near[stack.pop()]:
                        if w not in comp:
                            comp.add(w)
                            stack.append(w)
                done |= comp
                comps.append(tuple(sorted(comp)))
            return ("disconnected_link", {"vertex": x, "components": sorted(comps)})
        witnesses.append(tuple(tree))

    sinks = [v for v in range(V) if not succ[v]]
    if len(sinks) != 1:
        return ("sink_not_unique", sinks)

    faces = []
    for ci, cell in enumerate(c.cells):
        sources, snks = cell_sources_sinks_brute(c, orientation, cell)
        if len(sources) != 1 or len(snks) != 1:
            return ("face_not_two_arcs", {"cell": ci, "sources": sources, "sinks": snks})
        faces.append((sources[0], snks[0]))
    return (tuple(order), sinks[0], tuple(faces), tuple(witnesses))


# ---------------------------------------------------------------------------
# Pieces and certificate replay by their quadratic definitions


def pieces_pairwise(nesting, nest):
    """Immediate pieces of ``nest`` by definition: the members properly
    inside it that lie in no other such member, found by comparing every
    pair, plus the vertices they leave uncovered as singletons; ordered by
    least vertex."""
    inside = [m for m in nesting if m < nest]
    maximal = [m for m in inside if not any(m < other for other in inside)]
    covered = set().union(*maximal)
    return sorted(maximal + [frozenset([v]) for v in nest - covered], key=min)


# ---------------------------------------------------------------------------
# 2-face shapes by piece decomposition


def _holder(tree, parts, piece):
    """The piece holding the parent of a non-top piece's top vertex."""
    pv = tree.parent[min(piece)]
    return next(q for q in parts if pv in q)


def _quotient_template(tree, parts):
    """Which of the five 4-vertex planar tree shapes four pieces form."""
    top = parts[0]
    kids = {id(q): [] for q in parts}
    for q in parts[1:]:
        kids[id(_holder(tree, parts, q))].append(q)
    for lst in kids.values():
        lst.sort(key=min)

    top_kids = kids[id(top)]
    if len(top_kids) == 3:
        return "hexagon.2"
    if len(top_kids) == 1:
        mid = top_kids[0]
        mid_kids = kids[id(mid)]
        if len(mid_kids) == 2:
            return "hexagon.1"
        if len(mid_kids) != 1:
            raise ValueError("four pieces do not form a 4-vertex quotient tree")
        return "pentagon.1"
    if len(top_kids) != 2:
        raise ValueError("four pieces do not form a 4-vertex quotient tree")
    left, right = top_kids
    if kids[id(left)]:
        return "pentagon.2"
    if not kids[id(right)]:
        raise ValueError("four pieces do not form a 4-vertex quotient tree")
    return "pentagon.3"


def face_shape(tree, face_nesting):
    """(shape, template) of a 2-face nesting, from its piece decomposition.

    A 2-face concentrates its excess in either one nest with four pieces
    (one of the five 4-vertex configurations: the first three are pentagons,
    the last two hexagons) or two nests with three pieces each (a square
    witnessing two commuting moves, with nested or disjoint supports).
    """
    ternary = []
    quaternary = []
    for nest in face_nesting:
        parts = pieces_pairwise(face_nesting, nest)
        if len(parts) == 3:
            ternary.append(nest)
        elif len(parts) == 4:
            quaternary.append((nest, parts))
        elif len(parts) != 2:
            raise ValueError(f"nest with {len(parts)} pieces in a 2-face")
    if len(quaternary) == 1 and not ternary:
        template = _quotient_template(tree, quaternary[0][1])
        return template.split(".")[0], template
    if len(ternary) == 2 and not quaternary:
        n1, n2 = ternary
        sub = "nested" if (n1 < n2 or n2 < n1) else "disjoint"
        return "square", f"square.{sub}"
    raise ValueError("face excess is not one quaternary or two ternary nests")


def verify_certificate_quadratic(c, cert):
    """The certificate verifier that recomputes the vertex at a position by
    walking the current word from the start for every move; returns
    (ok, reject_index, reason).  Moves are told apart by type name."""

    def vertex_at(word, start, k):
        at = start
        for s in word[:k]:
            tail, head = c.step_ends(s)
            if tail != at:
                return None
            at = head
        return at

    source, target, moves = cert.source, cert.target, cert.moves
    if source.start != target.start:
        return (False, -1, "source and target start at different vertices")
    if vertex_at(source.steps, source.start, len(source.steps)) is None:
        return (False, -1, "source path does not chain")
    if vertex_at(target.steps, target.start, len(target.steps)) is None:
        return (False, -1, "target path does not chain")

    word = list(source.steps)
    for idx, m in enumerate(moves):
        kind = type(m).__name__
        if kind == "BacktrackInsert":
            if not 0 <= m.position <= len(word):
                return (False, idx, "insert position out of range")
            if m.step == 0 or abs(m.step) - 1 >= len(c.edges):
                return (False, idx, "insert references a bad edge")
            at = vertex_at(word, source.start, m.position)
            if at is None or c.step_ends(m.step)[0] != at:
                return (False, idx, "inserted backtrack does not chain")
            word[m.position : m.position] = [m.step, -m.step]
        elif kind == "BacktrackDelete":
            if not 0 <= m.position <= len(word) - 2:
                return (False, idx, "delete position out of range")
            if word[m.position + 1] != -word[m.position]:
                return (False, idx, "deleted pair is not a backtrack")
            del word[m.position : m.position + 2]
        elif kind == "FaceSubstitute":
            if not 0 <= m.cell < len(c.cells):
                return (False, idx, "face move references a bad cell")
            boundary = c.cells[m.cell]
            n = len(boundary)
            if not (0 <= m.matched <= n and 0 <= m.offset < n):
                return (False, idx, "face move parameters out of range")
            if not 0 <= m.position <= len(word) - m.matched:
                return (False, idx, "face position out of range")
            if m.reverse:
                boundary = tuple(-s for s in reversed(boundary))
            loop = boundary[m.offset :] + boundary[: m.offset]
            if tuple(word[m.position : m.position + m.matched]) != loop[: m.matched]:
                return (False, idx, "matched subword differs from the cell")
            at = vertex_at(word, source.start, m.position)
            if at is None or c.step_ends(loop[0])[0] != at:
                return (False, idx, "face move anchored at the wrong vertex")
            word[m.position : m.position + m.matched] = [
                -s for s in reversed(loop[m.matched :])
            ]
        else:
            return (False, idx, f"unknown move {m!r}")

    if tuple(word) != target.steps:
        return (False, len(moves), "replay does not end at the target word")
    return (True, -1, "")


# ---------------------------------------------------------------------------
# Certificate replay and the face-rotation search: the generator's original
# way of inverting its moves and of encoding a face move


def rotated_boundary(c, cell_id, offset, reverse):
    """The cell boundary as a closed word, optionally reversed, rotated to
    start at the given offset."""
    walk = c.cells[cell_id]
    if reverse:
        walk = tuple(-s for s in reversed(walk))
    return walk[offset:] + walk[:offset]


def _inverse_word(word):
    return tuple(-s for s in reversed(word))


def face_move(c, ci, matched_word, replacement, position):
    """The FaceSubstitute realising matched -> replacement across cell ci,
    found by trying every rotation of the boundary and of its reversed
    inverse; raises ValueError when matched . replacement^-1 is neither."""
    from operahedra.homotopy import FaceSubstitute

    loop = tuple(matched_word) + _inverse_word(replacement)
    n = len(c.cells[ci])
    for reverse in (False, True):
        for offset in range(n):
            if rotated_boundary(c, ci, offset, reverse) == loop:
                return FaceSubstitute(position, ci, len(matched_word), offset, reverse)
    raise ValueError("matched/replacement pair is not a boundary rotation")


def apply_move(c, word, m):
    """Apply one move to a step list in place, unchecked, and return the
    move that undoes it."""
    from operahedra.homotopy import BacktrackDelete, BacktrackInsert, FaceSubstitute

    if isinstance(m, BacktrackInsert):
        word[m.position : m.position] = [m.step, -m.step]
        return BacktrackDelete(m.position)
    if isinstance(m, BacktrackDelete):
        undo = BacktrackInsert(m.position, word[m.position])
        del word[m.position : m.position + 2]
        return undo
    w = rotated_boundary(c, m.cell, m.offset, m.reverse)
    word[m.position : m.position + m.matched] = _inverse_word(w[m.matched :])
    n = len(w)
    return FaceSubstitute(
        m.position, m.cell, n - m.matched, (n - m.offset) % n, not m.reverse
    )


def apply_moves(c, path, moves):
    """Replay moves over a word without validating them."""
    word = list(path.steps)
    for m in moves:
        apply_move(c, word, m)
    return type(path)(path.start, tuple(word))


def invert_moves(c, path, moves):
    """The reversed move list undoing `moves`, computed by forward replay."""
    word = list(path.steps)
    inverted = [apply_move(c, word, m) for m in moves]
    inverted.reverse()
    return inverted


# ---------------------------------------------------------------------------
# Expression unfolding by recursion, re-walking the left leaves per graft


def expression_to_nesting_recursive(expr):
    """(children, leaf_slots, labels, nesting) of an expression, unfolded
    recursively: each composition walks the left subtree's leaves to find
    its slot.  Compositions are told from generators by their ``left``."""
    nodes = []  # mutable records: [label, arity, children list, slots list]
    nests_occ = []

    def walk_leaves(v):
        # planar sequence of open inputs of the subtree at v; all are leaves
        _, _, cs, ls = nodes[v]
        for seg in range(len(cs) + 1):
            for j in range(ls[seg]):
                yield v, seg, j
            if seg < len(cs):
                yield from walk_leaves(cs[seg])

    def locate_leaf(root, slot):
        for count, entry in enumerate(walk_leaves(root), start=1):
            if count == slot:
                return entry
        raise AssertionError("slot within arity but not found")

    def build(e):
        if not hasattr(e, "left"):
            nid = len(nodes)
            nodes.append([e.name, e.arity, [], [e.arity]])
            return nid, frozenset([nid])
        lroot, locc = build(e.left)
        rroot, rocc = build(e.right)
        u, seg, offset = locate_leaf(lroot, e.slot)
        rec = nodes[u]
        count = rec[3][seg]
        rec[2].insert(seg, rroot)
        rec[3][seg : seg + 1] = [offset, count - offset - 1]
        occ = locc | rocc
        nests_occ.append(occ)
        return lroot, occ

    root, _ = build(expr)

    order = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(reversed(nodes[v][2]))
    idmap = {nid: i for i, nid in enumerate(order)}
    children = tuple(tuple(idmap[c] for c in nodes[nid][2]) for nid in order)
    leaf_slots = tuple(tuple(nodes[nid][3]) for nid in order)
    labels = tuple(nodes[nid][0] for nid in order)
    nesting = frozenset(frozenset(idmap[v] for v in occ) for occ in nests_occ)
    return children, leaf_slots, labels, nesting
