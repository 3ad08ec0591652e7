"""Planar rooted trees, nests, nestings, and the operadic expression syntax.

A planar tree is a rooted tree with an ordered tuple of children per vertex
and explicit leaf slots interleaved with the children; leaves are stored as
counts per gap, never as vertices.  A nest is a connected set of at least two
vertices; a nesting is a family of nests that are pairwise nested or
disjoint.  Maximal nestings are the fully parenthesised composites of the
expression language, and the two views are interconvertible.

Vertex ids are always 0..p-1 in pre-order with the root at 0, so the minimum
id of a connected set is the vertex of that set closest to the root, and
comparing minimum ids of disjoint hanging subtrees compares their planar
(left-to-right) positions.

A nest is an ``int`` bitmask over the vertices, bit v standing for vertex v,
and a nesting is a frozenset of such masks.  The least vertex of a nest is
its lowest set bit, containment and disjointness are ``&`` tests, and a
mask is numerically larger than each of its proper subsets.  Vertex-id
sets appear only at the boundary: ``nest_mask`` and ``nest_vertices``
convert, and ``nesting_to_json`` prints.
"""

import re

from .errors import ArityError, EngineError, NotMaximalError, ParseError

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"[0-9]+")


class PlanarTree:
    """Immutable planar rooted tree with labelled vertices and leaf slots.

    ``children[v]`` is the ordered tuple of child ids of ``v`` and
    ``leaf_slots[v]`` has ``len(children[v]) + 1`` entries: the number of
    leaves before the first child, between consecutive children, and after
    the last child.  ``arity(v) = len(children[v]) + sum(leaf_slots[v])``
    and must be at least 1 (non-unital setting).
    """

    __slots__ = ("children", "leaf_slots", "labels", "parent", "_hash")

    def __init__(self, children, leaf_slots=None, labels=None):
        children = tuple(tuple(int(c) for c in cs) for cs in children)
        p = len(children)
        if p < 1:
            raise ValueError("a planar tree needs at least one vertex")
        if leaf_slots is None:
            leaf_slots = tuple(
                (1,) if not cs else (0,) * (len(cs) + 1) for cs in children
            )
        else:
            leaf_slots = tuple(tuple(int(x) for x in ls) for ls in leaf_slots)
        if labels is None:
            labels = (None,) * p
        else:
            labels = tuple(labels)
        if len(leaf_slots) != p or len(labels) != p:
            raise ValueError("children, leaf_slots and labels must have equal length")

        parent = [None] * p
        for v, cs in enumerate(children):
            if len(leaf_slots[v]) != len(cs) + 1:
                raise ValueError(f"vertex {v}: leaf_slots must have {len(cs)+1} entries")
            if any(x < 0 for x in leaf_slots[v]):
                raise ValueError(f"vertex {v}: negative leaf count")
            if len(cs) + sum(leaf_slots[v]) < 1:
                raise ValueError(f"vertex {v}: arity must be at least 1")
            for c in cs:
                if not 0 <= c < p:
                    raise ValueError(f"vertex {v}: child {c} out of range")
                if c == 0 or parent[c] is not None:
                    raise ValueError(f"vertex {c} has more than one parent (or is root)")
                parent[c] = v

        order = []
        stack = [0]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(reversed(children[v]))
        if order != list(range(p)):
            raise ValueError("vertex ids must be 0..p-1 in pre-order with root 0")

        self._set(children, leaf_slots, labels, tuple(parent))

    def _set(self, children, leaf_slots, labels, parent):
        self.children = children
        self.leaf_slots = leaf_slots
        self.labels = labels
        self.parent = parent
        self._hash = hash((children, leaf_slots, labels))

    @classmethod
    def _trusted(cls, children, leaf_slots, labels, parent):
        """A tree from fields already in normal form (tuples of ints, ids in
        pre-order, parent[0] None), for builders valid by construction;
        nothing is re-checked."""
        tree = cls.__new__(cls)
        tree._set(children, leaf_slots, labels, parent)
        return tree

    @property
    def p(self):
        return len(self.children)

    def arity(self, v):
        return len(self.children[v]) + sum(self.leaf_slots[v])

    def label(self, v):
        return self.labels[v]

    def is_connected(self, nest):
        """Whether the vertex mask ``nest`` is nonempty and connected: every
        vertex but its least has its parent in it."""
        if not nest:
            return False
        return all(nest >> self.parent[v] & 1 for v in nest_vertices(nest & (nest - 1)))

    def attachment_slot(self, nest, child_root):
        """1-based planar input position of ``child_root``'s parent edge among
        the open inputs of the connected vertex mask ``nest``.

        The inputs are the leaves of the nest's vertices and the edges to
        children outside it, read left to right over an explicit stack."""
        position = 0
        stack = [(False, top_vertex(nest))]
        while stack:
            is_leaves, x = stack.pop()
            if is_leaves:
                position += x
            elif nest >> x & 1:
                slots = self.leaf_slots[x]
                items = [(True, slots[0])]
                for c, leaves in zip(self.children[x], slots[1:]):
                    items += [(False, c), (True, leaves)]
                stack += reversed(items)
            elif x == child_root:
                return position + 1
            else:
                position += 1
        raise ValueError(f"vertex {child_root} does not hang off the given set")

    def __eq__(self, other):
        return (
            isinstance(other, PlanarTree)
            and self.children == other.children
            and self.leaf_slots == other.leaf_slots
            and self.labels == other.labels
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"PlanarTree(children={self.children!r}, leaf_slots={self.leaf_slots!r})"

    def shape_string(self):
        """Balanced-parenthesis encoding of the child structure, for reports."""

        def enc(v):
            return "(" + "".join(enc(c) for c in self.children[v]) + ")"

        return enc(0)

    @classmethod
    def linear(cls, p, labels=None):
        """Chain of p vertices: each has one child except the topmost."""
        if p < 1:
            raise ValueError("p must be >= 1")
        children = [(v + 1,) for v in range(p - 1)] + [()]
        return cls(children, None, labels)

    @classmethod
    def corolla(cls, num_children, labels=None):
        """Root with num_children childless children (a two-level tree)."""
        if num_children < 1:
            raise ValueError("need at least one child")
        children = [tuple(range(1, num_children + 1))] + [()] * num_children
        return cls(children, None, labels)

    def to_json(self):
        return {
            "schema": "v1",
            "vertices": [
                {
                    "id": v,
                    "label": self.labels[v],
                    "children": list(self.children[v]),
                    "leafSlots": list(self.leaf_slots[v]),
                }
                for v in range(self.p)
            ],
        }

    @classmethod
    def from_json(cls, data):
        try:
            records = sorted(data["vertices"], key=lambda r: r["id"])
        except (TypeError, KeyError) as exc:
            raise ParseError(f"bad tree document: {exc}") from exc
        if [r["id"] for r in records] != list(range(len(records))):
            raise ParseError("vertex ids must be 0..p-1")
        children = [r["children"] for r in records]
        slots = [r.get("leafSlots") for r in records]
        if any(s is None for s in slots):
            slots = None
        labels = [r.get("label") for r in records]
        try:
            return cls(children, slots, labels)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc


def enumerate_ordered_trees(p):
    """All planar rooted trees with p vertices, minimal leaf decoration.

    Leaf placements never change nests or their planar comparisons, so one
    canonical decoration per child-order shape covers every slot assignment.
    There are Catalan(p-1) shapes.
    """

    def forests(m):
        if m == 0:
            return [()]
        out = []
        for k in range(1, m + 1):
            for head in shapes(k):
                for tail in forests(m - k):
                    out.append((head,) + tail)
        return out

    def shapes(n):
        return forests(n - 1)

    result = []
    for shape in shapes(p):
        children = []

        def build(sub):
            my_id = len(children)
            children.append(None)
            kids = []
            for s in sub:
                kids.append(build(s))
            children[my_id] = tuple(kids)
            return my_id

        build(shape)
        result.append(PlanarTree(children))
    return result


# ---------------------------------------------------------------------------
# Nests and nestings


def nest_mask(vertices, p):
    """The bitmask of a set of vertex ids of a tree with p vertices: bit v
    is vertex v.  Each id is checked against 0..p-1 before it becomes a
    shift; an id outside gives 0, which is no nest."""
    mask = 0
    for v in vertices:
        if not 0 <= v < p:
            return 0
        mask |= 1 << v
    return mask


def nest_vertices(mask):
    """The vertex ids of a nest mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def top_vertex(mask):
    """The least vertex of a nonempty mask: its top, ids being in pre-order."""
    return (mask & -mask).bit_length() - 1


def full_nest(tree):
    return (1 << tree.p) - 1


def nest_is_valid(tree, nest):
    return 0 <= nest < 1 << tree.p and nest.bit_count() >= 2 and tree.is_connected(nest)


def nests_compatible(a, b):
    return a & b in (0, a, b)


def nesting_is_valid(tree, nesting):
    nests = list(nesting)
    if not all(nest_is_valid(tree, n) for n in nests):
        return False
    for i, a in enumerate(nests):
        for b in nests[i + 1 :]:
            if not nests_compatible(a, b):
                return False
    return True


def pieces(nesting, nest):
    """Immediate pieces of ``nest`` relative to a family of nests.

    The pieces are the maximal members of the family properly contained in
    ``nest``, together with single-vertex masks for the vertices of
    ``nest`` covered by none of them.  They partition ``nest``; ordered by
    least vertex.

    The family must be laminar (pairwise nested or disjoint), as every
    nesting is.  Then a contained member is maximal exactly when it misses
    every larger one, and a mask is numerically larger than each of its
    proper subsets, so one sweep by decreasing mask keeps each member that
    misses all those kept before it.
    """
    parts = []
    covered = 0
    for m in sorted((m for m in nesting if m != nest and m & nest == m), reverse=True):
        if not covered & m:
            parts.append(m)
            covered |= m
    rest = nest & ~covered
    while rest:
        low = rest & -rest
        parts.append(low)
        rest ^= low
    parts.sort(key=lambda m: m & -m)
    return parts


def validate_maximal_nesting(tree, nesting):
    """Raise NotMaximalError unless ``nesting`` is a maximal nesting of ``tree``."""
    p = tree.p
    nesting = frozenset(nesting)
    if p == 1:
        if nesting:
            raise NotMaximalError("a one-vertex tree has only the empty nesting")
        return nesting
    if not nesting_is_valid(tree, nesting):
        raise NotMaximalError("not a valid nesting (connectivity or compatibility)")
    if len(nesting) != p - 1:
        raise NotMaximalError(f"expected {p - 1} nests, found {len(nesting)}")
    if full_nest(tree) not in nesting:
        raise NotMaximalError("the full nest is missing")
    for nest in nesting:
        parts = pieces(nesting, nest)
        if len(parts) != 2:
            raise NotMaximalError(
                f"nest {nest_vertices(nest)} has {len(parts)} immediate pieces, expected 2"
            )
    return nesting


def is_maximal_nesting(tree, nesting):
    try:
        validate_maximal_nesting(tree, nesting)
    except NotMaximalError:
        return False
    return True


def connected_subsets(tree, allowed):
    """All nonempty connected subsets of the mask ``allowed``, as masks
    sorted by (size, members)."""
    neighbours = [0] * tree.p
    for v in range(1, tree.p):
        neighbours[v] |= 1 << tree.parent[v]
        neighbours[tree.parent[v]] |= 1 << v
    found = set()
    stack = [1 << v for v in nest_vertices(allowed)]
    while stack:
        cur = stack.pop()
        if cur in found:
            continue
        found.add(cur)
        boundary = 0
        for v in nest_vertices(cur):
            boundary |= neighbours[v]
        boundary &= allowed & ~cur
        while boundary:
            low = boundary & -boundary
            stack.append(cur | low)
            boundary ^= low
    return sorted(found, key=nest_key)


def enumerate_nests(tree):
    """All nests of the tree as masks, sorted by size then members."""
    return [s for s in connected_subsets(tree, full_nest(tree)) if s & (s - 1)]


def nest_key(nest):
    """(size, members) of a nest: the order nests sort by."""
    members = nest_vertices(nest)
    return (len(members), *members)


def nest_ranks(nestings):
    """Each distinct nest of ``nestings`` mapped to its rank by nest_key."""
    nests = sorted(set().union(*nestings), key=nest_key)
    return {n: r for r, n in enumerate(nests)}


def sort_nestings(nestings):
    """``nestings`` sorted by the sorted tuple of their nests' keys.  Each
    distinct nest's key is computed once and replaced by its rank, which
    orders nestings alike."""
    rank = nest_ranks(nestings).__getitem__
    return sorted(nestings, key=lambda m: sorted(map(rank, m)))


# The fewest maximal nestings of a tree with p vertices are the linear
# tree's, Catalan(p - 1), already about 1.8e9 at 20 vertices: no larger
# operahedron can be built, and a larger tree is refused before enumerating.
MAX_VERTICES = 20


def enumerate_maximal_nestings(tree):
    """All maximal nestings, in the order of sort_nestings; raises
    EngineError for a tree with more than MAX_VERTICES vertices.

    Recursive binary decomposition: a connected set S with more than one
    vertex splits as (S - Q, Q) where Q is the part of S at and below one of
    its vertices other than its top.  Those are exactly the splits into two
    connected sides, since a side without the top hangs from the rest by one
    edge.  Each split contributes the nest S and the maximal nestings of both
    sides.
    """
    if tree.p > MAX_VERTICES:
        raise EngineError(
            f"a tree with {tree.p} vertices is too large: an operahedron can be "
            f"built for at most {MAX_VERTICES}"
        )
    below = [1 << v for v in range(tree.p)]  # each vertex's subtree
    for v in range(tree.p - 1, 0, -1):
        below[tree.parent[v]] |= below[v]
    memo = {}

    def rec(S):
        found = memo.get(S)
        if found is not None:
            return found
        out = []
        if S & (S - 1):
            rest = S & (S - 1)  # S without its top
            while rest:
                low = rest & -rest
                rest ^= low
                Q = S & below[low.bit_length() - 1]
                rights = rec(Q)
                for left in rec(S ^ Q):
                    for right in rights:
                        out.append(left.union(right, (S,)))
        else:
            out.append(frozenset())
        memo[S] = out
        return out

    return sort_nestings(rec(full_nest(tree)))


def nesting_to_json(nesting):
    return sorted(map(nest_vertices, nesting), key=lambda ids: (len(ids), ids))


# ---------------------------------------------------------------------------
# Operadic expressions


class Expression:
    """Base class for the binary syntax trees of operadic composites.

    Equality, hashing and text walk the tree with an explicit stack or are
    cached at construction, so expressions of any depth compare, hash and
    print.  ``_unfolded`` keeps the (tree, nesting) of the first
    ``expression_to_nesting`` call; both are immutable."""

    __slots__ = ("_hash", "_unfolded")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if type(a) is not type(b) or a._hash != b._hash:
                return False
            if isinstance(a, Generator):
                if a.name != b.name or a.arity != b.arity:
                    return False
            elif a.slot != b.slot:
                return False
            else:
                pairs += ((a.right, b.right), (a.left, b.left))
        return True

    def __str__(self):
        out = []
        stack = [self]
        while stack:
            e = stack.pop()
            if type(e) is str:
                out.append(e)
            elif isinstance(e, Generator):
                out.append(f"{e.name}:{e.arity}")
            else:
                stack += (")", e.right, f" o{e.slot} ", e.left, "(")
        return "".join(out)


class Generator(Expression):
    """A generator occurrence with a declared arity."""

    __slots__ = ("name", "arity")

    def __init__(self, name, arity):
        if arity < 1:
            raise ArityError(f"generator {name!r} must have arity >= 1, got {arity}")
        self.name = name
        self.arity = arity
        self._hash = hash(("gen", name, arity))
        self._unfolded = None

    def __repr__(self):
        return f"Generator({self.name!r}, {self.arity})"


class Composition(Expression):
    """``left`` composed with ``right`` grafted into input slot ``slot``."""

    __slots__ = ("left", "right", "slot", "arity")

    def __init__(self, left, right, slot):
        if not 1 <= slot <= left.arity:
            raise ArityError(
                f"slot {slot} out of range 1..{left.arity} for {left}"
            )
        self.left = left
        self.right = right
        self.slot = slot
        self.arity = left.arity + right.arity - 1
        self._hash = hash(("comp", left._hash, right._hash, slot))
        self._unfolded = None

    def __repr__(self):
        return f"Composition({self.left!r}, {self.right!r}, {self.slot})"


def parse_expression(text):
    """Parse ``expr := name ":" arity | "(" expr "o" slot expr ")"``.

    Whitespace-insensitive.  Raises ParseError on malformed text and
    ArityError when a slot falls outside 1..arity(left).  Open compositions
    wait on an explicit stack, so any depth parses.
    """
    pos = 0
    n = len(text)

    def skip():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def fail(msg):
        raise ParseError(f"column {pos}: {msg}")

    def read_int():
        nonlocal pos
        m = _INT_RE.match(text, pos)
        if not m:
            fail("expected an integer")
        pos = m.end()
        return int(m.group())

    # one entry per open "(": None until its left operand is read, then
    # (left, slot) while its right operand is read
    pending = []
    while True:
        skip()
        if pos >= n:
            fail("unexpected end of input")
        if text[pos] == "(":
            pos += 1
            pending.append(None)
            continue
        m = _NAME_RE.match(text, pos)
        if not m:
            fail("expected a generator name")
        pos = m.end()
        skip()
        if pos >= n or text[pos] != ":":
            fail("expected ':' after generator name")
        pos += 1
        skip()
        done = Generator(m.group(), read_int())
        while pending and pending[-1] is not None:
            left, slot = pending.pop()
            skip()
            if pos >= n or text[pos] != ")":
                fail("expected ')'")
            pos += 1
            done = Composition(left, done, slot)
        if not pending:
            break
        skip()
        if pos >= n or text[pos] != "o":
            fail("expected composition operator 'o<slot>'")
        pos += 1
        pending[-1] = (done, read_int())

    skip()
    if pos != n:
        fail("trailing input after expression")
    return done


def expression_to_nesting(expr):
    """Unfold an expression into its planar tree and maximal nesting.

    Each generator occurrence becomes a vertex; each composition node grafts
    the right tree into the chosen input slot of the left tree and records
    one nest: the set of generator occurrences it combines.

    One post-order pass over an explicit stack, so any depth unfolds.
    Occurrences are numbered left to right, so a nest is a range of them
    and the root is occurrence 0.  A finished subexpression is kept as its
    root, its first occurrence and its open inputs, as runs (occurrence,
    first input, end input) in planar order.  A composition finds its slot
    by scanning runs from the nearer end and splices the right runs in
    place of that one input; no subtree is walked again.  The tree is valid
    by construction, so it is built without the constructor's checks, and
    the result is kept on ``expr`` for later calls.
    """
    if expr._unfolded is not None:
        return expr._unfolded
    labels, arities = [], []
    grafts = []  # (occurrence, input, occurrence grafted there)
    ranges = []  # (first, end) occurrences of each composition
    done = []  # (root, first occurrence, runs) of finished subexpressions
    stack = [expr]  # expressions, and (slot, left arity) for a pending graft
    while stack:
        e = stack.pop()
        if type(e) is tuple:
            root, _, right = done.pop()
            _, first, runs = done[-1]
            k, i = _locate_input(runs, *e)
            g, lo, hi = runs[k]
            grafts.append((g, i, root))
            runs[k : k + 1] = (
                ([(g, lo, i)] if lo < i else [])
                + right
                + ([(g, i + 1, hi)] if i + 1 < hi else [])
            )
            ranges.append((first, len(labels)))
        elif isinstance(e, Generator):
            g = len(labels)
            labels.append(e.name)
            arities.append(e.arity)
            done.append((g, g, [(g, 0, e.arity)]))
        else:
            stack += ((e.slot, e.left.arity), e.right, e.left)

    kids = [[] for _ in labels]
    for g, i, child in grafts:
        kids[g].append((i, child))
    order = []
    stack = [0]
    while stack:
        g = stack.pop()
        order.append(g)
        kids[g].sort()
        stack.extend(child for _, child in reversed(kids[g]))
    idmap = [0] * len(order)
    for v, g in enumerate(order):
        idmap[g] = v
    parent = [None] * len(order)
    for g, _, child in grafts:
        parent[idmap[child]] = idmap[g]

    children, leaf_slots = [], []
    for g in order:
        slots, prev = [], 0
        for i, _ in kids[g]:
            slots.append(i - prev)
            prev = i + 1
        slots.append(arities[g] - prev)
        children.append(tuple(idmap[child] for _, child in kids[g]))
        leaf_slots.append(tuple(slots))
    tree = PlanarTree._trusted(
        tuple(children), tuple(leaf_slots), tuple(labels[g] for g in order), tuple(parent)
    )
    # each vertex is one occurrence, so a range of occurrences is the XOR of
    # two prefixes of their bits
    prefix = [0]
    for v in idmap:
        prefix.append(prefix[-1] ^ (1 << v))
    nesting = frozenset(prefix[end] ^ prefix[first] for first, end in ranges)
    expr._unfolded = (tree, nesting)
    return expr._unfolded


def _locate_input(runs, slot, arity):
    """(run index, input) of the slot-th of ``arity`` open inputs, given as
    nonempty runs (occurrence, first input, end input); scans from the end
    nearer the slot."""
    if 2 * slot <= arity:
        k, skip = 0, slot - 1
        while skip >= runs[k][2] - runs[k][1]:
            skip -= runs[k][2] - runs[k][1]
            k += 1
        return k, runs[k][1] + skip
    k, skip = len(runs) - 1, arity - slot
    while skip >= runs[k][2] - runs[k][1]:
        skip -= runs[k][2] - runs[k][1]
        k -= 1
    return k, runs[k][2] - 1 - skip


def nesting_to_expression(tree, nesting):
    """Fold a maximal nesting back into an expression; inverse of
    expression_to_nesting up to generator labels.  Unlabelled vertices are
    rendered as ``v<id>``.  The fold runs over an explicit stack, so any
    depth folds."""
    if tree.p == 1:
        if nesting:
            raise NotMaximalError("a one-vertex tree has only the empty nesting")
        return Generator(tree.label(0) or "v0", tree.arity(0))
    nesting = validate_maximal_nesting(tree, nesting)

    done = []
    stack = [full_nest(tree)]  # masks to fold, and slots of pending grafts
    while stack:
        part = stack.pop()
        if type(part) is tuple:
            right = done.pop()
            done[-1] = Composition(done[-1], right, part[0])
        elif part & (part - 1):
            outer, inner = pieces(nesting, part)
            # pieces() sorts by least vertex, so `outer` holds the top of `part`
            slot = tree.attachment_slot(outer, top_vertex(inner))
            stack += ((slot,), inner, outer)
        else:
            v = top_vertex(part)
            done.append(Generator(tree.label(v) or f"v{v}", tree.arity(v)))
    return done[0]
