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
"""

import re

from .errors import ArityError, NotMaximalError, ParseError

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

    __slots__ = ("children", "leaf_slots", "labels", "parent", "depth", "_hash")

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

        depth = [0] * p
        for v in range(1, p):
            depth[v] = depth[parent[v]] + 1

        self.children = children
        self.leaf_slots = leaf_slots
        self.labels = labels
        self.parent = tuple(parent)
        self.depth = tuple(depth)
        self._hash = hash((children, leaf_slots, labels))

    @property
    def p(self):
        return len(self.children)

    def arity(self, v):
        return len(self.children[v]) + sum(self.leaf_slots[v])

    def label(self, v):
        return self.labels[v]

    def neighbors(self, v):
        if self.parent[v] is None:
            return self.children[v]
        return (self.parent[v],) + self.children[v]

    def is_connected(self, vertices):
        vs = set(vertices)
        if not vs:
            return False
        start = min(vs)
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in self.neighbors(v):
                if w in vs and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen == vs

    def root_of(self, vertices):
        """Topmost vertex of a connected set: the one with minimum pre-order id."""
        return min(vertices)

    def free_inputs(self, vertices):
        """Planar sequence of open inputs of the subtree induced by ``vertices``.

        Entries are ("leaf", v, segment, offset) for a leaf of v, or
        ("child", c) for an edge to a child c outside the set.  For the full
        vertex set this lists exactly the leaves of the tree.
        """
        vs = set(vertices)
        out = []

        def visit(v):
            cs = self.children[v]
            ls = self.leaf_slots[v]
            for seg in range(len(cs) + 1):
                for j in range(ls[seg]):
                    out.append(("leaf", v, seg, j))
                if seg < len(cs):
                    c = cs[seg]
                    if c in vs:
                        visit(c)
                    else:
                        out.append(("child", c))

        visit(self.root_of(vs))
        return out

    def attachment_slot(self, vertices, child_root):
        """1-based planar input position of ``child_root``'s parent edge among
        the free inputs of ``vertices``."""
        for i, entry in enumerate(self.free_inputs(vertices), start=1):
            if entry[0] == "child" and entry[1] == child_root:
                return i
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


def full_nest(tree):
    return frozenset(range(tree.p))


def nest_is_valid(tree, nest):
    return len(nest) >= 2 and tree.is_connected(nest)


def nests_compatible(a, b):
    return a <= b or b <= a or not (a & b)


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
    ``nest``, together with singletons for the vertices of ``nest`` covered
    by none of them.  They partition ``nest``; ordered by minimum id.

    The family must be laminar (pairwise nested or disjoint), as every
    nesting is.  Then a contained member is maximal exactly when it misses
    every larger one, so one sweep by decreasing size keeps each member
    that misses all those kept before it.
    """
    parts = []
    covered = set()
    for m in sorted((m for m in nesting if m < nest), key=len, reverse=True):
        if covered.isdisjoint(m):
            parts.append(m)
            covered |= m
    parts += [frozenset([v]) for v in nest - covered]
    parts.sort(key=min)
    return parts


def validate_maximal_nesting(tree, nesting):
    """Raise NotMaximalError unless ``nesting`` is a maximal nesting of ``tree``."""
    p = tree.p
    nesting = frozenset(frozenset(n) for n in nesting)
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
                f"nest {sorted(nest)} has {len(parts)} immediate pieces, expected 2"
            )
    return nesting


def is_maximal_nesting(tree, nesting):
    try:
        validate_maximal_nesting(tree, nesting)
    except NotMaximalError:
        return False
    return True


def connected_subsets(tree, allowed):
    """All nonempty connected subsets of ``allowed``, sorted by (size, members)."""
    allowed = frozenset(allowed)
    found = set()

    def grow(cur):
        if cur in found:
            return
        found.add(cur)
        boundary = set()
        for v in cur:
            for w in tree.neighbors(v):
                if w in allowed and w not in cur:
                    boundary.add(w)
        for w in sorted(boundary):
            grow(cur | {w})

    for v in sorted(allowed):
        grow(frozenset([v]))
    return sorted(found, key=lambda s: (len(s), tuple(sorted(s))))


def enumerate_nests(tree):
    """All nests of the tree, sorted by size then members."""
    return [s for s in connected_subsets(tree, range(tree.p)) if len(s) >= 2]


def nesting_sort_key(nesting):
    return tuple(sorted((len(n),) + tuple(sorted(n)) for n in nesting))


def enumerate_maximal_nestings(tree):
    """All maximal nestings, in a deterministic order.

    Recursive binary decomposition: a connected set S with more than one
    vertex splits as (S - Q, Q) for every connected Q not containing the top
    of S whose complement in S stays connected; each split contributes the
    nest S and the maximal nestings of both sides.
    """
    memo = {}

    def splits(S):
        top = min(S)
        rest = S - {top}
        out = []
        for Q in connected_subsets(tree, rest):
            if tree.is_connected(S - Q):
                out.append(Q)
        return out

    def rec(S):
        if S in memo:
            return memo[S]
        if len(S) == 1:
            memo[S] = [frozenset()]
            return memo[S]
        out = []
        for Q in splits(S):
            for left in rec(S - Q):
                for right in rec(Q):
                    out.append(left | right | {S})
        memo[S] = out
        return out

    result = rec(full_nest(tree))
    result.sort(key=nesting_sort_key)
    return result


def nesting_to_json(nesting):
    return sorted([sorted(n) for n in nesting], key=lambda ids: (len(ids), ids))


# ---------------------------------------------------------------------------
# Operadic expressions


class Expression:
    """Base class for the binary syntax trees of operadic composites."""

    __slots__ = ()


class Generator(Expression):
    """A generator occurrence with a declared arity."""

    __slots__ = ("name", "arity")

    def __init__(self, name, arity):
        if arity < 1:
            raise ArityError(f"generator {name!r} must have arity >= 1, got {arity}")
        self.name = name
        self.arity = arity

    def __eq__(self, other):
        return (
            isinstance(other, Generator)
            and self.name == other.name
            and self.arity == other.arity
        )

    def __hash__(self):
        return hash(("gen", self.name, self.arity))

    def __str__(self):
        return f"{self.name}:{self.arity}"

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

    def __eq__(self, other):
        return (
            isinstance(other, Composition)
            and self.left == other.left
            and self.right == other.right
            and self.slot == other.slot
        )

    def __hash__(self):
        return hash(("comp", self.left, self.right, self.slot))

    def __str__(self):
        return f"({self.left} o{self.slot} {self.right})"

    def __repr__(self):
        return f"Composition({self.left!r}, {self.right!r}, {self.slot})"


def parse_expression(text):
    """Parse ``expr := name ":" arity | "(" expr "o" slot expr ")"``.

    Whitespace-insensitive.  Raises ParseError on malformed text and
    ArityError when a slot falls outside 1..arity(left).
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

    def expr():
        nonlocal pos
        skip()
        if pos >= n:
            fail("unexpected end of input")
        if text[pos] == "(":
            pos += 1
            left = expr()
            skip()
            if pos >= n or text[pos] != "o":
                fail("expected composition operator 'o<slot>'")
            pos += 1
            slot = read_int()
            right = expr()
            skip()
            if pos >= n or text[pos] != ")":
                fail("expected ')'")
            pos += 1
            return Composition(left, right, slot)
        m = _NAME_RE.match(text, pos)
        if not m:
            fail("expected a generator name")
        pos = m.end()
        skip()
        if pos >= n or text[pos] != ":":
            fail("expected ':' after generator name")
        pos += 1
        skip()
        arity = read_int()
        return Generator(m.group(), arity)

    result = expr()
    skip()
    if pos != n:
        fail("trailing input after expression")
    return result


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
    place of that one input; no subtree is walked again.
    """
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

    children, leaf_slots = [], []
    for g in order:
        slots, prev = [], 0
        for i, _ in kids[g]:
            slots.append(i - prev)
            prev = i + 1
        slots.append(arities[g] - prev)
        children.append([idmap[child] for _, child in kids[g]])
        leaf_slots.append(slots)
    tree = PlanarTree(children, leaf_slots, [labels[g] for g in order])
    nesting = frozenset(frozenset(idmap[first:end]) for first, end in ranges)
    return tree, nesting


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
    rendered as ``v<id>``."""
    if tree.p == 1:
        if nesting:
            raise NotMaximalError("a one-vertex tree has only the empty nesting")
        return Generator(tree.label(0) or "v0", tree.arity(0))
    nesting = validate_maximal_nesting(tree, nesting)

    def expr_of(part):
        if len(part) == 1:
            v = min(part)
            return Generator(tree.label(v) or f"v{v}", tree.arity(v))
        outer, inner = pieces(nesting, part)
        # pieces() sorts by minimum id, so `outer` holds the top of `part`
        slot = tree.attachment_slot(outer, min(inner))
        return Composition(expr_of(outer), expr_of(inner), slot)

    return expr_of(full_nest(tree))
