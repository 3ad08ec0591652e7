"""The three workloads: their inputs, engine set-up, operation and checks.

Each workload generates all of its inputs, `items`, from the seed in its
constructor; `isolated` says whether its operations are independent of
each other (see run.run_round).  A round then calls `setup()` once (the
engine's own set-up, from a cold skeleton cache) and `run(state, item)`
once per input item.
Outside the timed phase every output is checked: by `check(state, item,
output)` against known answers and independent checkers, or, once an item
has passed that, by comparing `answer(output)` with the answer that passed.
The engine is driven through its public functions in the order the CLI
commands call them.
"""

import importlib.util
import math
import random
from pathlib import Path

from operahedra import coherence, complexes, homotopy, trees
from operahedra.skeleton import build_skeleton

ROOT = Path(__file__).resolve().parent.parent


def _load_oracles():
    """The test suite's brute-force oracles, which share no engine code."""
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def oracle_f_vector(oracles, tree):
    vertices, edges, faces = oracles.skeleton_counts_brute(tree)
    return vertices, edges, sum(faces.values())


def linear_f_vector(p):
    """Associahedron of the (p+1)-gon: Kirkman-Cayley dissection counts."""
    m = p + 1

    def dissections(j):
        return math.comb(m - 3, j) * math.comb(m + j - 1, j) // (j + 1)

    return dissections(m - 3), dissections(m - 4), dissections(m - 5)


def corolla_f_vector(k):
    """Permutohedron of a corolla with k children."""
    stirling = sum(
        (-1) ** i * math.comb(k - 2, i) * (k - 2 - i) ** k for i in range(k - 1)
    ) // math.factorial(k - 2)
    return (
        math.factorial(k),
        math.factorial(k) * (k - 1) // 2,
        math.factorial(k - 2) * stirling,
    )


def known_f_vector(oracles, tree):
    """The closed form for linear trees and corollas with p >= 4, the
    brute-force oracle for every other tree."""
    p = tree.p
    if p >= 4 and tree == trees.PlanarTree.linear(p):
        return linear_f_vector(p)
    if p >= 4 and tree == trees.PlanarTree.corolla(p - 1):
        return corolla_f_vector(p - 1)
    return oracle_f_vector(oracles, tree)


def _shuffled(n, seed):
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return order


def _all_trees(max_p):
    out = []
    for p in range(1, max_p + 1):
        out.extend(trees.enumerate_ordered_trees(p))
    return out


class Atlas:
    """`check morse --all-trees` (every tree with p <= 6) plus linear p = 7.

    Linear p = 8 and the corolla with six children, where the quadratic
    corner scans dominate, are left out: each takes one to two seconds, too
    few of their times fit in a run to filter out other tenants' load, and
    together they would make up most of ops_per_s."""

    name = "atlas"
    tail = 85
    isolated = True

    def __init__(self, seed, tiny=False):
        self.max_p, self.linear_p = (4, 5) if tiny else (6, 7)
        oracles = _load_oracles()
        self.expected = [known_f_vector(oracles, t) for t in self.setup()]
        self.items = _shuffled(len(self.expected), seed)

    def setup(self):
        return _all_trees(self.max_p) + [trees.PlanarTree.linear(self.linear_p)]

    def run(self, state, item):
        sk = build_skeleton(state[item])
        return sk, complexes.morse_certificate(sk.complex, sk.orientation)

    def answer(self, output):
        sk, cert = output
        return sk.f_vector(), cert

    def check(self, state, item, output):
        sk, cert = output
        if sk.f_vector() != self.expected[item]:
            return f"f-vector {sk.f_vector()} != {self.expected[item]}"
        if not isinstance(cert, complexes.MorseCertificate):
            return f"no Morse certificate: {cert}"
        ok, reason = complexes.check_morse_certificate(sk.complex, sk.orientation, cert)
        return None if ok else f"Morse certificate rejected: {reason}"


class Homology:
    """`check homology` on prebuilt complexes: dense Smith normal form.

    The complexes are those of every tree with p <= 6 whose operahedron has
    at most MAX_VERTICES vertices, and the `outgoingpoly` fixture.  The
    dense form's time grows with the cube of the size: the 17 larger trees
    with p = 6 take 0.07 to 0.5 s each and would take three quarters of
    every round, and too few rounds would fit in a run to filter out other
    tenants' load."""

    name = "homology"
    tail = 81
    isolated = True
    MAX_VERTICES = 60

    def __init__(self, seed, tiny=False):
        self.max_p = 4 if tiny else 6
        oracles = _load_oracles()
        self.trees = [
            t for t in _all_trees(self.max_p)
            if len(build_skeleton(t).vertices) <= self.MAX_VERTICES
        ]
        build_skeleton.cache_clear()
        f_vectors = [known_f_vector(oracles, t) for t in self.trees]
        betti = [(1, 0, v - e + f - 1) for v, e, f in f_vectors]
        self.expected = betti + [(1, 0, 0)]  # the fixture is a disk with fins
        self.items = _shuffled(len(self.expected), seed)

    def setup(self):
        built = [build_skeleton(t).complex for t in self.trees]
        fixture, _ = complexes.FIXTURES["outgoingpoly"]()
        return built + [fixture]

    def run(self, state, item):
        return complexes.homology(state[item])

    def answer(self, output):
        return output

    def check(self, state, item, output):
        got = (output.betti0, output.betti1, output.betti2)
        if got != self.expected[item] or output.torsion1:
            return f"homology {got} torsion {output.torsion1} != {self.expected[item]}"
        return None


# Mixed query trees, as child lists with vertex ids in pre-order.
MIXED = (
    ((1, 3), (2,), (), (4,), ()),
    ((1,), (2, 3, 4), (), (), ()),
    ((1, 4), (2, 3), (), (), (5,), ()),
    ((1, 2, 3), (), (), (4, 5), (), ()),
    ((1, 4), (2, 3), (), (), (5, 6), (), ()),
    ((1,), (2, 5), (3, 4), (), (), (6,), ()),
    ((1, 2), (), (3, 5), (4,), (), (6,), ()),
)


def _maclane_text(expr):
    if isinstance(expr, trees.Generator):
        return expr.name
    return "(" + _maclane_text(expr.left) + _maclane_text(expr.right) + ")"


class _Walker:
    """Random walks on one skeleton, spelled as sugared move text."""

    def __init__(self, sk):
        self.sk = sk
        self.adj = [[] for _ in sk.vertices]
        for e in sk.edges:
            self.adj[e.a].append((e, e.b, e.removed, e.forward))
            self.adj[e.b].append((e, e.a, e.added, not e.forward))

    @staticmethod
    def token(e, removed, forward):
        ids = ".".join(str(v) for v in sorted(removed))
        return ("" if forward else "-") + f"{e.kind}@{ids}"

    def walk(self, start, length, rng):
        tokens, at = [], start
        for _ in range(length):
            e, nxt, removed, forward = rng.choice(self.adj[at])
            tokens.append(self.token(e, removed, forward))
            at = nxt
        return tokens, at

    def shortest(self, start, goal):
        prev = {start: None}
        queue = [start]
        for at in queue:
            if at == goal:
                break
            for step in self.adj[at]:
                if step[1] not in prev:
                    prev[step[1]] = (at, step)
                    queue.append(step[1])
        tokens = []
        while prev[goal] is not None:
            goal, (e, _, removed, forward) = prev[goal]
            tokens.append(self.token(e, removed, forward))
        return tokens[::-1]


class Queries:
    """Batch library use: parse, then `decide_coherence`, on prebuilt
    skeletons; round-robin over linear (MacLane), corolla and mixed trees.

    The corolla with six children is left out: its Morse certificate alone
    would make up most of every round's set-up."""

    name = "queries"
    tail = 99
    isolated = False

    def __init__(self, seed, tiny=False):
        if tiny:
            shapes = [("linear", 4), ("corolla", 3), ("mixed", MIXED[0])]
            self.count, self.lengths = 24, (0, 6)
        else:
            shapes = [("linear", p) for p in (5, 6, 7)]
            shapes += [("corolla", k) for k in (4, 5)]
            shapes += [("mixed", children) for children in MIXED]
            self.count, self.lengths = 2000, (0, 20)
        self._start(seed, shapes)

    def _start(self, seed, shapes):
        """The query trees as the parser sees them, and the queries: (maclane?,
        object text, w1 text, w2 text).  Word lengths are spread evenly over
        the range; w2 walks away from the start and comes back to w1's
        endpoint along a shortest path.  The walks run on skeletons built
        here, and the cache is cleared afterwards so no round finds them."""
        rng = random.Random(seed)
        roots = []
        for kind, arg in shapes:
            if kind == "linear":
                text = "a"
                for i in range(1, arg):
                    text = f"({text}{chr(ord('a') + i)})"
                roots.append((True, coherence.maclane_parse(text)))
            else:
                tree = (
                    trees.PlanarTree.corolla(arg)
                    if kind == "corolla"
                    else trees.PlanarTree(arg)
                )
                first = trees.enumerate_maximal_nestings(tree)[0]
                roots.append((False, trees.nesting_to_expression(tree, first)))
        self.trees = [trees.expression_to_nesting(expr)[0] for _, expr in roots]
        walkers = [_Walker(build_skeleton(tree)) for tree in self.trees]
        lo, hi = self.lengths
        spread = [lo + k * (hi - lo) // (self.count - 1) for k in range(self.count)]
        first, second = spread[:], spread[:]
        rng.shuffle(first)
        rng.shuffle(second)
        self.items = []
        for q in range(self.count):
            maclane, walker = roots[q % len(roots)][0], walkers[q % len(roots)]
            start = rng.randrange(len(walker.sk.vertices))
            expr = walker.sk.expression_of(start)
            text = _maclane_text(expr) if maclane else str(expr)
            w1, end = walker.walk(start, first[q], rng)
            w2, mid = walker.walk(start, second[q], rng)
            w2 += walker.shortest(mid, end)
            self.items.append((maclane, text, " ".join(w1), " ".join(w2)))
        build_skeleton.cache_clear()

    def setup(self):
        for tree in self.trees:
            build_skeleton(tree).homotopy_builder()
        return None

    def run(self, state, item):
        maclane, text, t1, t2 = item
        if maclane:
            expr = coherence.maclane_parse(text)
        else:
            expr = trees.parse_expression(text)
        w1 = coherence.parse_word_text(expr, t1)
        w2 = coherence.parse_word_text(expr, t2)
        return w1, w2, coherence.decide_coherence(w1, w2)

    def answer(self, output):
        w1, w2, verdict = output
        return w1.moves, w2.moves, verdict.equal, verdict.certificate

    def check(self, state, item, output):
        w1, w2, verdict = output
        if not verdict.equal:
            return "verdict is not equal"
        sk, p1 = coherence.word_to_path(w1)
        _, p2 = coherence.word_to_path(w2)
        cert = verdict.certificate
        if cert.source != p1 or cert.target != p2:
            return "certificate endpoints differ from the words' paths"
        result = homotopy.verify_certificate(sk.complex, cert)
        return None if result.ok else f"certificate rejected: {result}"


WORKLOADS = {w.name: w for w in (Atlas, Homology, Queries)}
