import itertools
import random
import sys

import pytest

import oracles
from operahedra.errors import ArityError, NotMaximalError, ParseError
from operahedra.skeleton import build_skeleton
from operahedra.trees import (
    Composition,
    Generator,
    PlanarTree,
    enumerate_maximal_nestings,
    enumerate_nests,
    enumerate_ordered_trees,
    expression_to_nesting,
    full_nest,
    is_maximal_nesting,
    nest_mask,
    nesting_to_expression,
    nests_compatible,
    parse_expression,
    validate_maximal_nesting,
)


def test_parse_single_generator():
    e = parse_expression("k:2")
    assert e == Generator("k", 2)
    assert e.arity == 2


def test_parse_composition_arity_arithmetic():
    e = parse_expression("((a:2 o1 b:1) o2 c:1)")
    assert isinstance(e, Composition)
    assert e.arity == 2  # (2 + 1 - 1) + 1 - 1


def test_parse_slot_out_of_range():
    with pytest.raises(ArityError):
        parse_expression("(a:1 o2 b:1)")


def test_parse_is_whitespace_insensitive():
    assert parse_expression("((a:2o1b:1)o2c:1)") == parse_expression(
        "((a:2 o1 b:1) o2 c:1)"
    )


@pytest.mark.parametrize("text", ["", "k", "k:", "(a:1 o1)", "(a:1 o1 b:1) c", "a:0x"])
def test_parse_rejects_malformed(text):
    with pytest.raises((ParseError, ArityError)):
        parse_expression(text)


def test_zero_arity_generator_rejected():
    with pytest.raises(ArityError):
        parse_expression("k:0")


def test_expression_round_trip_text():
    texts = ["k:2", "((a:2 o1 b:1) o2 c:1)", "(((k:3 o1 t:1) o1 m:1) o2 n:1)"]
    for text in texts:
        e = parse_expression(text)
        assert parse_expression(str(e)) == e


def test_linear_composition_unfolds_to_chain():
    e = parse_expression("((k:1 o1 t:1) o1 m:1)")
    tree, nesting = expression_to_nesting(e)
    assert tree.children == ((1,), (2,), ())
    assert frozenset(map(oracles.vertex_set, nesting)) == frozenset(
        {frozenset({0, 1}), frozenset({0, 1, 2})}
    )


def test_figure_nesting():
    # root with three children, the first carrying a fourth vertex:
    # successive grafts produce the chain of nested composites
    e = parse_expression("((((k:3 o1 t:1) o1 m:1) o2 n:1) o3 r:1)")
    tree, nesting = expression_to_nesting(e)
    assert tree.labels == ("k", "t", "m", "n", "r")
    assert frozenset(map(oracles.vertex_set, nesting)) == frozenset(
        {
            frozenset({0, 1}),
            frozenset({0, 1, 2}),
            frozenset({0, 1, 2, 3}),
            frozenset({0, 1, 2, 3, 4}),
        }
    )


def test_single_generator_gives_point():
    tree, nesting = expression_to_nesting(parse_expression("k:3"))
    assert tree.p == 1
    assert nesting == frozenset()
    assert nesting_to_expression(tree, nesting) == Generator("k", 3)


def test_nesting_to_expression_right_comb():
    tree = PlanarTree.linear(4, labels=list("abcd"))
    nesting = frozenset(nest_mask(n, 4) for n in [{2, 3}, {1, 2, 3}, {0, 1, 2, 3}])
    e = nesting_to_expression(tree, nesting)
    assert str(e) == "(a:1 o1 (b:1 o1 (c:1 o1 d:1)))"


def test_nesting_to_expression_rejects_non_maximal():
    tree = PlanarTree.linear(4)
    with pytest.raises(NotMaximalError):
        nesting_to_expression(tree, frozenset({nest_mask({0, 1}, 4)}))


def test_overlapping_nests_rejected():
    tree = PlanarTree.linear(4)
    bad = frozenset(nest_mask(n, 4) for n in [{1, 2}, {0, 1}, {0, 1, 2, 3}])
    with pytest.raises(NotMaximalError):
        validate_maximal_nesting(tree, bad)


def test_round_trip_all_maximal_nestings_small_trees():
    for p in range(1, 6):
        for tree in enumerate_ordered_trees(p):
            for m in enumerate_maximal_nestings(tree):
                expr = nesting_to_expression(tree, m)
                tree2, m2 = expression_to_nesting(expr)
                assert tree2.children == tree.children
                assert tree2.leaf_slots == tree.leaf_slots
                assert m2 == m


def test_enumerate_nests_linear3():
    tree = PlanarTree.linear(3)
    assert list(map(oracles.vertex_set, enumerate_nests(tree))) == [
        frozenset({0, 1}),
        frozenset({1, 2}),
        frozenset({0, 1, 2}),
    ]


def test_enumerate_nests_corolla_excludes_disconnected():
    tree = PlanarTree.corolla(2)
    assert list(map(oracles.vertex_set, enumerate_nests(tree))) == [
        frozenset({0, 1}),
        frozenset({0, 2}),
        frozenset({0, 1, 2}),
    ]


def test_enumerate_nests_point():
    assert enumerate_nests(PlanarTree.linear(1)) == []


def test_nests_match_brute_force():
    for p in range(1, 6):
        for tree in enumerate_ordered_trees(p):
            assert set(map(oracles.vertex_set, enumerate_nests(tree))) == set(
                oracles.nests_brute(tree)
            )


def test_maximal_nesting_counts():
    assert len(enumerate_maximal_nestings(PlanarTree.linear(4))) == 5
    assert len(enumerate_maximal_nestings(PlanarTree.corolla(3))) == 6
    assert len(enumerate_maximal_nestings(PlanarTree.linear(2))) == 1


def test_maximal_nestings_match_brute_force():
    for p in range(1, 6):
        for tree in enumerate_ordered_trees(p):
            ours = {
                frozenset(map(oracles.vertex_set, m))
                for m in enumerate_maximal_nestings(tree)
            }
            brute = set(oracles.maximal_nestings_brute(tree))
            assert ours == brute


def test_linear_tree_catalan_counts():
    for p in range(1, 9):
        tree = PlanarTree.linear(p)
        assert len(enumerate_maximal_nestings(tree)) == oracles.catalan(p - 1)


def test_maximal_nesting_invariants_exhaustive():
    for p in range(1, 7):
        for tree in enumerate_ordered_trees(p):
            full = full_nest(tree)
            for m in enumerate_maximal_nestings(tree):
                assert len(m) == max(p - 1, 0)
                if p >= 2:
                    assert full in m
                assert is_maximal_nesting(tree, m)


def test_compatibility_symmetric_and_full_always_fits():
    for tree in enumerate_ordered_trees(5):
        nests = enumerate_nests(tree)
        full = full_nest(tree)
        for a, b in itertools.combinations(nests, 2):
            assert nests_compatible(a, b) == nests_compatible(b, a)
            assert nests_compatible(a, full)


def test_vertices_and_faces_sort_by_size_then_members_per_nest():
    """The engine ranks each distinct nest once; the order is that of the
    sorted (size, members) keys of a nesting's nests."""

    def key(nesting):
        return sorted((len(s), sorted(s)) for s in map(oracles.vertex_set, nesting))

    for p in range(1, 7):
        for tree in enumerate_ordered_trees(p):
            vertices = enumerate_maximal_nestings(tree)
            assert vertices == sorted(vertices, key=key)
            sk = build_skeleton(tree)
            faces = [oracles.face_cycle_nesting(sk, f)[1] for f in sk.faces]
            assert faces == sorted(faces, key=key)


def test_labels_do_not_change_combinatorics():
    a = PlanarTree.linear(4, labels=list("abcd"))
    b = PlanarTree.linear(4, labels=list("wxyz"))
    assert enumerate_maximal_nestings(a) == enumerate_maximal_nestings(b)


def test_tree_json_round_trip():
    tree = PlanarTree(
        children=[(1, 2), (), ()],
        leaf_slots=[(1, 0, 0), (1,), (2,)],
        labels=["k", None, "c"],
    )
    assert PlanarTree.from_json(tree.to_json()) == tree


def test_tree_validation_rejects_bad_preorder():
    with pytest.raises(ValueError):
        PlanarTree(children=[(2,), (), (1,)])


def test_tree_validation_rejects_zero_arity():
    with pytest.raises(ValueError):
        PlanarTree(children=[(1,), ()], leaf_slots=[(0, 0), (0,)])


def test_ordered_tree_enumeration_is_catalan():
    for p in range(1, 8):
        assert len(enumerate_ordered_trees(p)) == oracles.catalan(p - 1)


# ---------------------------------------------------------------------------
# The one-pass unfolding against the recursive reference


def _decorated(tree, rng):
    """``tree`` with a few extra leaves in seeded random gaps."""
    slots = [list(ls) for ls in tree.leaf_slots]
    for _ in range(rng.randrange(0, 4)):
        v = rng.randrange(tree.p)
        slots[v][rng.randrange(len(slots[v]))] += 1
    return PlanarTree(tree.children, slots)


def test_unfolding_matches_the_recursive_oracle():
    rng = random.Random(29)
    checked = 0
    for p in range(1, 7):
        for plain in enumerate_ordered_trees(p):
            for tree in (plain, _decorated(plain, rng)):
                for nesting in enumerate_maximal_nestings(tree):
                    expr = nesting_to_expression(tree, nesting)
                    got, got_nesting = expression_to_nesting(expr)
                    got_sets = frozenset(map(oracles.vertex_set, got_nesting))
                    assert (got.children, got.leaf_slots, got.labels, got_sets) == (
                        oracles.expression_to_nesting_recursive(expr)
                    )
                    assert (got.children, got.leaf_slots) == (tree.children, tree.leaf_slots)
                    assert got_nesting == nesting
                    checked += 1
    assert checked > 2000


@pytest.mark.parametrize("side", ["left", "right"])
def test_deep_combs_unfold_iteratively(side):
    # five times the interpreter's default recursion limit: parsing,
    # printing, hashing, comparing and unfolding all run over explicit
    # stacks.  A comb n deep has nests of total size about n^2 / 2 bits.
    depth = 5000
    expr = Generator("g0", 2)
    for i in range(1, depth + 1):
        g = Generator(f"g{i}", 2)
        expr = Composition(expr, g, 1) if side == "left" else Composition(g, expr, 2)
    text = str(expr)
    again = parse_expression(text)
    assert again == expr and again is not expr
    assert hash(again) == hash(expr)
    assert str(again) == text
    assert again != parse_expression(text.replace("g0:2", "g0:3", 1))
    tree, nesting = expression_to_nesting(again)
    assert tree.p == depth + 1
    assert len(nesting) == depth
    assert sorted(m.bit_count() for m in nesting) == list(range(2, depth + 2))
    assert sum(map(len, tree.children)) == depth


def _random_expressions(rng, count):
    """Seeded random expressions of up to 40 generators: pairs drawn from a
    pool are composed at a random slot until one expression is left."""
    for _ in range(count):
        pool = [Generator(f"g{i}", rng.randrange(1, 4)) for i in range(rng.randrange(1, 41))]
        while len(pool) > 1:
            left = pool.pop(rng.randrange(len(pool)))
            right = pool.pop(rng.randrange(len(pool)))
            pool.append(Composition(left, right, rng.randrange(1, left.arity + 1)))
        yield pool[0]


def _chain(side, depth):
    """A comb of unary generators nested ``depth`` deep on one side."""
    expr = Generator("g0", 1)
    for i in range(1, depth + 1):
        g = Generator(f"g{i}", 1)
        expr = Composition(expr, g, 1) if side == "left" else Composition(g, expr, 1)
    return expr


@pytest.fixture
def deep_recursion():
    """Room for the recursive oracle on depth-2000 combs."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10000)
    yield
    sys.setrecursionlimit(limit)


def test_unfolded_tree_is_the_checked_tree_and_is_kept(deep_recursion):
    """The tree the unfolding builds without the constructor's checks is
    the one the checking constructor builds from its fields, it matches
    the recursive oracle, and a second call returns the same objects.
    The oracle re-walks a left chain's leaves per graft, about 4 s at
    depth 2000, so that chain is checked against the constructor only."""
    exprs = list(_random_expressions(random.Random(73), 198))
    exprs += [_chain("right", 2000), _chain("left", 2000)]
    for k, expr in enumerate(exprs):
        tree, nesting = expression_to_nesting(expr)
        rebuilt = PlanarTree(tree.children, tree.leaf_slots, tree.labels)
        assert tree == rebuilt
        assert tree.parent == rebuilt.parent and hash(tree) == hash(rebuilt)
        if k < len(exprs) - 1:
            got_sets = frozenset(map(oracles.vertex_set, nesting))
            assert (tree.children, tree.leaf_slots, tree.labels, got_sets) == (
                oracles.expression_to_nesting_recursive(expr)
            )
        again = expression_to_nesting(expr)
        assert again[0] is tree and again[1] is nesting
    assert max(expression_to_nesting(e)[0].p for e in exprs[:-2]) == 40
    assert [expression_to_nesting(e)[0].p for e in exprs[-2:]] == [2001, 2001]


def test_deep_fold_runs_over_a_stack():
    """nesting_to_expression folds a nesting deeper than the recursion
    limit back into the expression it came from."""
    depth = 1200
    expr = Generator("g0", 1)
    for i in range(1, depth + 1):
        expr = Composition(Generator(f"g{i}", 1), expr, 1)
    tree, nesting = expression_to_nesting(expr)
    assert nesting_to_expression(tree, nesting) == expr
