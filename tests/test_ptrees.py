from functools import partial
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from dsetree import ptrees
from dsetree.dse import solve, spec_from_signature
from dsetree.errors import ArityMismatch, InvalidArgument, MalformedCode, Nonfinite, SizeLimit
from dsetree.hopf import coproduct
from dsetree.ptrees import (
    GRADED_CACHE_SIZE,
    MAX_HEIGHT,
    MAX_LEAVES,
    NIL,
    Operation,
    PTree,
    Signature,
    binary_signature,
    by_leaves,
    enumerate_by_leaves,
    enumerate_by_nodes,
    identity_signature,
    kleene_layer,
    list_signature,
    parse_ptree,
    stable_signature,
)
from dsetree.report import up_to
from test_oracles import signatures
from dsetree.opbialg import core, core_census, green
from dsetree.trees import (
    EMPTY_FOREST,
    MAX_DEPTH,
    MAX_ENUM_NODES,
    Forest,
    enumerate_comb_trees,
    enumerate_forests,
    parse_forest,
)

BIN = binary_signature()
B = BIN.op("b")


def node(*children):
    return PTree(B, tuple(children))


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature((Operation("a", 1), Operation("a", 2)))
    with pytest.raises(ValueError):
        Signature((Operation("a(", 1),))
    with pytest.raises(ValueError):
        Signature((Operation("", 0), Operation("b", 2)))
    with pytest.raises(ArityMismatch):
        PTree(B, (NIL,))


def test_operation_validates_itself():
    for name, arity in [("a(", 1), ("", 0), ("a", -1)]:
        with pytest.raises(ValueError):
            Operation(name, arity)


def _nodes(t):
    return 0 if t.is_nil() else 1 + sum(_nodes(c) for c in t.children)


def _leaves(t):
    return 1 if t.is_nil() else sum(_leaves(c) for c in t.children)


def _height(t):
    return 0 if t.is_nil() else 1 + max((_height(c) for c in t.children), default=0)


def test_sizes_read_off_the_code_match_structural_recursion():
    # list:2 has nullary and unary nodes as well as bare edges.
    for n in range(5):
        for t in enumerate_by_nodes(list_signature(2), n):
            assert _nodes(t) == n
            assert (t.node_count, t.leaf_count, t.height) == (n, _leaves(t), _height(t))
            assert Forest([t, NIL, t]).degree == 2 * n


def test_ptree_counts_and_codec():
    t = node(node(NIL, NIL), NIL)
    assert t.code == "b(b(|,|),|)"
    assert t.node_count == 2
    assert t.leaf_count == 3
    assert parse_ptree(t.code, BIN) == t
    with pytest.raises(MalformedCode):
        parse_ptree("c(|,|)", BIN)
    with pytest.raises(MalformedCode):
        parse_ptree("b(|)", BIN)
    # The deepest tree the parsers accept.
    ladder = parse_ptree("s(" * MAX_DEPTH + "|" + ")" * MAX_DEPTH, identity_signature())
    assert ladder.height == core(ladder).node_count == MAX_DEPTH
    assert len(coproduct(ladder).terms) == MAX_DEPTH + 1
    with pytest.raises(MalformedCode, match="nesting depth"):
        parse_ptree("s(" * 3000 + "|" + ")" * 3000, identity_signature())
    # Built by the constructor, a ladder may be deeper; its height is read off the code.
    s, tall = identity_signature().op("s"), NIL
    for _ in range(5000):
        tall = PTree(s, (tall,))
    assert tall.height == core(tall).node_count == 5000


def test_nullary_node_has_no_leaves():
    sig = list_signature(2)
    t = parse_ptree("l1(l0())", sig)
    assert t.leaf_count == 0
    assert t.node_count == 2


def test_identity_signature_gives_ladders():
    sig = identity_signature()
    for k in range(11):
        found = enumerate_by_nodes(sig, k)
        assert len(found) == 1
        assert found[0].node_count == k


def test_binary_counts_are_catalan():
    assert [len(enumerate_by_nodes(BIN, n)) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]
    # The enumerator's cache is bounded, and an evicted size enumerates to the same trees.
    assert ptrees._graded.cache_info().maxsize == GRADED_CACHE_SIZE
    before = enumerate_by_nodes(BIN, 4)
    ptrees._graded.cache_clear()
    assert enumerate_by_nodes(BIN, 4) == before


def test_binary_leaves():
    assert len(enumerate_by_leaves(BIN, 3)) == 2
    assert all(t.leaf_count == 3 for t in enumerate_by_leaves(BIN, 3))


def test_stable_counts_are_schroder():
    for n, expected in zip(range(1, 8), [1, 1, 3, 11, 45, 197, 903]):
        sig = stable_signature(max(2, n))
        assert len(enumerate_by_leaves(sig, n)) == expected


@given(
    st.permutations(["a", "b", "ab"]),
    st.lists(st.integers(2, 4), min_size=1, max_size=3),
    st.integers(0, MAX_LEAVES),
)
def test_leaf_grading_agrees_with_node_grading(names, arities, n):
    sig = Signature(tuple(map(Operation, names, arities)))
    # With every arity at least 2, a tree of n leaves has at most n - 1 nodes.
    counts = solve(spec_from_signature(sig, "nodes", max(n - 1, 0))).coeffs[:n]
    assume(sum(c for coeff in counts for c in coeff.terms.values()) <= 3000)
    expected = [t for k in range(n) for t in enumerate_by_nodes(sig, k) if t.leaf_count == n]
    assert enumerate_by_leaves(sig, n) == sorted(expected)


@given(
    # Braces and percent signs break a format-string writer, and "a!(" sorts
    # before "a(", so codes emitted in name order would come out unsorted.
    st.permutations(["a", "a!", "b", "{", "}", "%", "%s"]),
    st.lists(st.integers(0, 4), min_size=1, max_size=3),
    st.integers(0, 5),
)
def test_code_builder_enumerates_the_trees_codes(names, arities, n):
    # One enumerator, two builders: the codes are the trees' codes, in the same order.
    sig = Signature(tuple(map(Operation, names, arities)))
    counts = solve(spec_from_signature(sig, "nodes", n)).coeffs
    assume(sum(c for coeff in counts for c in coeff.terms.values()) <= 3000)
    assert enumerate_by_nodes(sig, n, build=ptrees._codes) == [t.code for t in enumerate_by_nodes(sig, n)]
    if sig.has_small_arities():
        trees = enumerate_by_leaves(sig, n, node_bound=n)
        assert enumerate_by_leaves(sig, n, node_bound=n, build=ptrees._codes) == [t.code for t in trees]
    else:
        # With every arity at least 2, a tree of n + 1 leaves has at most n nodes.
        trees = enumerate_by_leaves(sig, n + 1)
        assert enumerate_by_leaves(sig, n + 1, build=ptrees._codes) == [t.code for t in trees]


@settings(max_examples=50)
@given(st.permutations(["a", "a!", "{", "%s"]), st.lists(st.integers(0, 3), min_size=1, max_size=4))
def test_every_enumerated_tree_parses_back_from_its_code(names, arities):
    sig = Signature(tuple(map(Operation, names, arities)))
    for t in up_to(partial(enumerate_by_nodes, sig), 3):
        assert parse_ptree(t.code, sig) == t


def test_stable_leaves_4_trees_have_no_small_arities():
    found = enumerate_by_leaves(stable_signature(4), 4)
    assert len(found) == 11
    for t in found:
        stack = [t]
        while stack:
            cur = stack.pop()
            if not cur.is_nil():
                assert cur.op.arity >= 2
                stack.extend(cur.children)


def test_leaf_enumeration_needs_node_bound_for_small_arities():
    sig = list_signature(3)
    with pytest.raises(Nonfinite):
        enumerate_by_leaves(sig, 2)
    found = enumerate_by_leaves(sig, 2, node_bound=2)
    assert all(t.leaf_count == 2 for t in found)
    with pytest.raises(ValueError):
        enumerate_by_leaves(sig, 2, node_bound=-3)


@given(signatures, st.integers(0, 6))
def test_tree_counts_are_the_enumerated_counts(sig, n):
    assume(ptrees.tree_counts(sig, n)[n] <= 3000)
    assert ptrees.tree_counts(sig, n)[n] == len(enumerate_by_nodes(sig, n))


def test_tree_counts_do_not_grow_with_the_arity():
    # One operation of arity a: t_3 = [T^a]_2 = a t_2 + C(a, 2) t_1², and t_4 likewise; [T^a]_j has j + 1 terms.
    a = 30_000
    t3 = a * a + comb(a, 2)
    assert ptrees.tree_counts(Signature((Operation("w", a),)), 4) == [1, 1, a, t3, a * t3 + comb(a, 2) * 2 * a + comb(a, 3)]


def test_size_limits():
    with pytest.raises(SizeLimit):
        enumerate_by_nodes(BIN, 13)
    with pytest.raises(SizeLimit):
        enumerate_by_leaves(stable_signature(4), 11)
    with pytest.raises(SizeLimit):
        enumerate_by_leaves(identity_signature(), 1, node_bound=13)
    with pytest.raises(SizeLimit):
        kleene_layer(BIN, 10)


SIZE_ENTRY_POINTS = [
    # (call, floor, cap, the quantity its messages name)
    (enumerate_comb_trees, 1, MAX_ENUM_NODES, "node count"),
    (enumerate_forests, 0, MAX_ENUM_NODES, "degree"),
    (partial(enumerate_by_nodes, BIN), 0, MAX_ENUM_NODES, "node count"),
    (partial(enumerate_by_leaves, stable_signature(4)), 0, MAX_LEAVES, "leaf count"),
    (lambda v: enumerate_by_leaves(identity_signature(), 1, node_bound=v), 0, MAX_ENUM_NODES, "node bound"),
    (lambda v: enumerate_by_leaves(BIN, 1, node_bound=v), 0, MAX_ENUM_NODES, "node bound"),
    (partial(by_leaves, BIN), 0, MAX_ENUM_NODES, "node bound"),
    (partial(green, BIN), 0, MAX_ENUM_NODES, "node bound"),
    (partial(kleene_layer, BIN), 0, MAX_HEIGHT, "stage index"),
]


@pytest.mark.parametrize("call, floor, cap, what", SIZE_ENTRY_POINTS, ids=[
    "enumerate_comb_trees", "enumerate_forests", "enumerate_by_nodes", "enumerate_by_leaves n",
    "enumerate_by_leaves node_bound", "enumerate_by_leaves node_bound without small arities",
    "by_leaves", "green", "kleene_layer",
])
def test_every_size_entry_point_refuses_one_below_its_floor_and_one_above_its_cap(call, floor, cap, what):
    with pytest.raises(ValueError, match=f"^{what} must be at least {floor}, got {floor - 1}$"):
        call(floor - 1)
    with pytest.raises(SizeLimit, match=f"^{what} is capped at {cap}, got {cap + 1}$"):
        call(cap + 1)


@pytest.mark.parametrize(
    "call, error",
    [
        (partial(list_signature, 10**2200), SizeLimit),
        (partial(enumerate_forests, 10**5000), SizeLimit),
        (partial(enumerate_by_nodes, BIN, -10**5000), InvalidArgument),
    ],
)
def test_sizes_too_long_to_print_are_refused_by_the_bound_they_pass(call, error):
    # Python prints no int of over 4300 digits, so the refusal names 10**100 instead of the value.
    with pytest.raises(error, match=r"got (10\*\*100 or more|-10\*\*100 or less)$"):
        call()


def test_kleene_layers():
    assert kleene_layer(BIN, 0) == set()
    assert kleene_layer(BIN, 1) == {NIL}
    assert len(kleene_layer(BIN, 2)) == 2
    assert len(kleene_layer(BIN, 3)) == 5
    for k in range(4):
        smaller = kleene_layer(BIN, k)
        larger = kleene_layer(BIN, k + 1)
        assert smaller <= larger
        assert all(t.height < k for t in smaller)
    # Stage k+1 is exactly the image of 1 + P(stage k).
    x3 = kleene_layer(BIN, 3)
    built = {NIL} | {node(a, b) for a in kleene_layer(BIN, 2) for b in kleene_layer(BIN, 2)}
    assert built == x3


def test_core_examples():
    assert core(NIL) == EMPTY_FOREST
    assert core(node(NIL, NIL)) == parse_forest("()")
    left = node(node(NIL, NIL), NIL)
    right = node(NIL, node(NIL, NIL))
    assert core(left) == core(right) == parse_forest("(())")


def test_core_census_examples():
    census = core_census(BIN, 3)
    assert {f.code: c for f, c in census.items()} == {"((()))": 4, "(()())": 1}
    assert core_census(BIN, 1) == {parse_forest("()"): 1}
    stable3 = core_census(stable_signature(3), 3, by="leaves")
    assert {f.code: c for f, c in stable3.items()} == {"(())": 2, "()": 1}


def test_census_totals_match_enumeration():
    for n in range(5):
        census = core_census(BIN, n)
        assert sum(census.values()) == len(enumerate_by_nodes(BIN, n))


def test_census_rejects_unknown_grading():
    with pytest.raises(ValueError):
        core_census(BIN, 2, by="height")



def test_node_bound_holds_without_small_arities():
    assert enumerate_by_leaves(BIN, 3, node_bound=1) == []
    assert [t.code for t in enumerate_by_leaves(BIN, 3, node_bound=2)] == ["b(b(|,|),|)", "b(|,b(|,|))"]
    # One v4 node, or two nodes (v2 and v3), or three v2 nodes: the bound drops the bigger ones.
    found = enumerate_by_leaves(stable_signature(4), 4, node_bound=2)
    assert sorted(t.node_count for t in found) == [1] + [2] * 5
