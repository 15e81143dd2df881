import itertools
import time

import pytest
from hypothesis import given, strategies as st

from dsetree.errors import MalformedCode, SizeLimit
from dsetree.hopf import parse_elem
from dsetree.trees import (
    EMPTY_FOREST,
    LEAF,
    MAX_DEPTH,
    MAX_ENUM_NODES,
    CombTree,
    Forest,
    _children_first,
    _forests_exact,
    aut_order,
    canon_code,
    enumerate_comb_trees,
    enumerate_forests,
    graft,
    parse_code,
    parse_forest,
)

comb_trees = st.recursive(
    st.just(LEAF),
    lambda kids: st.lists(kids, max_size=3).map(CombTree),
    max_leaves=6,
)


# --- independent oracle: labeled parent arrays, deduplicated with a
# --- tuple-based canonical form that shares no code with the library


def _canonical_tuple(children_of, node):
    return tuple(sorted(_canonical_tuple(children_of, c) for c in children_of[node]))


def brute_force_iso_classes(n):
    classes = set()
    for parents in itertools.product(*(range(i) for i in range(1, n))):
        children_of = {i: [] for i in range(n)}
        for child, parent in enumerate(parents, start=1):
            children_of[parent].append(child)
        classes.add(_canonical_tuple(children_of, 0))
    return classes


def rooted_tree_counts(n_max):
    # Classical recurrence: n*r(n+1) = sum_{k=1..n} (sum_{d|k} d*r(d)) r(n-k+1)
    r = [0, 1]
    for n in range(1, n_max):
        total = 0
        for k in range(1, n + 1):
            divsum = sum(d * r[d] for d in range(1, k + 1) if k % d == 0)
            total += divsum * r[n - k + 1]
        r.append(total // n)
    return r[1:]


def _nodes(t):
    return 1 + sum(_nodes(c) for c in t.children)


def test_sizes_read_off_the_code_match_structural_recursion():
    for n in range(1, 7):
        assert all(t.node_count == _nodes(t) == n for t in enumerate_comb_trees(n))
    for d in range(6):
        assert all(f.degree == sum(map(_nodes, f.trees)) == d for f in enumerate_forests(d))


def test_canon_code_base_cases():
    assert canon_code(LEAF) == "()"
    ladder2 = CombTree([LEAF])
    assert canon_code(ladder2) == "(())"
    vtree = CombTree([LEAF, LEAF])
    assert canon_code(vtree) == "(()())"


def test_children_sorted_regardless_of_input_order():
    a = CombTree([LEAF, CombTree([LEAF])])
    b = CombTree([CombTree([LEAF]), LEAF])
    assert a == b
    assert a.code == "((())())"


def test_parse_code_examples():
    assert parse_code("(()())") == CombTree([LEAF, LEAF])
    assert parse_code("(()(()))") == parse_code("((())())")
    with pytest.raises(MalformedCode):
        parse_code("(()( ))")
    with pytest.raises(MalformedCode):
        parse_code("(()")
    with pytest.raises(MalformedCode):
        parse_code("()()")  # two roots
    assert parse_code("(" * MAX_DEPTH + ")" * MAX_DEPTH).node_count == MAX_DEPTH
    deep = "(" * 3000 + ")" * 3000
    for parse, text in ((parse_code, deep), (parse_forest, deep), (parse_elem, "1*" + deep)):
        with pytest.raises(MalformedCode, match="nesting depth"):
            parse(text)


def test_forest_codec():
    f = Forest([LEAF, CombTree([LEAF])])
    assert f.code == "(())*()"
    assert parse_forest("(())*()") == f
    assert parse_forest("()*(())") == f
    assert parse_forest("1") == EMPTY_FOREST
    assert f.degree == 3


def test_graft_examples():
    assert graft(EMPTY_FOREST) == LEAF
    assert graft(Forest([LEAF, LEAF])).code == "(()())"
    assert graft(Forest([CombTree([LEAF])])).code == "((()))"


def test_aut_order_by_brute_force_over_child_permutations():
    def labeled_aut(t):
        # Count child permutations extending to isomorphisms, recursively.
        count = 0
        for perm in itertools.permutations(t.children):
            if tuple(c.code for c in perm) == tuple(c.code for c in t.children):
                count += 1
        for child in set(t.children):
            count *= labeled_aut(child) ** t.children.count(child) // 1
        return max(count, 1)

    three_star = CombTree([LEAF, LEAF, LEAF])
    assert aut_order(three_star) == 6 == labeled_aut(three_star)
    vtree = CombTree([LEAF, LEAF])
    assert aut_order(vtree) == 2 == labeled_aut(vtree)
    ladder = CombTree([CombTree([CombTree([LEAF])])])
    assert aut_order(ladder) == 1


def test_children_first_expands_each_distinct_node_once():
    full, heights = LEAF, [LEAF]
    for _ in range(12):
        full = CombTree([full, full])  # 8,191 nodes, 13 distinct subtrees shared by reference
        heights.append(full)
    expanded = []

    def children(node):
        expanded.append(node)
        return node.children

    assert list(_children_first(full, lambda node: False, children)) == heights
    assert len(expanded) == 13

    # Only the root new: it alone is listed, its children read once; the root done: nothing is.
    below = set(heights[:-1]).__contains__
    expanded.clear()
    assert _children_first(full, below, children) == {full: None}
    assert expanded == [full]
    expanded.clear()
    assert _children_first(full, set(heights).__contains__, children) == {}
    assert expanded == []
    assert _children_first(LEAF, lambda node: False, children) == {LEAF: None}


def test_enumeration_counts_match_both_oracles():
    counts = [len(enumerate_comb_trees(n)) for n in range(1, MAX_ENUM_NODES + 1)]
    assert counts[:6] == [1, 1, 2, 4, 9, 20]
    assert counts == rooted_tree_counts(MAX_ENUM_NODES)
    for n in range(1, 8):
        assert len(enumerate_comb_trees(n)) == len(brute_force_iso_classes(n))
    # Grafting is a bijection from the forests of degree d onto the trees of d + 1 nodes,
    # and the multiset table makes each forest once.
    grafted = rooted_tree_counts(MAX_ENUM_NODES + 1)
    for d in range(MAX_ENUM_NODES + 1):
        assert len(enumerate_forests(d)) == grafted[d]
        assert len(_forests_exact(d)) == len(set(_forests_exact(d)))


def test_enumeration_limits():
    with pytest.raises(SizeLimit):
        enumerate_comb_trees(13)
    with pytest.raises(ValueError):
        enumerate_comb_trees(0)


def test_forest_enumeration():
    assert enumerate_forests(0) == {EMPTY_FOREST}
    # Forests of degree 3: partitions of 3 nodes into trees.
    degree3 = enumerate_forests(3)
    assert all(f.degree == 3 for f in degree3)
    assert {f.code for f in degree3} == {
        "((()))", "(()())", "(())*()", "()*()*()"
    }


@given(comb_trees)
def test_code_roundtrip(t):
    assert parse_code(canon_code(t)) == t


@given(st.lists(comb_trees, max_size=4))
def test_graft_injective(trees_list):
    f = Forest(trees_list)
    grafted = graft(f)
    assert tuple(grafted.children) == f.trees
    assert grafted.node_count == f.degree + 1


@given(comb_trees)
def test_aut_of_doubled_forest(t):
    assert aut_order(graft(Forest([t, t]))) == 2 * aut_order(t) ** 2


def test_aut_order_is_taken_once_per_distinct_subtree():
    # Twenty graftings of a tree onto itself: 21 distinct subtrees, 2**20 - 1 nodes
    # with two equal children, each a swap; a walk over every occurrence takes seconds.
    t = LEAF
    for _ in range(20):
        t = CombTree([t, t])
    start = time.perf_counter()
    assert aut_order(t) == 2 ** (2 ** 20 - 1)
    assert time.perf_counter() - start < 1.0
