from collections import Counter
from contextlib import suppress
from fractions import Fraction
from functools import partial
from math import comb
import time

import pytest
from hypothesis import given, settings, strategies as st

from dsetree.errors import DsetreeError, MalformedCode

from dsetree.hopf import (
    HckElem,
    HckTensor,
    antipode,
    bplus,
    check_antipode,
    check_coassociativity,
    check_cocycle,
    check_counit,
    coproduct,
    counit,
    parse_elem,
    product,
    tree_cuts,
)
from dsetree import hopf, linear, report, table, trees
from dsetree.table import Table
from dsetree.opbialg import op_counit
from dsetree.ptrees import (
    NIL,
    Operation,
    PTree,
    Signature,
    enumerate_by_nodes,
    identity_signature,
    parse_ptree,
    stable_signature,
)
from dsetree.report import up_to
from dsetree.trees import (
    EMPTY_FOREST,
    LEAF,
    CombTree,
    Forest,
    aut_order,
    enumerate_comb_trees,
    enumerate_forests,
    parse_code,
    graft,
    parse_forest,
)
from test_oracles import naive_tensor_product

LADDER2 = CombTree([LEAF])


def elem(text):
    return parse_elem(text)


def tensor(pairs):
    return HckTensor({(parse_forest(l), parse_forest(r)): c for l, r, c in pairs})


def test_product_unit_and_generators():
    x = elem("3*(())")
    assert product(HckElem.one(), x) == x
    assert product(elem("1*()"), elem("1*()")) == elem("1*()*()")
    assert product(elem("2*()"), elem("3*(())")) == elem("6*(())*()")


def test_coproduct_hand_examples():
    assert coproduct(EMPTY_FOREST) == HckTensor.unit()
    assert coproduct(LEAF) == tensor([("1", "()", 1), ("()", "1", 1)])
    assert coproduct(LADDER2) == tensor(
        [("1", "(())", 1), ("()", "()", 1), ("(())", "1", 1)]
    )


def test_coproduct_multiplicative_on_forests():
    f = Forest([LEAF, LEAF])
    assert coproduct(f) == tensor(
        [("1", "()*()", 1), ("()", "()", 2), ("()*()", "1", 1)]
    )


def test_counit():
    assert counit(HckElem.one()) == 1
    assert counit(elem("1*()")) == 0
    assert counit(elem("3*1 + 2*(())")) == 3


def test_antipode_hand_examples():
    assert antipode(HckElem.one()) == HckElem.one()
    assert antipode(elem("1*()")) == elem("-1*()")
    assert antipode(elem("1*(())")) == elem("-1*(()) + 1*()*()")


def test_antipode_squared_is_identity_up_to_degree_5():
    for d in range(6):
        for f in enumerate_forests(d):
            x = HckElem.from_forest(f)
            assert antipode(antipode(x)) == x


def test_antipode_of_a_tree_cancels_nothing():
    # One term per set of the n - 1 edges, signed by its number of pieces,
    # and no two terms cancel.
    for n in range(1, 9):
        for t in enumerate_comb_trees(n):
            terms = antipode(HckElem.from_tree(t)).terms
            assert all(c == (-1) ** len(f.trees) * abs(c) for f, c in terms.items()), t
            assert sum(abs(c) for c in terms.values()) == 2 ** (n - 1), t


def test_bplus_examples():
    assert bplus(HckElem.one()) == elem("1*()")
    assert bplus(elem("1*()*()")) == elem("1*(()())")
    assert bplus(elem("2*()")) == elem("2*(())")


@pytest.mark.parametrize("function", [bplus, antipode], ids=lambda f: f.__name__)
def test_bplus_and_antipode_refuse_decorated_forests(function):
    # B₊ grafts comb forests only, and the decorated bialgebra has no antipode:
    # its degree-zero part, spanned by the nodeless forests, is not connected.
    decorated = parse_ptree("b(b(|,|),|)", Signature((Operation("b", 2),)))
    for x in (HckElem.from_tree(decorated), elem("1*()") + HckElem({Forest([LEAF, NIL]): 2})):
        with pytest.raises(TypeError, match=function.__name__):
            function(x)


def test_counit_refuses_decorated_forests():
    # The bialgebra of decorated forests has its own counit, 1 on every nodeless
    # forest: the coefficient of the empty forest would give 0 on the bare edge.
    assert op_counit(Forest([NIL])) == 1
    for x in (HckElem.from_tree(NIL), elem("1*1") + HckElem({Forest([LEAF, NIL]): 2})):
        with pytest.raises(TypeError, match="counit"):
            counit(x)


def test_ladder_cut_count():
    ladder = LEAF
    for n in range(1, 9):
        assert len(tree_cuts(ladder)) == n + 1
        ladder = CombTree([ladder])


def test_a_wide_node_is_cut_in_time_linear_in_its_arity():
    # Forty two-node trees of one arity-3000 operation, each with three cuts.  Joining the
    # children's keys pairwise is quadratic in the arity and took about 2 s on a 2-core Xeon
    # (Python 3.11), against about 0.2 s for a linear join.
    w, e = Operation("w", 3000), Operation("e", 0)
    edges = Forest([NIL] * 2999)
    start = time.perf_counter()
    for k in range(40):
        t = PTree(w, (NIL,) * k + (PTree(e, ()),) + (NIL,) * (2999 - k))
        assert tree_cuts(t) == (
            (Forest([t]), Forest([NIL])),
            (edges.union(Forest([PTree(e, ())])), Forest([PTree(w, (NIL,) * 3000)])),
            (edges, Forest([t])),
        )
    assert time.perf_counter() - start < 1.0


def test_deep_trees_spend_no_frame_per_level(monkeypatch):
    # Built by the constructors, past the parsers' depth limit and the interpreter's recursion limit.
    s = identity_signature().op("s")
    ladder = NIL
    for _ in range(520):
        ladder = PTree(s, (ladder,))
    assert len(coproduct(ladder).terms) == 521
    tall = LEAF
    for _ in range(4999):
        tall = CombTree([tall])
    assert aut_order(tall) == 1
    assert aut_order(graft(Forest([tall, tall]))) == 2
    # Read by the parsers, with their depth limit raised past the interpreter's recursion limit.
    monkeypatch.setattr(trees, "MAX_DEPTH", 5000)
    assert parse_code(tall.code) == tall
    assert parse_forest(tall.code + "*()") == Forest([tall, LEAF])
    code = "s(" * 4999 + "|" + ")" * 4999
    assert parse_ptree(code, identity_signature()).code == code


def shared_coproduct(ids, x):
    """The coproduct of tree or forest ``x`` read off the cut table ``ids``, as :func:`coproduct` gives it."""
    n = ids.forest(x) if isinstance(x, Forest) else ids.number((ids.tree(x),))
    return HckTensor({(ids.obj(u), ids.obj(l)): c for (u, l), c in ids.delta(n).items()})


def shared_tree_cuts(ids, t):
    """The cuts of tree ``t`` read off the cut table ``ids``, as :func:`tree_cuts` gives them."""
    flat = ids.tree_cuts(ids.tree(t))
    return tuple(zip(map(ids.obj, flat[::2]), map(ids.obj, flat[1::2])))


def test_coproduct_builds_one_forest_per_code(monkeypatch):
    # One table serves planar trees and comb forests alike; a forest met again
    # is found by its code, not built again.
    inputs = [*up_to(partial(enumerate_by_nodes, stable_signature(3)), 4), *up_to(enumerate_forests, 4)]
    built = Counter()
    init = Forest.__init__

    def counted(self, trees=()):
        init(self, trees)
        built[self.code] += 1

    monkeypatch.setattr(Forest, "__init__", counted)
    ids = Table()
    for x in inputs:
        shared_coproduct(ids, x)
    assert built and max(built.values()) == 1, built.most_common(3)


def _deep_ladder(sig, bottom, depth=520):
    s = sig.op("s")
    ladder = bottom
    for _ in range(depth):
        ladder = PTree(s, (ladder,))
    return ladder


@pytest.mark.parametrize("bottom", ["|", "b(|,|)"])
def test_lower_trees_met_only_through_ids_build_without_recursion(bottom):
    # Over ``b(|,|)`` no lower tree of a cut is a subtree of the ladder, so the
    # table builds every lower tree that leaves from its ids alone.
    sig = Signature((Operation("s", 1), Operation("b", 2)))
    ladder = _deep_ladder(sig, parse_ptree(bottom, sig))
    ids = Table()
    delta = shared_coproduct(ids, ladder)
    assert len(delta.terms) == 521 + (bottom != "|")
    # The cut that takes off the fewest nodes, but some.
    deepest = max((lower for upper, lower in delta.terms if upper.degree), key=lambda f: f.degree)
    assert deepest.degree == 519 + (bottom != "|")
    assert shared_coproduct(ids, deepest) == coproduct(deepest)
    (lower_tree,) = deepest.trees
    assert shared_tree_cuts(ids, lower_tree) == tree_cuts(lower_tree)


def test_one_table_keeps_ids_canonical_across_kinds_and_signatures():
    stable3 = stable_signature(3)
    # ``v2`` means what it means in stable:3, ``v3`` clashes with it at another arity.
    clash = Signature((Operation("v1", 1), Operation("v2", 2), Operation("v3", 1)))
    planar = [*up_to(partial(enumerate_by_nodes, stable3), 4), *up_to(partial(enumerate_by_nodes, clash), 4)]
    comb = up_to(enumerate_forests, 5)
    ids = Table()
    for x in [y for pair in zip(planar, comb) for y in pair] + planar[len(comb):] + comb[len(planar):]:
        assert shared_coproduct(ids, x) == coproduct(x), x
    assert ids.tree(NIL) != ids.tree(LEAF)
    left, right = (parse_ptree(code, clash) for code in ("v2(v1(|),|)", "v2(|,v1(|))"))
    assert ids.tree(left) != ids.tree(right)
    assert ids.tree(parse_ptree("v3(|)", clash)) != ids.tree(parse_ptree("v3(|,|,|)", stable3))
    for t in (NIL, LEAF, left, right):
        assert shared_tree_cuts(ids, t) == tree_cuts(t)


def test_a_forest_of_3000_runs_folds_without_recursion(monkeypatch):
    # With every tree's cuts cut down to the one under its root, the fold of 3000 distinct
    # trees has one term, and a fold that spent a frame per run would pass the recursion limit.
    sig = Signature(tuple(Operation(f"o{i}", 0) for i in range(3000)))
    monkeypatch.setattr(Table, "tree_cuts", lambda self, n: (self.number((n,)), self.number(())))
    forest = Forest(PTree(op, ()) for op in sig.ops)
    assert coproduct(forest) == HckTensor({(forest, EMPTY_FOREST): 1})


def test_forty_equal_leaves_are_dealt_binomial_coefficients():
    delta = coproduct(Forest([LEAF] * 40))
    assert delta == HckTensor({(Forest([LEAF] * k), Forest([LEAF] * (40 - k))): comb(40, k) for k in range(41)})


def test_cut_and_antipode_tables_hold_no_zero_count():
    # The laws compare these tables with dict ==, which, unlike Counter ==, tells a
    # zero count from a missing key; so no count may be zero.
    ids = Table()
    forests = [ids.forest(f) for f in up_to(enumerate_forests, 6)]
    planar = [ids.number((ids.tree(t),)) for t in up_to(partial(enumerate_by_nodes, stable_signature(3)), 4)]
    for n in forests + planar:
        assert all(c > 0 for c in ids.delta(n).values()), ids.obj(n).code
    for n in forests:
        assert all(ids.antipode(n).values()), ids.obj(n).code


def test_cut_layer_keeps_no_module_level_table():
    def sizes():
        return {
            (module.__name__, name): len(value)
            for module in (hopf, linear, report, table)
            for name, value in vars(module).items()
            if not name.startswith("__") and isinstance(value, (dict, list, set))
        }

    before = sizes()
    sig = Signature((Operation("f", 2), Operation("g", 1)))
    for t in up_to(partial(enumerate_by_nodes, sig), 4):
        coproduct(t)
        tree_cuts(t)
    for f in up_to(enumerate_forests, 5):
        coproduct(f)
        tree_cuts(graft(f))
    assert sizes() == before


def test_parse_elem_refuses_huge_exponents():
    with pytest.raises(DsetreeError, match="exponent beyond 4300"):
        parse_elem("1e5000*()")
    assert parse_elem("1e3*()") == elem("1000*()")


def test_parse_elem_refuses_unreadable_coefficients():
    for text in ("x*()", "*()", " + 1*()", "1/0*()"):
        with pytest.raises(MalformedCode, match="coefficient"):
            parse_elem(text)


NAMES = ["a", "a!", "{", "%s"]
PIECES = ["(", ")", ",", "|", "*", " ", "1", "/0", *NAMES]
signatures = st.lists(st.tuples(st.sampled_from(NAMES), st.integers(0, 3)), min_size=1, unique_by=lambda op: op[0]).map(
    lambda ops: Signature(tuple(Operation(*op) for op in ops))
)


@st.composite
def near_codes(draw, sig):
    """A tree, forest or element text over ``sig`` with up to three pieces put in or taken out."""
    comb = [f.code for f in up_to(enumerate_forests, 3)]
    planar = [t.code for t in up_to(partial(enumerate_by_nodes, sig), 2)]
    text = draw(st.sampled_from(planar + comb + ["1*" + c for c in comb]))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(["", *PIECES])) + text[i + draw(st.integers(0, 1)):]
    return text


@settings(max_examples=200)
@given(st.data())
def test_parsers_return_a_value_or_raise_a_package_error(data):
    # Whatever the text, a parser reads it back from its value's code or refuses it with a DsetreeError.
    sig = data.draw(signatures)
    text = data.draw(st.one_of(st.lists(st.sampled_from(PIECES), max_size=15).map("".join), near_codes(sig)))
    for parse in (parse_code, parse_forest, partial(parse_ptree, sig=sig), parse_elem):
        try:
            value = parse(text)
        except DsetreeError:
            continue
        assert parse(value.text() if parse is parse_elem else value.code) == value
    with suppress(DsetreeError):
        assert parse_ptree(text, sig).code == text  # a planar code has one spelling


def test_coproduct_grading():
    for d in range(6):
        for f in enumerate_forests(d):
            for (upper, lower), c in coproduct(f).terms.items():
                assert upper.degree + lower.degree == d
                assert c > 0


def test_law_checks_pass_at_degree_4():
    for check in (check_coassociativity, check_counit, check_antipode, check_cocycle):
        report = check(4)
        assert report.passed, report.summary()
        assert report.checked == sum(len(enumerate_forests(d)) for d in range(5))


def test_cocycle_degree_zero():
    report = check_cocycle(0)
    assert report.passed and report.checked == 1


def test_delta_is_algebra_map_on_generator_pairs():
    for d1 in range(4):
        for d2 in range(4 - d1):
            for f in enumerate_forests(d1):
                for g in enumerate_forests(d2):
                    x = HckElem.from_forest(f)
                    y = HckElem.from_forest(g)
                    assert coproduct(product(x, y)) == naive_tensor_product(coproduct(x), coproduct(y))


small_forests = st.builds(
    parse_forest,
    st.sampled_from(["1", "()", "(())", "()*()", "((()))", "(()())", "(())*()"]),
)
small_elems = st.dictionaries(
    small_forests, st.integers(-3, 3).map(Fraction), max_size=3
).map(HckElem)


@settings(max_examples=60)
@given(small_elems, small_elems)
def test_delta_is_algebra_map_on_random_sums(x, y):
    assert coproduct(product(x, y)) == naive_tensor_product(coproduct(x), coproduct(y))


@settings(max_examples=60)
@given(small_elems)
def test_antipode_convolution_identity_on_random_sums(x):
    acc = HckElem.zero()
    for (a, b), c in coproduct(x).terms.items():
        acc = acc + product(
            antipode(HckElem.from_forest(a)), HckElem.from_forest(b)
        ).scale(c)
    assert acc == HckElem.one().scale(counit(x))


def test_text_form_ordering():
    x = elem("1*(()()) + 4*((()))")
    assert x.text() == "4*((())) + 1*(()())"
    assert parse_elem(x.text()) == x


def test_coproduct_of_parsed_three_node_ladder():
    ladder3 = parse_code("((()))")
    assert coproduct(ladder3) == tensor(
        [
            ("1", "((()))", 1),
            ("()", "(())", 1),
            ("(())", "()", 1),
            ("((()))", "1", 1),
        ]
    )
