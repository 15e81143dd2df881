"""References for the algebra, computed from the definitions on objects; none shares code with ``table.Table``.

- The product is the multiset union of forests (``Forest.union``), the product of the tensor
  square is that union factor by factor, and B₊ puts each forest under a new comb root.
- Δ of a tree is the cut under the root plus one cut per down-closed set of nodes that holds
  the root (Connes and Kreimer, hep-th/9808042; for decorated trees, Kock, "Polynomial functors
  and trees", arXiv:0807.2874).  The lower tree keeps those nodes, and a decorated one keeps a
  leaf edge at each severed slot.  The crown is the multiset of subtrees cut off, with a bare
  edge per original leaf edge.  The bare edge has no node: its only cut is ``(|, |)``.
- The core of a decorated tree drops its bare edges and its labels.
"""

from collections import Counter
from itertools import combinations
from math import comb

from hypothesis import example, given, settings, strategies as st

from dsetree import table
from dsetree.hopf import coproduct, tree_cuts
from dsetree.linear import LinComb
from dsetree.opbialg import core
from dsetree.ptrees import NIL, Operation, PTree, Signature, parse_ptree
from dsetree.trees import EMPTY_FOREST, LEAF, CombTree, Forest

signatures = st.builds(
    lambda names, arities: Signature(tuple(map(Operation, names, arities))),
    st.permutations(["a", "b", "ab"]),
    st.lists(st.integers(0, 4), min_size=1, max_size=3),
)


def _summed(pairs) -> LinComb:
    acc = Counter()
    for key, c in pairs:
        acc[key] += c
    return LinComb(acc)


def naive_product(x: LinComb, y: LinComb) -> LinComb:
    return _summed((f.union(g), c * d) for f, c in x.terms.items() for g, d in y.terms.items())


def naive_tensor_product(x: LinComb, y: LinComb) -> LinComb:
    return _summed(
        ((l1.union(l2), r1.union(r2)), c * d) for (l1, r1), c in x.terms.items() for (l2, r2), d in y.terms.items()
    )


def naive_bplus(x: LinComb) -> LinComb:
    return LinComb({Forest([CombTree(f.trees)]): c for f, c in x.terms.items()})


def _node_paths(t, path=()) -> list:
    """The path from the root, as child positions, of every node of ``t``."""
    if t == NIL:
        return []
    return [path, *(p for i, c in enumerate(t.children) for p in _node_paths(c, path + (i,)))]


def _cut(t, kept: set, path=()):
    """The lower tree of ``t`` that keeps the nodes at the paths in ``kept``, and the pieces cut off."""
    kids, off = [], []
    for i, c in enumerate(t.children):
        if path + (i,) in kept:
            lower, pieces = _cut(c, kept, path + (i,))
            kids.append(lower)
            off += pieces
        else:
            off.append(c)  # a subtree, or an original leaf edge
            if isinstance(t, PTree):
                kids.append(NIL)
    return (PTree(t.op, tuple(kids)) if isinstance(t, PTree) else CombTree(kids)), off


def reference_cuts(t) -> Counter:
    """How often each (upper forest, lower forest) pair is a cut of ``t``."""
    if t == NIL:
        return Counter({(Forest([NIL]), Forest([NIL])): 1})
    cuts = Counter({(Forest([t]), Forest([NIL] if isinstance(t, PTree) else [])): 1})
    nodes = _node_paths(t)
    for size in range(1, len(nodes) + 1):
        for kept in map(set, combinations(nodes, size)):
            if () in kept and all(p[:-1] in kept for p in kept if p):
                lower, off = _cut(t, kept)
                cuts[Forest(off), Forest([lower])] += 1
    return cuts


def reference_coproduct(x: LinComb) -> LinComb:
    """Δ extended multiplicatively to forests and linearly to ``x``."""
    terms = []
    for f, c in x.terms.items():
        delta = LinComb({(EMPTY_FOREST, EMPTY_FOREST): c})
        for t in f.trees:
            delta = naive_tensor_product(delta, LinComb(reference_cuts(t)))
        terms += delta.terms.items()
    return _summed(terms)


def _comb(t: PTree) -> CombTree:
    return CombTree(_comb(c) for c in t.children if c != NIL)


def reference_core(t: PTree) -> Forest:
    return EMPTY_FOREST if t == NIL else Forest([_comb(t)])


@st.composite
def planar_trees(draw, sig: Signature, max_nodes: int = 6) -> PTree:
    """A tree over ``sig`` of at most ``max_nodes`` nodes, each slot filled from the root down."""
    budget = draw(st.integers(0, max_nodes))

    def grow() -> PTree:
        nonlocal budget
        if budget == 0 or not draw(st.booleans()):
            return NIL
        budget -= 1
        op = draw(st.sampled_from(sig.ops))
        return PTree(op, tuple(grow() for _ in range(op.arity)))

    return grow()


FOREST_NODES = 12  # at most 2^12 ordered choices of cuts, so the reference stays quick


@st.composite
def forests_over_signatures(draw) -> list:
    """Up to three trees, each taken 1 to 4 times in a row (a run of equal trees) while the
    forest holds at most ``FOREST_NODES`` nodes; a tree that does not fit is left out."""
    sig = draw(signatures)
    forest, room = [], FOREST_NODES
    for t in draw(st.lists(planar_trees(sig), max_size=3)):
        nodes = t.code.count("(")
        if nodes <= room:
            copies = min(draw(st.integers(1, 4)), room // nodes if nodes else 4)
            forest += [t] * copies
            room -= copies * nodes
    return forest


BINARY = Signature((Operation("a", 2),))
A, AA = parse_ptree("a(|,|)", BINARY), parse_ptree("a(a(|,|),|)", BINARY)


@settings(max_examples=150, deadline=None)
@given(forests_over_signatures())
@example([AA])  # its kept children in another order make another lower tree
@example([A, A, A, AA, AA])  # a run of three folded onto a run of two
@example([NIL, NIL, A, A, A, A])  # a run of bare edges, which have one cut each
def test_cuts_coproduct_and_core_equal_their_definitions(planar):
    combs = [_comb(t) for t in planar if t != NIL]
    for t in dict.fromkeys(planar + combs):
        cuts = tree_cuts(t)
        assert Counter(cuts) == reference_cuts(t), t
        assert cuts[0] == (Forest([t]), Forest([NIL] if isinstance(t, PTree) else [])), t
    for t in planar:
        assert core(t) == reference_core(t), t
    x = LinComb({Forest(planar): 2, Forest(combs): -1})
    assert coproduct(x) == reference_coproduct(x)
    assert coproduct(Forest(planar)) == reference_coproduct(LinComb({Forest(planar): 1}))


def test_a_run_of_equal_trees_is_cut_once_per_multiset(monkeypatch):
    # Twelve leaves have 2^12 ordered choices of a cut each, but 13 multisets of them:
    # k leaves above and 12 - k below, dealt out in C(12, k) ways.
    numbered = []
    number = table.Table.number
    monkeypatch.setattr(table.Table, "number", lambda self, *args: numbered.append(args) or number(self, *args))
    delta = coproduct(Forest([LEAF] * 12))
    assert delta == LinComb({(Forest([LEAF] * k), Forest([LEAF] * (12 - k))): comb(12, k) for k in range(13)})
    assert len(numbered) <= 100
