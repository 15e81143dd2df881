"""The Hopf algebra of rooted forests with the admissible-cut coproduct.

Elements are finite rational-linear combinations of forests; the product is
multiset union of forests, the coproduct sums over admissible cuts (the
root-containing subtree below, the forest of upper pieces above), and the
antipode is the cancellation-free forest formula: a sum over every set of
edges, signed by the number of pieces left.  All coefficients are exact
:class:`fractions.Fraction` values.  The cut enumeration and the coproduct
also serve the decorated trees of :mod:`dsetree.opbialg`.  No cache outlives
a call: callers that repeat work pass a local ``functools.cache`` or a table,
which maps trees to their cuts and forest codes to one shared forest each.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import chain, product as iproduct
from typing import Optional, Sequence

from .errors import MalformedCode
from .linear import LinComb, Scalar, parse_scalar
from .report import CheckReport, check_coassociative, check_each, up_to
from .trees import EMPTY_FOREST, CombTree, Forest, enumerate_forests, graft, parse_forest

# Elements and tensors of the Hopf algebra are both linear combinations.
HckElem = LinComb
HckTensor = LinComb


def product(x: HckElem, y: HckElem) -> HckElem:
    """Bilinear extension of multiset union of forests."""
    return x.product(y)


def _children_first(t, done: dict) -> dict:
    """The subtrees of ``t`` that are not keys of ``done``, each once and after its
    children: the reversed pre-order of an explicit stack, so no call recurses."""
    found, stack = [], [t]
    while stack:
        node = stack.pop()
        if node not in done:
            found.append(node)
            stack.extend(node.children)
    return dict.fromkeys(reversed(found))


def _shared(table: dict, trees: Sequence) -> Forest:
    """The table's one forest of ``trees``, found by its code and built on first sight."""
    code = "*".join(sorted([t.code for t in trees])) or "1"
    forest = table.get(code)
    if forest is None:
        forest = Forest(trees)
        table[forest.code] = forest  # the forest's own string, so each code is stored once
    return forest


def tree_cuts(t, table: Optional[dict] = None) -> tuple[tuple[Forest, Forest], ...]:
    """All cuts of ``t`` as (upper forest, lower forest) pairs, the cut under the root first.

    ``t`` is a :class:`CombTree` or a decorated tree.  The lower factor is
    the forest of the root-containing part: ``t.stump`` for the cut under the
    root, otherwise one tree, rebuilt by ``t.with_children``.  The upper
    factor collects the pieces above the cut.  A nodeless tree has only the
    cut under its root.

    ``table`` caches the work of one computation: it maps every tree met to
    its cuts, and every forest code met to the one forest of that code, built
    on first sight (a tree never equals a string, so the keys never clash).
    Without it a fresh table is used.  It is filled children first, with no recursion.
    """
    if table is None:
        table = {}
    cuts = table.get(t)
    if cuts is not None:
        return cuts
    for node in _children_first(t, table):
        found = [(_shared(table, [node]), _shared(table, node.stump.trees))]
        if node.node_count:
            # Per child: its cut under the root (the whole child goes above) or one
            # of its other cuts (its root part stays below).
            for combo in iproduct(*(table[c] for c in node.children)):
                upper = [piece for pieces, _ in combo for piece in pieces.trees]
                lower = [node.with_children(kept for _, below in combo for kept in below.trees)]
                found.append((_shared(table, upper), _shared(table, lower)))
        cuts = table[node] = tuple(found)
    return cuts  # of ``t``, which comes after all its subtrees


def coproduct(x, table: Optional[dict] = None) -> HckTensor:
    """Cut coproduct of a tree, a forest or a linear combination of forests.

    It is extended multiplicatively to forests and linearly to combinations.
    ``table`` is the cache of :func:`tree_cuts`; the factors of the result
    are its shared forests.
    """
    if table is None:
        table = {}
    if isinstance(x, LinComb):
        weighted = [(forest.trees, coeff) for forest, coeff in x.terms.items()]
    else:
        weighted = [(x.trees if isinstance(x, Forest) else (x,), 1)]
    pairs = []
    for trees, coeff in weighted:
        if len(trees) == 1:
            # A tree's cuts are already pairs of shared forests.
            pairs.extend((cut, coeff) for cut in tree_cuts(trees[0], table))
            continue
        for combo in iproduct(*(tree_cuts(t, table) for t in trees)):
            upper = [piece for pieces, _ in combo for piece in pieces.trees]
            lower = [piece for _, pieces in combo for piece in pieces.trees]
            pairs.append(((_shared(table, upper), _shared(table, lower)), coeff))
    return HckTensor.sum(pairs)


def counit(x: HckElem) -> Scalar:
    """Coefficient of the empty forest."""
    return x.terms.get(EMPTY_FOREST, 0)


def _edge_cuts(t: CombTree, table: dict) -> list[tuple[CombTree, ...]]:
    """For each set of edges of ``t``, the piece holding the root followed by
    the pieces cut off.  Each child edge is kept or cut, whatever is cut inside
    the child.  ``table`` maps every tree met to its result, filled children first."""
    for node in _children_first(t, table):
        # Per child edge: (child roots kept under the root, pieces cut off).
        choices = [
            [choice for cut in table[c] for choice in (((cut[0],), cut[1:]), ((), cut))]
            for c in node.children
        ]
        table[node] = [
            (CombTree(r for kept, _ in combo for r in kept), *(piece for _, off in combo for piece in off))
            for combo in iproduct(*choices)
        ]
    return table[t]


def antipode(x: HckElem) -> HckElem:
    """Convolution inverse of the identity: over every set of edges of each
    forest, the product of the pieces left, signed (-1) to their number."""
    table: dict = {}
    return HckElem.sum(
        (pieces, coeff * (-1) ** len(pieces.trees))
        for forest, coeff in x.terms.items()
        for combo in iproduct(*(_edge_cuts(t, table) for t in forest.trees))
        for pieces in [Forest([piece for cut in combo for piece in cut])]
    )


def bplus(x: HckElem) -> HckElem:
    """Linear extension of grafting a forest under a new root."""
    return HckElem.sum((Forest([graft(forest)]), coeff) for forest, coeff in x.terms.items())


def parse_elem(s: str) -> HckElem:
    """Parse the ``coeff*forest + ...`` text form of an element."""
    s = s.strip()
    if s == "0":
        return HckElem.zero()
    pairs = []
    for part in s.split(" + "):
        coeff_text, _, forest_text = part.partition("*")
        if not forest_text:
            raise MalformedCode(f"term without forest: {part!r}")
        pairs.append((parse_forest(forest_text), parse_scalar(coeff_text)))
    return HckElem.sum(pairs)


def check_cocycle(degree_bound: int) -> CheckReport:
    """Verify the 1-cocycle identity for grafting on all small forests."""
    table: dict = {}

    def law(f: Forest):
        lhs = coproduct(bplus(HckElem.from_forest(f)), table)
        rhs = HckTensor.sum(chain(
            (((upper, Forest([graft(lower)])), c) for (upper, lower), c in coproduct(f, table).terms.items()),
            [((Forest([graft(f)]), EMPTY_FOREST), 1)],
        ))
        return None if lhs == rhs else (rhs.text(), lhs.text())

    return check_each("cocycle", up_to(enumerate_forests, degree_bound), law)


def check_coassociativity(degree_bound: int) -> CheckReport:
    """Verify (coproduct x Id) and (Id x coproduct) agree on small forests."""
    forests = up_to(enumerate_forests, degree_bound)
    return check_coassociative("coassociativity", forests, partial(coproduct, table={}))


def check_counit(degree_bound: int) -> CheckReport:
    """Verify both counit laws on all small forests."""
    table: dict = {}

    def law(f: Forest):
        delta = coproduct(f, table).terms.items()
        left = HckElem.sum((b, c * counit(HckElem.from_forest(a))) for (a, b), c in delta)
        right = HckElem.sum((a, c * counit(HckElem.from_forest(b))) for (a, b), c in delta)
        expected = HckElem.from_forest(f)
        if left != expected or right != expected:
            return (expected.text(), f"left={left.text()} right={right.text()}")
        return None

    return check_each("counit", up_to(enumerate_forests, degree_bound), law)


def check_antipode(degree_bound: int) -> CheckReport:
    """Verify m(S x Id)coproduct = unit*counit on all small forests."""
    table: dict = {}
    antipode_of = cache(lambda f: antipode(HckElem.from_forest(f)))

    def law(f: Forest):
        acc = HckElem.sum(
            (key, c * d)
            for (a, b), c in coproduct(f, table).terms.items()
            for key, d in product(antipode_of(a), HckElem.from_forest(b)).terms.items()
        )
        expected = HckElem.one() if f == EMPTY_FOREST else HckElem.zero()
        return None if acc == expected else (expected.text(), acc.text())

    return check_each("antipode", up_to(enumerate_forests, degree_bound), law)
