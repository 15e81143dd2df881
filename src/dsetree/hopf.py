"""The Hopf algebra of rooted forests with the admissible-cut coproduct.

Elements are finite rational-linear combinations of forests; the product is
multiset union of forests, the coproduct sums over admissible cuts (the
root-containing subtree below, the forest of upper pieces above), and the
antipode is the usual connected-graded recursion.  All coefficients are exact
:class:`fractions.Fraction` values.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from typing import Union

from .errors import MalformedCode
from .linear import LinComb
from .report import CheckReport, check_coassociative, check_each, up_to
from .trees import (
    EMPTY_FOREST,
    CombTree,
    Forest,
    enumerate_forests,
    graft,
    parse_forest,
)

# Elements and tensors of the Hopf algebra are both linear combinations.
HckElem = LinComb
HckTensor = LinComb


def product(x: HckElem, y: HckElem) -> HckElem:
    """Bilinear extension of multiset union of forests."""
    return x.product(y)


@lru_cache(maxsize=None)
def tree_cuts(t: CombTree) -> tuple[tuple[Forest, Forest], ...]:
    """All admissible cuts of ``t`` as (upper forest, lower forest) pairs.

    The lower factor is the root-containing subtree (a one-tree forest) or
    the empty forest for the cut below the root; the upper factor collects
    the connected pieces above the cut.
    """
    # Per child: either cut its root edge (the whole child goes above), or
    # keep its root and recurse on the root-containing cuts of the child.
    child_options: list[list[tuple[Forest, CombTree | None]]] = []
    for c in t.children:
        options: list[tuple[Forest, CombTree | None]] = [(Forest([c]), None)]
        for upper, lower in tree_cuts(c):
            if lower.trees:
                options.append((upper, lower.trees[0]))
        child_options.append(options)

    cuts: list[tuple[Forest, Forest]] = [(Forest([t]), EMPTY_FOREST)]
    for combo in iproduct(*child_options):
        upper_trees: list[CombTree] = []
        kept: list[CombTree] = []
        for upper, lower in combo:
            upper_trees.extend(upper.trees)
            if lower is not None:
                kept.append(lower)
        cuts.append((Forest(upper_trees), Forest([CombTree(kept)])))
    return tuple(cuts)


def coproduct(x: Union[CombTree, Forest, HckElem]) -> HckTensor:
    """Admissible-cut coproduct, extended multiplicatively and linearly."""
    if isinstance(x, CombTree):
        x = HckElem.from_tree(x)
    elif isinstance(x, Forest):
        x = HckElem.from_forest(x)
    acc: dict[tuple[Forest, Forest], Fraction] = {}
    for forest, coeff in x.terms.items():
        for upper, lower in _forest_cuts(forest):
            key = (upper, lower)
            acc[key] = acc.get(key, Fraction(0)) + coeff
    return HckTensor(acc)


@lru_cache(maxsize=None)
def _forest_cuts(f: Forest) -> tuple[tuple[Forest, Forest], ...]:
    pairs: list[tuple[Forest, Forest]] = [(EMPTY_FOREST, EMPTY_FOREST)]
    for t in f.trees:
        pairs = [
            (upper.union(cut_upper), lower.union(cut_lower))
            for upper, lower in pairs
            for cut_upper, cut_lower in tree_cuts(t)
        ]
    return tuple(pairs)


def counit(x: HckElem) -> Fraction:
    """Coefficient of the empty forest."""
    return x.terms.get(EMPTY_FOREST, Fraction(0))


@lru_cache(maxsize=None)
def _antipode_tree(t: CombTree) -> HckElem:
    acc = HckElem.from_tree(t, -1)
    for upper, lower in tree_cuts(t):
        # Proper cuts only: lower nonempty and not the whole tree.
        if not lower.trees or lower.degree == t.node_count:
            continue
        acc = acc - product(antipode(HckElem.from_forest(upper)), HckElem.from_forest(lower))
    return acc


def antipode(x: HckElem) -> HckElem:
    """Convolution inverse of the identity, extended multiplicatively."""
    total = HckElem.zero()
    for forest, coeff in x.terms.items():
        term = HckElem.one()
        for t in forest.trees:
            term = product(term, _antipode_tree(t))
        total = total + term.scale(coeff)
    return total


def bplus(x: HckElem) -> HckElem:
    """Linear extension of grafting a forest under a new root."""
    acc: dict[Forest, Fraction] = {}
    for forest, coeff in x.terms.items():
        key = Forest([graft(forest)])
        acc[key] = acc.get(key, Fraction(0)) + coeff
    return HckElem(acc)


def parse_elem(s: str) -> HckElem:
    """Parse the ``coeff*forest + ...`` text form of an element."""
    s = s.strip()
    if s == "0":
        return HckElem.zero()
    acc: dict[Forest, Fraction] = {}
    for part in s.split(" + "):
        coeff_text, _, forest_text = part.partition("*")
        if not forest_text:
            raise MalformedCode(f"term without forest: {part!r}")
        forest = parse_forest(forest_text)
        acc[forest] = acc.get(forest, Fraction(0)) + Fraction(coeff_text)
    return HckElem(acc)


def check_cocycle(degree_bound: int) -> CheckReport:
    """Verify the 1-cocycle identity for grafting on all small forests."""

    def law(f: Forest):
        lhs = coproduct(bplus(HckElem.from_forest(f)))
        rhs_terms: dict[tuple[Forest, Forest], Fraction] = {}
        for (upper, lower), c in coproduct(f).terms.items():
            key = (upper, Forest([graft(lower)]))
            rhs_terms[key] = rhs_terms.get(key, Fraction(0)) + c
        rhs = HckTensor(rhs_terms) + HckTensor({(Forest([graft(f)]), EMPTY_FOREST): 1})
        return None if lhs == rhs else (rhs.text(), lhs.text())

    return check_each("cocycle", up_to(enumerate_forests, degree_bound), law)


def check_coassociativity(degree_bound: int) -> CheckReport:
    """Verify (coproduct x Id) and (Id x coproduct) agree on small forests."""
    forests = up_to(enumerate_forests, degree_bound)
    return check_coassociative("coassociativity", forests, coproduct)


def check_counit(degree_bound: int) -> CheckReport:
    """Verify both counit laws on all small forests."""

    def law(f: Forest):
        left = HckElem.zero()
        right = HckElem.zero()
        for (a, b), c in coproduct(f).terms.items():
            left = left + HckElem.from_forest(b, c * counit(HckElem.from_forest(a)))
            right = right + HckElem.from_forest(a, c * counit(HckElem.from_forest(b)))
        expected = HckElem.from_forest(f)
        if left != expected or right != expected:
            return (expected.text(), f"left={left.text()} right={right.text()}")
        return None

    return check_each("counit", up_to(enumerate_forests, degree_bound), law)


def check_antipode(degree_bound: int) -> CheckReport:
    """Verify m(S x Id)coproduct = unit*counit on all small forests."""

    def law(f: Forest):
        acc = HckElem.zero()
        for (a, b), c in coproduct(f).terms.items():
            acc = acc + product(antipode(HckElem.from_forest(a)), HckElem.from_forest(b)).scale(c)
        expected = HckElem.one() if f == EMPTY_FOREST else HckElem.zero()
        return None if acc == expected else (expected.text(), acc.text())

    return check_each("antipode", up_to(enumerate_forests, degree_bound), law)
