"""The Hopf algebra of rooted forests with the admissible-cut coproduct.

Elements are finite rational-linear combinations of forests; the product is
multiset union of forests, the coproduct sums over admissible cuts (the
root-containing subtree below, the forest of upper pieces above), and the
antipode is the cancellation-free forest formula: a sum over every set of
edges, signed by the number of pieces left.  Public results hold exact
:class:`fractions.Fraction` values.  The cut enumeration and the coproduct
also serve the decorated trees of :mod:`dsetree.opbialg`.  Every map and law
computes on the ids of one :class:`dsetree.table.Table` per call.
"""

from __future__ import annotations

from functools import cache

from .errors import MalformedCode
from .linear import LinComb, Scalar, add_up, parse_scalar
from .report import CheckReport, check_coassociative, check_each, up_to
from .table import Table
from .trees import EMPTY_FOREST, CombTree, Forest, enumerate_forests, parse_forest

# Elements and tensors of the Hopf algebra are both linear combinations.
HckElem = LinComb
HckTensor = LinComb


def product(x: HckElem, y: HckElem) -> HckElem:
    """Bilinear extension of multiset union of forests."""
    return HckElem.sum((f.union(g), c * d) for f, c in x.terms.items() for g, d in y.terms.items())


def tree_cuts(t) -> tuple[tuple[Forest, Forest], ...]:
    """All cuts of ``t`` as (upper forest, lower forest) pairs, the cut under the root first.

    ``t`` is a :class:`CombTree` or a decorated tree.  Below the cut under the root
    lies nothing of a comb tree and the bare root edge of a decorated one; below any
    other cut lies one tree.  The call numbers trees and forests in a cut table of its
    own (:class:`Table`), fills each tree's cuts children first with no recursion, and
    builds a forest, with any tree it holds, once and only when it leaves in a result.
    """
    ids = Table()
    flat = ids.tree_cuts(ids.tree(t))
    return tuple(zip(map(ids.obj, flat[::2]), map(ids.obj, flat[1::2])))


def coproduct(x) -> HckTensor:
    """Cut coproduct of a tree, a forest or a linear combination of forests.

    It is extended multiplicatively to forests and linearly to combinations,
    over one cut table (that of :func:`tree_cuts`) for all of ``x``.
    """
    ids = Table()
    if not isinstance(x, LinComb):
        x = LinComb.from_forest(x if isinstance(x, Forest) else Forest([x]))
    return ids.elem(add_up((pair, n * c) for f, c in ids.numbered(x).items() for pair, n in ids.delta(f).items()))


def counit(x: HckElem) -> Scalar:
    """Coefficient of the empty forest.  Decorated forests have another counit (:func:`opbialg.op_counit`)."""
    _check_comb("counit", x)
    return x.terms.get(EMPTY_FOREST, 0)


def _check_comb(name: str, x: HckElem) -> None:
    """A ``TypeError`` naming ``name`` for the first member of a forest of ``x`` that is not a comb tree."""
    for t in (t for f in x.terms for t in f.trees if type(t) is not CombTree):
        raise TypeError(f"{name} takes combinations of comb-tree forests, got the member {t.code}")


def antipode(x: HckElem) -> HckElem:
    """Convolution inverse of the identity: over every set of edges of each comb forest, the product of the
    pieces left, signed (-1) to their number.  Decorated forests have none: their degree 0 is not connected."""
    _check_comb("antipode", x)
    ids = Table()
    return ids.elem(add_up((n, a * c) for f, a in ids.numbered(x).items() for n, c in ids.antipode(f).items()))


def bplus(x: HckElem) -> HckElem:
    """Linear extension of grafting a comb forest under a new root."""
    _check_comb("bplus", x)
    ids = Table()
    return ids.elem({ids.graft(f): c for f, c in ids.numbered(x).items()})


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
        try:
            coeff = parse_scalar(coeff_text)
        except (ValueError, ZeroDivisionError):
            raise MalformedCode(f"unreadable coefficient in term {part!r}") from None
        pairs.append((parse_forest(forest_text), coeff))
    return HckElem.sum(pairs)


def check_cocycle(degree_bound: int) -> CheckReport:
    """Verify the 1-cocycle identity for grafting on all small forests."""
    ids = Table()
    empty = ids.forest_of(())
    planted = cache(ids.graft)

    def law(f: Forest):
        n = ids.forest(f)
        rhs = {(planted(n), empty): 1}
        for (upper, lower), c in ids.delta(n).items():
            pair = upper, planted(lower)
            rhs[pair] = rhs.get(pair, 0) + c
        lhs = ids.delta(planted(n))
        return None if lhs == rhs else (ids.elem(rhs).text(), ids.elem(lhs).text())

    return check_each("cocycle", up_to(enumerate_forests, degree_bound), law)


def check_coassociativity(degree_bound: int) -> CheckReport:
    """Verify (coproduct x Id) and (Id x coproduct) agree on small forests."""
    ids = Table()
    return check_coassociative("coassociativity", up_to(enumerate_forests, degree_bound), ids.forest, ids.delta)


def check_counit(degree_bound: int) -> CheckReport:
    """Verify both counit laws on all small forests."""
    ids = Table()
    empty = ids.forest_of(())

    def law(f: Forest):
        n = ids.forest(f)
        delta = ids.delta(n).items()  # each (upper, lower) pair once, so no two terms below share a key
        left = {lower: c for (upper, lower), c in delta if upper == empty}
        right = {upper: c for (upper, lower), c in delta if lower == empty}
        expected = {n: 1}
        if left != expected or right != expected:
            return (ids.elem(expected).text(), f"left={ids.elem(left).text()} right={ids.elem(right).text()}")
        return None

    return check_each("counit", up_to(enumerate_forests, degree_bound), law)


def check_antipode(degree_bound: int) -> CheckReport:
    """Verify m(S x Id)coproduct = unit*counit on all small forests."""
    ids = Table()
    antipode_of = cache(lambda n: ids.elem(ids.antipode(n)))  # forest id -> S

    def law(f: Forest):
        acc = HckElem.sum(
            (key, c * d)
            for (a, b), c in ids.delta(ids.forest(f)).items()
            for key, d in product(antipode_of(a), ids.elem({b: 1})).terms.items()
        )
        expected = HckElem.one() if f == EMPTY_FOREST else HckElem.zero()
        return None if acc == expected else (expected.text(), acc.text())

    return check_each("antipode", up_to(enumerate_forests, degree_bound), law)
