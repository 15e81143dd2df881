"""The Hopf algebra of rooted forests with the admissible-cut coproduct.

Elements are finite rational-linear combinations of forests; the product is
multiset union of forests, the coproduct sums over admissible cuts (the
root-containing subtree below, the forest of upper pieces above), and the
antipode is the cancellation-free forest formula: a sum over every set of
edges, signed by the number of pieces left.  Public results hold exact
:class:`fractions.Fraction` values.  The cut enumeration and the coproduct
also serve the decorated trees of :mod:`dsetree.opbialg`.  No cache outlives
a call: each call, law check or solve fills one table (:class:`_Ids`) of its
own, and reads coproducts, antipodes, products and grafts off its int ids.
Δ is multiplicative: a forest is cut run by run of equal trees (m copies deal out
a multiset of cuts in m!/∏kᵢ! ways), folded from the last run back, while a tree's
cuts stay the plain product over its children, so the cocycle law compares two sums.
Counts of cuts and antipode terms are plain dicts that never hold 0, so laws compare them with ``==``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate, chain, combinations_with_replacement, groupby, product as iproduct, repeat
from math import prod

from .errors import MalformedCode
from .linear import LinComb, Scalar, add_up, parse_scalar
from .ptrees import NIL, PTree
from .report import CheckReport, check_coassociative, check_each, up_to
from .trees import EMPTY_FOREST, LEAF, CombTree, Forest, _children_first, enumerate_forests, parse_forest

# Elements and tensors of the Hopf algebra are both linear combinations.
HckElem = LinComb
HckTensor = LinComb


def product(x: HckElem, y: HckElem) -> HckElem:
    """Bilinear extension of multiset union of forests."""
    return HckElem.sum((f.union(g), c * d) for f, c in x.terms.items() for g, d in y.terms.items())


class _Ids:
    """Small int ids for the trees and forests of one cut table, given on first sight.

    A forest's key is the sorted tuple of its members' ids; a tree's is its operation
    name (``""`` for a comb tree, ``"|"`` for the bare edge) and its child ids, sorted
    for a comb tree.  A tree's proto is a tree of the same kind and root label.  A
    :class:`LinComb` enters only through :meth:`numbered` and leaves only through :meth:`elem`.
    """

    def __init__(self):
        self.ids: dict = {}  # each key, and each tree object met -> its id
        self.keys, self.protos, self.objs, self.cuts = [], [], [], []  # per id; a forest's proto is None
        self.pieces: dict = {}  # comb tree id -> its edge sets (see edge_cuts)
        self.cores: dict = {}  # decorated tree id -> the comb tree ids of its core (see core)

    def number(self, key: tuple, proto=None) -> int:
        n = self.ids.get(key)
        if n is None:
            n = self.ids[key] = len(self.keys)
            self.keys.append(key)
            self.protos.append(proto)
            self.objs.append(None)
            self.cuts.append(None)
        return n

    def parts(self, n: int) -> tuple[int, ...]:
        """The members of forest ``n`` or the children of tree ``n``."""
        return self.keys[n] if self.protos[n] is None else self.keys[n][1:]

    def tree(self, t) -> int:
        """The id of the tree object ``t``; unknown subtrees are numbered children first."""
        n = self.ids.get(t)
        if n is None:
            for node in _children_first(t, self.ids.__contains__):
                kids = [self.ids[c] for c in node.children]
                head = "" if type(node) is CombTree else node.op.name if node.op else "|"
                n = self.ids[node] = self.number((head, *(kids if head else sorted(kids))), node)
                self.objs[n] = self.objs[n] or node
        return n

    def obj(self, n: int):
        """The object of forest or tree ``n``, built with what it lacks, children first."""
        for i in _children_first(n, self.objs.__getitem__, self.parts):
            p, kids = self.protos[i], [self.objs[k] for k in self.parts(i)]
            self.objs[i] = Forest(kids) if p is None else CombTree(kids) if type(p) is CombTree else PTree(p.op, kids)
        return self.objs[n]

    def tree_cuts(self, n: int) -> tuple[int, ...]:
        """The cuts of tree ``n``, upper and lower forest id in turn, filled children first."""
        for i in _children_first(n, self.cuts.__getitem__, self.parts):
            node, head = self.protos[i], self.keys[i][:1]
            # Below the cut under the root: nothing of a comb tree, the root edge of a decorated one.
            found = [self.number((i,)), self.number((self.tree(NIL),) if head[0] else ())]
            if head != ("|",):
                # Per child: its cut under the root (all of it above) or another (its root part below).
                flats = [self.cuts[c] for c in self.parts(i)]
                uppers, lowers = ([[self.keys[f] for f in flat[side::2]] for flat in flats] for side in (0, 1))
                for above, below in zip(iproduct(*uppers), iproduct(*lowers)):
                    kept = sum(below, ())
                    lower = self.number(head + (kept if head[0] else tuple(sorted(kept))), node)
                    found += (self.number(tuple(sorted(sum(above, ())))), self.number((lower,)))
            self.cuts[i] = tuple(found)
        return self.cuts[n]

    def forest(self, f: Forest) -> int:
        """The id of the forest object ``f``."""
        return self.number(tuple(sorted(map(self.tree, f.trees))))

    def numbered(self, x: LinComb) -> dict:
        """The terms of ``x`` keyed by forest ids."""
        return {self.forest(f): c for f, c in x.terms.items()}

    def product(self, x: dict, y: dict) -> dict:
        """Multiset union on elements keyed by forest ids, extended bilinearly; zero sums are dropped."""
        keys, number = self.keys, self.number
        return add_up((number(tuple(sorted(keys[f] + keys[g]))), c * d) for f, c in x.items() for g, d in y.items())

    def graft(self, f: int) -> int:
        """The id of the one-tree forest that grafts the members of forest ``f`` under a new comb root."""
        return self.number((self.number(("", *self.keys[f]), LEAF),))

    def delta(self, n: int) -> dict:
        """How often each (upper, lower) forest id pair is a cut of forest ``n``."""
        return self.forest_cuts(self.keys[n])

    def forest_cuts(self, trees) -> dict:
        """How often each (upper, lower) forest id pair is a cut of the forest of sorted tree ids ``trees``."""
        keys, number = self.keys, self.number
        starts = [i for i, n in enumerate(trees) if not i or n != trees[i - 1]] + [len(trees)]
        # Runs of equal trees (run_cuts) are folded from the last back onto the flat cuts of
        # the last tree if it is a run of its own, else onto the empty forest's one cut.
        j = len(starts) - 1
        if j and starts[j - 1] == len(trees) - 1:
            j -= 1
            cuts = _count(self.cuts[trees[-1]] or self.tree_cuts(trees[-1]))
        else:
            cuts = {(number(()),) * 2: 1}
        for j in reversed(range(j)):
            cuts, held = {}, cuts
            for up, low, ways in self.run_cuts(trees[starts[j]], starts[j + 1] - starts[j]):
                for (u, l), c in held.items():
                    pair = number(tuple(sorted(up + keys[u]))), number(tuple(sorted(low + keys[l])))
                    cuts[pair] = cuts.get(pair, 0) + ways * c
        return cuts

    def run_cuts(self, n: int, m: int):
        """Per multiset of m cuts of tree ``n``: its upper and lower member ids, and the m!/∏kᵢ! ways to deal it."""
        flat = self.cuts[n] or self.tree_cuts(n)
        uppers, lowers = [self.keys[u] for u in flat[::2]], [self.keys[l] for l in flat[1::2]]
        if m == 1:
            yield from zip(uppers, lowers, repeat(1))
            return
        facts = [*accumulate(range(1, m + 1), int.__mul__, initial=1)]  # 0! .. m!
        for combo in combinations_with_replacement(range(len(uppers)), m):
            up, low = ((*chain.from_iterable(map(side.__getitem__, combo)),) for side in (uppers, lowers))
            yield up, low, facts[m] // prod(facts[len([*same])] for _, same in groupby(combo))

    def antipode(self, n: int) -> dict:
        """The antipode of forest ``n`` per forest id: over every set of edges, the pieces left, signed."""
        signed = {}
        for combo in iproduct(*map(self.edge_cuts, self.keys[n])):
            pieces = sorted(piece for cut in combo for piece in cut)
            f = self.number(tuple(pieces))
            signed[f] = signed.get(f, 0) + (-1) ** len(pieces)
        return signed

    def edge_cuts(self, n: int) -> list[tuple[int, ...]]:
        """Per set of edges of comb tree ``n``, the ids of the piece holding the root and then of the
        pieces cut off, filled children first: a child edge is kept or cut, whatever is cut inside."""
        for i in _children_first(n, self.pieces.__contains__, self.parts):
            # Per child edge: (child root kept under the root, pieces cut off).
            choices = [
                [choice for cut in self.pieces[c] for choice in (((cut[0],), cut[1:]), ((), cut))]
                for c in self.parts(i)
            ]
            self.pieces[i] = [
                (self.number(("", *sorted(r for kept, _ in combo for r in kept)), self.protos[i]),
                 *(piece for _, off in combo for piece in off))
                for combo in iproduct(*choices)
            ]
        return self.pieces[n]

    def core(self, n: int) -> tuple[int, ...]:
        """The comb tree ids of decorated tree ``n``'s core, filled children first: none for the
        bare edge, and for a node one tree over the cores of its children."""
        for i in _children_first(n, self.cores.__contains__, self.parts):
            kids = sorted(k for c in self.parts(i) for k in self.cores[c])
            self.cores[i] = () if self.keys[i] == ("|",) else (self.number(("", *kids), LEAF),)
        return self.cores[n]

    def elem(self, terms: dict, den: int = 1) -> LinComb:
        """Terms keyed by forest ids or by (upper, lower) id pairs, over ``den``, as a :class:`LinComb`."""
        obj = self.obj  # LinComb makes an int coefficient a Fraction and keeps a Fraction as it is
        terms = terms if den == 1 else {k: Fraction(c, den) for k, c in terms.items()}
        return LinComb({obj(k) if type(k) is int else tuple(map(obj, k)): c for k, c in terms.items()})


def _count(flat) -> dict:
    """How often each (upper, lower) pair of the flat cuts ``flat``, upper and lower in turn, occurs."""
    counts = {}
    for pair in zip(flat[::2], flat[1::2]):
        counts[pair] = counts.get(pair, 0) + 1
    return counts


def tree_cuts(t) -> tuple[tuple[Forest, Forest], ...]:
    """All cuts of ``t`` as (upper forest, lower forest) pairs, the cut under the root first.

    ``t`` is a :class:`CombTree` or a decorated tree.  Below the cut under the root
    lies nothing of a comb tree and the bare root edge of a decorated one; below any
    other cut lies one tree.  The call numbers trees and forests in a cut table of its
    own (:class:`_Ids`), fills each tree's cuts children first with no recursion, and
    builds a forest, with any tree it holds, once and only when it leaves in a result.
    """
    ids = _Ids()
    flat = ids.tree_cuts(ids.tree(t))
    return tuple(zip(map(ids.obj, flat[::2]), map(ids.obj, flat[1::2])))


def coproduct(x) -> HckTensor:
    """Cut coproduct of a tree, a forest or a linear combination of forests.

    It is extended multiplicatively to forests and linearly to combinations,
    over one cut table (that of :func:`tree_cuts`) for all of ``x``.
    """
    ids = _Ids()
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
    ids = _Ids()
    return ids.elem(add_up((n, a * c) for f, a in ids.numbered(x).items() for n, c in ids.antipode(f).items()))


def bplus(x: HckElem) -> HckElem:
    """Linear extension of grafting a comb forest under a new root."""
    _check_comb("bplus", x)
    ids = _Ids()
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
    ids = _Ids()
    empty = ids.number(())
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
    ids = _Ids()
    return check_coassociative("coassociativity", up_to(enumerate_forests, degree_bound), ids.forest, ids.delta)


def check_counit(degree_bound: int) -> CheckReport:
    """Verify both counit laws on all small forests."""
    ids = _Ids()
    empty = ids.number(())

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
    ids = _Ids()
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
