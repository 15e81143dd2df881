"""The cut table: int ids for the trees and forests of one call, and the cuts, products and cores read off them.

Each call, law check or solve fills one :class:`Table` of its own; no cache outlives it.  A tree's cuts and a comb
tree's edge sets are kept once per tree, as dicts from each distinct pair or edge set to its count, and handed out
uncopied, so no reader writes into them.  Δ is multiplicative: a forest is cut run by run of equal trees (m copies
deal out a multiset of cut pairs in m!/∏kᵢ! · ∏cᵢ^kᵢ ways), folded from the last run back, while a tree's cuts stay
the ordered product over its children, so the cocycle law compares two sums.  Counts of cuts and antipode terms are
plain dicts that never hold 0, so laws compare them with ``==``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain, combinations_with_replacement, groupby, product as iproduct
from math import prod

from .linear import LinComb, add_up
from .ptrees import NIL, PTree
from .trees import LEAF, CombTree, Forest, _children_first


class Table:
    """Small int ids for the trees and forests of one cut table, given on first sight.

    A forest's key is the sorted tuple of its members' ids; a tree's is its operation name (``""`` for a comb
    tree, ``"|"`` for the bare edge) and its child ids, sorted for a comb tree: one element of ``1 + P(X)`` over
    the trees numbered before it.  No other class builds or reads a key.  A tree's proto is a tree of the same
    kind and root label.  A :class:`LinComb` enters only through :meth:`numbered` and leaves only through :meth:`elem`.
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

    def forest_of(self, tree_ids) -> int:
        """The id of the forest whose members have the ids ``tree_ids``, in any order."""
        return self.number(tuple(sorted(tree_ids)))

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

    def tree_cuts(self, n: int) -> dict:
        """How often each (upper, lower) forest id pair is a cut of tree ``n``, the cut under the root first,
        filled children first: per child's pair, in order, weighed by the product of the children's counts."""
        for i in _children_first(n, self.cuts.__getitem__, self.parts):
            node, head, number = self.protos[i], self.keys[i][:1], self.number
            # Below the cut under the root: nothing of a comb tree, the root edge of a decorated one.
            found = {(number((i,)), number((self.tree(NIL),) if head[0] else ())): 1}
            if head != ("|",):
                # Per child: its cut under the root (all of it above) or another (its root part below).  A decorated
                # child keeps one lower tree, so the lower key is the head and those ids, each pair is met once and
                # a wide node's joins are linear; a comb node of arity a has 2^a cuts or more, so its short joins
                # take the faster sum, and equal pairs merge.
                kids = [self.cuts[c] for c in self.parts(i)]
                uppers = [[self.keys[u] for u, _ in kid] for kid in kids]
                lowers = [[self.keys[l][0] if head[0] else self.keys[l] for _, l in kid] for kid in kids]
                if head[0]:
                    for above, below in zip(iproduct(*uppers), iproduct(*lowers)):
                        found[number(tuple(sorted(chain(*above)))), number((number(head + below, node),))] = 1
                else:
                    counts = iproduct(*map(dict.values, kids))
                    for above, below, ways in zip(iproduct(*uppers), iproduct(*lowers), counts):
                        up = number(tuple(sorted(sum(above, ()))))
                        pair = up, number((number(("", *sorted(sum(below, ()))), node),))
                        found[pair] = found.get(pair, 0) + prod(ways)
            self.cuts[i] = found
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
        # Runs of equal trees (run_cuts) are folded from the last back onto the stored cuts of the last
        # tree if it is a run of its own, else onto the empty forest's one cut; neither is ever written.
        j = len(starts) - 1
        if j and starts[j - 1] == len(trees) - 1:
            j -= 1
            cuts = self.cuts[trees[-1]] or self.tree_cuts(trees[-1])
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
        """Per multiset of m cut pairs of tree ``n``: its upper and lower member ids, and the m!/∏kᵢ! · ∏cᵢ^kᵢ
        ways to deal it, cᵢ the count of its i-th pair."""
        cuts = self.cuts[n] or self.tree_cuts(n)
        uppers, lowers = [self.keys[u] for u, _ in cuts], [self.keys[l] for _, l in cuts]
        counts = [*cuts.values()]
        if m == 1:
            yield from zip(uppers, lowers, counts)
            return
        facts = [*accumulate(range(1, m + 1), int.__mul__, initial=1)]  # 0! .. m!
        for combo in combinations_with_replacement(range(len(uppers)), m):
            up, low = ((*chain.from_iterable(map(side.__getitem__, combo)),) for side in (uppers, lowers))
            ways = facts[m] // prod(facts[len([*same])] for _, same in groupby(combo))
            yield up, low, ways * prod(map(counts.__getitem__, combo))

    def antipode(self, n: int) -> dict:
        """The antipode of forest ``n`` per forest id: over every set of edges, the pieces left, signed."""
        signed = {}
        for combo in iproduct(*(self.edge_cuts(t).items() for t in self.keys[n])):
            pieces = sorted(piece for cut, _ in combo for piece in cut)
            f = self.number(tuple(pieces))
            signed[f] = signed.get(f, 0) + (-1) ** len(pieces) * prod(c for _, c in combo)
        return signed

    def edge_cuts(self, n: int) -> dict:
        """How often cutting a set of edges of comb tree ``n`` leaves each (piece holding the root, *sorted pieces
        cut off) of ids, filled children first: a child edge is kept or cut, whatever is cut inside."""
        for i in _children_first(n, self.pieces.__contains__, self.parts):
            # Per child edge: (child root kept under the root, pieces cut off, count).
            choices = [
                [choice for cut, c in self.pieces[k].items() for choice in ((cut[:1], cut[1:], c), ((), cut, c))]
                for k in self.parts(i)
            ]
            found = {}
            for combo in iproduct(*choices):
                cut = (self.number(("", *sorted(r for kept, _, _ in combo for r in kept)), self.protos[i]),
                       *sorted(piece for _, off, _ in combo for piece in off))
                found[cut] = found.get(cut, 0) + prod(c for *_, c in combo)
            self.pieces[i] = found
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

