"""The bialgebra of decorated operadic trees.

Its cuts and coproduct are those of :mod:`dsetree.hopf`, and every law here but Faa di
Bruno reads them off one cut table.  Cut edges are split in two rather than removed: the
lower part of a cut keeps a leaf edge per severed slot (the bare root edge for the cut
under the root), and the crown keeps one piece per leaf edge of the lower part (a bare
edge when the leaf edge was original).  This module also houses the core homomorphism to
the rooted-forest Hopf algebra, Green functions graded by leaf count, and their coproduct
identity.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import chain
from typing import Optional

from . import hopf
from .hopf import coproduct
from .linear import LinComb
from .ptrees import Operation, PTree, Signature, by_leaves, enumerate_by_nodes
from .report import CheckReport, check_coassociative, check_each, up_to
from .trees import Forest, _Frozen


# Multisets of decorated trees are plain forests.  The empty forest is the
# algebra unit and differs from the forest of one bare edge: the degree-zero
# part of this bialgebra is spanned by all nodeless forests, so it is not
# connected.
def op_counit(f: Forest) -> int:
    """1 on nodeless forests, 0 otherwise."""
    return 1 if f.degree == 0 else 0


class CocycleWitness(_Frozen):
    __slots__ = ("op", "args", "lhs", "rhs")

    def __init__(self, op: Operation, args: tuple[PTree, ...], lhs: LinComb, rhs: LinComb) -> None:
        super().__init__(op, args, lhs, rhs)

    def describe(self) -> str:
        arg_codes = ", ".join(t.code for t in self.args)
        return (
            f"op={self.op.name} args=({arg_codes}) "
            f"difference={(self.lhs - self.rhs).text()}"
        )


def cocycle_counterexample(sig: Signature, node_bound: int = 2) -> Optional[CocycleWitness]:
    """Search for an input violating the 1-cocycle identity for a node builder.

    Candidates are the trees of 1..``node_bound + 1`` nodes, operation by operation,
    each node count built when the search reaches it; returns the first violation,
    or None.  Every candidate violates it, as the cut under the root keeps the bare
    root edge below, so the search stops at the first operation over bare edges.
    One cut table serves the whole search; only a witness leaves it.
    """
    ids = hopf._Ids()
    for op in sig.ops:
        for built in (t for n in range(1, node_bound + 2) for t in enumerate_by_nodes(sig, n) if t.op == op):
            flat = ids.tree_cuts(ids.tree(built))  # upper and lower in turn, the cut under the root first
            lhs = hopf._count(flat)
            # The cocycle identity puts the empty forest, not the bare root
            # edge, below the cut under the root.
            rhs = hopf._count(flat[2:] + (flat[0], ids.number(())))
            if lhs != rhs:
                return CocycleWitness(op, built.children, ids.elem(lhs), ids.elem(rhs))
    return None


def check_op_coassociativity(sig: Signature, node_bound: int) -> CheckReport:
    """Exhaustive coassociativity check on trees up to the node bound."""
    # Each input is numbered as its one-tree forest, which the check meets inside it too.
    ids, trees = hopf._Ids(), up_to(partial(enumerate_by_nodes, sig), node_bound)
    return check_coassociative("operadic coassociativity", trees, lambda t: ids.number((ids.tree(t),)), ids.delta)


def check_core_homomorphism(sig: Signature, node_bound: int) -> CheckReport:
    """Verify that taking cores intertwines the two coproducts."""
    ids = hopf._Ids()
    core_of = cache(lambda n: ids.number(tuple(sorted(chain.from_iterable(map(ids.core, ids.keys[n]))))))
    hopf_side = cache(ids.delta)

    def law(t: PTree):
        flat = ids.tree_cuts(ids.tree(t))  # upper and lower in turn; first the forest of t over the root edge
        lhs = hopf._count([*map(core_of, flat)])
        rhs = hopf_side(core_of(flat[0]))
        return None if lhs == rhs else (ids.elem(rhs).text(), ids.elem(lhs).text())

    trees = up_to(partial(enumerate_by_nodes, sig), node_bound)
    return check_each("core homomorphism", trees, law)


def green(sig: Signature, node_bound: int) -> dict[int, list[PTree]]:
    """Sum of all trees up to the node bound, graded by leaf count (:func:`by_leaves`);
    planar trees are rigid, so every automorphism weight is 1."""
    return by_leaves(sig, node_bound)


def check_faa_di_bruno(sig: Signature, node_bound: int) -> CheckReport:
    """Compare the coproduct of the Green function with the leaf-graded
    expansion, restricted (exactly) to tensor terms of total node count up to
    the bound."""
    graded = green(sig, node_bound)
    trees = [t for group in graded.values() for t in group]
    total = LinComb({Forest([t]): 1 for t in trees})
    lhs = coproduct(total)

    def bounded(x: LinComb, y: LinComb) -> list:
        """Term pairs ``(f, c, g, d)`` of ``x`` and ``y`` with degrees summing to at most
        the bound; each degree is read off its code once, not once per pair."""
        sized = [(g, d, g.degree) for g, d in y.terms.items()]
        return [
            (f, c, g, d)
            for f, c in x.terms.items()
            for room in [node_bound - f.degree]
            for g, d, size in sized
            if size <= room
        ]

    pairs = []
    power = LinComb.one()
    for n in range(max(graded, default=0) + 1):
        component = LinComb({Forest([t]): 1 for t in graded.get(n, ())})
        pairs.extend(((f, g), c * d) for f, c, g, d in bounded(power, component))
        power = LinComb.sum((f.union(g), c * d) for f, c, g, d in bounded(power, total))
    rhs = LinComb.sum(pairs)

    if lhs == rhs:
        return CheckReport("Faa di Bruno", True, len(trees))
    bad = tuple((code, "0", str(c)) for code, c in (lhs - rhs).rows()[:5])
    return CheckReport("Faa di Bruno", False, len(trees), bad)
