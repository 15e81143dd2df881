"""The bialgebra of decorated operadic trees.

Its cuts and coproduct are those of :mod:`dsetree.hopf`, and every law here reads them off one
:class:`~dsetree.table.Table`.  Cut edges are split in two rather than removed: the lower part of a cut keeps
a leaf edge per severed slot (the bare root edge for the cut under the root), and the crown keeps one piece per
leaf edge of the lower part (a bare edge when the leaf edge was original).  This module also houses the core map
to rooted forests and its census, Green functions graded by leaf count, and their coproduct identity.
"""

from __future__ import annotations

from bisect import bisect
from functools import cache, partial
from itertools import chain
from math import factorial
from typing import Optional

from .errors import InvalidArgument
from .linear import LinComb, add_up
from .ptrees import Operation, PTree, Signature, by_leaves, enumerate_by_leaves, enumerate_by_nodes
from .report import CheckReport, check_coassociative, check_each, up_to
from .table import Table, count
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
    ids = Table()
    for op in sig.ops:
        for built in (t for n in range(1, node_bound + 2) for t in enumerate_by_nodes(sig, n) if t.op == op):
            flat = ids.tree_cuts(ids.tree(built))  # upper and lower in turn, the cut under the root first
            lhs = count(flat)
            # The cocycle identity puts the empty forest, not the bare root
            # edge, below the cut under the root.
            rhs = count(flat[2:] + (flat[0], ids.forest_of(())))
            if lhs != rhs:
                return CocycleWitness(op, built.children, ids.elem(lhs), ids.elem(rhs))
    return None


def check_op_coassociativity(sig: Signature, node_bound: int) -> CheckReport:
    """Exhaustive coassociativity check on trees up to the node bound."""
    # Each input is numbered as its one-tree forest, which the check meets inside it too.
    ids, trees = Table(), up_to(partial(enumerate_by_nodes, sig), node_bound)
    return check_coassociative("operadic coassociativity", trees, lambda t: ids.forest_of((ids.tree(t),)), ids.delta)


def core(t: PTree) -> Forest:
    """Combinatorial tree of inner edges: decorations and outer edges dropped, on one fresh cut table."""
    ids = Table()
    return ids.obj(ids.forest_of(ids.core(ids.tree(t))))


def core_census(sig: Signature, k: int, by: str = "nodes") -> dict[Forest, int]:
    """Count trees (with ``k`` nodes or leaves) grouped by their core."""
    if by not in ("nodes", "leaves"):
        raise InvalidArgument("by must be 'nodes' or 'leaves'")
    population = enumerate_by_nodes(sig, k) if by == "nodes" else enumerate_by_leaves(sig, k)
    ids = Table()
    counts = add_up((ids.forest_of(ids.core(ids.tree(t))), 1) for t in population)
    return {ids.obj(n): c for n, c in counts.items()}


def check_core_homomorphism(sig: Signature, node_bound: int) -> CheckReport:
    """Verify that taking cores intertwines the two coproducts."""
    ids = Table()
    core_of = cache(lambda n: ids.forest_of(chain.from_iterable(map(ids.core, ids.parts(n)))))
    hopf_side = cache(ids.delta)

    def law(t: PTree):
        flat = ids.tree_cuts(ids.tree(t))  # upper and lower in turn; first the forest of t over the root edge
        lhs = count([*map(core_of, flat)])
        rhs = hopf_side(core_of(flat[0]))
        return None if lhs == rhs else (ids.elem(rhs).text(), ids.elem(lhs).text())

    trees = up_to(partial(enumerate_by_nodes, sig), node_bound)
    return check_each("core homomorphism", trees, law)


def green(sig: Signature, node_bound: int) -> dict[int, list[PTree]]:
    """Sum of all trees up to the node bound, graded by leaf count (:func:`by_leaves`);
    planar trees are rigid, so every automorphism weight is 1."""
    return by_leaves(sig, node_bound)


def check_faa_di_bruno(sig: Signature, node_bound: int) -> CheckReport:
    """Compare the coproduct of the Green function G with Σₙ Gⁿ ⊗ gₙ, restricted (exactly) to tensor terms of
    total node count up to the bound, on one cut table's ids.  Every tree of G has coefficient 1, so Gⁿ is written
    down, not multiplied out: a forest of n trees of G, kᵢ of the i-th, has coefficient n!/∏kᵢ!."""
    ids, grades = Table(), green(sig, node_bound).items()  # lower: (leaves, nodes, one-tree forest id) per tree of G
    lower = [(k, t.code.count("("), ids.forest_of((ids.tree(t),))) for k, trees in grades for t in trees]
    pool = sorted((size, *ids.parts(l)) for _, size, l in lower)  # (node count, tree id) per tree, smallest first
    lhs = add_up(chain.from_iterable(ids.delta(l).items() for *_, l in lower))

    def forests(n: int, budget: int, start: int = 0):
        """Each forest of n pool trees from index ``start`` on with at most ``budget`` nodes: its member ids, and
        ∏kᵢ! over its kᵢ copies of the i-th tree.  A tree is taken with all its copies at once, so the depth is
        the number of distinct members, not n."""
        if not n:
            yield (), 1
            return
        for i, (size, t) in enumerate(pool[start:bisect(pool, (budget + 1,))], start):
            for m in range(1, (min(n, budget // size) if size else n) + 1):  # the bare edge has no nodes
                yield from (((t,) * m + f, factorial(m) * k) for f, k in forests(n - m, budget - m * size, i + 1))

    # The terms of Gⁿ with at most ``budget`` nodes, as (forest id, coefficient) pairs.
    power = cache(lambda n, budget: [(ids.forest_of(f), factorial(n) // k) for f, k in forests(n, budget)])

    rhs = {(f, l): c for k, size, l in lower for f, c in power(k, node_bound - size)}
    bad = () if lhs == rhs else tuple((code, "0", str(c)) for code, c in (ids.elem(lhs) - ids.elem(rhs)).rows()[:5])
    return CheckReport("Faa di Bruno", not bad, len(lower), bad)
