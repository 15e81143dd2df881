"""The bialgebra of decorated operadic trees.

Its cuts and coproduct are those of :mod:`dsetree.hopf`, and every law here reads them off one
:class:`~dsetree.table.Table`.  Cut edges are split in two rather than removed: the lower part of a cut keeps
a leaf edge per severed slot (the bare root edge for the cut under the root), and the crown keeps one piece per
leaf edge of the lower part (a bare edge when the leaf edge was original).  This module also houses the core map
to rooted forests and its census, Green functions graded by leaf count, and their coproduct identity.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import chain
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
    """Compare the coproduct of the Green function with the leaf-graded expansion, restricted
    (exactly) to tensor terms of total node count up to the bound.  Both sides are sums on one cut
    table's ids, split by node count, so that only products and pairs within the bound are formed."""
    ids = Table()
    total, components = {}, {}  # node count -> {one-tree forest id: 1}, and that per leaf count
    for leaves, group in green(sig, node_bound).items():
        for t in group:
            n, size = ids.forest_of((ids.tree(t),)), t.code.count("(")
            total.setdefault(size, {})[n] = 1
            components.setdefault(leaves, {}).setdefault(size, {})[n] = 1
    lhs = add_up(chain.from_iterable(ids.delta(n).items() for part in total.values() for n in part))

    def within(x: dict, y: dict) -> list:
        """The parts of ``x`` and ``y`` in pairs whose node counts sum to at most the bound, with that sum."""
        return [(i + j, x[i], y[j]) for i in x for j in y if i + j <= node_bound]

    pairs, power = [], {0: {ids.forest_of(()): 1}}  # power: the Green function's n-th power, split by node count
    for n in range(max(components, default=0) + 1):
        parts = within(power, components.get(n, {}))
        pairs += [((f, g), c * d) for _, x, y in parts for f, c in x.items() for g, d in y.items()]
        grown = {}
        for size, x, y in within(power, total):
            grown.setdefault(size, []).extend(ids.product(x, y).items())
        power = {size: add_up(terms) for size, terms in grown.items()}
    rhs, checked = add_up(pairs), sum(map(len, total.values()))
    if lhs == rhs:
        return CheckReport("Faa di Bruno", True, checked)
    bad = tuple((code, "0", str(c)) for code, c in (ids.elem(lhs) - ids.elem(rhs)).rows()[:5])
    return CheckReport("Faa di Bruno", False, checked, bad)
