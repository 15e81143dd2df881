"""Planar signatures, their decorated operadic trees, and their enumeration.

A signature lists operations with finite ordered arities; its trees are the
least solution of ``X = 1 + P(X)``, approximated here either by node count,
by leaf count, or by height (the Kleene chain).  The core map, which forgets
decorations and outer edges, lives in :mod:`dsetree.opbialg`.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from functools import lru_cache, partial
from itertools import chain, combinations, product as iproduct, repeat
from math import comb
from typing import Callable, Iterable, Iterator, Optional

from .errors import ArityMismatch, InvalidArgument, MalformedCode, Nonfinite, SizeLimit
from .report import up_to
from .trees import MAX_ENUM_NODES, Canonical, _Frozen, _check_depth, _check_size, _nesting

MAX_LEAVES = 10
MAX_HEIGHT = 9
MAX_LAYER_SIZE = 200_000
MAX_SIGNATURE_SIZE = 30_000  # operations plus the sum of their arities: list:243 at most
MAX_TREES = 2_000_000  # trees of one node count that an enumeration builds: stable:4 has 1,209,492 of 6 nodes
GRADED_CACHE_SIZE = 64  # (signature, grading, size, builder) entries: every size of a few signatures
SMALL_ARITIES_BY_LEAVES = "signature has nullary or unary operations; pass a node bound"
_TOKENS = r"[^(),|]*\(|[)|]"  # a node's name and "(", a ")" or a bare edge; compiled on first use


class Operation(_Frozen):
    """A named operation with ``arity`` ordered input slots.  Names avoid the
    codec characters, so node and leaf counts can be read off a tree's code."""

    __slots__ = ("name", "arity")

    def __init__(self, name: str, arity: int) -> None:
        if not isinstance(name, str) or type(arity) is not int:
            raise InvalidArgument(f"an operation has a str name and an int arity, got {name!r} and {arity!r}")
        if arity < 0:
            raise InvalidArgument("arities must be nonnegative")
        if any(c in name for c in "(),|"):
            raise InvalidArgument("operation names may not contain tree-codec characters")
        # A nameless nullary node would print as "()", the code of a
        # combinatorial leaf, and forests of both kinds may share one cut table.
        if not name:
            raise InvalidArgument("operation names must be nonempty")
        super().__init__(name, arity)


class Signature(_Frozen):
    """A finite list of named operations with ordered input slots."""

    __slots__ = ("ops",)

    def __init__(self, ops: Iterable[Operation]) -> None:
        ops = tuple(ops)  # a tuple, as the signature keys the enumeration cache
        if len({op.name for op in ops}) != len(ops):
            raise InvalidArgument("operation names must be unique")
        super().__init__(ops)

    def op(self, name: str) -> Operation:
        for op in self.ops:
            if op.name == name:
                return op
        raise KeyError(name)

    def has_small_arities(self) -> bool:
        return any(op.arity <= 1 for op in self.ops)


def _codes(op: Optional[Operation], kid_tuples: Iterable[tuple[str, ...]]) -> Iterable[str]:
    """The code of ``op`` over each tuple of child codes, joined in C; names may hold ``{``, ``}`` or ``%``."""
    return ["|"] if op is None else map("".join, zip(repeat(op.name + "("), map(",".join, kid_tuples), repeat(")")))


class PTree(Canonical):
    """A decorated operadic tree: the bare edge, or a node over subtrees."""

    __slots__ = ("op", "children")

    def __init__(self, op: Optional[Operation] = None, children: tuple["PTree", ...] = ()):
        if op is None and children:
            raise ArityMismatch("the bare edge has no children")
        if op is not None and len(children) != op.arity:
            raise ArityMismatch(f"operation {op.name} has arity {op.arity}, got {len(children)} children")
        self.code = "|" if op is None else op.name + "(" + ",".join([c.code for c in children]) + ")"
        self.op = op
        self.children = tuple(children)

    @property
    def leaf_count(self) -> int:
        return self.code.count("|")

    @property
    def height(self) -> int:
        """Nodes on the longest path from the root, the deepest nesting of ``"("``."""
        return _nesting(self.code)

    def is_nil(self) -> bool:
        return self.op is None


NIL = PTree()


def _nodes(op: Optional[Operation], kid_tuples: Iterable[tuple[PTree, ...]]) -> Iterator[PTree]:
    return (PTree(op, kids) for kids in kid_tuples)


def parse_ptree(s: str, sig: Signature) -> PTree:
    """Parse a code over the signature; nodes nested past ``MAX_DEPTH`` are malformed.  One scan over
    the tokens ``name(``, ``)`` and ``|`` keeps a stack of open nodes; a code has one spelling, so the
    tree read must print as ``s``, which catches every character the scan skips."""
    _check_depth(s)
    stack: list[tuple[Optional[Operation], list[PTree]]] = [(None, [])]
    try:
        for token in re.findall(_TOKENS, s):
            if token == "|":
                stack[-1][1].append(NIL)
            elif token == ")":
                op, kids = stack.pop()
                stack[-1][1].append(PTree(op, kids))
            else:
                stack.append((sig.op(token[:-1]), []))
        [(_, [tree])] = stack
    except KeyError as e:
        raise MalformedCode(f"unknown operation {e.args[0]!r} in {s!r}") from None
    except ArityMismatch as e:
        raise MalformedCode(f"{e}: {s!r}") from None
    except (IndexError, ValueError):
        raise MalformedCode(f"unmatched brackets, or not one tree: {s!r}") from None
    if tree.code != s:
        raise MalformedCode(f"not the code of a tree over the signature: {s!r}")
    return tree


def identity_signature() -> Signature:
    return Signature((Operation("s", 1),))


def binary_signature() -> Signature:
    return Signature((Operation("b", 2),))


def _check_signature_size(ops: int, arities: int) -> None:
    """Refuse a signature of ``ops`` operations whose arities sum to ``arities``, before any is made."""
    _check_size("signature size (operations plus the sum of arities)", ops + arities, MAX_SIGNATURE_SIZE)


def list_signature(max_arity: int) -> Signature:
    """The list endofunctor, truncated at a maximal arity."""
    _check_signature_size(max_arity + 1, max_arity * (max_arity + 1) // 2)
    return Signature(tuple(Operation(f"l{k}", k) for k in range(max_arity + 1)))


def stable_signature(max_arity: int) -> Signature:
    """One operation per arity 2..max_arity (no nullary or unary nodes)."""
    if max_arity < 2:
        raise InvalidArgument("stable signatures need max_arity >= 2")
    _check_signature_size(max_arity - 1, max_arity * (max_arity + 1) // 2 - 1)
    return Signature(tuple(Operation(f"v{k}", k) for k in range(2, max_arity + 1)))


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Every ``parts``-tuple of nonnegative integers summing to ``total``."""
    if total < 0 or parts == 0:
        if total == 0:
            yield ()
        return
    # Stars and bars: the parts are the gaps between parts - 1 bars.
    slots = total + parts - 1
    for bars in combinations(range(slots), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, slots)))


@lru_cache(maxsize=GRADED_CACHE_SIZE)
def _graded(sig: Signature, by: str, k: int, build: Callable) -> tuple:
    """Trees of size ``k`` in code order, made by ``build(op, kid_tuples)``: the nodes of ``op`` over each
    tuple of children, or the bare edge if ``op`` is None; :func:`_nodes` or :func:`_codes`, which sort alike.
    A node of arity m weighs 1 by nodes and m - 1 by leaves, so size k by leaves is k + 1 leaves (arities >= 2)."""
    out = list(build(None, [()])) if k == 0 else []
    for op in sig.ops:
        for sizes in _compositions(k - (1 if by == "nodes" else op.arity - 1), op.arity):
            out.extend(build(op, iproduct(*(_graded(sig, by, size, build) for size in sizes))))
    return tuple(sorted(out))


def tree_counts(sig: Signature, n: int) -> list[int]:
    """The number of trees over ``sig`` with 0..n nodes, from T = 1 + x·Σ_op T^arity, in ints.  With T = 1 + Y,
    [T^a]_j = Σ_{i <= min(a, j)} C(a, i) [Y^i]_j, as in ``dse._power_coefficient``: an arity costs at most j terms."""
    arities = Counter(op.arity for op in sig.ops)
    t, y = [1], [[1]]  # y[j][i] = [Y^i]_j; Y starts at degree 1, so [Y^i]_j needs t_1..t_(j-i+1)
    for j in range(n):
        if j:
            y.append([0, *(sum(t[l] * y[j - l][i - 1] for l in range(1, j - i + 2)) for i in range(1, j + 1))])
        t.append(sum(m * comb(a, i) * y[j][i] for a, m in arities.items() for i in range(min(a, j) + 1)))
    return t


def _check_tree_count(sig: Signature, sizes: range) -> None:
    """Refuse, before any tree is built, to enumerate node counts ``sizes`` when one holds over ``MAX_TREES`` trees."""
    counts = tree_counts(sig, sizes[-1])
    for n in sizes:
        if counts[n] > MAX_TREES:
            raise SizeLimit(f"{counts[n]} trees have {n} nodes, over the enumeration cap of {MAX_TREES}")


def enumerate_by_nodes(sig: Signature, n: int, build: Callable = _nodes) -> list:
    """All trees over ``sig`` with exactly ``n`` nodes, in code order, made by ``build``."""
    _check_size("node count", n, MAX_ENUM_NODES)
    _check_tree_count(sig, range(n, n + 1))
    return list(_graded(sig, "nodes", n, build))


def enumerate_by_leaves(sig: Signature, n: int, node_bound: Optional[int] = None,
                        build: Callable = _nodes) -> list:
    """All trees over ``sig`` with exactly ``n`` leaves, in code order, made by ``build``.

    Only trees of at most ``node_bound`` nodes are listed, when it is given;
    it lies in ``0..MAX_ENUM_NODES`` like the node count of :func:`enumerate_by_nodes`.
    Signatures with nullary or unary operations have infinitely many trees
    per leaf count, so they require it.
    """
    _check_size("leaf count", n, MAX_LEAVES)
    if node_bound is not None:
        _check_size("node bound", node_bound, MAX_ENUM_NODES)
    if not sig.has_small_arities():
        # The leaf grading is finite here, and smaller than the node grading up to the bound.
        trees = _graded(sig, "leaves", n - 1, build)
        return [t for t in trees if node_bound is None or getattr(t, "code", t).count("(") <= node_bound]
    if node_bound is None:
        raise Nonfinite(SMALL_ARITIES_BY_LEAVES)
    return by_leaves(sig, node_bound, build).get(n, [])


def by_leaves(sig: Signature, node_bound: int, build: Callable = _nodes) -> dict[int, list]:
    """Every tree over ``sig`` with at most ``node_bound`` nodes, made by ``build`` and
    grouped by leaf count: the counts ascending, each group in code order."""
    _check_size("node bound", node_bound, MAX_ENUM_NODES)
    _check_tree_count(sig, range(node_bound + 1))
    groups = defaultdict(list)
    for t in up_to(partial(enumerate_by_nodes, sig, build=build), node_bound):
        groups[getattr(t, "code", t).count("|")].append(t)
    return {n: sorted(groups[n]) for n in sorted(groups)}


def kleene_layer(sig: Signature, k: int) -> set[PTree]:
    """The ``k``-th stage of the fixpoint iteration: all trees of height < k."""
    _check_size("stage index", k, MAX_HEIGHT)
    layer: set[PTree] = set()
    for _ in range(k):
        if _stage_size(sig, len(layer)) > MAX_LAYER_SIZE:
            raise SizeLimit(f"fixpoint stage exceeds {MAX_LAYER_SIZE} trees")
        layer = {NIL, *chain.from_iterable(_nodes(op, iproduct(layer, repeat=op.arity)) for op in sig.ops)}
    return layer


def _stage_size(sig: Signature, s: int) -> int:
    """The size of ``1 + P(X)`` for a stage of ``s`` trees: distinct child tuples print distinct codes."""
    return 1 + sum(s ** op.arity for op in sig.ops)
