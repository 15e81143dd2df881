"""Canonical rooted trees, forests, and their basic surgery.

A :class:`CombTree` is an isomorphism class of finite rooted trees with
unordered children.  The canonical form is a balanced-parenthesis code in
which, at every level, child codes appear in ascending byte order; two trees
are isomorphic iff their codes are equal, so codes double as dictionary keys.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import accumulate
from math import factorial, prod
from typing import Iterable, Iterator

from .errors import InvalidArgument, MalformedCode, SizeLimit

MAX_ENUM_NODES = 12
MAX_DEPTH = 200  # deepest nesting parsed, as depth costs work: n + 1 cuts of n nodes and 2^(n-1) edge sets for a ladder


class Canonical:
    """A value that stores only its canonical code: equality needs the same
    class and code, and sizes are read off the code, where every node prints
    exactly one ``"("``."""

    __slots__ = ("code",)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.code == other.code

    def __hash__(self) -> int:
        return hash(self.code)

    def __lt__(self, other: "Canonical") -> bool:
        return self.code < other.code

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.code!r})"

    @property
    def node_count(self) -> int:
        return self.code.count("(")


class _Frozen:
    """A record of the fields named in ``__slots__``: equal by class and fields, never assigned after ``__init__``."""

    __slots__ = ("_hash",)

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        if not hasattr(self, "_hash"):  # kept, as a signature is hashed at every lookup of the enumeration cache
            object.__setattr__(self, "_hash", hash(self._values()))
        return self._hash

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self.__slots__)})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class CombTree(Canonical):
    """An unordered rooted tree, stored in canonical form."""

    __slots__ = ("children",)

    def __init__(self, children: Iterable["CombTree"] = ()):
        kids = sorted(children, key=lambda t: t.code)
        self.children: tuple[CombTree, ...] = tuple(kids)
        self.code: str = "(" + "".join(t.code for t in kids) + ")"


LEAF = CombTree()


class Forest(Canonical):
    """A finite multiset of trees, sorted by canonical code.

    Members are :class:`CombTree` values, or the decorated trees of
    :mod:`dsetree.ptrees`; both are :class:`Canonical`.  The empty forest is
    the multiplicative unit and prints as ``"1"``; otherwise members print
    joined by ``"*"`` in ascending code order.  A forest of bare edges is
    nodeless but is not the empty forest.
    """

    __slots__ = ("trees",)

    def __init__(self, trees: Iterable = ()):
        members = sorted(trees, key=lambda t: t.code)
        self.trees: tuple = tuple(members)
        self.code: str = "*".join(t.code for t in members) if members else "1"

    degree = Canonical.node_count

    def __iter__(self) -> Iterator:
        return iter(self.trees)

    def union(self, other: "Forest") -> "Forest":
        return Forest(self.trees + other.trees)


EMPTY_FOREST = Forest()


def canon_code(t: CombTree) -> str:
    """Canonical parenthesis code of ``t`` (injective on iso-classes)."""
    return t.code


def parse_code(s: str) -> CombTree:
    """Parse a parenthesis code into a canonical tree.

    Codes with children out of canonical order are normalized rather than
    rejected.  Raises :class:`MalformedCode` on any other deviation and on
    nesting deeper than ``MAX_DEPTH``.
    """
    if s.count("(") + s.count(")") != len(s):
        raise MalformedCode(f"a tree code holds only '(' and ')': {s!r}")
    _check_depth(s)
    return _comb_tree(s)


def _nesting(s: str) -> int:
    """The deepest nesting of ``"("`` in ``s``."""
    return max(accumulate(1 if ch == "(" else -1 for ch in s if ch in "()"), default=0)


def _check_depth(s: str) -> None:
    if _nesting(s) > MAX_DEPTH:
        raise MalformedCode(f"nesting depth exceeds {MAX_DEPTH}")


def _comb_tree(s: str) -> CombTree:
    """The comb tree of the brackets of ``s``: each ``"("`` opens a node, its ``")"`` closes it,
    and every other character is skipped.  An explicit stack, so no call recurses."""
    stack: list[list[CombTree]] = [[]]
    try:
        for ch in s:
            if ch == "(":
                stack.append([])
            elif ch == ")":
                children = stack.pop()
                stack[-1].append(CombTree(children))
        [[tree]] = stack
    except (IndexError, ValueError):
        raise MalformedCode(f"unmatched brackets, or not one tree: {s!r}") from None
    return tree


def parse_forest(s: str) -> Forest:
    """Parse a ``"*"``-joined forest code; ``"1"`` denotes the empty forest."""
    if s == "1":
        return EMPTY_FOREST
    return Forest(parse_code(part) for part in s.split("*"))


def graft(f: Forest) -> CombTree:
    """Attach all members of ``f`` under a new root node (the grafting map)."""
    return CombTree(f.trees)


def aut_order(t: CombTree) -> int:
    """Order of the automorphism group of ``t``.

    Equals the product, over all nodes, of the factorials of the
    multiplicities of pairwise-isomorphic child subtrees; it is taken once
    per distinct subtree, from the orders of its children.
    """
    orders: dict[CombTree, int] = {}
    for node in _children_first(t, orders.__contains__):
        orders[node] = prod(factorial(m) * orders[c] ** m for c, m in Counter(node.children).items())
    return orders[t]


def _children_first(root, done, children=lambda node: node.children) -> dict:
    """``root`` and what lies below it that is not ``done`` yet, each expanded once and
    listed after its children: an explicit post-order stack, so no call recurses.  A done
    root, or a new root over done children, returns before any stack is made."""
    if done(root):
        return {}
    kids = children(root)
    if all(map(done, kids)):
        return {root: None}
    found, stack = {}, [root, None, *kids[::-1]]
    while stack:
        if (node := stack.pop()) is None:  # the marker under a node's children: they are all found
            found[stack.pop()] = None
        elif node not in found and not done(node):
            stack += (node, None, *children(node)[::-1])
    return found


def _check_size(what: str, value: int, cap: int, low: int = 0) -> None:
    """The one size check of the enumerators: ``InvalidArgument`` below ``low``, ``SizeLimit`` above ``cap``.
    A value of 10**100 or more in size is named by that bound, as Python prints no int of over 4300 digits."""
    got = value if -(10**100) < value < 10**100 else "-10**100 or less" if value < 0 else "10**100 or more"
    if value < low:
        raise InvalidArgument(f"{what} must be at least {low}, got {got}")
    if value > cap:
        raise SizeLimit(f"{what} is capped at {cap}, got {got}")


@lru_cache(maxsize=None)
def _forests_exact(d: int) -> tuple[Forest, ...]:
    """The forests of exactly ``d`` nodes by Pólya's multiset construction, ``table[k]`` holding the member tuples
    of degree k: the trees of each size graft the forests one node smaller, complete by then, and each tree joins
    every degree from its own size up, smallest first, so it may repeat and each multiset is made once."""
    table = [[()]] + [[] for _ in range(d)]
    for size in range(1, d + 1):
        for tree in [CombTree(f) for f in table[size - 1]]:
            for k in range(size, d + 1):
                table[k] += [f + (tree,) for f in table[k - size]]
    return tuple(map(Forest, table[d]))


def enumerate_comb_trees(n: int) -> set[CombTree]:
    """All iso-classes of rooted trees with exactly ``n`` nodes."""
    _check_size("node count", n, MAX_ENUM_NODES, low=1)
    return set(map(graft, _forests_exact(n - 1)))


def enumerate_forests(degree: int) -> set[Forest]:
    """All forests of exactly the given total node count."""
    _check_size("degree", degree, MAX_ENUM_NODES)
    if degree == 0:
        return {EMPTY_FOREST}
    return set(_forests_exact(degree))
