"""Structural recursion over decorated trees, with law checking.

A fold algebra interprets the bare edge by a fixed carrier value and every
operation by a function of its slot values; the fold is the unique map out
of the tree type compatible with that data.  The checks here verify the
computation rules, agreement of rule-abiding candidates with the fold, and
the stage-wise bijectivity of the fixpoint structure map.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, product as iproduct
from typing import Any, Callable, Mapping

from .errors import ArityMismatch
from .ptrees import NIL, PTree, Signature, _nodes, _stage_size, enumerate_by_nodes, kleene_layer
from .report import CheckReport, check_each, up_to
from .trees import _Frozen, _children_first


class FoldAlgebra(_Frozen):
    """A nil value plus one interpretation function per operation name."""

    __slots__ = ("nil_value", "interp")

    def __init__(self, nil_value: Any, interp: Mapping[str, Callable[..., Any]]) -> None:
        super().__init__(nil_value, interp)

    def apply(self, op_name: str, values: list[Any]) -> Any:
        return self.interp[op_name](*values)


def fold(sig: Signature, alg: FoldAlgebra, t: PTree) -> Any:
    """Evaluate the algebra over ``t`` bottom-up, once per distinct subtree.

    A fold is a function of the tree, so equal subtrees share a value; the
    children-first walk makes no recursive call, so deep inputs cannot
    exhaust the call stack.
    """
    values: dict[PTree, Any] = {}
    for node in _children_first(t, values.__contains__):
        if node.is_nil():
            values[node] = alg.nil_value
        elif node.op.name not in alg.interp:
            raise ArityMismatch(f"no interpretation for operation {node.op.name}")
        else:
            values[node] = alg.apply(node.op.name, [values[c] for c in node.children])
    return values[t]


def _broken_rule(alg: FoldAlgebra, value: Callable[[PTree], Any], t: PTree):
    """``(expected, actual)`` where ``value`` breaks a computation rule at ``t``, else None."""
    got = value(t)
    expected = alg.nil_value if t.is_nil() else alg.apply(t.op.name, [value(c) for c in t.children])
    return None if got == expected else (repr(expected), repr(got))


def check_computation_rules(sig: Signature, alg: FoldAlgebra, bound: int) -> CheckReport:
    """Verify both computation rules of :func:`fold` on every tree up to the node bound."""
    law = partial(_broken_rule, alg, partial(fold, sig, alg))
    return check_each("computation rules", up_to(partial(enumerate_by_nodes, sig), bound), law)


def check_fold_uniqueness(
    sig: Signature,
    alg: FoldAlgebra,
    candidate: Callable[[PTree], Any],
    bound: int,
) -> CheckReport:
    """Verify that a rule-abiding candidate agrees with the fold.

    Reports any tree where the candidate breaks a computation rule, and any
    tree where it disagrees with the fold; with no rule violations the
    agreement is forced by induction on node count.
    """

    def law(t: PTree):
        broken = _broken_rule(alg, candidate, t)
        if broken is not None:
            return broken
        got, reference = candidate(t), fold(sig, alg, t)
        return None if got == reference else (repr(reference), repr(got))

    return check_each("fold uniqueness", up_to(partial(enumerate_by_nodes, sig), bound), law)


def lambek_check(sig: Signature, k: int) -> CheckReport:
    """Confirm the structure map from stage ``k`` data onto stage ``k+1``.

    Builds the disjoint union ``1 + P(X_k)`` explicitly and checks that
    forming trees from it is a bijection onto ``X_{k+1}``.
    """
    layer_k = kleene_layer(sig, k)
    layer_next = kleene_layer(sig, k + 1)
    bad: list[tuple[str, str, str]] = []
    domain_size = _stage_size(sig, len(layer_k))
    image = {NIL, *chain.from_iterable(_nodes(op, iproduct(layer_k, repeat=op.arity)) for op in sig.ops)}
    if len(image) != domain_size:
        bad.append(("structure map", f"{domain_size} distinct images", str(len(image))))
    if image != layer_next:
        missing = sorted(t.code for t in layer_next - image)[:3]
        extra = sorted(t.code for t in image - layer_next)[:3]
        bad.append(("image", f"stage {k + 1} ({len(layer_next)} trees)",
                    f"missing={missing} extra={extra}"))
    return CheckReport(f"fixpoint stage {k}", not bad, domain_size, tuple(bad))
