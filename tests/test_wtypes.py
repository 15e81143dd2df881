import time

import pytest

from dsetree import ptrees, wtypes
from dsetree.errors import ArityMismatch, SizeLimit
from dsetree.ptrees import (
    NIL,
    PTree,
    binary_signature,
    enumerate_by_leaves,
    enumerate_by_nodes,
    identity_signature,
    list_signature,
    stable_signature,
)
from dsetree.wtypes import (
    FoldAlgebra,
    check_computation_rules,
    check_fold_uniqueness,
    fold,
    lambek_check,
)

BIN = binary_signature()
B = BIN.op("b")
IDENT = identity_signature()
SUCC = IDENT.op("s")


def node(*children):
    return PTree(B, tuple(children))


def node_count_algebra(sig):
    return FoldAlgebra(0, {op.name: (lambda *vs: 1 + sum(vs)) for op in sig.ops})


def leaf_count_algebra(sig):
    return FoldAlgebra(1, {op.name: (lambda *vs: sum(vs)) for op in sig.ops})


def ladder(k):
    t = NIL
    for _ in range(k):
        t = PTree(SUCC, (t,))
    return t


def test_fold_counts_nodes():
    left_comb = node(node(node(NIL, NIL), NIL), NIL)
    assert fold(BIN, node_count_algebra(BIN), left_comb) == 3


def test_fold_realizes_primitive_recursion():
    alg = FoldAlgebra(0, {"s": lambda v: v + 1})
    for k in range(9):
        assert fold(IDENT, alg, ladder(k)) == k


def test_fold_iterates_step_function_exactly():
    trace = []
    alg = FoldAlgebra(0, {"s": lambda v: trace.append(v) or v + 1})
    assert fold(IDENT, alg, ladder(5)) == 5
    assert trace == [0, 1, 2, 3, 4]


def test_leaf_count_algebra_agrees_with_enumeration():
    sig = stable_signature(4)
    alg = leaf_count_algebra(sig)
    for t in enumerate_by_leaves(sig, 4):
        assert fold(sig, alg, t) == 4


def test_fold_rejects_unknown_operation():
    with pytest.raises(ArityMismatch):
        fold(BIN, FoldAlgebra(0, {}), node(NIL, NIL))


def test_fold_handles_deep_ladders():
    # The explicit work stack must survive depths beyond the call stack.
    import sys

    depth = sys.getrecursionlimit() + 500
    alg = FoldAlgebra(0, {"s": lambda v: v + 1})
    assert fold(IDENT, alg, ladder(depth)) == depth


def test_fold_interprets_each_distinct_subtree_once():
    full = NIL
    for _ in range(12):
        full = node(full, full)  # a full binary tree: 4,095 nodes, 12 distinct subtrees with a node
    calls = []
    alg = FoldAlgebra(0, {"b": lambda x, y: calls.append(x) or x + y + 1})
    assert fold(BIN, alg, full) == 2**12 - 1
    assert calls == [2**h - 1 for h in range(12)]  # one call per height, the left slot's value


def test_computation_rules_pass():
    assert check_computation_rules(BIN, node_count_algebra(BIN), 4).passed
    nil_only = check_computation_rules(BIN, node_count_algebra(BIN), 0)
    assert nil_only.passed and nil_only.checked == 1


def test_mutation_detected_at_small_size():
    def corrupted(sig, alg, t):
        value = fold(sig, alg, t)
        return value + 1 if t.node_count == 1 else value

    alg = node_count_algebra(BIN)
    report = check_fold_uniqueness(BIN, alg, lambda t: corrupted(BIN, alg, t), 4)
    assert not report.passed
    # A violation must already be visible on a tree with at most 2 nodes.
    assert min(code.count("b(") for code, _, _ in report.counterexamples) <= 2


def test_uniqueness_of_fold():
    alg = node_count_algebra(BIN)
    assert check_fold_uniqueness(BIN, alg, lambda t: fold(BIN, alg, t), 4).passed

    nat_alg = FoldAlgebra(0, {"s": lambda v: v + 1})
    report = check_fold_uniqueness(IDENT, nat_alg, lambda t: t.node_count, 6)
    assert report.passed

    broken = check_fold_uniqueness(IDENT, nat_alg, lambda t: t.node_count + 1, 6)
    assert not broken.passed
    assert broken.counterexamples[0][0] == "|"


def test_initial_algebra_reflection():
    alg = FoldAlgebra(NIL, {"b": lambda l, r: node(l, r)})
    for n in range(6):
        for t in enumerate_by_nodes(BIN, n):
            assert fold(BIN, alg, t) == t


def test_fold_commutes_with_post_composition():
    # g(fold over counting) equals the fold over the pushed-forward algebra.
    g = lambda v: 2 * v + 1
    count = node_count_algebra(BIN)
    pushed = FoldAlgebra(
        g(0), {"b": lambda l, r: g(1 + (l - 1) // 2 + (r - 1) // 2)}
    )
    for n in range(5):
        for t in enumerate_by_nodes(BIN, n):
            assert g(fold(BIN, count, t)) == fold(BIN, pushed, t)


def test_lambek_identity_signature():
    for k in range(9):
        report = lambek_check(IDENT, k)
        assert report.passed, report.summary()
        assert report.checked == k + 1  # |1 + X_k| with |X_k| = k ladders

def test_lambek_binary():
    report = lambek_check(BIN, 3)
    assert report.passed
    assert report.checked == 1 + 5 ** 2  # |1 + X_3^2|
    assert lambek_check(BIN, 0).passed


def test_lambek_refuses_an_oversized_stage_before_building_it():
    # Stage 6 over binary would hold 1 + 677^2 trees; the refusal comes from its size alone.
    start = time.perf_counter()
    with pytest.raises(SizeLimit, match="fixpoint stage exceeds 200000 trees"):
        lambek_check(BIN, 5)
    assert time.perf_counter() - start < 0.1


def test_lambek_check_reports_a_miscounted_domain(monkeypatch):
    monkeypatch.setattr(wtypes, "_stage_size", lambda sig, s: ptrees._stage_size(sig, s) + 1)
    report = lambek_check(binary_signature(), 2)
    assert not report.passed
    assert report.counterexamples == (("structure map", "6 distinct images", "5"),)


def drop_the_last_tree_from_stage_two_on(kleene_layer):
    """``kleene_layer`` with the last tree in code order removed from every stage k >= 2."""

    def mutant(sig, k):
        stage = kleene_layer(sig, k)
        return stage - {max(stage)} if k >= 2 else stage

    return mutant


def test_lambek_check_reports_a_broken_stage(monkeypatch):
    sigs = (BIN, IDENT, list_signature(2))
    with monkeypatch.context() as patch:
        patch.setattr(wtypes, "kleene_layer", drop_the_last_tree_from_stage_two_on(wtypes.kleene_layer))
        for sig in sigs:
            for k in range(1, 4):
                assert not lambek_check(sig, k).passed, (sig, k)
    assert all(lambek_check(sig, k).passed for sig in sigs for k in range(1, 4))
