import json
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from dsetree import table
from dsetree.cli import main
from dsetree.errors import ArityMismatch
from dsetree.hopf import check_coassociativity, coproduct, tree_cuts
from dsetree.linear import LinComb
from dsetree.opbialg import (
    check_core_homomorphism,
    check_faa_di_bruno,
    check_op_coassociativity,
    cocycle_counterexample,
    core,
    green,
    op_counit,
)
from dsetree.ptrees import (
    NIL,
    Operation,
    PTree,
    Signature,
    binary_signature,
    enumerate_by_nodes,
    identity_signature,
    list_signature,
    parse_ptree,
    stable_signature,
)
from dsetree.report import up_to
from dsetree.trees import EMPTY_FOREST, Forest, enumerate_forests

BIN = binary_signature()
B = BIN.op("b")
S1 = PTree(B, (NIL, NIL))
T2 = PTree(B, (S1, NIL))  # two nodes, three leaves


def node(*children):
    return PTree(B, tuple(children))


def tens(pairs):
    return LinComb({(Forest(l), Forest(r)): c for l, r, c in pairs})


def test_nil_is_grouplike_but_not_the_unit():
    assert coproduct(NIL) == tens([(([NIL]), ([NIL]), 1)])
    assert Forest([NIL]) != EMPTY_FOREST
    assert op_counit(Forest([NIL])) == 1
    assert op_counit(Forest([S1])) == 0


def test_displayed_two_node_coproduct():
    assert coproduct(T2) == tens(
        [
            ([NIL, NIL, NIL], [T2], 1),
            ([S1, NIL], [S1], 1),
            ([T2], [NIL], 1),
        ]
    )


def test_single_node_coproduct():
    assert coproduct(S1) == tens(
        [([NIL, NIL], [S1], 1), ([S1], [NIL], 1)]
    )


def test_coproduct_multiplicative_on_forests():
    f = Forest([NIL, S1])
    lhs = coproduct(f)
    acc = {}
    for (a1, b1), c1 in coproduct(NIL).terms.items():
        for (a2, b2), c2 in coproduct(S1).terms.items():
            key = (a1.union(a2), b1.union(b2))
            acc[key] = acc.get(key, Fraction(0)) + c1 * c2
    assert lhs == LinComb(acc)


def test_node_builder_matches_codec():
    assert PTree(B, (NIL, NIL)) == parse_ptree("b(|,|)", BIN)
    assert PTree(B, (S1, NIL)) == parse_ptree("b(b(|,|),|)", BIN)
    with pytest.raises(ArityMismatch):
        PTree(B, (NIL,))


def test_cocycle_fails_with_small_witness():
    witness = cocycle_counterexample(BIN, node_bound=2)
    assert witness is not None
    assert sum(t.node_count for t in witness.args) <= 2
    assert not (witness.lhs - witness.rhs).is_zero()
    # The same failure shows up for the unary constructor.
    unary_witness = cocycle_counterexample(identity_signature(), node_bound=2)
    assert unary_witness is not None


def test_cocycle_search_over_no_operations_passes(tmp_path, capsys):
    assert cocycle_counterexample(Signature(())) is None
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"ops": []}))
    assert main(["check", "--law", "op-cocycle", "--signature", str(path)]) == 0
    assert capsys.readouterr().out == "PASS (node-builder cocycle, bound 3): no counterexample found\n"


Z_BEFORE_A = Signature((Operation("z", 2), Operation("a", 1)))  # signature order differs from code order


@pytest.mark.parametrize("sig", [BIN, identity_signature(), list_signature(3), stable_signature(10), Z_BEFORE_A])
def test_cocycle_witness_is_the_first_operation_over_bare_edges_at_every_bound(sig, tmp_path, capsys):
    # Every candidate violates the identity, so the op-major search stops at its
    # first one; stable:10 puts v10( before v2( in code order.
    op = sig.ops[0]
    built = PTree(op, (NIL,) * op.arity)
    difference = LinComb({(Forest([built]), Forest([NIL])): 1, (Forest([built]), EMPTY_FOREST): -1})
    for bound in range(9):
        witness = cocycle_counterexample(sig, node_bound=bound)
        assert (witness.op, witness.args) == (op, built.children), bound
        assert witness.lhs - witness.rhs == difference, bound
    path = tmp_path / "sig.json"
    path.write_text(json.dumps({"ops": [{"name": o.name, "arity": o.arity} for o in sig.ops]}))
    outputs = set()
    for bound in (0, 2, 5):
        assert main(["check", "--law", "op-cocycle", "--signature", str(path), "--bound", str(bound)]) == 1
        outputs.add(capsys.readouterr().out)
    assert outputs == {f"FAIL (node-builder cocycle): {witness.describe()}\n"}


def test_bigrading_preserved():
    for n in range(5):
        for t in enumerate_by_nodes(BIN, n):
            for (crown, lower), c in coproduct(t).terms.items():
                assert crown.degree + lower.degree == n
                assert c > 0


def test_coassociativity_small_bounds():
    for sig in (BIN, stable_signature(4)):
        report = check_op_coassociativity(sig, 3)
        assert report.passed, report.summary()


def drop_last_proper_cut(forest_cuts):
    """Forest cuts without the last (upper, lower) id pair whose two forests are both nonempty."""

    def mutant(self, trees):
        pairs = dict(forest_cuts(self, trees))  # a copy: a one-tree forest's cuts are the table's own
        proper = [pair for pair in pairs if self.keys[pair[0]] and self.keys[pair[1]]]
        if proper:
            del pairs[proper[-1]]
        return pairs

    return mutant


def raise_first_count(forest_cuts):
    """Forest cuts with the count of their first id pair raised by one."""

    def mutant(self, trees):
        pairs = dict(forest_cuts(self, trees))  # a copy: a one-tree forest's cuts are the table's own
        pairs[next(iter(pairs))] += 1
        return pairs

    return mutant


def test_coassociativity_checks_report_id_level_mutants(monkeypatch):
    # Both coassociativity laws run on the cut table's ids without calling
    # hopf.coproduct, so their mutants live in Table.forest_cuts.
    checks = (partial(check_coassociativity, 4), partial(check_op_coassociativity, BIN, 4))
    argv = ["check", "--law", "op-coassoc", "--signature", "binary", "--bound", "3"]
    for mutant in (drop_last_proper_cut, raise_first_count):
        with monkeypatch.context() as patch:
            patch.setattr(table.Table, "forest_cuts", mutant(table.Table.forest_cuts))
            for check in checks:
                assert not check().passed, (check.func.__name__, mutant.__name__)
            assert main(argv) == 1, mutant.__name__
    assert all(check().passed for check in checks)
    assert main(argv) == 0


# Stdout of the op-coassoc check above with drop_last_proper_cut in place, as
# the coproduct-keyed driver printed it.
OP_COASSOC_DROP_STDOUT = "FAIL (operadic coassociativity, 9 inputs)\n" + "".join(
    f"  counterexample: input={code} expected=(Id x D)D actual=(D x Id)D\n"
    for code in (
        "b(|,|)", "b(b(|,|),|)", "b(|,b(|,|))", "b(b(b(|,|),|),|)", "b(b(|,b(|,|)),|)",
        "b(b(|,|),b(|,|))", "b(|,b(b(|,|),|))", "b(|,b(|,b(|,|)))",
    )
).removesuffix("\n") + " [bound <= 3]\n"


def test_op_coassociativity_failure_prints_the_same_bytes(monkeypatch, capsys):
    capsys.readouterr()
    with monkeypatch.context() as patch:
        patch.setattr(table.Table, "forest_cuts", drop_last_proper_cut(table.Table.forest_cuts))
        assert main(["check", "--law", "op-coassoc", "--signature", "binary", "--bound", "3"]) == 1
    assert capsys.readouterr().out == OP_COASSOC_DROP_STDOUT


def test_core_homomorphism_on_displayed_example():
    report = check_core_homomorphism(BIN, 2)
    assert report.passed, report.summary()


def test_core_homomorphism_binary_bound_4():
    report = check_core_homomorphism(BIN, 4)
    assert report.passed
    assert report.checked == 1 + 1 + 2 + 5 + 14


def test_green_identity_signature():
    graded = green(identity_signature(), 3)
    assert max(graded) == 1
    component = graded[1]
    assert len(component) == 4  # ladders with 0..3 nodes


def test_green_binary_bound_2():
    graded = green(BIN, 2)
    by_leaves = {n: len(graded.get(n, [])) for n in range(1, 4)}
    assert by_leaves == {1: 1, 2: 1, 3: 2}


def test_green_stable_g4():
    graded = green(stable_signature(4), 3)
    assert len(graded[4]) == 11


def test_faa_di_bruno_small_bounds():
    assert check_faa_di_bruno(BIN, 3).passed
    assert check_faa_di_bruno(identity_signature(), 3).passed
    assert check_faa_di_bruno(BIN, 0).passed
    assert check_faa_di_bruno(stable_signature(3), 3).passed
    # The 1500 leaves of w(|, ..., |) ask for G^1500 within no nodes: 1500 bare edges, which
    # must not take a stack frame each.
    assert check_faa_di_bruno(Signature((Operation("w", 1500),)), 1).passed


def test_shared_table_changes_no_result_and_shares_each_code():
    trees = up_to(partial(enumerate_by_nodes, stable_signature(3)), 4)
    forests = [
        Forest([a, b])
        for i, a in enumerate(trees)
        for b in trees[i:]
        if a.node_count + b.node_count <= 4
    ]
    comb_forests = up_to(enumerate_forests, 5)
    comb_trees = [f.trees[0] for f in comb_forests if len(f.trees) == 1]
    ids = table.Table()
    shared = {}

    def is_shared(x):
        return shared.setdefault((type(x), x.code), x) is x

    for t in trees + comb_trees:
        pairs = ids.tree_cuts(ids.tree(t))
        cuts = tuple((ids.obj(u), ids.obj(l)) for (u, l), c in pairs.items() for _ in range(c))
        assert cuts == tree_cuts(t)
        assert all(is_shared(crown) and is_shared(lower) for crown, lower in cuts)
    # A decorated tree and its core share the table, as in the
    # core-homomorphism check.
    with_cores = [y for t in trees for y in (t, core(t))]
    for x in with_cores + forests + comb_trees + comb_forests:
        n = ids.forest(x) if isinstance(x, Forest) else ids.number((ids.tree(x),))
        delta = LinComb({(ids.obj(u), ids.obj(l)): c for (u, l), c in ids.delta(n).items()})
        assert delta == coproduct(x)
        assert all(is_shared(crown) and is_shared(lower) for crown, lower in delta.terms)


# Names that are prefixes of one another, so that a table or key that cut a name
# short, or joined names without a separator, would merge distinct operations.
signatures = st.lists(
    st.tuples(st.sampled_from(["a", "ab", "x1", "x10"]), st.integers(0, 3)),
    min_size=1,
    max_size=3,
    unique_by=lambda op: op[0],
).map(lambda ops: Signature(tuple(Operation(name, arity) for name, arity in ops)))


@settings(max_examples=20, deadline=None)
@given(signatures)
@example(Signature((Operation("a", 0), Operation("ab", 0))))
def test_operadic_laws_hold_over_random_signatures(sig):
    for check in (check_op_coassociativity, check_core_homomorphism, check_faa_di_bruno):
        report = check(sig, 3)
        assert report.passed, report.summary()
