"""End-to-end acceptance suite.

Each test prints one PASS line on success; timing assertions enforce the
stated runtime budgets.
"""

import subprocess
import sys
import time

from dsetree import dse, hopf, linear, opbialg, ptrees, trees, wtypes


def timed(budget_seconds):
    class _Timer:
        def __enter__(self):
            self.start = time.perf_counter()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.perf_counter() - self.start
            if exc == (None, None, None):
                assert self.elapsed < budget_seconds, (
                    f"runtime {self.elapsed:.2f}s exceeds budget {budget_seconds}s"
                )

    return _Timer()


def report(name):
    print(f"PASS acceptance: {name}")


def test_criterion_1_linear_dse_is_ladders():
    with timed(1.0):
        series = dse.solve(dse.linear_spec(5))
        assert series.coeffs[0] == hopf.HckElem.one()
        for k in range(1, 6):
            ladder = trees.parse_code("(" * k + ")" * k)
            assert series.coeffs[k] == hopf.HckElem.from_tree(ladder)
    report("linear equation yields the ladder series (order 5)")


def test_criterion_2_quadratic_dse_table():
    with timed(1.0):
        series = dse.solve(dse.quadratic_spec(4))
        assert series.coeffs[2].text() == "2*(())"
        assert series.coeffs[3].text() == "4*((())) + 1*(()())"
        assert series.coeffs[4].text() == "8*(((()))) + 2*((()())) + 4*((())())"
    report("quadratic equation reproduces the published c_2..c_4")


def test_criterion_3_geometric_dse_table():
    with timed(1.0):
        series = dse.solve(dse.geometric_spec(4))
        assert series.coeffs[2].text() == "2*(()) + 1*()"
        assert series.coeffs[3].text() == "4*((())) + 1*(()()) + 5*(()) + 1*()"
        assert (
            series.coeffs[4].text()
            == "8*(((()))) + 2*((()())) + 4*((())()) + 16*((())) + 5*(()()) + 9*(()) + 1*()"
        )
    report("geometric equation reproduces the published c_2..c_4")


def test_criterion_4_enumeration_counts():
    with timed(10.0):
        stable_counts = [
            len(ptrees.enumerate_by_leaves(ptrees.stable_signature(max(2, n)), n))
            for n in range(1, 8)
        ]
        assert stable_counts == [1, 1, 3, 11, 45, 197, 903]
        binary_counts = [
            len(ptrees.enumerate_by_nodes(ptrees.binary_signature(), n))
            for n in range(7)
        ]
        assert binary_counts == [1, 1, 2, 5, 14, 42, 132]
        comb_counts = [len(trees.enumerate_comb_trees(n)) for n in range(1, 7)]
        assert comb_counts == [1, 1, 2, 4, 9, 20]
    report("stable/binary/combinatorial enumeration counts")


def test_criterion_5_core_census_equals_dse_coefficients():
    with timed(30.0):
        quadratic = dse.solve(dse.quadratic_spec(5))
        binary = ptrees.binary_signature()
        for k in range(6):
            census = ptrees.core_census(binary, k, by="nodes")
            expected = {f: int(c) for f, c in quadratic.coeffs[k].terms.items()}
            assert census == expected, f"binary census mismatch at {k}"
        geometric = dse.solve(dse.geometric_spec(5))
        for k in range(6):
            sig = ptrees.stable_signature(max(2, k + 1))
            census = ptrees.core_census(sig, k + 1, by="leaves")
            expected = {f: int(c) for f, c in geometric.coeffs[k].terms.items()}
            assert census == expected, f"stable census mismatch at {k}"
    report("core censuses equal equation coefficients (k <= 5)")


def test_criterion_6_hopf_laws_and_cocycle_contrast():
    with timed(60.0):
        for check in (
            hopf.check_coassociativity,
            hopf.check_counit,
            hopf.check_antipode,
            hopf.check_cocycle,
        ):
            result = check(5)
            assert result.passed, result.summary()
        witness = opbialg.cocycle_counterexample(ptrees.binary_signature(), node_bound=2)
        assert witness is not None
        assert sum(t.node_count for t in witness.args) <= 2
    report("Hopf laws hold at degree 5; operadic node builder is not a cocycle")


def test_criterion_7_operadic_bialgebra():
    with timed(60.0):
        bin_sig = ptrees.binary_signature()
        b = bin_sig.op("b")
        s1 = ptrees.PTree(b, (ptrees.NIL, ptrees.NIL))
        t2 = ptrees.PTree(b, (s1, ptrees.NIL))
        expected = linear.LinComb(
            {
                (trees.Forest([ptrees.NIL] * 3), trees.Forest([t2])): 1,
                (trees.Forest([s1, ptrees.NIL]), trees.Forest([s1])): 1,
                (trees.Forest([t2]), trees.Forest([ptrees.NIL])): 1,
            }
        )
        assert hopf.coproduct(t2) == expected
        for sig in (bin_sig, ptrees.stable_signature(4)):
            assert opbialg.check_op_coassociativity(sig, 4).passed
            assert opbialg.check_core_homomorphism(sig, 4).passed
    report("operadic coproduct example, coassociativity, core homomorphism")


def test_criterion_8_faa_di_bruno():
    with timed(60.0):
        assert opbialg.check_faa_di_bruno(ptrees.binary_signature(), 4).passed
        assert opbialg.check_faa_di_bruno(ptrees.identity_signature(), 5).passed
    report("Green-function coproduct identity (binary bound 4, unary bound 5)")


def test_criterion_9_fold_semantics():
    with timed(10.0):
        for k in range(9):
            assert wtypes.lambek_check(ptrees.identity_signature(), k).passed
        for k in range(5):
            assert wtypes.lambek_check(ptrees.binary_signature(), k).passed
        sig = ptrees.binary_signature()
        alg = wtypes.FoldAlgebra(0, {"b": lambda l, r: 1 + l + r})
        assert wtypes.check_computation_rules(sig, alg, 5).passed
        assert wtypes.check_fold_uniqueness(
            sig, alg, lambda t: wtypes.fold(sig, alg, t), 5
        ).passed

        def corrupted(s, a, t):
            value = wtypes.fold(s, a, t)
            return value + 1 if t.node_count == 1 else value

        mutated = wtypes.check_computation_rules(sig, alg, 5, evaluator=corrupted)
        assert not mutated.passed
        assert min(code.count("b(") for code, _, _ in mutated.counterexamples) <= 2
    report("fixpoint stages, computation rules, uniqueness, mutation detection")


ACCEPTANCE_COMMANDS = [
    ("solve", "--spec", "linear", "--order", "5"),
    ("solve", "--spec", "quadratic", "--order", "4"),
    ("solve", "--spec", "geometric", "--order", "4"),
    ("enumerate", "--signature", "stable", "--by", "leaves", "--n", "4"),
    ("enumerate", "--signature", "binary", "--n", "4"),
    ("enumerate", "--signature", "comb", "--n", "5"),
    ("census", "--signature", "binary", "--n", "4"),
    ("check", "--law", "coassoc", "--degree", "4"),
    ("check", "--law", "antipode", "--degree", "4"),
    ("check", "--law", "cocycle", "--degree", "4"),
    ("check", "--law", "op-cocycle", "--signature", "binary", "--bound", "2"),
    ("check", "--law", "core-hom", "--signature", "binary", "--bound", "4"),
    ("check", "--law", "faa-di-bruno", "--signature", "binary", "--bound", "4"),
    ("check", "--law", "lambek", "--signature", "identity", "--bound", "8"),
    ("green", "--signature", "binary", "--bound", "3"),
    ("fold-demo", "--demo", "nat", "--n", "4"),
]


def test_criterion_10_cli_determinism():
    for cmd in ACCEPTANCE_COMMANDS:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "dsetree.cli", *cmd],
                capture_output=True,
            )
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout, f"nondeterministic output: {cmd}"
        assert runs[0].returncode == runs[1].returncode
        expected_code = 1 if "op-cocycle" in cmd else 0
        assert runs[0].returncode == expected_code, (cmd, runs[0].stderr)
    report("byte-identical CLI output across repeated runs")
