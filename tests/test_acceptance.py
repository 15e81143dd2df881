"""End-to-end acceptance suite.

Each test prints one PASS line on success; timing assertions enforce the
stated runtime budgets.
"""

import hashlib
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
            census = opbialg.core_census(binary, k, by="nodes")
            expected = {f: int(c) for f, c in quadratic.coeffs[k].terms.items()}
            assert census == expected, f"binary census mismatch at {k}"
        geometric = dse.solve(dse.geometric_spec(5))
        for k in range(6):
            sig = ptrees.stable_signature(max(2, k + 1))
            census = opbialg.core_census(sig, k + 1, by="leaves")
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

        mutated = wtypes.check_fold_uniqueness(sig, alg, lambda t: corrupted(sig, alg, t), 5)
        assert not mutated.passed
        assert min(code.count("b(") for code, _, _ in mutated.counterexamples) <= 2
    report("fixpoint stages, computation rules, uniqueness, mutation detection")


# Each command's stdout sha256 and exit code, so the canonical output is pinned byte for byte.
ACCEPTANCE_COMMANDS = {
    ("solve", "--spec", "linear", "--order", "5"):
        ("118ed11b34c83da0c45b8414f3f8aa2894cb6667174220d2aa36d48175695b08", 0),
    ("solve", "--spec", "quadratic", "--order", "4"):
        ("10173b9819a9178b8af74e9b502f4e45147ca1c776635ba5c8b5cef0495a5452", 0),
    ("solve", "--spec", "geometric", "--order", "4"):
        ("273fe94ca20f2bbc7bab52d70758250303a4dcad973f7d049c1223627b0c9952", 0),
    ("enumerate", "--signature", "stable", "--by", "leaves", "--n", "4"):
        ("a5a9964f585bc2463638d3ec5b0a5e1b68cb01949fe09215c05c9f7f0cdf5ffb", 0),
    ("enumerate", "--signature", "binary", "--n", "4"):
        ("232afe9939f30b8a60f954ca70d7754ca38989b7b73dd456922678194157fd6e", 0),
    ("enumerate", "--signature", "comb", "--n", "5"):
        ("b0e0b4413c686db8e507edd8052f599c302e3772dc5bdda8a90e8e679dc787ea", 0),
    ("census", "--signature", "binary", "--n", "4"):
        ("e23fc7b0d19c609ade353053c85b85bb0a018cf01b5aadf15bed8324e2643af0", 0),
    ("check", "--law", "coassoc", "--degree", "4"):
        ("c72d899077f3fefe514b038da0b45f3392525e65a239fd49fab4c783f1ac72a9", 0),
    ("check", "--law", "counit", "--degree", "4"):
        ("8854f23f17b800b729bba4947db4087a533077e0177263e26e2aec9d8de497fc", 0),
    ("check", "--law", "antipode", "--degree", "4"):
        ("63b61047d5085dd6363b6c72dea2967e9926489b5e914497adbcc6f884dad8ed", 0),
    ("check", "--law", "cocycle", "--degree", "4"):
        ("0fceade75757f4aed3d7ce5defdcc40f07ef1a8591bd6bbcbdd9f457df968051", 0),
    ("check", "--law", "op-cocycle", "--signature", "binary", "--bound", "2"):
        ("3cec4da2e93dc7792c2991f7f33e2caa084d874b448cb5b596d1f3eb6a9a8e88", 1),
    ("check", "--law", "core-hom", "--signature", "binary", "--bound", "4"):
        ("23575069e6c353252331cbacc68db6a83ba51181af147686ee561ef73ee97c7b", 0),
    ("check", "--law", "faa-di-bruno", "--signature", "binary", "--bound", "4"):
        ("7a01ca0d166d2f6a92414b8ce33defd83ff8f0589ef9b468efde368666e76f33", 0),
    ("check", "--law", "lambek", "--signature", "identity", "--bound", "8"):
        ("94bc51c54e7cd4a5b6537213054b83a51a81a3e1f4e9797a880713d5db0c0f18", 0),
    ("green", "--signature", "binary", "--bound", "3"):
        ("1dd11353251bd590daad36ee98633ff01e68786689ec1101a701469972c4296e", 0),
    ("fold-demo", "--demo", "nat", "--n", "4"):
        ("a0ed095ae3736810a9228ed8e6c2efa9d3ce6e47315c3bdfda9a067d96d5a127", 0),
    ("enumerate", "--signature", "list:2", "--by", "leaves", "--n", "3", "--node-bound", "4"):
        ("70208bff8642430370abc73fdea79803febf896b536e7de34bcbd340846527ec", 0),
    ("enumerate", "--signature", "stable:3", "--n", "4", "--format", "structured"):
        ("5c2ae09d3ea34e395d938308f12683f1398d8d40fd25c14ac93bf58dc95ce3ba", 0),
    ("green", "--signature", "stable:3", "--bound", "4", "--format", "structured"):
        ("cc1f7dfaec5622b2f0a2765eda82641f69380f7009f659a2c1b0005763722afc", 0),
    # Leaf groups of several node counts, so the order within a group shows.
    ("green", "--signature", "list:2", "--bound", "4"):
        ("5da05630a3ec7a0d6fd8695c3270218bd324a123a3eec608e54c8262a6e02d02", 0),
    ("fold-demo", "--demo", "leaf-count", "--signature", "list:2", "--n", "3"):
        ("9a3ca3a1458b2d19de8dbbc760ea00ab0dda78c9b9d31f33a3e265bec2a5e241", 0),
    ("check", "--law", "computation", "--signature", "list:2", "--bound", "4"):
        ("4ea1624140ea2dcad17ef8b5ee5bc85cfdf7e11c8318ca399cef6157c5333671", 0),
}


def test_criterion_10_cli_determinism():
    for cmd, (digest, code) in ACCEPTANCE_COMMANDS.items():
        runs = [
            subprocess.run(
                [sys.executable, "-m", "dsetree.cli", *cmd],
                capture_output=True,
            )
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout, f"nondeterministic output: {cmd}"
        assert runs[0].returncode == runs[1].returncode
        assert runs[0].returncode == code, (cmd, runs[0].stderr)
        assert hashlib.sha256(runs[0].stdout).hexdigest() == digest, f"output changed: {cmd}"
    report("byte-identical CLI output across repeated runs")
