from collections import Counter
from fractions import Fraction
from functools import partial

from dsetree.hopf import coproduct
from dsetree.linear import LinComb
from dsetree.opbialg import op_coproduct
from dsetree.ptrees import binary_signature, enumerate_by_nodes, stable_signature
from dsetree.report import check_coassociative, up_to
from dsetree.trees import enumerate_forests

FORESTS = up_to(enumerate_forests, 4)
BINARY_TREES = up_to(partial(enumerate_by_nodes, binary_signature()), 4)
STABLE3_TREES = up_to(partial(enumerate_by_nodes, stable_signature(3)), 3)


def drop_one_cut(delta):
    """The coproduct with, per input, its last cut with both sides nonempty removed."""

    def mutant(x):
        terms = dict(delta(x).terms)
        proper = [k for k in terms if k[0].degree and k[1].degree]
        if proper:
            del terms[max(proper, key=lambda k: (k[0].code, k[1].code))]
        return LinComb(terms)

    return mutant


def off_by_one(delta):
    """The coproduct with, per input, the coefficient of its first term raised by one."""

    def mutant(x):
        terms = dict(delta(x).terms)
        terms[min(terms, key=lambda k: (k[0].code, k[1].code))] += 1
        return LinComb(terms)

    return mutant


def test_up_to_lists_each_size_in_code_order():
    assert [f.code for f in up_to(enumerate_forests, 2)] == ["1", "()", "(())", "()*()"]
    assert [t.code for t in BINARY_TREES[:4]] == ["|", "b(|,|)", "b(b(|,|),|)", "b(|,b(|,|))"]
    assert len(BINARY_TREES) == 1 + 1 + 2 + 5 + 14


def test_coassociativity_driver_passes_true_coproducts():
    assert check_coassociative("forests", FORESTS, coproduct).passed
    assert check_coassociative("binary", BINARY_TREES, op_coproduct).passed


def test_coassociativity_mutation_detected_at_small_size():
    forests = check_coassociative("forests", FORESTS, drop_one_cut(coproduct))
    assert not forests.passed
    assert forests.checked == len(FORESTS)
    binary = check_coassociative("binary", BINARY_TREES, drop_one_cut(op_coproduct))
    assert not binary.passed
    assert binary.checked == len(BINARY_TREES)


def test_coassociativity_driver_computes_each_coproduct_once():
    for inputs, delta in ((FORESTS, coproduct), (STABLE3_TREES, op_coproduct)):
        calls = Counter()

        def counted(x):
            calls[x] += 1  # a tree and the forest of that tree are distinct keys
            return delta(x)

        assert check_coassociative("counted", inputs, counted).passed
        assert set(calls.values()) == {1}
        assert calls.keys() >= set(inputs)


def test_coassociativity_driver_coefficients():
    for inputs, delta in ((FORESTS, coproduct), (STABLE3_TREES, op_coproduct)):
        assert not check_coassociative("off by one", inputs, off_by_one(delta)).passed
        third = check_coassociative("scaled", inputs, lambda x: delta(x).scale(Fraction(1, 3)))
        assert third.passed
