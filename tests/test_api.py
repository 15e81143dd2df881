from fractions import Fraction

import dsetree
from dsetree.hopf import HckElem, HckTensor
from dsetree.linear import LinComb
from dsetree.ptrees import NIL
from dsetree.trees import EMPTY_FOREST, LEAF, Forest, parse_forest


def test_public_names_unchanged():
    assert dsetree.__all__ == [
        "CombTree",
        "DSESpec",
        "DSETerm",
        "FoldAlgebra",
        "Forest",
        "HckElem",
        "HckTensor",
        "NIL",
        "Operation",
        "PTree",
        "Series",
        "Signature",
        "antipode",
        "bplus",
        "canon_code",
        "coproduct",
        "core",
        "counit",
        "fold",
        "graft",
        "parse_code",
        "product",
        "solve",
    ]
    assert all(hasattr(dsetree, name) for name in dsetree.__all__)


def test_linear_combination_constructors():
    assert HckElem.one().terms == {EMPTY_FOREST: Fraction(1)}
    assert HckElem.one().text() == "1*1"
    assert HckTensor.unit().terms == {(EMPTY_FOREST, EMPTY_FOREST): Fraction(1)}
    assert HckTensor.unit().text() == "1*1(x)1"
    f = parse_forest("(())*()")
    assert HckElem.from_forest(f, 3).terms == {f: Fraction(3)}
    assert HckElem.from_tree(LEAF, Fraction(1, 2)).terms == {Forest([LEAF]): Fraction(1, 2)}
    assert HckElem.from_tree(LEAF, 0).is_zero() and HckElem.zero().text() == "0"
    assert all(type(c) is Fraction for c in HckElem.from_forest(f, 3).terms.values())


def test_operadic_forest_of_bare_edge_is_not_the_unit():
    assert Forest([NIL]) != EMPTY_FOREST
    assert Forest([NIL]).degree == EMPTY_FOREST.degree == 0
    assert Forest([NIL]).code == "|" and EMPTY_FOREST.code == "1"


def test_reprs_and_class_sensitive_equality():
    assert [repr(LEAF), repr(EMPTY_FOREST), repr(NIL)] == ["CombTree('()')", "Forest('1')", "PTree('|')"]
    assert Forest([LEAF]).code == LEAF.code
    assert Forest([LEAF]) != LEAF and LEAF != Forest([LEAF])


def test_lincomb_sum_drops_cancelled_keys_and_holds_fractions():
    a, b = parse_forest("()"), parse_forest("(())")
    total = LinComb.sum([(a, 1), (b, Fraction(1, 2)), (a, -1), (b, 2), ((a, b), Fraction(1, 3))])
    assert total.terms == {b: Fraction(5, 2), (a, b): Fraction(1, 3)}
    ints = LinComb.sum([(a, 2), (a, 1)])
    assert ints.terms == {a: 3}
    assert all(type(c) is Fraction for c in (*total.terms.values(), *ints.terms.values()))
    assert LinComb.sum([(a, Fraction(1, 3)), (a, Fraction(-1, 3))]).is_zero()
    assert LinComb.sum([]).is_zero()
