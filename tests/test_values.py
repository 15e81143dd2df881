"""The frozen value classes: the signature and equation inputs, the series, reports and witnesses."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from dsetree.dse import DSESpec, DSETerm, Series, quadratic_spec, solve
from dsetree.errors import InvalidSpec
from dsetree.opbialg import CocycleWitness, check_op_coassociativity, cocycle_counterexample
from dsetree.ptrees import Operation, Signature, enumerate_by_nodes
from dsetree.report import CheckReport
from dsetree.wtypes import FoldAlgebra

ROOT = Path(__file__).resolve().parents[1]
BINARY = Signature((Operation("a", 2),))


def test_reprs_name_the_class_and_every_field():
    assert repr(Operation("a", 2)) == "Operation(name='a', arity=2)"
    assert repr(BINARY) == "Signature(ops=(Operation(name='a', arity=2),))"
    assert repr(quadratic_spec(2)) == (
        "DSESpec(terms=(DSETerm(alpha_power=1, coeff=1, x_power=2),), order=2, name='quadratic')"
    )
    assert repr(solve(quadratic_spec(2))) == "Series(coeffs=(LinComb(1*1), LinComb(1*()), LinComb(2*(()))))"
    assert repr(CheckReport("x", True)) == "CheckReport(name='x', passed=True, checked=0, counterexamples=())"
    assert repr(cocycle_counterexample(BINARY)) == (
        "CocycleWitness(op=Operation(name='a', arity=2), args=(PTree('|'), PTree('|')), "
        "lhs=LinComb(1*a(|,|)(x)| + 1*|*|(x)a(|,|)), rhs=LinComb(1*a(|,|)(x)1 + 1*|*|(x)a(|,|)))"
    )


def test_equal_fields_give_equal_objects_and_hashes_within_one_class():
    pairs = [
        (Operation("a", 2), Operation(name="a", arity=2)),
        (BINARY, Signature((Operation("a", 2),))),
        (DSETerm(1, 1, 2), DSETerm(alpha_power=1, coeff=1, x_power=2)),
        (quadratic_spec(3), quadratic_spec(3)),
        (solve(quadratic_spec(3)), solve(quadratic_spec(3))),
        (CheckReport("x", False, 1, (("i", "e", "a"),)), CheckReport("x", False, 1, (("i", "e", "a"),))),
    ]
    for x, y in pairs:
        assert x == y and not x != y and hash(x) == hash(y) and x is not y
    assert Operation("a", 2) != Operation("a", 3) and DSESpec((), 3) != DSESpec((), 3, name="n")
    interp = {"a": max}
    assert FoldAlgebra(0, interp) == FoldAlgebra(0, interp) != FoldAlgebra(1, interp)

    class Renamed(Operation):
        pass

    assert Signature(()) != Series(()) and Series(()) != Signature(())
    assert Renamed("a", 2) != Operation("a", 2) and Operation("a", 2) != ("a", 2)


def test_fields_cannot_be_assigned_or_deleted():
    op, report = Operation("a", 2), CheckReport("x", True)
    with pytest.raises(AttributeError):
        op.arity = 3
    with pytest.raises(AttributeError):
        report.passed = False
    with pytest.raises(AttributeError):
        BINARY.colour = "red"
    with pytest.raises(AttributeError):
        del op.name
    assert op == Operation("a", 2) and report.passed


def test_constructors_refuse_missing_and_unknown_arguments():
    for build in (
        lambda: Operation("a"),
        lambda: Operation("a", 2, colour="red"),
        lambda: Signature(),
        lambda: DSETerm(1, 1),
        lambda: DSESpec(()),
        lambda: DSESpec((), 3, label="x"),
        lambda: Series(),
        lambda: CheckReport("x"),
        lambda: CocycleWitness(Operation("a", 2), (), None),
        lambda: FoldAlgebra(0),
    ):
        with pytest.raises(TypeError):
            build()


def test_defaults_hold():
    assert DSESpec((), 3).name == ""
    report = CheckReport("x", True)
    assert report.checked == 0 and report.counterexamples == ()


def test_values_survive_copy_and_pickle():
    for x in (Operation("a", 2), BINARY, quadratic_spec(3), CheckReport("x", True, 4)):
        assert copy.copy(x) == x and copy.deepcopy(x) == x and pickle.loads(pickle.dumps(x)) == x


def test_a_signature_built_from_a_list_enumerates_and_checks():
    sig = Signature([Operation("a", 2)])
    assert sig == BINARY and hash(sig) == hash(BINARY)
    assert [t.code for t in enumerate_by_nodes(sig, 2)] == ["a(a(|,|),|)", "a(|,a(|,|))"]
    assert check_op_coassociativity(sig, 2).passed


@pytest.mark.parametrize("build", [
    lambda: Operation("a", 2.0),
    lambda: Operation("a", True),
    lambda: Operation(5, 2),
], ids=["float arity", "bool arity", "int name"])
def test_operation_refuses_fields_of_the_wrong_type(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("build", [
    lambda: DSETerm(1.5, 1, 2),
    lambda: DSETerm(1, 1, 2.0),
    lambda: DSESpec((DSETerm(1, 1, 2),), 3.0),
    lambda: DSETerm(1, 0.1, 1),
    lambda: DSETerm(1, "2", 1),
    lambda: DSETerm(1, True, 1),
    lambda: DSESpec(("x",), 1),
], ids=["float alpha_power", "float x_power", "float order", "float coeff", "str coeff", "bool coeff", "str term"])
def test_equation_refuses_fields_of_the_wrong_type(build):
    with pytest.raises(InvalidSpec):
        build()


def test_a_spec_built_from_a_list_keeps_a_tuple_and_hashes():
    spec = DSESpec([DSETerm(1, 1, 2)], 3)
    assert spec.terms == (DSETerm(1, 1, 2),) and spec == DSESpec((DSETerm(1, 1, 2),), 3)
    assert hash(spec) == hash(DSESpec((DSETerm(1, 1, 2),), 3))
    assert solve(spec) == solve(quadratic_spec(3))


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    script = (
        "import sys; before = set(sys.modules); import dsetree.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         check=True, timeout=10)
    assert out.stdout.strip() == "[]"
