from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import chain

from dsetree import hopf, table
from dsetree.cli import main
from dsetree.hopf import antipode, check_antipode, check_cocycle, check_counit, coproduct
from dsetree.linear import LinComb
from dsetree.opbialg import check_core_homomorphism, check_faa_di_bruno, core, green
from dsetree.ptrees import PTree, binary_signature, by_leaves, enumerate_by_nodes, list_signature, stable_signature
from dsetree.report import check_coassociative, up_to
from dsetree.trees import LEAF, CombTree, Forest, enumerate_forests, parse_forest

FORESTS = up_to(enumerate_forests, 4)
BINARY_TREES = up_to(partial(enumerate_by_nodes, binary_signature()), 4)
STABLE3_TREES = up_to(partial(enumerate_by_nodes, stable_signature(3)), 3)


def numbered(coproduct):
    """The ``(number, delta)`` pair that runs ``check_coassociative`` on a ``LinComb``-valued coproduct.

    ``number`` gives each distinct object an int the first time it is met, and
    ``delta(n)`` is the coproduct of object ``n`` with both factors of each term
    replaced by their numbers.
    """
    objs: list = []
    ids: dict = {}

    def number(x):
        if x not in ids:
            ids[x] = len(objs)
            objs.append(x)
        return ids[x]

    def delta(n):
        return {(number(a), number(b)): c for (a, b), c in coproduct(objs[n]).terms.items()}

    return number, delta


def drop_one_cut(delta):
    """The coproduct with, per input, its last cut with both sides nonempty removed."""

    def mutant(x, *args, **kwargs):
        terms = dict(delta(x, *args, **kwargs).terms)
        proper = [k for k in terms if k[0].degree and k[1].degree]
        if proper:
            del terms[max(proper, key=lambda k: (k[0].code, k[1].code))]
        return LinComb(terms)

    return mutant


def off_by_one(delta):
    """The coproduct with, per input, the coefficient of its first term raised by one."""

    def mutant(x, *args, **kwargs):
        terms = dict(delta(x, *args, **kwargs).terms)
        terms[min(terms, key=lambda k: (k[0].code, k[1].code))] += 1
        return LinComb(terms)

    return mutant


def swap_factors(delta):
    """The coproduct with the two factors of every term exchanged."""

    def mutant(x, *args, **kwargs):
        return LinComb({(b, a): c for (a, b), c in delta(x, *args, **kwargs).terms.items()})

    return mutant


def at_ids(mutant):
    """``mutant`` of the coproduct moved to ``Table.forest_cuts``: each forest's (upper, lower)
    id pairs change as the coproduct of that forest would under ``mutant``."""

    def lift(forest_cuts):
        def patched(self, trees):
            pairs = forest_cuts(self, trees)
            objects = LinComb({(self.obj(u), self.obj(l)): c for (u, l), c in pairs.items()})
            terms = mutant(lambda _: objects)(trees).terms
            return Counter({(self.forest(u), self.forest(l)): int(c) for (u, l), c in terms.items()})

        return patched

    lift.__name__ = f"at_ids({mutant.__name__})"
    return lift


# Each law check, the function its mutants replace, and the mutants it must
# report.  The counit, antipode, cocycle, core-homomorphism and Faa di Bruno laws
# read the cut table's ids and never call hopf.coproduct, so their coproduct
# mutants live in Table.forest_cuts.  The Faa di Bruno check writes the powers of
# the Green function down in closed form and never calls Table.product, so the
# product mutants are killed in test_dse.py, by checks that solve equations.
# A law blind to a mutant is not paired with it: the counit laws ignore the cuts
# with both factors nonempty, and in a commutative algebra the counit and
# antipode laws also hold for the coproduct with its factors swapped.
ALL_AT_IDS = tuple(map(at_ids, (drop_one_cut, off_by_one, swap_factors)))
LAW_CHECKS = (
    (partial(check_counit, 4), table.Table, "forest_cuts", (at_ids(off_by_one),)),
    (partial(check_antipode, 4), table.Table, "forest_cuts", (at_ids(drop_one_cut), at_ids(off_by_one))),
    (partial(check_cocycle, 4), table.Table, "forest_cuts", ALL_AT_IDS),
    (partial(check_core_homomorphism, binary_signature(), 4), table.Table, "forest_cuts", ALL_AT_IDS),
    (partial(check_faa_di_bruno, binary_signature(), 4), table.Table, "forest_cuts", ALL_AT_IDS),
    (partial(check_faa_di_bruno, stable_signature(3), 3), table.Table, "forest_cuts", ALL_AT_IDS),
)


def test_up_to_lists_each_size_in_code_order():
    assert [f.code for f in up_to(enumerate_forests, 2)] == ["1", "()", "(())", "()*()"]
    assert [t.code for t in BINARY_TREES[:4]] == ["|", "b(|,|)", "b(b(|,|),|)", "b(|,b(|,|))"]
    assert len(BINARY_TREES) == 1 + 1 + 2 + 5 + 14


def test_coassociativity_driver_passes_true_coproducts():
    assert check_coassociative("forests", FORESTS, *numbered(coproduct)).passed
    assert check_coassociative("binary", BINARY_TREES, *numbered(coproduct)).passed


def test_coassociativity_mutation_detected_at_small_size():
    forests = check_coassociative("forests", FORESTS, *numbered(drop_one_cut(coproduct)))
    assert not forests.passed
    assert forests.checked == len(FORESTS)
    binary = check_coassociative("binary", BINARY_TREES, *numbered(drop_one_cut(coproduct)))
    assert not binary.passed
    assert binary.checked == len(BINARY_TREES)


def test_coassociativity_driver_computes_each_coproduct_once():
    for inputs in (FORESTS, STABLE3_TREES):
        calls = Counter()

        def counted(x):
            calls[x] += 1  # a tree and the forest of that tree are distinct keys
            return coproduct(x)

        assert check_coassociative("counted", inputs, *numbered(counted)).passed
        assert set(calls.values()) == {1}
        assert calls.keys() >= set(inputs)


def test_antipode_check_computes_each_antipode_once(monkeypatch):
    calls = Counter()
    signed = table.Table.antipode

    def counted(self, n):
        calls[self.obj(n)] += 1
        return signed(self, n)

    monkeypatch.setattr(table.Table, "antipode", counted)
    assert check_antipode(5).passed
    assert set(calls.values()) == {1}
    assert calls.keys() == {upper for f in up_to(enumerate_forests, 5) for upper, _ in coproduct(f).terms}


def test_core_homomorphism_check_takes_each_core_once(monkeypatch):
    fills, tables = Counter(), []
    init = table.Table.__init__

    class CountedCores(dict):
        def __setitem__(self, n, core):
            fills[n] += 1
            super().__setitem__(n, core)

    def counted(self):
        init(self)
        self.cores = CountedCores()
        tables.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(table.Table, "__init__", counted)
        assert check_core_homomorphism(stable_signature(3), 3).passed
    [ids] = tables
    assert set(fills.values()) == {1}
    assert {ids.obj(n) for n in fills} == {
        tree for t in STABLE3_TREES for cut in coproduct(t).terms for f in cut for tree in f
    }


def test_core_homomorphism_check_builds_no_tree_or_forest(monkeypatch):
    # Nor does the Faa di Bruno check, which builds no LinComb either, so it
    # neither calls hopf.coproduct nor adds up with LinComb.sum.
    sig = stable_signature(3)
    by_leaves(sig, 3)  # the inputs, enumerated and cached before counting
    built = Counter()
    for cls in (PTree, CombTree, Forest, LinComb):

        def counted(self, *args, init=cls.__init__, name=cls.__name__):
            built[name] += 1
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    assert check_core_homomorphism(sig, 3).passed
    assert check_faa_di_bruno(sig, 3).passed
    assert built == Counter()


def test_core_homomorphism_check_takes_one_hopf_coproduct_per_core(monkeypatch):
    calls = Counter()
    delta = table.Table.delta

    def counted(self, n):
        calls[self.obj(n)] += 1
        return delta(self, n)

    monkeypatch.setattr(table.Table, "delta", counted)
    assert check_core_homomorphism(stable_signature(3), 3).passed
    assert set(calls.values()) == {1}
    assert calls.keys() == {core(t) for t in STABLE3_TREES}


def drop_a_leaf_under_the_root(core):
    """The core map on ids with one leaf child of the core's root removed, where it has one."""

    def mutant(self, n):
        found = core(self, n)
        leaf = self.number(("",), LEAF)
        if not found or leaf not in self.parts(found[0]):
            return found
        kids = list(self.parts(found[0]))
        kids.remove(leaf)
        return (self.number(("", *kids), LEAF),)

    return mutant


def test_core_homomorphism_check_reports_a_wrong_core(monkeypatch):
    checks = [partial(check_core_homomorphism, sig, 3) for sig in (binary_signature(), stable_signature(3))]
    with monkeypatch.context() as patch:
        patch.setattr(table.Table, "core", drop_a_leaf_under_the_root(table.Table.core))
        for check in checks:
            assert not check().passed, check.args[0]
    assert all(check().passed for check in checks)


# Stdout of the binary core-hom check at bound 3 with swap_factors in place on
# the Hopf side, as the check printed it before it ran on the cut table's ids
# (the mutant was then applied to hopf.coproduct).
CORE_HOM_SWAP_STDOUT = (
    "FAIL (core homomorphism, 9 inputs)\n"
    "  counterexample: input=b(b(|,|),b(|,|))"
    " expected=1*(()())(x)1 + 2*(())(x)() + 1*()(x)()*() + 1*1(x)(()())"
    " actual=1*(()())(x)1 + 2*()(x)(()) + 1*()*()(x)() + 1*1(x)(()()) [bound <= 3]\n"
)


def test_core_homomorphism_failure_prints_the_same_bytes(monkeypatch, capsys):
    capsys.readouterr()
    with monkeypatch.context() as patch:
        patch.setattr(table.Table, "forest_cuts", at_ids(swap_factors)(table.Table.forest_cuts))
        assert main(["check", "--law", "core-hom", "--signature", "binary", "--bound", "3"]) == 1
    assert capsys.readouterr().out == CORE_HOM_SWAP_STDOUT


# Stdout of the stable:3 Faa di Bruno check at bound 3 with drop_one_cut in
# place, as the check printed it while it still summed LinCombs of Forests
# (the mutant then reached it through hopf.coproduct).
FAA_DI_BRUNO_DROP_ONE_CUT_STDOUT = "FAIL (Faa di Bruno, 79 inputs)\n" + "\n".join(
    f"  counterexample: input={term} expected=0 actual={c}"
    for term, c in (
        ("v2(|,|)*|(x)v2(|,|)", -2),
        ("v2(|,|)*|*|(x)v2(v2(|,|),|)", -2),
        ("v2(|,|)*|*|(x)v2(|,v2(|,|))", -3),
        ("v2(|,|)*|*|(x)v3(|,|,|)", -3),
        ("v2(|,|)*|*|*|(x)v3(v2(|,|),|,|)", -2),
    )
) + " [bound <= 3]\n"


def test_faa_di_bruno_failure_prints_the_same_bytes(monkeypatch, capsys):
    capsys.readouterr()
    with monkeypatch.context() as patch:
        patch.setattr(table.Table, "forest_cuts", at_ids(drop_one_cut)(table.Table.forest_cuts))
        assert main(["check", "--law", "faa-di-bruno", "--signature", "stable:3", "--bound", "3"]) == 1
    assert capsys.readouterr().out == FAA_DI_BRUNO_DROP_ONE_CUT_STDOUT


def test_faa_di_bruno_check_numbers_no_forest_beyond_its_left_side(monkeypatch):
    # The powers of the Green function are written down, not multiplied out, so a
    # passing check holds the ids of G's trees and of their cuts, and no other.
    tables, init = [], table.Table.__init__

    def recorded(self):
        init(self)
        tables.append(self)

    for sig, bound in ((binary_signature(), 5), (stable_signature(3), 4), (list_signature(2), 4)):
        tables.clear()
        with monkeypatch.context() as patch:
            patch.setattr(table.Table, "__init__", recorded)
            assert check_faa_di_bruno(sig, bound).passed
        [ids], fresh = tables, table.Table()
        for t in chain.from_iterable(green(sig, bound).values()):
            fresh.delta(fresh.forest_of((fresh.tree(t),)))
        assert len(ids.keys) == len(fresh.keys), sig


def test_coassociativity_driver_coefficients():
    for inputs in (FORESTS, STABLE3_TREES):
        assert not check_coassociative("off by one", inputs, *numbered(off_by_one(coproduct))).passed
        third = check_coassociative("scaled", inputs, *numbered(lambda x: coproduct(x).scale(Fraction(1, 3))))
        assert third.passed


def test_law_checks_report_coproduct_mutants(monkeypatch):
    # The core-homomorphism check meets the mutant only on its Hopf side;
    # its operadic side reads Table.tree_cuts and stays true.
    for check, owner, name, mutants in LAW_CHECKS:
        assert check().passed, check.func.__name__
        for mutant in mutants:
            with monkeypatch.context() as patch:
                patch.setattr(owner, name, mutant(getattr(owner, name)))
                assert not check().passed, (check.func.__name__, mutant.__name__)


# Stdout of two failing law checks, recorded while the checks still called
# hopf.coproduct, with the same mutant applied to hopf.coproduct.
COUNIT_OFF_BY_ONE_STDOUT = "FAIL (counit, 8 inputs)\n" + "\n".join(
    f"  counterexample: input={code} expected=1*{code} actual=left={left}*{code} right=2*{code}"
    for code, left in (("1", 2), ("()", 1), ("(())", 1), ("((()))", 1), ("(()())", 1))
) + " [degree <= 3]\n"
COCYCLE_DROP_ONE_CUT_STDOUT = (
    "FAIL (cocycle, 8 inputs)\n"
    "  counterexample: input=() expected=1*(())(x)1 + 1*()(x)() + 1*1(x)(()) actual=1*(())(x)1 + 1*1(x)(())\n"
    "  counterexample: input=()*() expected=1*(()())(x)1 + 1*()*()(x)() + 1*1(x)(()())"
    " actual=1*(()())(x)1 + 2*()(x)(()) + 1*1(x)(()())\n"
    "  counterexample: input=()*()*() expected=1*(()()())(x)1 + 3*()(x)(()()) + 1*()*()*()(x)() + 1*1(x)(()()())"
    " actual=1*(()()())(x)1 + 3*()(x)(()()) + 3*()*()(x)(()) + 1*1(x)(()()()) [degree <= 3]\n"
)


def test_counit_and_cocycle_failures_print_the_same_bytes(monkeypatch, capsys):
    for law, mutant, stdout in (
        ("counit", off_by_one, COUNIT_OFF_BY_ONE_STDOUT),
        ("cocycle", drop_one_cut, COCYCLE_DROP_ONE_CUT_STDOUT),
    ):
        capsys.readouterr()
        with monkeypatch.context() as patch:
            patch.setattr(table.Table, "forest_cuts", at_ids(mutant)(table.Table.forest_cuts))
            assert main(["check", "--law", law, "--degree", "3"]) == 1
        assert capsys.readouterr().out == stdout, law


# Stdout of the failing antipode check at degree 3, recorded while the check
# still called hopf.coproduct, with the same mutant applied to hopf.coproduct.
ANTIPODE_DROP_ONE_CUT_STDOUT = (
    "FAIL (antipode, 8 inputs)\n"
    "  counterexample: input=(()) expected=0 actual=1*()*()\n"
    "  counterexample: input=()*() expected=0 actual=2*()*()\n"
    "  counterexample: input=((())) expected=0 actual=1*(())*()\n"
    "  counterexample: input=(()()) expected=0 actual=-1*()*()*()\n"
    "  counterexample: input=(())*() expected=0 actual=-1*()*()*()\n"
    "  counterexample: input=()*()*() expected=0 actual=-3*()*()*() [degree <= 3]\n"
)
ANTIPODE_OFF_BY_ONE_STDOUT = (
    "FAIL (antipode, 8 inputs)\n"
    "  counterexample: input=1 expected=1*1 actual=2*1\n"
    "  counterexample: input=() expected=0 actual=-1*()\n"
    "  counterexample: input=(()) expected=0 actual=-1*(()) + 1*()*()\n"
    "  counterexample: input=()*() expected=0 actual=-1*()*()\n"
    "  counterexample: input=((())) expected=0 actual=-1*((())) + 2*(())*() + -1*()*()*()\n"
    "  counterexample: input=(()()) expected=0 actual=-1*(()()) + 2*(())*() + -1*()*()*()\n"
    "  counterexample: input=(())*() expected=0 actual=-1*(())*() + 1*()*()*()\n"
    "  counterexample: input=()*()*() expected=0 actual=-1*()*()*() [degree <= 3]\n"
)


def test_antipode_failures_print_the_same_bytes(monkeypatch, capsys):
    for mutant, stdout in ((drop_one_cut, ANTIPODE_DROP_ONE_CUT_STDOUT), (off_by_one, ANTIPODE_OFF_BY_ONE_STDOUT)):
        capsys.readouterr()
        with monkeypatch.context() as patch:
            patch.setattr(table.Table, "forest_cuts", at_ids(mutant)(table.Table.forest_cuts))
            assert main(["check", "--law", "antipode", "--degree", "3"]) == 1
        assert capsys.readouterr().out == stdout, mutant.__name__


def constructions(monkeypatch, *classes) -> Counter:
    """How often each of ``classes`` is constructed from now on."""
    built = Counter()
    for cls in classes:

        def counted(self, *args, cls=cls, init=cls.__init__):
            built[cls] += 1
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    return built


def test_counit_and_cocycle_checks_build_objects_once_per_forest(monkeypatch):
    forests = up_to(enumerate_forests, 6)
    built = constructions(monkeypatch, Forest, CombTree)
    assert check_counit(6).passed
    assert built == {}
    assert check_cocycle(6).passed
    assert built[Forest] <= len(forests) and built[CombTree] <= len(forests)


def test_antipode_builds_each_output_forest_once(monkeypatch):
    for code, terms in (("(()()())", 4), ("((()())())*(()())", 21)):
        x = LinComb.from_forest(parse_forest(code))
        with monkeypatch.context() as patch:
            built = constructions(patch, Forest)
            assert len(antipode(x).terms) == terms
        assert built[Forest] == terms, code


def omit_the_sign(antipode):
    """``Table.antipode`` with every count replaced by its absolute value."""

    def mutant(self, n):
        return Counter({m: abs(c) for m, c in antipode(self, n).items()})

    return mutant


def test_antipode_check_reports_the_unsigned_antipode(monkeypatch):
    # The mutant runs first: an antipode it computed that outlived the patch
    # would fail the unmutated check.  At degree 0 the only input is the empty
    # forest, whose antipode is 1 anyway.
    with monkeypatch.context() as patch:
        patch.setattr(table.Table, "antipode", omit_the_sign(table.Table.antipode))
        for degree in range(1, 5):
            assert not check_antipode(degree).passed, degree
    assert check_antipode(4).passed


def product_off_by_one_on_degree_one_pairs(product):
    """The product with the coefficient of f*g raised by one for every pair of one-node forests f, g."""

    def mutant(x, y):
        extra = [(f.union(g), 1) for f in x.terms for g in y.terms if f.degree == g.degree == 1]
        return LinComb.sum(chain(product(x, y).terms.items(), extra))

    return mutant


def graft_adds_a_leaf_under_two_tree_forests(graft):
    """``Table.graft`` with one more leaf under the new root of every 2-tree forest."""

    def mutant(self, f):
        members = self.keys[f]
        return graft(self, self.number(tuple(sorted((*members, self.tree(LEAF))))) if len(members) == 2 else f)

    return mutant


def test_law_checks_report_product_and_graft_mutants(monkeypatch):
    for owner, name, mutant, check in (
        (hopf, "product", product_off_by_one_on_degree_one_pairs, partial(check_antipode, 4)),
        (table.Table, "graft", graft_adds_a_leaf_under_two_tree_forests, partial(check_cocycle, 4)),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, mutant(getattr(owner, name)))
            assert not check().passed, name
        assert check().passed, name
