import json
import math
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from dsetree import dse
from dsetree.dse import (
    DSESpec,
    Series,
    DSETerm,
    geometric_spec,
    linear_spec,
    load_spec,
    quadratic_spec,
    residual,
    series_coefficient,
    series_power,
    series_to_dict,
    solve,
    spec_from_signature,
)
from dsetree.errors import InvalidSpec, Nonfinite, OrderExceeded, SizeLimit
from dsetree.hopf import HckElem, coproduct, parse_elem, product
from dsetree.linear import LinComb, add_up
from dsetree.opbialg import core_census
from dsetree.ptrees import list_signature, stable_signature
from dsetree.table import Table
from dsetree.trees import parse_forest
from test_oracles import naive_bplus, naive_product, signatures


def catalan(n):
    c = 1
    for i in range(n):
        c = c * 2 * (2 * i + 1) // (i + 2)
    return c


def schroder(n):
    # Counts of stable planar trees with n+1 leaves: s(0)=s(1)=1, then
    # (n+1)s(n) = 3(2n-1)s(n-1) - (n-2)s(n-2).
    s = [1, 1]
    for k in range(2, n + 1):
        s.append((3 * (2 * k - 1) * s[k - 1] - (k - 2) * s[k - 2]) // (k + 1))
    return s[n]


def coeff_sum(elem):
    return sum(elem.terms.values())


def test_linear_solution_is_ladders():
    series = solve(linear_spec(5))
    expected = ["1*1", "1*()", "1*(())", "1*((()))", "1*(((())))", "1*((((()))))"]
    assert [c.text() for c in series.coeffs] == expected


def test_quadratic_solution_matches_published_table():
    series = solve(quadratic_spec(4))
    assert series.coeffs[2].text() == "2*(())"
    assert series.coeffs[3].text() == "4*((())) + 1*(()())"
    assert series.coeffs[4].text() == "8*(((()))) + 2*((()())) + 4*((())())"


def test_geometric_solution_matches_published_table():
    series = solve(geometric_spec(4))
    assert series.coeffs[2].text() == "2*(()) + 1*()"
    assert series.coeffs[3].text() == "4*((())) + 1*(()()) + 5*(()) + 1*()"
    assert (
        series.coeffs[4].text()
        == "8*(((()))) + 2*((()())) + 4*((())()) + 16*((())) + 5*(()()) + 9*(()) + 1*()"
    )


def test_quadratic_coefficient_sums_are_catalan():
    series = solve(quadratic_spec(6))
    for k in range(7):
        assert coeff_sum(series.coeffs[k]) == catalan(k)


def test_geometric_coefficient_sums_are_schroder():
    series = solve(geometric_spec(6))
    for k in range(7):
        assert coeff_sum(series.coeffs[k]) == schroder(k)


def test_fixpoint_residual_vanishes():
    for spec in (linear_spec(6), quadratic_spec(6), geometric_spec(6)):
        assert all(r.is_zero() for r in residual(spec, solve(spec)))


def test_solution_independent_of_term_order():
    spec = geometric_spec(5)
    reversed_spec = DSESpec(tuple(reversed(spec.terms)), 5)
    assert solve(spec).coeffs == solve(reversed_spec).coeffs


def test_series_power_trivial_cases():
    series = solve(quadratic_spec(4))
    assert series_power(series, 0, 0) == HckElem.one()
    assert series_power(series, 0, 3) == HckElem.zero()
    assert series_coefficient(series, 0) == HckElem.one()


def test_series_power_by_hand_convolution():
    series = solve(quadratic_spec(4))
    c = series.coeffs
    # [a^2] X^2 = c0 c2 + c1 c1 + c2 c0, assembled with an explicit loop.
    expected = HckElem.zero()
    for i in range(3):
        expected = expected + product(c[i], c[2 - i])
    assert series_power(series, 2, 2) == expected
    assert expected == parse_elem("4*(()) + 1*()*()")


def naive_power(coeffs, m, j):
    """[X^m]_j by m-fold convolution of the series truncated at degree j."""
    power = [HckElem.one()] + [HckElem.zero()] * j
    for _ in range(m):
        power = [
            sum((naive_product(power[a], coeffs[d - a]) for a in range(d + 1)), HckElem.zero()) for d in range(j + 1)
        ]
    return power[j]


def test_series_power_with_a_non_unit_constant_term():
    # solve always has c_0 = 1; any other c_0 takes the c_0^(m-i) factor of the binomial sum.
    series = Series(tuple(map(parse_elem, ["2*1 + 1*()", "1/3*(()) + 1*()*()", "0", "-1*((()))"])))
    for m in range(6):
        for j in range(4):
            assert series_power(series, m, j) == naive_power(series.coeffs, m, j), (m, j)


def reference_solution(spec):
    """c_0..c_order worked out order by order with the naive product and B₊, with powers by plain convolution."""
    coeffs = []
    for k in range(spec.order + 1):
        c = HckElem.one() if k == 0 else HckElem.zero()
        for t in spec.terms:
            if k >= t.alpha_power:
                c = c + naive_bplus(naive_power(coeffs, t.x_power, k - t.alpha_power)).scale(t.coeff)
        coeffs.append(c)
    return coeffs


# ints and Fractions over distinct denominators, of either sign; zero weights stay in.
mixed_weights = st.builds(
    lambda n, d: Fraction(n, d) if d > 1 else n, st.integers(-5, 5), st.sampled_from([1, 2, 3, 4, 7, 9, 10])
)
raw_terms = st.lists(st.tuples(st.integers(1, 3), mixed_weights, st.integers(0, 3)), max_size=4)


@given(raw_terms, st.booleans(), st.integers(0, 5))
def test_integer_solve_equals_a_lincomb_reference(raw, cancel, order):
    # solve rescales the coupling and works in ints on forest ids; the reference shares none of that code.
    if cancel and raw:
        a, w, m = raw[0]
        raw.append((a, -w, m))  # a term that cancels the first
    spec = DSESpec(tuple(DSETerm(*t) for t in raw), order)
    series = solve(spec)
    assert list(series.coeffs) == reference_solution(spec)
    assert all(type(c) is Fraction for x in series.coeffs for c in x.terms.values())


def test_a_tiny_coefficient_solves_exactly():
    spec = DSESpec((DSETerm(1, Fraction("1e-400"), 2), DSETerm(2, Fraction(-2, 3), 1)), 6)
    series = solve(spec)
    # Only six alpha^1 grafts make the ladder of six nodes, each doubling it through X^2.
    assert series.coeffs[6].terms[parse_forest("(((((())))))")] == 2**5 * Fraction("1e-400") ** 6
    assert all(r.is_zero() for r in residual(spec, series))


def test_solve_refuses_a_top_denominator_past_the_printing_limit():
    # X = 1 + w*alpha*B+(X) with w = 10^-430: d^10 has 4301 digits, d^9 has 3871.
    tiny = DSETerm(1, Fraction(1, 10**430), 1)
    with pytest.raises(SizeLimit, match="order-10 coefficient's denominator may exceed 4300 digits"):
        solve(DSESpec((tiny,), 10))
    assert solve(DSESpec((tiny,), 9)).coeffs[9].terms[parse_forest("(" * 9 + ")" * 9)] == Fraction(1, 10**3870)
    # X = 1 + w*alpha^2*B+(X) with w = 10^-500: d^10 has 5001 digits, but c_10 = w^5 is a ladder of 5 over 10^2500.
    sparse = DSETerm(2, Fraction(1, 10**500), 1)
    assert solve(DSESpec((sparse,), 10)).coeffs[10].terms[parse_forest("(" * 5 + ")" * 5)] == Fraction(1, 10**2500)


def test_solve_work_is_bounded_by_one_memo(monkeypatch):
    # At order 10 the memo holds at most the 55 entries [Y^i]_j, 1 <= i <= j <= 10, and
    # [Y^i]_j takes j - i + 1 products: at most sum_{d <= 10} d(d+1)/2 = 220 in all.
    calls, memos = [], []
    original_product, original_power = Table.product, dse._power_coefficient

    def counted_product(ids, x, y):
        calls.append(None)
        return original_product(ids, x, y)

    def recorded_power(ids, coeffs, m, j, memo):
        memos.append(memo)
        return original_power(ids, coeffs, m, j, memo)

    monkeypatch.setattr(Table, "product", counted_product)
    monkeypatch.setattr(dse, "_power_coefficient", recorded_power)
    solve(geometric_spec(10))
    assert 0 < len(calls) <= 220
    assert len({id(memo) for memo in memos}) == 1
    assert len(memos[0]) <= 55


def y_power_without_last_l(ids, coeffs, i, j, memo):
    # Mutant of dse._y_power: the sum over l stops one short.
    if i == 0:
        return {ids.number(()): 1} if j == 0 else {}
    if (i, j) not in memo:
        memo[i, j] = add_up(
            term
            for l in range(1, j - i + 1)
            for term in ids.product(coeffs[l], dse._y_power(ids, coeffs, i - 1, j - l, memo)).items()
        )
    return memo[i, j]


def independent_checks():
    """Which checks that do not call _power_coefficient themselves pass."""
    quadratic, geometric = solve(quadratic_spec(6)).coeffs, solve(geometric_spec(6)).coeffs
    stable, lists = stable_signature(3), list_signature(2)
    return {
        "quadratic table": quadratic[3].text() == "4*((())) + 1*(()())",
        "geometric table": geometric[3].text() == "4*((())) + 1*(()()) + 5*(()) + 1*()",
        "catalan sums": [coeff_sum(c) for c in quadratic] == [catalan(k) for k in range(7)],
        "schroder sums": [coeff_sum(c) for c in geometric] == [schroder(k) for k in range(7)],
        "stable:3 census": core_census(stable, 4, by="nodes") == equation_census(stable, "nodes", 4),
        "list:2 census": core_census(lists, 4, by="nodes") == equation_census(lists, "nodes", 4),
    }


RECURRENCE_MUTANTS = {
    "binomial C(m + 1, i)": ("comb", lambda m, i: math.comb(m + 1, i)),
    "[Y^i]_j without its last l": ("_y_power", y_power_without_last_l),
}


def test_recurrence_mutants_are_killed_by_independent_checks(monkeypatch):
    assert all(independent_checks().values())
    for label, (name, mutant) in RECURRENCE_MUTANTS.items():
        with monkeypatch.context() as patch:
            patch.setattr(dse, name, mutant)
            assert not any(independent_checks().values()), label
            # residual takes its powers by the same recurrence, so it is blind to the mutant.
            spec = quadratic_spec(4)
            assert all(r.is_zero() for r in residual(spec, solve(spec))), label


def double_every_coefficient(product):
    """``Table.product`` with every coefficient doubled."""

    def mutant(self, x, y):
        return {f: 2 * c for f, c in product(self, x, y).items()}

    return mutant


def drop_the_largest_id(product):
    """``Table.product`` without the term of its largest forest id, where it has two terms or more."""

    def mutant(self, x, y):
        terms = dict(product(self, x, y))
        if len(terms) > 1:
            del terms[max(terms)]
        return terms

    return mutant


# No law check multiplies on the cut table; solve does, for the powers of Y.
PRODUCT_MUTANTS = (double_every_coefficient, drop_the_largest_id)


def test_product_mutants_are_killed_by_independent_checks(monkeypatch):
    assert all(independent_checks().values())
    for mutant in PRODUCT_MUTANTS:
        with monkeypatch.context() as patch:
            patch.setattr(Table, "product", mutant(Table.product))
            assert not all(independent_checks().values()), mutant.__name__


def test_huge_x_power_takes_logarithmic_work():
    spec = DSESpec((DSETerm(1, Fraction(1), 10**9),), 3)
    start = time.perf_counter()
    series = solve(spec)
    assert time.perf_counter() - start < 1.0
    assert series.coeffs[3].text() == "1000000000000000000*((())) + 499999999500000000*(()())"


def test_a_term_past_the_order_is_never_rescaled():
    kept = (DSETerm(1, Fraction(1, 3), 2), DSETerm(2, Fraction(-5, 7), 1))
    start = time.perf_counter()
    series = solve(DSESpec((*kept, DSETerm(10**9, Fraction(1, 2), 1)), 3))
    assert time.perf_counter() - start < 1.0
    assert series == solve(DSESpec(kept, 3))


def test_order_exceeded():
    series = solve(linear_spec(3))
    with pytest.raises(OrderExceeded):
        series_coefficient(series, 4)
    with pytest.raises(OrderExceeded):
        series_power(series, 2, 4)


def test_invalid_spec_rejected():
    with pytest.raises(InvalidSpec):
        DSETerm(0, Fraction(1), 1)
    with pytest.raises(InvalidSpec):
        DSESpec((), 11)


def test_spec_file_roundtrip(tmp_path):
    doc = {
        "order": 3,
        "terms": [{"alpha_power": 1, "coeff": "1", "x_power": 2}],
    }
    path = tmp_path / "eq.json"
    path.write_text(json.dumps(doc))
    spec = load_spec(str(path))
    assert solve(spec).coeffs == solve(quadratic_spec(3)).coeffs


def test_structured_dump_matches_text():
    spec = quadratic_spec(3)
    series = solve(spec)
    dump = series_to_dict(spec, series)
    assert dump["order"] == 3
    c3 = dump["coefficients"][3]["terms"]
    assert c3 == [
        {"coeff": "4", "forest": "((()))"},
        {"coeff": "1", "forest": "(()())"},
    ]


def test_rational_coefficients_flow_through():
    spec = DSESpec((DSETerm(1, Fraction(1, 2), 1),), 3)
    series = solve(spec)
    assert series.coeffs[3].text() == "1/8*((()))"


def equation_census(sig, by, k):
    series = solve(spec_from_signature(sig, by, k))
    return series.coeffs[k].terms


@given(signatures, st.integers(0, 6))
def test_core_census_is_the_equation_coefficient(sig, n):
    # The theorem: planar trees over sig are the least fixpoint of X = 1 + P(X),
    # so the census of their cores is a coefficient of the equation.
    expected = equation_census(sig, "nodes", n)
    assume(sum(expected.values()) <= 3000)
    assert core_census(sig, n, by="nodes") == expected
    if sig.has_small_arities():
        with pytest.raises(Nonfinite):
            spec_from_signature(sig, "leaves", n)
        with pytest.raises(Nonfinite):
            core_census(sig, n, by="leaves")
        return
    expected = equation_census(sig, "leaves", n - 1) if n else {}
    assume(sum(expected.values()) <= 3000)
    assert core_census(sig, n, by="leaves") == expected


def subalgebra_defect(coeffs, s):
    """First n at which coproduct(c_n) differs from sum_{k<=n} [X^{ks+1}]_{n-k} (x) c_k, or None."""
    series = Series(coeffs)
    for n, c_n in enumerate(coeffs):
        expected = LinComb.sum(
            ((f, g), c * d)
            for k in range(n + 1)
            for f, c in series_power(series, k * s + 1, n - k).terms.items()
            for g, d in coeffs[k].terms.items()
        )
        if coproduct(c_n) != expected:
            return n
    return None


weights = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
)


@given(st.integers(0, 2), st.dictionaries(st.integers(1, 3), weights, min_size=1), st.integers(0, 6))
def test_solution_spans_a_hopf_subalgebra(s, w, order):
    # Bergbauer-Kreimer, Foissy: for X = 1 + sum_n w_n alpha^n B+(X^{ns+1}) the
    # coefficients c_n span a Hopf subalgebra, with
    # coproduct(c_n) = sum_{k<=n} [X^{ks+1}]_{n-k} (x) c_k.
    spec = DSESpec(tuple(DSETerm(n, c, n * s + 1) for n, c in sorted(w.items())), order)
    assert subalgebra_defect(solve(spec).coeffs, s) is None


def test_hopf_subalgebra_identity_needs_the_matching_s():
    # The geometric equation has s = 1; read with s = 2 the identity first fails at n = 2.
    assert subalgebra_defect(solve(geometric_spec(7)).coeffs, 2) == 2
