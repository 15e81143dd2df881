"""Output oracle for the benchmark's commands.

Each command is checked two ways.  Its exit code and stdout SHA-256 must equal
the values recorded from the seed commit in ``expected.json``, because
byte-identical CLI output is the project's invariant.  Where a fact about the
output can be derived independently of the recorded bytes, it is checked as
well, so a wrong recording cannot hide a wrong answer.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path
from typing import Callable

import workloads

EXPECTED_PATH = Path(__file__).with_name("expected.json")

_COEFF = re.compile(r'"coeff": "[^"]*"')
_LAW_PASS = re.compile(r"PASS \((.+), (\d+) inputs\)")

# Commands whose stdout depends on the seed.  Their digest is taken with the
# rational coefficients blanked; the coefficients are checked by a fact.
SEEDED = {("series_census", "solve_custom")}


def output_digest(workload: str, key: str, text: str) -> str:
    if (workload, key) in SEEDED:
        text = _COEFF.sub('"coeff": ""', text)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def check_digest(expected: dict, workload: str, key: str, exit_code, digest: str) -> list[str]:
    """Problems with one command's exit code and stdout digest (empty if none)."""
    want = expected[workload][key]
    problems = []
    if exit_code != want["exit"]:
        problems.append(f"{key}: exit code {exit_code!r}, expected {want['exit']}")
    if digest != want["sha256"]:
        problems.append(f"{key}: stdout digest {digest[:16]} is not the recorded {want['sha256'][:16]}")
    return problems


def check_facts(workload: str, key: str, text: str, seed: int) -> list[str]:
    """Problems found by the independent facts about one command's stdout."""
    fact = FACTS.get((workload, key))
    if fact is None:
        return []
    try:
        return [f"{key}: {p}" for p in fact(text, seed)]
    except Exception as exc:  # a malformed output must count as a failure, not stop the run
        return [f"{key}: fact check raised {type(exc).__name__}: {exc}"]


# -- independent counts ------------------------------------------------------


def rooted_forest_counts(n_max: int) -> list[int]:
    """Rooted forests with d nodes for d = 0..n_max (OEIS A000081 shifted by one)."""
    trees = [0, 1]  # trees[n]: rooted trees with n nodes
    for n in range(1, n_max + 1):
        s = sum(
            sum(d * trees[d] for d in range(1, k + 1) if k % d == 0) * trees[n - k + 1]
            for k in range(1, n + 1)
        )
        trees.append(s // n)
    return trees[1 : n_max + 2]


def planar_tree_counts(arities: tuple[int, ...], n_max: int) -> list[int]:
    """Planar trees with n nodes over one operation per arity, n = 0..n_max.

    The bare edge is the single tree with no nodes.
    """
    counts = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        for arity in arities:
            power = [1] + [0] * (n - 1)  # coefficients of counts**arity below n
            for _ in range(arity):
                power = [sum(power[i] * counts[j - i] for i in range(j + 1)) for j in range(n)]
            counts[n] += power[n - 1]
    return counts


FORESTS = rooted_forest_counts(8)
STABLE3 = planar_tree_counts((2, 3), 6)
STABLE4 = planar_tree_counts((2, 3, 4), 5)
LIST3 = planar_tree_counts((0, 1, 2, 3), 6)
BINARY = planar_tree_counts((2,), 5)


# -- facts -------------------------------------------------------------------


def _law_passes(law: str, inputs: int) -> Callable[[str, int], list[str]]:
    def fact(text: str, seed: int) -> list[str]:
        m = _LAW_PASS.match(text)
        if m is None or m.group(1) != law:
            return [f"expected a PASS line for {law}, got {text[:80]!r}"]
        if int(m.group(2)) != inputs:
            return [f"{law} checked {m.group(2)} inputs, expected {inputs}"]
        return []

    return fact


def _op_cocycle_fails(text: str, seed: int) -> list[str]:
    if not text.startswith("FAIL (node-builder cocycle): op=b args=("):
        return [f"expected the node-builder cocycle witness, got {text[:80]!r}"]
    return []


def _custom_solution_satisfies_equation(text: str, seed: int) -> list[str]:
    from dsetree import dse, hopf, trees

    spec = dse.spec_from_dict(workloads.equation_document(seed))
    coeffs = tuple(
        hopf.HckElem({trees.parse_forest(t["forest"]): Fraction(t["coeff"]) for t in c["terms"]})
        for c in json.loads(text)["coefficients"]
    )
    if len(coeffs) != spec.order + 1:
        return [f"{len(coeffs)} coefficients, expected {spec.order + 1}"]
    bad = [k for k, r in enumerate(dse.residual(spec, dse.Series(coeffs))) if not r.is_zero()]
    return [f"residual is nonzero at orders {bad}"] if bad else []


def _census_is_equation_coefficient(text: str, seed: int) -> list[str]:
    from dsetree import dse

    census = {}
    for line in text.splitlines():
        code, count = line.split(" ")
        census[code] = int(count)
    problems = []
    if len(census) != 9:
        problems.append(f"{len(census)} cores, expected 9")
    if sum(census.values()) != STABLE4[5]:
        problems.append(f"{sum(census.values())} trees, expected {STABLE4[5]}")
    spec = dse.DSESpec(tuple(dse.DSETerm(1, Fraction(1), k) for k in (2, 3, 4)), 5)
    c5 = {f.code: c for f, c in dse.solve(spec).coeffs[5].terms.items()}
    if census != c5:
        problems.append("census differs from c_5 of X = 1 + sum_{k=2..4} alpha B+(X^k)")
    return problems


def _enumeration_is_complete(text: str, seed: int) -> list[str]:
    lines = text.splitlines()
    if lines[-1] != f"total: {LIST3[6]}" or len(lines) != LIST3[6] + 1:
        return [f"expected {LIST3[6]} trees, got {len(lines) - 1} lines ending {lines[-1]!r}"]
    return []


def _green_lists_every_tree(text: str, seed: int) -> list[str]:
    listed = sum(len(line.partition(" = ")[2].split(" + ")) for line in text.splitlines())
    if listed != sum(STABLE3):
        return [f"{listed} trees listed, expected {sum(STABLE3)}"]
    return []


FACTS: dict[tuple[str, str], Callable[[str, int], list[str]]] = {
    ("hopf_laws", "coassoc"): _law_passes("coassociativity", sum(FORESTS[:9])),
    ("hopf_laws", "antipode"): _law_passes("antipode", sum(FORESTS[:8])),
    ("hopf_laws", "counit"): _law_passes("counit", sum(FORESTS[:9])),
    ("hopf_laws", "cocycle"): _law_passes("cocycle", sum(FORESTS[:9])),
    ("operadic_laws", "op_coassoc"): _law_passes("operadic coassociativity", sum(STABLE4[:5])),
    ("operadic_laws", "core_hom"): _law_passes("core homomorphism", sum(STABLE4[:5])),
    ("operadic_laws", "faa_di_bruno"): _law_passes("Faa di Bruno", sum(BINARY)),
    ("operadic_laws", "op_cocycle"): _op_cocycle_fails,
    ("series_census", "solve_custom"): _custom_solution_satisfies_equation,
    ("series_census", "census"): _census_is_equation_coefficient,
    ("series_census", "enumerate"): _enumeration_is_complete,
    ("series_census", "green"): _green_lists_every_tree,
}
