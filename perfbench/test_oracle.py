"""Self-tests of the benchmark's output oracle and tracer.

Each kind of wrong output must be counted as failed, so the oracle cannot
pass vacuously.  Run with:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from fractions import Fraction

import oracle
import tracer
import workloads
from worker import ROOT, run_pass

sys.path.insert(0, str(ROOT / "src"))
import dsetree  # noqa: E402
from dsetree import cli, hopf  # noqa: E402

EXPECTED = oracle.load_expected()


def run(workload: str, key: str, seed: int = 1) -> tuple[object, str]:
    workloads.prepare(workload, seed, ROOT)
    argv = dict(workloads.WORKLOADS[workload])[key]
    *_, [record] = run_pass(cli.main, [(key, argv)], lambda k, code, text, err: (code, text))
    return record


def problems(workload: str, key: str, code, text: str, seed: int = 1) -> list[str]:
    digest = oracle.output_digest(workload, key, text)
    return oracle.check_digest(EXPECTED, workload, key, code, digest) + oracle.check_facts(
        workload, key, text, seed
    )


def test_flipped_output_byte_fails():
    code, text = run("hopf_laws", "counit")
    assert problems("hopf_laws", "counit", code, text) == []
    flipped = text[:5] + chr(ord(text[5]) ^ 1) + text[6:]
    assert problems("hopf_laws", "counit", code, flipped)


def test_wrong_exit_code_fails():
    code, text = run("operadic_laws", "op_cocycle")
    assert code == 1
    assert problems("operadic_laws", "op_cocycle", code, text) == []
    assert problems("operadic_laws", "op_cocycle", 0, text)


def test_exception_in_command_fails():
    def broken(argv):
        raise RuntimeError("boom")

    *_, [(code, text)] = run_pass(broken, [("counit", ())], lambda k, code, text, err: (code, text))
    assert problems("hopf_laws", "counit", code, text)


def test_off_by_one_census_count_fails_on_the_fact_alone():
    code, text = run("series_census", "census")
    assert problems("series_census", "census", code, text) == []
    first, rest = text.split("\n", 1)
    core, count = first.split(" ")
    bumped = f"{core} {int(count) + 1}\n{rest}"
    assert oracle.check_facts("series_census", "census", bumped, 1)
    assert problems("series_census", "census", code, bumped)


def test_wrong_seeded_coefficient_fails():
    # The digest of the seeded command ignores coefficients; the residual must catch them.
    code, text = run("series_census", "solve_custom", seed=7)
    assert problems("series_census", "solve_custom", code, text, seed=7) == []
    head, sep, tail = text.rpartition('"coeff": "')
    value, quote, rest = tail.partition('"')
    wrong = f"{head}{sep}{Fraction(value) + 1}{quote}{rest}"
    assert problems("series_census", "solve_custom", code, wrong, seed=7)


def test_independent_counts():
    assert sum(oracle.FORESTS[:9]) == 486
    assert sum(oracle.STABLE4[:5]) == 5116
    assert sum(oracle.BINARY) == 65
    assert oracle.STABLE4[5] == 73764
    assert oracle.LIST3[6] == 258944


def test_tracer_restores_originals_and_keeps_output():
    originals = (hopf.product, cli._HOPF_LAWS["counit"], hopf.CombTree.__init__, Fraction.__new__)
    argv = dict(workloads.WORKLOADS["hopf_laws"])["antipode"][:-1] + ("4",)
    *_, [plain] = run_pass(cli.main, [("a", argv)], lambda k, code, text, err: text)
    t = tracer.Tracer(dsetree)
    t.install()
    try:
        assert hopf.product is not originals[0]
        *_, [traced] = run_pass(cli.main, [("a", argv)], lambda k, code, text, err: text)
    finally:
        t.uninstall()
    assert (hopf.product, cli._HOPF_LAWS["counit"], hopf.CombTree.__init__, Fraction.__new__) == originals
    assert traced == plain
    counts = t.counts()
    assert counts["cli.main.calls"] == 1
    assert counts["hopf.check_antipode.calls"] == 1
    assert counts["hopf.product.calls"] > 0 and counts["hopf.fraction_constructs"] > 0
