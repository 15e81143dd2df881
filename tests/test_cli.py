import json
import re
import resource
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dsetree import cli, dse, opbialg, ptrees, trees, wtypes
from dsetree.errors import Nonfinite


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "dsetree.cli", *args],
        capture_output=True,
        text=True,
    )


def test_solve_matches_library():
    result = run_cli("solve", "--spec", "quadratic", "--order", "3")
    assert result.returncode == 0
    assert "c_3 = 4*((())) + 1*(()())" in result.stdout
    expected = dse.solve(dse.quadratic_spec(3)).text()
    assert result.stdout.strip() == expected


def test_solve_structured_output():
    result = run_cli("solve", "--spec", "linear", "--order", "2", "--format", "structured")
    assert result.returncode == 0
    dump = json.loads(result.stdout)
    assert dump["coefficients"][2]["terms"] == [{"coeff": "1", "forest": "(())"}]


def test_enumerate_stable_by_leaves():
    result = run_cli("enumerate", "--signature", "stable", "--by", "leaves", "--n", "4")
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert lines[-1] == "total: 11"
    assert len(lines) == 12


def test_enumerate_comb_trees():
    result = run_cli("enumerate", "--signature", "comb", "--n", "3")
    assert result.returncode == 0
    assert result.stdout.splitlines()[:2] == ["((()))", "(()())"]


def test_census_command():
    result = run_cli("census", "--signature", "binary", "--n", "3", "--format", "structured")
    assert result.returncode == 0
    assert json.loads(result.stdout) == {"((()))": 4, "(()())": 1}


def test_check_passing_law():
    result = run_cli("check", "--law", "coassoc", "--degree", "4")
    assert result.returncode == 0
    assert result.stdout.startswith("PASS (coassociativity")


def test_check_failing_law_exits_1():
    result = run_cli("check", "--law", "op-cocycle", "--signature", "binary", "--bound", "2")
    assert result.returncode == 1
    assert "FAIL" in result.stdout
    assert "b(|,|)" in result.stdout


def test_green_command():
    result = run_cli("green", "--signature", "binary", "--bound", "2")
    assert result.returncode == 0
    assert "g_1 = |" in result.stdout


def test_fold_demo_nat():
    result = run_cli("fold-demo", "--demo", "nat", "--n", "3")
    assert result.returncode == 0
    assert result.stdout.splitlines()[-1] == "s(s(s(|))) -> 3"


def test_usage_errors_exit_2():
    assert run_cli("solve", "--spec", "quadratic", "--order", "99").returncode == 2
    for bound in ("40", "-3"):
        result = run_cli("enumerate", "--signature", "identity", "--by", "leaves", "--n", "1", "--node-bound", bound)
        assert result.returncode == 2, bound
        assert result.stderr == "error: --node-bound must lie in 0..8\n"
    assert run_cli("solve", "--order", "2").returncode == 2  # missing --spec
    assert run_cli("frobnicate").returncode == 2
    assert run_cli("solve", "--spec", "/nonexistent.json", "--order", "2").returncode == 2


def test_malformed_spec_file_exits_2(tmp_path, capsys):
    term = {"alpha_power": 1, "coeff": "1", "x_power": 2}
    docs = [
        "{not json",
        json.dumps({"order": 2, "terms": [dict(term, alpha_power=1.9, x_power=2.5)]}),
        json.dumps({"order": 2, "terms": [dict(term, alpha_power=True)]}),
        json.dumps({"order": 2, "terms": [dict(term, x_power="2")]}),
        json.dumps({"order": 2.0, "terms": [term]}),
        json.dumps({"order": 2, "terms": [dict(term, coeff="1/0", x_power=1)]}),
    ]
    for i, doc in enumerate(docs):
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(doc)
        assert run_cli("solve", "--spec", str(bad), "--order", "2").returncode == 2, doc
    # Refused before Fraction builds the power of ten; 1e3 is still read.
    path = tmp_path / "coeff.json"
    path.write_text(json.dumps({"order": 2, "terms": [dict(term, coeff="1e1000000000")]}))
    start = time.perf_counter()
    assert cli.main(["solve", "--spec", str(path), "--order", "2"]) == 2
    assert time.perf_counter() - start < 1.0
    path.write_text(json.dumps({"order": 2, "terms": [dict(term, coeff="1e5000")]}))
    capsys.readouterr()
    assert cli.main(["solve", "--spec", str(path), "--order", "2"]) == 2
    assert capsys.readouterr().err == "error: coefficient '1e5000' has an exponent beyond 4300 in magnitude\n"
    path.write_text(json.dumps({"order": 2, "terms": [dict(term, coeff="1e3")]}))
    assert cli.main(["solve", "--spec", str(path), "--order", "2"]) == 0


def test_solve_refuses_a_coefficient_too_long_to_print(tmp_path, capsys):
    term = {"alpha_power": 1, "x_power": 2}
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"order": 10, "terms": [dict(term, coeff="1e500")]}))
    limit = sys.get_int_max_str_digits()
    for fmt in ("text", "structured"):
        capsys.readouterr()
        assert cli.main(["solve", "--spec", str(path), "--order", "10", "--format", fmt]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: a coefficient of the solution exceeds the {limit}-digit limit for printing an integer\n"
    # c_10 of 1e400 has about 4000 digits: it still prints.
    path.write_text(json.dumps({"order": 10, "terms": [dict(term, coeff="1e400")]}))
    assert cli.main(["solve", "--spec", str(path), "--order", "10"]) == 0
    assert len(capsys.readouterr().out) > 1_400_000


def test_solve_refuses_a_denominator_too_long_to_print_before_solving(tmp_path, capsys):
    # d = 10^4300 at order 10 gives a top denominator of 43,001 digits; the check comes before the solve.
    doc = {"order": 10, "terms": [
        {"alpha_power": 1, "coeff": "1e-4300", "x_power": 2},
        {"alpha_power": 2, "coeff": "5/7", "x_power": 3},
        {"alpha_power": 3, "coeff": "4/3", "x_power": 1},
    ]}
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert cli.main(["solve", "--spec", str(path), "--order", "10"]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == ("", "error: the order-10 coefficient's denominator may exceed 4300 digits\n")
    # 10^4280 * 7^5 * 3^3, a multiple of the top denominator, has 4286 digits: it solves and prints.
    doc["terms"][0]["coeff"] = "1e-428"
    path.write_text(json.dumps(doc))
    assert cli.main(["solve", "--spec", str(path), "--order", "10"]) == 0


def test_spec_file_accepted(tmp_path):
    doc = {"order": 2, "terms": [{"alpha_power": 1, "coeff": "1", "x_power": 1}]}
    path = tmp_path / "linear.json"
    path.write_text(json.dumps(doc))
    result = run_cli("solve", "--spec", str(path), "--order", "3")
    assert result.returncode == 0
    assert "c_3 = 1*((()))" in result.stdout


def test_signature_file_accepted(tmp_path):
    doc = {"ops": [{"name": "pair", "arity": 2}]}
    path = tmp_path / "sig.json"
    path.write_text(json.dumps(doc))
    result = run_cli("enumerate", "--signature", str(path), "--n", "2")
    assert result.returncode == 0
    assert "total: 2" in result.stdout


def test_outputs_are_deterministic():
    commands = [
        ("solve", "--spec", "geometric", "--order", "4"),
        ("enumerate", "--signature", "stable", "--by", "leaves", "--n", "4"),
        ("check", "--law", "antipode", "--degree", "3"),
    ]
    for cmd in commands:
        first = run_cli(*cmd)
        second = run_cli(*cmd)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode


def test_malformed_signature_file_exits_2(tmp_path, capsys):
    docs = [
        "[1]",
        '{"ops": 5}',
        '{"ops": [{"name": 5, "arity": 2}]}',
        '{"ops": [{"name": "a"}]}',
        '{"ops": [{"name": "b", "arity": 2.7}]}',
        '{"ops": [{"name": "b", "arity": true}]}',
        # Refused by Operation and Signature, which name the reason.
        '{"ops": [{"name": "a(", "arity": 2}]}',
        '{"ops": [{"name": "", "arity": 2}]}',
        '{"ops": [{"name": "a", "arity": -1}]}',
        '{"ops": [{"name": "a", "arity": 2}, {"name": "a", "arity": 1}]}',
    ]
    shape = '{"ops": [{"name": <string>, "arity": <int>}, ...]}'
    for i, doc in enumerate(docs):
        path = tmp_path / f"sig{i}.json"
        path.write_text(doc)
        assert cli.main(["enumerate", "--signature", str(path), "--n", "2"]) == 2, doc
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: malformed signature document {path}: ") and shape in err, err


def test_signature_file_named_like_a_builtin_is_read(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "list_pair.json").write_text(json.dumps({"ops": [{"name": "pair", "arity": 2}]}))
    assert cli.main(["enumerate", "--signature", "list_pair.json", "--n", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "total: 2"


def test_builtin_family_needs_nonnegative_integer_k(capsys):
    for name in ("list:-1", "list:1.5", "list:", "stable:x"):
        assert cli.main(["enumerate", "--signature", name, "--n", "2"]) == 2, name
        assert "needs a nonnegative integer K" in capsys.readouterr().err
    assert cli.main(["enumerate", "--signature", "list:1", "--n", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "total: 2"


def test_directory_given_as_a_file_exits_2(tmp_path, capsys):
    for argv in (
        ["enumerate", "--signature", str(tmp_path), "--n", "2"],
        ["solve", "--spec", str(tmp_path), "--order", "2"],
    ):
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr().err == f"error: cannot open {tmp_path}\n"


DIGITS_5001 = "1" * 5001  # past Python's 4300-digit limit for reading an int


@pytest.mark.parametrize("argv, files", [
    (["enumerate", "--signature", "stable:1", "--n", "2"], {}),
    (["enumerate", "--signature", "list:" + DIGITS_5001, "--n", "2"], {}),
    (["enumerate", "--signature", "latin1.json", "--n", "2"], {"latin1.json": '{"ops": [{"name": "\xe9", "arity": 2}]}'}),
    (["solve", "--spec", "latin1.json", "--order", "2"],
     {"latin1.json": '{"order": 2, "terms": [{"alpha_power": 1, "coeff": "1", "x_power": 2}]} \xe9'}),
    (["enumerate", "--signature", "wide.json", "--n", "2"], {"wide.json": '{"ops": [{"name": "w", "arity": %s}]}'}),
    (["solve", "--spec", "big.json", "--order", "2"],
     {"big.json": '{"order": 2, "terms": [{"alpha_power": 1, "coeff": %s, "x_power": 2}]}'}),
])
def test_input_errors_that_are_value_errors_exit_2(argv, files, tmp_path, monkeypatch, capsys):
    # Files are written in Latin-1, so a non-ASCII character is no UTF-8; %s stands for a 5001-digit literal.
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_bytes(text.replace("%s", DIGITS_5001).encode("latin-1"))
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("defect", [ValueError, KeyError])
def test_a_defect_inside_a_command_propagates(defect, monkeypatch):
    # Only the package's own errors and the file errors are usage errors; a bare ValueError or KeyError is a defect.
    def broken(*args, **kwargs):
        raise defect("a defect")

    monkeypatch.setattr(ptrees, "by_leaves", broken)
    with pytest.raises(defect, match="a defect"):
        cli.main(["green", "--signature", "binary", "--bound", "2"])


@pytest.mark.parametrize("argv, size", [
    (["enumerate", "--signature", "list:100000", "--n", "0"], 5_000_150_001),
    (["enumerate", "--signature", "stable:100000", "--n", "1"], 5_000_149_998),
    (["census", "--signature", "list:244", "--n", "2"], 30_135),
    (["enumerate", "--signature", "wide.json", "--n", "2"], 1_000_001),
    (["green", "--signature", "many.json", "--bound", "1"], 40_000),
])
def test_oversized_signatures_are_refused_before_they_are_built(argv, size, tmp_path, monkeypatch, capsys):
    # The size is operations plus the sum of arities: list:K has K + 1 operations of arities 0..K.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "wide.json").write_text(json.dumps({"ops": [{"name": "w", "arity": 10**6}]}))
    (tmp_path / "many.json").write_text(json.dumps({"ops": [{"name": f"o{i}", "arity": 0} for i in range(40_000)]}))
    made = []
    monkeypatch.setattr(ptrees.Operation, "__init__", lambda self, *args: made.append(args))
    start = time.perf_counter()
    assert cli.main(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert made == []
    assert capsys.readouterr() == ("", f"error: signature size (operations plus the sum of arities) is capped at "
                                       f"{ptrees.MAX_SIGNATURE_SIZE}, got {size}\n")


def test_large_arity_enumerates(tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"ops": [{"name": "w", "arity": 3000}]}))
    assert cli.main(["enumerate", "--signature", str(path), "--n", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "total: 1"


def enumerated_census_output(sig, n, by, fmt):
    """The census of enumerated trees, printed as the CLI prints a census."""
    items = sorted(opbialg.core_census(sig, n, by=by).items(), key=lambda kv: kv[0].code)
    if fmt == "structured":
        return json.dumps({f.code: c for f, c in items}, indent=2, sort_keys=True) + "\n"
    return "".join(f"{f.code} {c}\n" for f, c in items)


def test_census_output_equals_enumerated_census(tmp_path, capsys):
    twins = tmp_path / "twins.json"
    twins.write_text(json.dumps({"ops": [{"name": "p", "arity": 2}, {"name": "q", "arity": 2}]}))
    by_nodes = {
        "binary": ptrees.binary_signature(),
        "stable:3": ptrees.stable_signature(3),
        "list:2": ptrees.list_signature(2),
        "identity": ptrees.identity_signature(),
        str(twins): ptrees.Signature((ptrees.Operation("p", 2), ptrees.Operation("q", 2))),
    }
    cases = [(name, sig, "nodes", n) for name, sig in by_nodes.items() for n in range(6)]
    for n in range(7):
        # By leaves, the untruncated stable signature grows with the leaf target.
        cases.append(("stable", ptrees.stable_signature(max(2, n)), "leaves", n))
        cases.append(("stable:4", ptrees.stable_signature(4), "leaves", n))
        cases.append(("binary", ptrees.binary_signature(), "leaves", n))
    for name, sig, by, n in cases:
        for fmt in ("text", "structured"):
            argv = ["census", "--signature", name, "--by", by, "--n", str(n), "--format", fmt]
            assert cli.main(argv) == 0, argv
            assert capsys.readouterr().out == enumerated_census_output(sig, n, by, fmt), argv


def test_census_refuses_small_arities_by_leaves(capsys):
    for name, sig, n in (
        ("list", ptrees.list_signature(4), 3),
        ("list", ptrees.list_signature(4), 0),
        ("identity", ptrees.identity_signature(), 0),
    ):
        with pytest.raises(Nonfinite) as refused:
            opbialg.core_census(sig, n, by="leaves")
        assert cli.main(["census", "--signature", name, "--by", "leaves", "--n", str(n)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {refused.value}\n")


@pytest.mark.parametrize("signature, n, total, lines", [
    ("stable:4", 8, 361_403_937, None),
    ("list:4", 8, 2_300_390_625, None),
    ("list:200", 2, 4_040_100, ["(()) 4040100"]),
    ("wide.json", 2, 3000, ["(()) 3000"]),
    # 1000 binary operations: the binary census, each count scaled by 1000^8.
    ("many.json", 8, 1430 * 1000**8, None),
])
def test_census_of_huge_populations_builds_no_tree(signature, n, total, lines, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "wide.json").write_text(json.dumps({"ops": [{"name": "w", "arity": 3000}]}))
    (tmp_path / "many.json").write_text(json.dumps({"ops": [{"name": f"b{i}", "arity": 2} for i in range(1000)]}))
    start = time.perf_counter()
    assert cli.main(["census", "--signature", signature, "--n", str(n)]) == 0
    assert time.perf_counter() - start < 1.0
    out = capsys.readouterr().out.splitlines()
    assert sum(int(line.rsplit(" ", 1)[1]) for line in out) == total
    if lines:
        assert out == lines


def test_computation_law_catches_a_fold_that_swaps_slots(monkeypatch, capsys):
    def reversed_fold(sig, alg, t):
        # Evaluates the slots in reverse order and hands the values over in that order.
        if t.is_nil():
            return alg.nil_value
        return alg.apply(t.op.name, [reversed_fold(sig, alg, c) for c in reversed(t.children)])

    argv = ["check", "--law", "computation", "--signature", "stable:3", "--bound", "4"]
    assert cli.main(argv) == 0
    monkeypatch.setattr(wtypes, "fold", reversed_fold)
    assert cli.main(argv) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("PASS") and out[1].startswith("FAIL")
    assert out[2].startswith("  counterexample: input=v2(v2(|,|),|) ")


def test_enumerating_commands_hit_the_cache_when_repeated(capsys):
    # The enumerating commands of every benchmark workload, at reduced sizes.
    commands = [
        ["enumerate", "--signature", "list:3", "--n", "4"],
        ["green", "--signature", "stable:3", "--bound", "4"],
        ["check", "--law", "op-coassoc", "--signature", "stable:4", "--bound", "3"],
        ["check", "--law", "core-hom", "--signature", "stable:4", "--bound", "3"],
        ["check", "--law", "faa-di-bruno", "--signature", "binary", "--bound", "4"],
        ["check", "--law", "op-cocycle", "--signature", "binary", "--bound", "2"],
    ]
    ptrees._graded.cache_clear()
    for argv in commands:
        cli.main(argv)
    cold = ptrees._graded.cache_info()
    for argv in commands:
        cli.main(argv)
    warm = ptrees._graded.cache_info()
    capsys.readouterr()
    assert warm.misses == cold.misses and warm.hits > cold.hits
    assert warm.currsize <= ptrees.GRADED_CACHE_SIZE


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--spec", "linear", "--order", "11"], "--order must lie in 0..10"),
        (["enumerate", "--signature", "binary", "--by", "leaves", "--n", "2", "--node-bound", "9"],
         "--node-bound must lie in 0..8"),
        (["enumerate", "--signature", "binary", "--by", "leaves", "--n", "11"], "--n must lie in 0..10 for leaves"),
        (["enumerate", "--signature", "binary", "--n", "-1"], "--n must lie in 0..8 for nodes"),
        (["enumerate", "--signature", "comb", "--n", "0"], "--n must lie in 1..8 for comb"),
        (["census", "--signature", "binary", "--n", "9"], "--n must lie in 0..8 for nodes"),
        (["green", "--signature", "binary", "--bound", "9"], "--bound must lie in 0..8"),
        (["check", "--law", "coassoc", "--degree", "-1"], "--degree must lie in 0..8"),
        (["check", "--law", "lambek", "--bound", "9"], "--bound must lie in 0..8"),
        (["fold-demo", "--demo", "nat", "--n", "9"], "--n must lie in 0..8"),
    ],
)
def test_each_bound_prints_its_usage_error(argv, message, capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_node_bound_holds_without_small_arities(capsys):
    argv = ["enumerate", "--signature", "binary", "--by", "leaves", "--n", "3", "--node-bound"]
    assert cli.main([*argv, "0"]) == 0
    assert capsys.readouterr().out == "total: 0\n"
    assert cli.main([*argv, "2"]) == 0
    assert capsys.readouterr().out == "b(b(|,|),|)\nb(|,b(|,|))\ntotal: 2\n"


@pytest.mark.parametrize("signature, node_bound", [("binary", False), ("list:2", True)])
@pytest.mark.parametrize("bound", [0, 2, 4])
def test_green_lists_the_enumerated_trees_of_each_leaf_count(signature, node_bound, bound, capsys):
    assert cli.main(["green", "--signature", signature, "--bound", str(bound), "--format", "structured"]) == 0
    green = json.loads(capsys.readouterr().out)
    # A tree of at most `bound` nodes has at most bound + 1 leaves in either signature,
    # and a binary tree of k leaves has k - 1 nodes, so it needs no node bound up to there.
    for k in range(bound + 3 if node_bound else bound + 2):
        argv = ["enumerate", "--signature", signature, "--by", "leaves", "--n", str(k), "--format", "structured"]
        assert cli.main(argv + (["--node-bound", str(bound)] if node_bound else [])) == 0
        assert green.pop(f"g_{k}", []) == json.loads(capsys.readouterr().out)["trees"], k
    assert green == {}


def _written(codes):
    return "".join(f"{c}\n" for c in codes) + f"total: {len(codes)}\n"


BLOCK = cli.WRITE_BLOCK


@pytest.mark.parametrize("argv, codes", [
    (["--signature", "binary", "--by", "leaves", "--n", "3", "--node-bound", "0"], []),
    (["--signature", "binary", "--n", "0"], ["|"]),
    # list:k has k + 1 trees of one node, one per operation: one block less one code, a block, and one more.
    *((["--signature", f"list:{k}", "--n", "1"], sorted(f"l{i}({','.join('|' * i)})" for i in range(k + 1)))
      for k in (BLOCK - 2, BLOCK - 1, BLOCK)),
    (["--signature", "list:2", "--n", "4"], [t.code for t in ptrees.enumerate_by_nodes(ptrees.list_signature(2), 4)]),
    (["--signature", "comb", "--n", "5"], sorted(t.code for t in trees.enumerate_comb_trees(5))),
])
def test_enumerate_writes_each_code_on_its_line_then_the_total(argv, codes, capsys):
    assert cli.main(["enumerate", *argv]) == 0
    assert capsys.readouterr() == (_written(codes), "")


def test_enumerate_writes_the_same_bytes_into_a_pipe(capsys):
    argv = ["enumerate", "--signature", "list:3", "--n", "5"]
    result = subprocess.run([sys.executable, "-m", "dsetree.cli", *argv], capture_output=True)
    assert cli.main(argv) == 0
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == capsys.readouterr().out.encode()


def test_a_reader_that_closes_the_pipe_early_ends_the_command_quietly():
    # The output (about 750 kB) is far larger than a pipe's buffer, so writing meets the closed pipe.
    argv = [sys.executable, "-m", "dsetree.cli", "enumerate", "--signature", "list:3", "--n", "5"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"l1(l1(l1(l1(l0()))))\n"
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=60) == 0


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_capped(*args):
    """The CLI in a child limited to 1 GB of address space, so an input that exhausts memory fails fast."""
    return subprocess.run([sys.executable, "-m", "dsetree.cli", *args], capture_output=True, text=True,
                          preexec_fn=_cap_address_space, timeout=60)


def test_op_cocycle_at_a_large_bound_prints_its_witness_in_little_memory():
    result = run_capped("check", "--law", "op-cocycle", "--signature", "stable:4", "--bound", "8")
    assert (result.returncode, result.stderr) == (1, "")
    assert result.stdout == "FAIL (node-builder cocycle): op=v2 args=(|, |) difference=-1*v2(|,|)(x)1 + 1*v2(|,|)(x)|\n"


def test_lambek_refuses_a_wide_operation_before_building_its_stage(tmp_path):
    # Stage 3 of one operation of arity 3000 would hold 1 + 2^3000 trees.
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"ops": [{"name": "w", "arity": 3000}]}))
    result = run_capped("check", "--law", "lambek", "--signature", str(path), "--bound", "2")
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "error: fixpoint stage exceeds 200000 trees\n"


def readme_cli_examples():
    """The ``dsetree ...`` lines of the first ``sh`` block under README's ``## CLI``, comments dropped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## CLI$.*?^```sh$(.*?)^```$", readme, re.M | re.S).group(1)
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("dsetree ")]


def test_readme_cli_examples_run(capsys):
    examples = [argv for argv in readme_cli_examples() if "my_equation.json" not in argv]  # no such file here
    assert len(examples) >= 9
    for argv in examples:
        assert cli.main(argv[1:]) == (1 if "op-cocycle" in argv else 0), argv
        out, err = capsys.readouterr()
        assert out and err == "", argv
