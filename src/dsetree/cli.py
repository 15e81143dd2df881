"""Command-line front end.

Exit status: 0 on success, on passing checks and when the reader closes stdout
early, 1 on a failing check (counterexamples are printed), 2 on usage or parse
errors.  All output is deterministic: terms and trees are always listed in ascending code order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import dse, hopf, opbialg, ptrees, report, trees, wtypes
from .errors import DsetreeError, SizeLimit

MAX_NODE_BOUND = 8
WRITE_BLOCK = 8  # codes per write in enumerate: the block size of least peak memory measured (README)
_FAMILIES = {"list": ptrees.list_signature, "stable": ptrees.stable_signature}


def _load_signature(name: str) -> ptrees.Signature:
    if name == "identity":
        return ptrees.identity_signature()
    if name == "binary":
        return ptrees.binary_signature()
    family, colon, k_text = name.partition(":")
    if family in _FAMILIES:
        if colon and not k_text.isdecimal():
            raise DsetreeError(f"{family}:K needs a nonnegative integer K, got {k_text!r}")
        if len(k_text) > 6:  # int() reads no K past its digit limit; the size cap refuses K >= 244 anyway
            raise SizeLimit(f"{family}:K is capped at 6 digits, got {len(k_text)}")
        return _FAMILIES[family](int(k_text) if colon else 4)
    try:  # the size is checked before any Operation is made; json.load, Operation and Signature raise ValueErrors
        with open(name, encoding="utf-8") as fh:
            data = json.load(fh)
        ops = data["ops"]
        ptrees._check_signature_size(len(ops), sum(op["arity"] for op in ops if type(op["arity"]) is int))
        return ptrees.Signature(ptrees.Operation(op["name"], op["arity"]) for op in ops)
    except (KeyError, TypeError, ValueError) as exc:
        shape = '{"ops": [{"name": <string>, "arity": <int>}, ...]}'
        raise DsetreeError(f"malformed signature document {name}: {exc}; expected {shape}") from exc


def _load_spec(name: str, order: int) -> dse.DSESpec:
    if name in dse.BUILTIN_SPECS:
        return dse.BUILTIN_SPECS[name](order)
    loaded = dse.load_spec(name)
    return dse.DSESpec(loaded.terms, order, name=loaded.name)


def _cmd_solve(args: argparse.Namespace) -> int:
    _check_range("--order", args.order, dse.MAX_ORDER)
    spec = _load_spec(args.spec, args.order)
    series = dse.solve(spec)
    try:
        if args.format == "structured":
            out = json.dumps(dse.series_to_dict(spec, series), indent=2, sort_keys=True)
        else:
            out = series.text()
    except ValueError as exc:  # str() of an int longer than Python's digit limit
        limit = sys.get_int_max_str_digits()
        raise SizeLimit(f"a coefficient of the solution exceeds the {limit}-digit limit for printing an integer") from exc
    print(out)
    return 0


def _signature_for_enumeration(args: argparse.Namespace) -> ptrees.Signature:
    # The untruncated stable signature needs arity up to the leaf target.
    if args.signature == "stable" and args.by == "leaves":
        return ptrees.stable_signature(max(2, args.n))
    return _load_signature(args.signature)


def _cmd_enumerate(args: argparse.Namespace) -> int:
    _check_enum_bounds(args)
    if args.node_bound is not None:
        _check_range("--node-bound", args.node_bound, MAX_NODE_BOUND)
    if args.signature == "comb":
        if args.by != "nodes":
            raise SystemExit(_usage_error("combinatorial trees are enumerated by nodes"))
        _check_range("--n", args.n, MAX_NODE_BOUND, " for comb", low=1)
        codes = sorted(t.code for t in trees.enumerate_comb_trees(args.n))
    else:
        sig = _signature_for_enumeration(args)
        if args.by == "nodes":
            codes = ptrees.enumerate_by_nodes(sig, args.n, build=ptrees._codes)
        else:
            codes = ptrees.enumerate_by_leaves(sig, args.n, args.node_bound, build=ptrees._codes)
    if args.format == "structured":
        print(json.dumps({"count": len(codes), "trees": codes}, indent=2))
    else:
        sys.stdout.writelines("\n".join(codes[i:i + WRITE_BLOCK]) + "\n" for i in range(0, len(codes), WRITE_BLOCK))
        print(f"total: {len(codes)}")
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    _check_enum_bounds(args)
    k = args.n if args.by == "nodes" else args.n - 1  # by leaves, alpha^k counts k + 1 leaves
    series = dse.solve(dse.spec_from_signature(_signature_for_enumeration(args), args.by, max(k, 0)))
    items = [(code, int(c)) for code, c in series.coeffs[k].rows()] if k >= 0 else []
    if args.format == "structured":
        print(json.dumps(dict(items), indent=2, sort_keys=True))
    else:
        for code, count in items:
            print(f"{code} {count}")
    return 0


def _cmd_green(args: argparse.Namespace) -> int:
    _check_range("--bound", args.bound, MAX_NODE_BOUND)
    graded = ptrees.by_leaves(_load_signature(args.signature), args.bound, build=ptrees._codes)
    payload = {f"g_{n}": codes for n, codes in graded.items()}
    if args.format == "structured":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for key, codes in payload.items():
            print(f"{key} = " + " + ".join(codes))
    return 0


_HOPF_LAWS = {
    "coassoc": hopf.check_coassociativity,
    "counit": hopf.check_counit,
    "antipode": hopf.check_antipode,
    "cocycle": hopf.check_cocycle,
}


_TREE_LAWS = {
    "op-coassoc": opbialg.check_op_coassociativity,
    "core-hom": opbialg.check_core_homomorphism,
    "faa-di-bruno": opbialg.check_faa_di_bruno,
    "op-cocycle": opbialg.cocycle_counterexample,  # the first counterexample, or None
    "lambek": wtypes.lambek_check,
    "computation": lambda sig, bound: wtypes.check_computation_rules(sig, _code_algebra(sig), bound),
}


def _cmd_check(args: argparse.Namespace) -> int:
    law = args.law
    if law in _HOPF_LAWS:
        _check_range("--degree", args.degree, MAX_NODE_BOUND)
        result = _HOPF_LAWS[law](args.degree)
        print(result.summary() + f" [degree <= {args.degree}]")
        return 0 if result.passed else 1
    _check_range("--bound", args.bound, MAX_NODE_BOUND)
    result = _TREE_LAWS[law](_load_signature(args.signature), args.bound)
    if isinstance(result, report.CheckReport):
        print(result.summary() + f" [bound <= {args.bound}]")
        return 0 if result.passed else 1
    if result is None:
        print(f"PASS (node-builder cocycle, bound {args.bound}): no counterexample found")
        return 0
    print(f"FAIL (node-builder cocycle): {result.describe()}")
    return 1


def _code_algebra(sig: ptrees.Signature) -> wtypes.FoldAlgebra:
    # Rebuilds each tree's code, so a fold that feeds any slot the wrong child is caught.
    return wtypes.FoldAlgebra("|", {op.name: (lambda *vs, op=op: "".join(ptrees._codes(op, [vs]))) for op in sig.ops})


def _cmd_fold_demo(args: argparse.Namespace) -> int:
    _check_range("--n", args.n, MAX_NODE_BOUND)
    if args.demo == "nat":
        sig = ptrees.identity_signature()
        alg = wtypes.FoldAlgebra(nil_value=0, interp={"s": lambda v: v + 1})
        shown = [t for k in range(args.n + 1) for t in ptrees.enumerate_by_nodes(sig, k)]  # s^k(|), k = 0..n
    else:
        sig = _load_signature(args.signature)
        # node-count adds one per operation node; leaf-count adds up the nil leaves.
        nil, per_node = (0, 1) if args.demo == "node-count" else (1, 0)
        alg = wtypes.FoldAlgebra(nil, {op.name: (lambda *vs: per_node + sum(vs)) for op in sig.ops})
        shown = ptrees.enumerate_by_nodes(sig, args.n)
    for t in shown:
        print(f"{t.code} -> {wtypes.fold(sig, alg, t)}")
    return 0


def _check_enum_bounds(args: argparse.Namespace) -> None:
    _check_range("--n", args.n, ptrees.MAX_LEAVES if args.by == "leaves" else MAX_NODE_BOUND, f" for {args.by}")


def _check_range(flag: str, value: int, bound: int, suffix: str = "", low: int = 0) -> None:
    if not low <= value <= bound:
        raise SystemExit(_usage_error(f"{flag} must lie in {low}..{bound}{suffix}"))


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsetree",
        description="Tree-valued fixpoint equations, operadic trees, and their bialgebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a fixpoint equation order by order")
    p.add_argument("--spec", required=True, help="builtin name (linear, quadratic, geometric) or JSON path")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--format", choices=["text", "structured"], default="text")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("enumerate", help="enumerate trees of a given size")
    p.add_argument("--signature", required=True,
                   help="identity, binary, list[:K], stable[:K], comb, or JSON path")
    p.add_argument("--by", choices=["nodes", "leaves"], default="nodes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--node-bound", type=int, default=None,
                   help="required for leaf enumeration with nullary/unary operations")
    p.add_argument("--format", choices=["text", "structured"], default="text")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("census", help="count trees of a given size grouped by core")
    p.add_argument("--signature", required=True)
    p.add_argument("--by", choices=["nodes", "leaves"], default="nodes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["text", "structured"], default="text")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("green", help="Green function graded by leaf count")
    p.add_argument("--signature", required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--format", choices=["text", "structured"], default="text")
    p.set_defaults(func=_cmd_green)

    p = sub.add_parser("check", help="run an algebraic law check")
    p.add_argument("--law", required=True, choices=[*_HOPF_LAWS, *_TREE_LAWS])
    p.add_argument("--degree", type=int, default=4, help="degree bound for forest laws")
    p.add_argument("--bound", type=int, default=3, help="node/stage bound for tree laws")
    p.add_argument("--signature", default="binary")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("fold-demo", help="evaluate sample fold algebras")
    p.add_argument("--demo", choices=["nat", "node-count", "leaf-count"], required=True)
    p.add_argument("--signature", default="binary")
    p.add_argument("--n", type=int, default=3)
    p.set_defaults(func=_cmd_fold_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:  # the reader closed stdout early, as `| head` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the flush at exit stays quiet
        return 0
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        return _usage_error(f"cannot open {exc.filename}")
    except DsetreeError as exc:  # any other exception is a defect, and propagates
        return _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
