"""Work counts of dsetree commands, read off the cut tables each command fills.

    python3 tools/work_counts.py [--src PATH] [--write FILE]

Runs every command of ``perfbench/workloads.py`` in this process against the
``dsetree`` under ``PATH`` (this checkout's ``src`` by default), workload by
workload in a scratch directory, and prints (or writes to FILE) one JSON object
that maps ``workload/command`` to the command's counts.  A command's counts are
one entry per ``table.Table`` it made, in the order they were made:

- ``ids``: the trees and forests numbered
- ``trees_cut`` and ``cuts``: the trees whose cuts were filled, and their cuts
- ``edge_sets``: the antipode's edge sets (``Table.edge_cuts``)
- ``objects``: the ids that hold an object, met or built

and ``graded``, the ``cache_info()`` of ``ptrees._graded`` after the command;
the cache is emptied before each workload, as a fresh process starts it.  The
counts do not depend on the machine or its speed, so two checkouts that do the
same work give the same counts.  ``tests/work_counts.json`` holds those of the
committed code, and ``tools/heavy_tier.py`` records them per run.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@contextlib.contextmanager
def recording():
    """Collect every cut table made inside the block; each stays alive until the block ends.
    Call it after importing ``dsetree.cli``.  A ``dsetree`` without the ``table`` module, such as
    one from before the cut table left ``hopf``, records none, so its ``tables`` lists are empty."""
    tables, table = [], sys.modules.get("dsetree.table")
    if table is None:
        yield tables
        return
    init = table.Table.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tables.append(self)

    table.Table.__init__ = recorded
    try:
        yield tables
    finally:
        table.Table.__init__ = init


def table_counts(ids) -> dict:
    filled = [c for c in ids.cuts if c is not None]
    return {
        "ids": len(ids.keys),
        "trees_cut": len(filled),
        "cuts": sum(len(c) for c in filled) // 2,
        "edge_sets": sum(map(len, ids.pieces.values())),
        "objects": sum(o is not None for o in ids.objs),
    }


def counts(tables) -> dict:
    """The counts of ``tables`` and the state of the enumeration cache, if ``dsetree.ptrees`` is loaded."""
    ptrees = sys.modules.get("dsetree.ptrees")
    info = ptrees._graded.cache_info() if ptrees else None
    return {
        "tables": [table_counts(ids) for ids in tables],
        "graded": info and {"hits": info.hits, "misses": info.misses, "currsize": info.currsize},
    }


def workload_counts(seed: int = 1) -> dict:
    """The counts of every benchmark command, run in the current directory with stdout discarded."""
    from dsetree import cli, ptrees

    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    result = {}
    with open(os.devnull, "w", encoding="utf-8") as sink:
        for workload, commands in workloads.WORKLOADS.items():
            workloads.prepare(workload, seed, Path.cwd())
            ptrees._graded.cache_clear()
            for name, argv in commands:
                with recording() as tables, contextlib.redirect_stdout(sink):
                    cli.main(list(argv))
                result[f"{workload}/{name}"] = counts(tables)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="the directory that holds the dsetree package")
    parser.add_argument("--write", metavar="FILE", help="write the JSON here instead of stdout")
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))
    here = Path.cwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            text = json.dumps(workload_counts(), indent=1) + "\n"
        finally:
            os.chdir(here)
    if args.write:
        Path(args.write).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
