"""Heavy-tier benchmark: whole law checks far above the perfbench workloads.

    python3 tools/heavy_tier.py --side before=PATH --side after=. [--runs 3] \
        [--command "check --law op-coassoc --signature stable:4 --bound 5"] [--out FILE]

Every run is a fresh interpreter that imports ``dsetree.cli`` from ``PATH/src``
and runs one CLI command in process, with stdout captured.  The import and
the command are each timed by ``perfbench.worker.timed`` of the checkout this
script lives in: a run reports the import's calibrated seconds (``import_s``),
and the command's wall seconds and seconds calibrated against that module's
probe.  A run also records its exit code, the sha256 of its stdout, its
peak RSS (``ru_maxrss``) and its work counts (``counts``, see
``tools/work_counts.py``): what each cut table the command made holds when
it ends, and the enumeration cache's hits and misses.  Those tables stay
alive until the command ends, as they do anyway in the law checks timed
here.  Runs go one at a time; in each repetition the sides take turns at
going first.

The JSON result (stdout, or ``--out``) maps each command to, per side, the
medians of its runs, then the calibrated speed-up of the last side over the
first and every raw run.  The script exits 1, naming the command, when the
runs of a command do not all give the same exit code and stdout digest, so a
pair whose outputs differ never reads as a speed-up.  Without ``--command``
the two stable:4 checks at bound 5, the antipode check at degree 8 and the
Faa di Bruno check over stable:3 at bound 5 are run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = (
    "check --law op-coassoc --signature stable:4 --bound 5",
    "check --law core-hom --signature stable:4 --bound 5",
    "check --law antipode --degree 8",
    "check --law faa-di-bruno --signature stable:3 --bound 5",
)


def run_one(src: str, command: str) -> dict:
    """Run ``command`` in this process against the ``dsetree`` under ``src``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.insert(0, str(ROOT / "tools"))
    sys.path.insert(0, src)
    from work_counts import counts, recording
    from worker import timed

    cli, _, import_s = timed(lambda: importlib.import_module("dsetree.cli"))
    out = io.StringIO()

    def step():
        with contextlib.redirect_stdout(out):
            try:
                return cli.main(command.split())
            except SystemExit as exc:
                return exc.code

    with recording() as tables:
        code, wall, calibrated = timed(step)
    return {
        "command": command,
        "exit": code,
        "import_s": round(import_s, 4),
        "wall_s": round(wall, 3),
        "calibrated_s": round(calibrated, 3),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "stdout_sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
        "counts": counts(tables),
    }


def spawn(checkout: Path, command: str) -> dict:
    """Run one command in a fresh interpreter; return its record."""
    src = str((checkout / "src").resolve())
    proc = subprocess.run(
        [sys.executable, __file__, "--one", src, "--command", command],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def summary(records: list[dict]) -> dict:
    return {
        "import_s": median(r["import_s"] for r in records),
        "calibrated_s": median(r["calibrated_s"] for r in records),
        "wall_s": median(r["wall_s"] for r in records),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in records),
        "runs": len(records),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", action="append", default=[], metavar="NAME=PATH",
                        help="a checkout to run, named in the result; give one or more")
    parser.add_argument("--command", action="append", help="a dsetree CLI command line")
    parser.add_argument("--runs", type=int, default=3, help="runs per side and command")
    parser.add_argument("--out", help="write the JSON result here instead of stdout")
    parser.add_argument("--one", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args()
    commands = args.command or list(COMMANDS)
    if args.one:
        print(json.dumps(run_one(args.one, commands[0])))
        return 0
    if not args.side:
        parser.error("give at least one --side NAME=PATH")
    sides = [tuple(spec.split("=", 1)) for spec in args.side]
    result, differ = {}, []
    for command in commands:
        raw = []
        for rep in range(args.runs):
            order = sides if rep % 2 == 0 else sides[::-1]
            for name, path in order:
                record = spawn(Path(path), command)
                raw.append({"side": name, "rep": rep, "result": record})
                print(f"{name} rep {rep}: import {record['import_s']} s, {record['calibrated_s']} s calibrated, "
                      f"{record['peak_rss_mb']} MB, exit {record['exit']}", file=sys.stderr)
        entry = {name: summary([r["result"] for r in raw if r["side"] == name]) for name, _ in sides}
        if len(sides) > 1:
            first, last = entry[sides[0][0]], entry[sides[-1][0]]
            if last["calibrated_s"]:  # a run too short to time gives no ratio
                entry["speedup_calibrated"] = round(first["calibrated_s"] / last["calibrated_s"], 2)
        entry["raw"] = raw
        result[command] = entry
        if len({(r["result"]["exit"], r["result"]["stdout_sha256"]) for r in raw}) > 1:
            differ.append(command)
    text = json.dumps(result, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    for command in differ:
        print(f"the runs of {command!r} differ in exit code or stdout digest", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
