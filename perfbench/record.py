"""Record every benchmark command's exit code and stdout digest in expected.json.

Run it from the checkout root at a commit whose output is known good:

    python3 perfbench/record.py

It refuses to record when an independent fact about an output fails.
"""

from __future__ import annotations

import json
import sys

import oracle
import workloads
from worker import ROOT, run_pass

SEED = 1


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from dsetree import cli

    expected = {}
    for name, commands in workloads.WORKLOADS.items():
        workloads.prepare(name, SEED, ROOT)
        *_, records = run_pass(cli.main, commands, lambda key, code, text, err: (
            key, code, oracle.output_digest(name, key, text), oracle.check_facts(name, key, text, SEED)
        ))
        problems = [p for *_, found in records for p in found]
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        expected[name] = {key: {"exit": code, "sha256": digest} for key, code, digest, _ in records}
    oracle.EXPECTED_PATH.write_text(json.dumps(expected, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
