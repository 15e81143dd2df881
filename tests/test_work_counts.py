"""The work of every benchmark command, counted off its cut tables, is the committed work.

A change that makes the commands do more or less work updates ``work_counts.json``
(``python3 tools/work_counts.py --write tests/work_counts.json``) and says so.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from work_counts import workload_counts  # noqa: E402


def test_benchmark_commands_do_the_committed_work(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    expected = json.loads((ROOT / "tests" / "work_counts.json").read_text(encoding="utf-8"))
    assert workload_counts() == expected
