"""The heavy-tier harness runs a command in a fresh process and records what the benchmark files quote."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMAND = "check --law coassoc --degree 2"


def test_heavy_tier_records_exit_digest_memory_and_times(tmp_path):
    out = tmp_path / "heavy.json"
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "heavy_tier.py"), "--side", f"here={ROOT}", "--runs", "1",
         "--command", COMMAND, "--out", str(out)],
        check=True, capture_output=True,
    )
    entry = json.loads(out.read_text())[COMMAND]
    (run,) = entry["raw"]
    record = run["result"]
    assert run["side"] == "here" and record["command"] == COMMAND and record["exit"] == 0
    assert len(record["stdout_sha256"]) == 64 and record["peak_rss_mb"] > 0
    assert record["wall_s"] >= 0 and record["calibrated_s"] >= 0
    assert record["import_s"] > 0 and entry["here"]["import_s"] == record["import_s"]
    assert entry["here"]["runs"] == 1
    # One cut table, whose work is the committed coassoc check's up to degree 2.
    (table,) = record["counts"]["tables"]
    assert table["ids"] > 0 and table["trees_cut"] == 2
    assert record["counts"]["graded"] == {"hits": 0, "misses": 0, "currsize": 0}


def test_heavy_tier_exits_1_naming_a_command_whose_sides_differ(tmp_path):
    fake = tmp_path / "fake" / "src" / "dsetree"
    fake.mkdir(parents=True)
    (fake / "__init__.py").write_text("")
    (fake / "cli.py").write_text("def main(argv):\n    print('other bytes')\n    return 0\n")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "heavy_tier.py"), "--side", f"here={ROOT}",
         "--side", f"fake={tmp_path / 'fake'}", "--runs", "1", "--command", COMMAND, "--out", str(tmp_path / "o.json")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == f"the runs of {COMMAND!r} differ in exit code or stdout digest"
