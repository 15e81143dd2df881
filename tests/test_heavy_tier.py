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
