"""The committed ``BENCH_*.json`` files keep the shape every before/after record shares."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
ENVIRONMENT_KEYS = ("python", "nproc", "cpu_model", "platform")


def shape_problems(doc: dict) -> list[str]:
    """What a benchmark record lacks: a claim, before/after medians per workload, an environment."""
    problems = []
    if not doc.get("claim"):
        problems.append("no claim")
    summary = doc.get("summary")
    if not isinstance(summary, dict) or not summary:
        problems.append("no per-workload summary")
        summary = {}
    for workload, entry in summary.items():
        metrics = {name: m for name, m in entry.items() if isinstance(m, dict)}
        if not metrics:
            problems.append(f"{workload}: no metrics")
        for name, metric in metrics.items():
            for side in ("before", "after"):
                if not isinstance(metric.get(side, {}).get("median"), (int, float)):
                    problems.append(f"{workload}.{name}: no {side} median")
    environment = doc.get("environment")
    if not isinstance(environment, dict):
        problems.append("no environment")
    else:
        problems.extend(f"environment: no {key}" for key in ENVIRONMENT_KEYS if key not in environment)
    return problems


def test_committed_bench_files_keep_their_shape():
    assert BENCH_FILES
    for path in BENCH_FILES:
        assert shape_problems(json.loads(path.read_text())) == [], path.name


def test_shape_check_refuses_a_record_without_environment():
    for path in BENCH_FILES:
        doc = json.loads(path.read_text())
        del doc["environment"]
        assert shape_problems(doc) == ["no environment"], path.name
