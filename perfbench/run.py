"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Each worker is a fresh process (see
worker.py), so its first pass meets empty caches as a CLI user does.  One
worker runs at a time: a closed loop with one client.

--trace 0  Set-up-only workers, then full workers (set-up, cold pass, warm
           pass) back to back until --seconds have passed.
           Reports the medians of setup_s, cold_s, warm_s and peak_rss_mb.
--trace 1  One untraced full worker and two traced ones.  Reports the
           per-layer metrics, checks that both traced runs give the same
           counts and the same stdout as the untraced run, and reports the
           tracing overhead.  It does a fixed amount of work.

A table goes to stdout first; the last line is the JSON result.  Every run
also writes .perfbench_out/result-<workload>-seed<seed>-trace<t>.json with the
raw samples and the Python version, nproc and CPU model.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import tracer
import workloads
from worker import OUT_DIR, ROOT

SETUP_PROBES = 7
RUN_LIMIT_S = 170  # a run must end within 180 s


class BenchmarkError(Exception):
    """The benchmark could not measure; no result is printed."""


def run_worker(workload: str, seed: int, mode: str, deadline: float, tag: str = "0") -> tuple[dict, float]:
    """Run one worker process; return its JSON result and its wall time."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    worker = Path(__file__).resolve().with_name("worker.py")
    cmd = [sys.executable, str(worker), "--workload", workload, "--seed", str(seed), "--mode", mode, "--tag", tag]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} worker did not finish within the run's time limit") from exc
    wall = time.monotonic() - start
    if proc.returncode != 0:
        raise BenchmarkError(f"{mode} worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    try:
        return json.loads(proc.stdout.splitlines()[-1]), wall
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchmarkError(f"{mode} worker printed no result: {proc.stdout[-500:]!r}") from exc


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu_model": cpu,
            "platform": platform.platform()}


def measure(workload: str, seed: int, seconds: int, deadline: float) -> tuple[dict, list[dict], dict]:
    """Untraced run: return metric values, every check made, and the raw samples."""
    start = time.monotonic()
    run_worker(workload, seed, "setup", deadline)  # warm-up: fills the file and bytecode caches
    setups = [run_worker(workload, seed, "setup", deadline)[0] for _ in range(SETUP_PROBES)]
    fulls, walls = [], []
    while True:
        result, wall = run_worker(workload, seed, "full", deadline)
        fulls.append(result)
        walls.append(wall)
        if time.monotonic() - start >= seconds or time.monotonic() + max(walls) > deadline:
            break
    samples = {"setup_s": [r["setup_s"] for r in setups + fulls],
               "setup_wall_s": [r["setup_wall_s"] for r in setups + fulls]}
    for name in ("cold_s", "cold_wall_s", "warm_s", "warm_wall_s", "peak_rss_mb"):
        samples[name] = [r[name] for r in fulls]
    values = {name: median(xs) for name, xs in samples.items()}
    return values, [c for r in fulls for c in r["checked"]], samples


def trace(workload: str, seed: int, deadline: float) -> tuple[dict, list[dict], dict]:
    """Traced run: return per-layer metric values, every check made, and the raw samples."""
    base, _ = run_worker(workload, seed, "full", deadline)
    traced = [run_worker(workload, seed, "traced", deadline, tag=str(i))[0] for i in range(2)]
    if traced[0]["counts"] != traced[1]["counts"]:
        differ = sorted(k for k in traced[0]["counts"].keys() | traced[1]["counts"].keys()
                        if traced[0]["counts"].get(k) != traced[1]["counts"].get(k))
        raise BenchmarkError(f"counts differ between two traced runs: {differ}")
    checks = list(base["checked"])
    base_digests = {c["key"]: c["digest"] for c in base["checked"][: len(traced[0]["checked"])]}
    for run in traced:
        for c in run["checked"]:
            if c["digest"] != base_digests[c["key"]]:
                c["problems"].append(f"{c['key']}: traced stdout differs from the untraced run")
            checks.append(c)
    self_s = {name: median(run["self_s"].get(name, 0.0) for run in traced) for name in traced[0]["self_s"]}
    values = tracer.layer_metrics(self_s, traced[0]["counts"])
    traced_cold = median(run["cold_s"] for run in traced)
    values["trace.overhead_s"] = traced_cold - base["cold_s"]
    samples = {"untraced_cold_s": base["cold_s"], "traced_cold_s": [run["cold_s"] for run in traced],
               "spans": traced[0]["spans"], "counts": traced[0]["counts"], "self_s": self_s}
    return values, checks, samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="dsetree benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dsetree" / "cli.py").is_file():
        print(f"error: no dsetree sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            values, checks, samples = trace(args.workload, args.seed, deadline)
        else:
            values, checks, samples = measure(args.workload, args.seed, args.seconds, deadline)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    except (BenchmarkError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ROOT / Path(workloads.EQUATION_PATH).parent, ignore_errors=True)

    problems = [p for c in checks for p in c["problems"]]
    failed = sum(1 for c in checks if c["problems"])
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:36} {m['value']:>16.6f} {m['unit']}")
    for name in sorted(values.keys() - metrics.keys()):
        print(f"  {name:36} {values[name]:>16.6f} s (uncalibrated)")
    print(f"  {'failed_frac':36} {failed / len(checks):>16.6f} ratio ({failed} of {len(checks)} commands)")

    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "metrics": metrics, "attempted": len(checks),
              "failed": failed, "problems": problems, "samples": samples}
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": len(checks), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
