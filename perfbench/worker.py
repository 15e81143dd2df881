"""One benchmark worker: a fresh process that runs a workload's commands.

Modes:
  setup   import dsetree and prepare the inputs, then stop
  full    set-up, a cold pass (every cache empty), then a warm pass
  traced  set-up, then one cold pass under the tracer

Every command goes through ``dsetree.cli.main`` in process with stdout
captured.  Each command is timed on its own and a pass's time is their sum,
so digesting and checking each output stay outside the timed region.  The
result is one JSON object on stdout.

The machine's speed drifts by up to 1.6x, in phases of seconds to minutes,
so every timing is also reported calibrated against a fixed probe of pure
Python run before, during and after each timed step (see ``timed``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import signal
import sys
import time
from math import gcd
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE_PROBE_S = 0.004  # the probe's typical time on a 2-vCPU Xeon with Python 3.11.7
SAMPLE_EVERY_S = 0.2


class _Node:
    """A canonical unordered tree built the way the program builds its own."""

    __slots__ = ("kids", "code")

    def __init__(self, kids):
        self.kids = tuple(sorted(kids, key=lambda n: n.code))
        self.code = "(" + "".join(n.code for n in self.kids) + ")"


def probe() -> float:
    """Time of a fixed piece of pure Python that touches no dsetree code.

    The garbage collector is paused so that the probe never collects the
    program's heap; the probe makes no reference cycles.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        leaf = _Node(())
        pool = [leaf, _Node((leaf,)), _Node((leaf, leaf)), _Node((_Node((leaf,)),)), _Node((leaf, _Node((leaf,))))]
        seen: dict = {}
        for i in range(2_000):
            node = _Node((pool[i % 5], pool[i * 7 % 5], pool[i // 5 % 5]))
            key = (node.code, i % 101)
            seen[key] = seen.get(key, 0) + gcd(i * 6, 360)
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def _mark(reps: int) -> tuple[float, float, float]:
    """Probe ``reps`` times; return (start, end, median probe time)."""
    start = time.perf_counter()
    estimate = median(probe() for _ in range(reps))
    return start, time.perf_counter(), estimate


def timed(step):
    """Run ``step()``; return its result, its wall time and its calibrated time.

    A timer signal runs the probe every SAMPLE_EVERY_S while the step runs.
    Each stretch between two probes is scaled by REFERENCE_PROBE_S over the
    mean of their times.  Probe time is left out of both results.
    """
    marks = [_mark(3)]
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: marks.append(_mark(1)))
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        result = step()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    marks.append(_mark(3))
    wall = calibrated = 0.0
    for (_, end0, est0), (start1, _, est1) in zip(marks, marks[1:]):
        wall += start1 - end0
        calibrated += (start1 - end0) * 2 * REFERENCE_PROBE_S / (est0 + est1)
    return result, wall, calibrated


def run_pass(main, commands, check) -> tuple[float, float, list[dict]]:
    """Run every command once.

    Returns the summed wall time, the summed calibrated time, and what
    ``check`` makes of each command.
    """
    elapsed = calibrated = 0.0
    records = []
    for key, argv in commands:
        out, err = io.StringIO(), io.StringIO()

        def command():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    return main(list(argv))
                except SystemExit as exc:
                    return exc.code
                except Exception as exc:  # recorded as a failed command; the pass goes on
                    return f"raised {type(exc).__name__}: {exc}"

        code, wall, scaled = timed(command)
        elapsed += wall
        calibrated += scaled
        records.append(check(key, code, out.getvalue(), err.getvalue()))
    return elapsed, calibrated, records


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["setup", "full", "traced"], required=True)
    parser.add_argument("--tag", default="0", help="distinguishes span files of one run")
    args = parser.parse_args()

    import workloads

    sys.path.insert(0, str(ROOT / "src"))

    def setup():
        import dsetree.cli

        workloads.prepare(args.workload, args.seed, ROOT)
        return dsetree

    dsetree, setup_wall, setup_s = timed(setup)
    result: dict = {"setup_wall_s": setup_wall, "setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    import oracle
    import tracer as tracing

    commands = workloads.WORKLOADS[args.workload]
    expected = oracle.load_expected()

    def check(key, code, text, err):
        digest = oracle.output_digest(args.workload, key, text)
        problems = oracle.check_digest(expected, args.workload, key, code, digest)
        problems += oracle.check_facts(args.workload, key, text, args.seed)
        if problems and err:
            problems.append(f"{key}: stderr {err[-500:]!r}")
        return {"key": key, "digest": digest, "bytes": len(text.encode("utf-8")), "problems": problems}

    tracer = None
    if args.mode == "traced":
        # Outputs are checked after the pass, so the checks are not traced.
        tracer = tracing.Tracer(dsetree)
        tracer.install()
        try:
            result["cold_wall_s"], result["cold_s"], raw = run_pass(dsetree.cli.main, commands, lambda *rec: rec)
        finally:
            tracer.uninstall()
        cold = [check(*rec) for rec in raw]
    else:
        result["cold_wall_s"], result["cold_s"], cold = run_pass(dsetree.cli.main, commands, check)
    result["checked"] = cold
    if args.mode == "full":
        result["warm_wall_s"], result["warm_s"], warm = run_pass(dsetree.cli.main, commands, check)
        result["checked"] += warm
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is not None:
        result["self_s"] = tracer.self_times()
        result["counts"] = tracer.counts()
        result["counts"]["cli.output_bytes"] = sum(rec["bytes"] for rec in cold)
        result["spans"] = len(tracer.span_start)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"spans-{args.workload}-{args.tag}.txt")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
