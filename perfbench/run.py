"""compedge benchmark: run a workload for a while and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every round runs in a fresh interpreter (``worker.py``), so compedge's
in-process memos start empty in each timed phase, as in a user's run.
Rounds repeat, whole, while another one fits in ``--seconds`` (at least
one runs).  With ``--trace 0`` the last line of output holds the
end-to-end metrics: the medians over rounds of the timed phase's wall
time, CPU time and peak resident memory, and the median set-up time over
the rounds and a few set-up-only interpreters.  With ``--trace 1`` it holds
the per-layer metrics of one traced round, the per-check times of one
untraced round, and the difference of their CPU times.

An operation fails when it raises or when the checks find its output
wrong; ``correct`` is false when some output was wrong.  The run exits
with a nonzero code, printing no result, when the compedge sources are
missing or a round crashes or overruns the time limit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import CHECK_NAMES, layer_metric_units

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SRC = HERE.parent / "src"

SETUP_SAMPLES = 7  # set-up-only interpreters per untraced run
TIME_LIMIT = 170.0  # seconds a run may take in all

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class RoundError(RuntimeError):
    pass


def spawn(args, deadline: float, *extra: str) -> dict:
    """Run one worker interpreter; its set-up time is measured from here."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise RoundError(f"round overran the {TIME_LIMIT:.0f} s limit") from exc
    if proc.returncode != 0:
        raise RoundError(f"worker exited with code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["start"] - spawned
    out["duration_s"] = time.perf_counter() - spawned
    return out


def measure(args, deadline: float) -> tuple[list[dict], list[float]]:
    rounds = []
    setups = [spawn(args, deadline, "--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES)]
    begin = time.perf_counter()
    while True:
        rounds.append(spawn(args, deadline))
        typical = statistics.median(r["duration_s"] for r in rounds)
        if time.perf_counter() - begin + typical > args.seconds:
            break
    return rounds, setups + [r["setup_s"] for r in rounds]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (SRC / "compedge" / "__init__.py").is_file():
        print(f"perfbench: compedge sources not found under {SRC}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + TIME_LIMIT

    try:
        if args.trace:
            rounds = [spawn(args, deadline), spawn(args, deadline, "--trace", "1")]
        else:
            rounds, setups = measure(args, deadline)
    except RoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    for r in rounds:
        for line in r["problems"]:
            print(f"perfbench: {args.workload}: {line}", file=sys.stderr)
    if args.trace:
        plain, traced = rounds
        units = layer_metric_units()
        values = dict(traced["layers"])
        values.update({f"check.{c}.s": plain["check_s"].get(c, 0.0) for c in CHECK_NAMES})
        values["trace.overhead_s"] = traced["cpu_s"] - plain["cpu_s"]
        if traced["absent"]:
            print(f"perfbench: absent from compedge: {', '.join(traced['absent'])}", file=sys.stderr)
    else:
        units = END_TO_END_UNITS
        values = {k: statistics.median(r[k] for r in rounds) for k in ("wall_s", "cpu_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(setups)
    result = {
        "correct": all(r["wrong"] == 0 for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
